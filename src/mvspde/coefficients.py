"""Drift coefficient families and their effective constants.

A :class:`CoefficientSet` bundles the three drift maps of the model:

    B(x, mu_stat)        single-scale mean-field drift
    F(x, mu_stat, y)     slow drift of the two-scale system
    G(x, mu_stat, y)     fast drift of the two-scale system

All three are vectorised over leading axes: ``x`` and ``y`` are arrays whose
last axis is the mode axis, and the measure argument enters only through the
scalar statistic ``mu_stat`` = (mu |.|^p)^(1/p) of the current empirical law.
A batch of independent systems, x of shape (R, M, n_modes), passes one
statistic per system as an array of shape (R, 1, 1) that broadcasts
against x; a single system passes a float.
Routing the measure dependence through a 1-Lipschitz scalar functional keeps
the advertised Lipschitz constants exact: |mu_stat - nu_stat| <= W_p(mu, nu)
for any pair of laws, by coupling.

Two families ship with the package:

* ``bounded_smooth`` — saturating drifts built from tanh.  Satisfies every
  standing assumption (bounded F, global Lipschitz, strong dissipativity
  for |c| < lambda_1) and is the default for simulations and rate studies.
* ``linear_test`` — F(x, mu, y) = y, G = a x + c y, B = a x.  Linear, so the
  frozen (fast-variable) equation and the averaged drift have closed forms;
  used as the analytic oracle.  F is unbounded, so estimators that need
  bounded test functions refuse it.

Where the fast drift is affine in y with slope c, the frozen equation is an
alpha-stable Ornstein-Uhlenbeck system: mode k relaxes at rate
``lambda_k - c`` toward ``G_k(x, mu, 0) / (lambda_k - c)`` and its stationary
law is that point shifted by ``gamma_k / (alpha (lambda_k - c))**(1/alpha)``
times a standard alpha-stable variable.  Each family exposes the resulting
exact averaged drift through ``fbar_factory``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .spectral import AssumptionCheck, ConfigError, OperatorSpec, ValidationReport, validate_spec
from .noise import RngStream, CH_PROBE, stable_quadrature_rule, weighted_row_sums
from .measures import p_moment, wasserstein_exact

__all__ = [
    "CoefficientSet",
    "BuiltinFamily",
    "bounded_smooth",
    "linear_test",
    "FAMILY_KEYS",
    "build_family",
    "ProbeReport",
    "probe_lipschitz",
    "EffectiveConstants",
    "effective_constants",
    "dissipativity_gap",
    "check_bounded_drift",
    "averaged_drift",
    "assumption_report",
]


@dataclass(frozen=True)
class CoefficientSet:
    """Drift maps plus their declared analytic constants.

    ``lip_C`` bounds B and F in every argument slot (state, measure,
    fast variable) and G in its state and measure slots; ``lip_G_y`` is
    G's Lipschitz constant in the fast variable alone — the number that
    competes with the spectral gap in the dissipativity condition.
    ``p`` is the moment order of the measure statistic the maps consume;
    it must match the operator spec the set is used with.

    ``fbar_factory(spec)``, when present, returns the exact averaged slow
    drift ``(x, mu_stat) -> field`` obtained by integrating F against the
    stationary law of the frozen equation.

    ``y_modes``, when set, is the number of leading modes through which F
    and G read the fast variable: F and G then accept a fast field holding
    only those modes (G returns a field shaped like y), and the fast modes
    past them are an Ornstein-Uhlenbeck process nothing observes.  None
    means all modes.

    ``recipe`` is the ``(BuiltinFamily, spec)`` pair a built-in set was
    built from, and is how the set crosses process boundaries: pickling
    rebuilds it from the recipe, and a set without one (hand-built, or
    derived by ``dataclasses.replace``, which drops it) refuses to pickle.
    """

    variant: str
    B: Callable
    F: Callable
    G: Callable
    lip_C: float
    lip_G_y: float
    p: float
    bound_const: float
    fbar_factory: Callable | None = None
    y_modes: int | None = None
    recipe: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __reduce__(self):
        if self.recipe is None:
            raise TypeError(
                f"coefficient set {self.variant!r} has no BuiltinFamily recipe: "
                "its closures cannot cross process boundaries"
            )
        return BuiltinFamily.build, self.recipe

    @property
    def F_bounded(self) -> bool:
        """Whether the slow drift F is bounded: ``bound_const`` is finite."""
        return bool(np.isfinite(self.bound_const))


def bounded_smooth(
    spec: OperatorSpec,
    a: float = 1.0,
    b_mu: float = 0.5,
    c: float = 0.5,
    n_active: int | None = None,
) -> CoefficientSet:
    """Saturating tanh drifts on the first ``n_active`` modes.

        F_k(x, mu, y) = a tanh(x_k + y_k) [k <= K] + b_mu min(1, mu_stat) [k = 1]
        G_k(x, mu, y) = a tanh(x_k) [k <= K] + c y_k
        B = F(., ., 0)

    K defaults to min(4, n_modes).  F is bounded by a sqrt(K) + b_mu; the
    joint Lipschitz constant is max(a, b_mu) (tanh is 1-Lipschitz and the
    measure statistic enters through min(1, .)); G is Lipschitz with
    constant max(a, |c|) and its y-slope is exactly c.

    F reads y on the first K modes only (``y_modes`` = K) and evaluates
    tanh there; its other modes hold +0.0 before the measure term, as
    ``a tanh(.) * 0.0 + 0.0`` does.  G evaluates tanh on as many modes as
    y holds and returns a field shaped like y.
    """
    if a <= 0:
        raise ConfigError(f"a must be positive, got {a}", "/coefficients/a")
    if b_mu < 0:
        raise ConfigError(f"b_mu must be >= 0, got {b_mu}", "/coefficients/b_mu")
    k_act = min(4, spec.n_modes) if n_active is None else int(n_active)
    if not (1 <= k_act <= spec.n_modes):
        raise ConfigError(f"K must lie in [1, n_modes = {spec.n_modes}], got {n_active}",
                          "/coefficients/K")
    active = np.zeros(spec.n_modes)
    active[:k_act] = 1.0
    e1 = np.zeros(spec.n_modes)
    e1[0] = 1.0

    def F(x, mu_stat, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.add(x[..., :k_act], y[..., :k_act] if y.ndim else y)
        np.tanh(out, out=out)
        out *= a
        return _first_modes(out, e1, b_mu, mu_stat)

    def G(x, mu_stat, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = y.shape[-1] if y.ndim else None
        out = np.tanh(x[..., :n])
        out *= a
        if out.shape[-1] > k_act:  # the all-ones mask of a head-only y is skipped
            out *= active[:n]
        return out + c * y

    def B(x, mu_stat):
        return F(x, mu_stat, 0.0)

    def fbar_factory(op_spec: OperatorSpec):
        return _tanh_fbar(op_spec, a=a, b_mu=b_mu, c=c, k_act=k_act)

    return CoefficientSet(
        variant="bounded_smooth",
        B=B,
        F=F,
        G=G,
        lip_C=max(a, b_mu),
        lip_G_y=abs(c),
        p=spec.p,
        bound_const=a * np.sqrt(k_act) + b_mu,
        fbar_factory=fbar_factory,
        y_modes=k_act,
    )


def linear_test(spec: OperatorSpec, a: float = 1.0, c: float = 0.5) -> CoefficientSet:
    """Linear oracle family: F = y, G = a x + c y, B = a x.

    Everything about the frozen and averaged dynamics is closed-form here:
    frozen mode k relaxes at rate lambda_k - c toward a x_k / (lambda_k - c),
    and since F just reads off the fast variable, the averaged drift is that
    fixed point.  F is unbounded, so this family is for oracle tests, not
    for heavy-tail-sensitive estimators.
    """

    def F(x, mu_stat, y):
        y = np.asarray(y, dtype=float)
        return y + np.zeros_like(np.asarray(x, dtype=float))

    def G(x, mu_stat, y):
        return a * np.asarray(x, dtype=float) + c * np.asarray(y, dtype=float)

    def B(x, mu_stat):
        return a * np.asarray(x, dtype=float)

    def fbar_factory(op_spec: OperatorSpec):
        kappa = op_spec.eigenvalues - c
        if np.any(kappa <= 0):
            raise ValueError(
                f"frozen relaxation rates must be positive; min(lambda_k) - c = "
                f"{op_spec.lambda_1 - c:.6g}"
            )

        def fbar(x, mu_stat):
            return a * np.asarray(x, dtype=float) / kappa

        return fbar

    return CoefficientSet(
        variant="linear_test",
        B=B,
        F=F,
        G=G,
        lip_C=max(1.0, abs(a)),
        lip_G_y=abs(c),
        p=spec.p,
        bound_const=np.inf,
        fbar_factory=fbar_factory,
    )


def _first_modes(head, e1, b_mu, mu_stat):
    """A field of len(e1) modes: ``head`` on the leading ones, +0.0 on the
    rest, plus b_mu min(1, mu_stat) e1 on every mode, summed in place."""
    out = np.zeros(head.shape[:-1] + e1.shape)
    out[..., :head.shape[-1]] = head
    out += (b_mu * np.minimum(1.0, mu_stat)) * e1
    return out


def _tiler(vec):
    """shape -> ``vec`` broadcast along the mode axis to that shape, as a
    read-only C-ordered array built once per shape: a full-shape operand
    keeps a per-step product elementwise, with no short vector per row."""
    @functools.lru_cache(maxsize=8)
    def tile(shape):
        out = np.broadcast_to(vec, shape).copy()
        out.flags.writeable = False
        return out

    return tile


class StackedInterp:
    """Linear interpolation of K tables on one uniform grid, as one gather per call.

    ``tables[k]`` holds values on ``grid``; called with u of shape (..., K),
    it interpolates u[..., k] in table k as slope[j] * u + icept[j], with
    the segment j read off the uniform grid by arithmetic.  Beyond either
    end a flat segment returns that end value exactly, and NaN gives NaN.
    Inside the grid the value is np.interp's up to rounding: the intercept
    form, and a segment picked one off where u sits on a node, move it by
    a few ulp of the terms slope * u and icept.
    """

    def __init__(self, grid, tables):
        grid = np.asarray(grid, dtype=float)
        table = np.asarray(tables, dtype=float)
        n = grid.size
        step = (grid[-1] - grid[0]) / (n - 1)
        # u is clipped to one step beyond either end, and t = (u - origin) / step
        # lies in [0, n + 1]: flat segment 0 below the grid, interior segment i
        # at t in [i + 1, i + 2), flat segments n and n + 1 above the grid
        self.origin, self.top = grid[0] - step, grid[-1] + step
        self.inv_step = 1.0 / step
        slope = np.diff(table, axis=1) / np.diff(grid)
        flat = np.zeros((table.shape[0], 1))
        self.slopes = np.hstack([flat, slope, flat, flat]).reshape(-1)
        self.icepts = np.hstack([table[:, :1], table[:, :-1] - slope * grid[:-1],
                                 table[:, -1:], table[:, -1:]]).reshape(-1)
        self.offsets = _tiler((n + 2) * np.arange(table.shape[0]))

    def __call__(self, u):
        u = np.maximum(u, self.origin)
        np.minimum(u, self.top, out=u)  # np.clip's bits, NaN kept, without its wrapper
        t = np.subtract(u, self.origin)
        t *= self.inv_step
        np.fmax(t, 0.0, out=t)  # NaN -> 0, whose 0 * NaN + end value is NaN
        j = t.astype(np.intp)
        j += self.offsets(j.shape)
        out = self.slopes.take(j)
        out *= u
        out += self.icepts.take(j)
        return out


# fbar evaluators keyed by (spectrum, family) parameters: building the
# quadrature tables costs ~a second, and forked workers inherit warm entries
_FBAR_TABLE_CACHE: dict = {}


def _tanh_fbar(spec: OperatorSpec, a: float, b_mu: float, c: float, k_act: int):
    """Exact averaged drift for the tanh family via stable quadrature tables.

    With G affine in y (slope c), frozen mode k is stationary at
    m_k = a tanh(x_k) / (lambda_k - c) shifted by zeta_k S, where
    zeta_k = gamma_k / (alpha (lambda_k - c))**(1/alpha).  Averaging the
    slow drift over that law needs Phi_zeta(u) = E[tanh(u + zeta S)], which
    is precomputed on a grid per distinct zeta (row-blocked fixed-order
    sums, so no BLAS thread count reaches the bits) and linearly
    interpolated, all K active modes in one :class:`StackedInterp` gather.
    Outside the grid Phi is clamped to its end values; the clamp error is
    bounded by the stable tail mass beyond the grid edge, ~ (zeta/40)^alpha.
    """
    cache_key = (
        spec.n_modes, spec.a, spec.g, spec.c_lambda, spec.c_gamma, spec.alpha,
        a, b_mu, c, k_act,
    )
    if cache_key in _FBAR_TABLE_CACHE:
        return _FBAR_TABLE_CACHE[cache_key]
    lam = spec.eigenvalues
    kappa = lam - c
    if np.any(kappa[:k_act] <= 0):
        raise ValueError(
            f"frozen relaxation rates must be positive on active modes; "
            f"lambda_1 - c = {spec.lambda_1 - c:.6g}"
        )
    zeta = spec.fast_amplitudes / (spec.alpha * np.abs(kappa)) ** (1.0 / spec.alpha)
    nodes, weights = stable_quadrature_rule(spec.alpha)
    u_grid = np.arange(-40.0, 40.0 + 1e-12, 0.02)
    keys = [round(float(zeta[k]), 12) for k in range(k_act)]
    tables = {}
    for z in keys:
        if z not in tables:
            # Phi(u) = sum_i w_i tanh(u + z s_i); rows are u, columns nodes
            tables[z] = weighted_row_sums(np.add, np.tanh, u_grid, z * nodes, weights)
    e1 = np.zeros(spec.n_modes)
    e1[0] = 1.0
    gather = StackedInterp(u_grid, [tables[z] for z in keys])
    kappa_at = _tiler(kappa[:k_act])

    def fbar(x, mu_stat):
        x = np.asarray(x, dtype=float)
        xa = x[..., :k_act]
        u = np.tanh(xa)
        u *= a
        u /= kappa_at(u.shape)
        u += xa
        head = gather(u)
        head *= a
        return _first_modes(head, e1, b_mu, mu_stat)

    _FBAR_TABLE_CACHE[cache_key] = fbar
    return fbar


@dataclass(frozen=True)
class BuiltinFamily:
    """Picklable recipe for a built-in coefficient family.

    ``build`` stamps the set it returns with ``(self, spec)``, so that the
    set pickles as this recipe instead of as its closures.
    """

    variant: str
    a: float = 1.0
    b_mu: float = 0.5
    c: float = 0.5
    n_active: int | None = None

    def build(self, spec: OperatorSpec) -> CoefficientSet:
        coeffs = build_family(
            self.variant, spec, a=self.a, b_mu=self.b_mu, c=self.c, n_active=self.n_active
        )
        object.__setattr__(coeffs, "recipe", (self, spec))
        return coeffs


# variant -> {config key: builder parameter} of the parameters its builder reads
FAMILY_KEYS = {
    "bounded_smooth": {"a": "a", "b_mu": "b_mu", "c": "c", "K": "n_active"},
    "linear_test": {"a": "a", "c": "c"},
}


def build_family(variant: str, spec: OperatorSpec, **params) -> CoefficientSet:
    """Construct a built-in family by name from the parameters it reads; a
    parameter the family does not read, or one that is None, is ignored."""
    if variant not in FAMILY_KEYS:
        raise ConfigError(f"unknown coefficient variant {variant!r}; built-ins are "
                          f"{' and '.join(map(repr, FAMILY_KEYS))}", "/coefficients/variant")
    builder = bounded_smooth if variant == "bounded_smooth" else linear_test
    return builder(spec, **{name: params[name] for name in FAMILY_KEYS[variant].values()
                            if params.get(name) is not None})


@dataclass(frozen=True)
class ProbeReport:
    n_probes: int
    worst_ratio: dict  # coefficient name -> max observed (increment / declared bound)
    passed: bool


def probe_lipschitz(
    coeffs: CoefficientSet,
    spec: OperatorSpec,
    n_probes: int = 200,
    rng: RngStream | None = None,
    cloud_size: int = 8,
    scale: float = 2.0,
) -> ProbeReport:
    """Empirically probe the declared Lipschitz constants.

    Draws random argument pairs (fields at the given scale, small particle
    clouds for the measure slot) and compares each coefficient's increment
    against its declared bound times the argument displacement, where the
    measure displacement is the exact W_p between the probe clouds.  The
    report's ``passed`` says no probe exceeded its bound (tolerance 1e-9
    for rounding).
    """
    if rng is None:
        rng = RngStream(0, channel=CH_PROBE)
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = spec.n_modes
    worst = {"B": 0.0, "F": 0.0, "G": 0.0}
    for _ in range(n_probes):
        x1, x2, y1, y2 = scale * gen.standard_normal((4, n))
        c1 = gen.standard_normal((cloud_size, n))
        c2 = gen.standard_normal((cloud_size, n))
        w = wasserstein_exact(c1, c2, spec.p)
        m1, m2 = p_moment(c1, spec.p), p_moment(c2, spec.p)
        dx = np.linalg.norm(x1 - x2)
        dy = np.linalg.norm(y1 - y2)
        # name -> (increment, its declared bound per unit displacement)
        for name, step, den in (
            ("B", coeffs.B(x1, m1) - coeffs.B(x2, m2), coeffs.lip_C * (dx + w)),
            ("F", coeffs.F(x1, m1, y1) - coeffs.F(x2, m2, y2), coeffs.lip_C * (dx + w + dy)),
            ("G", coeffs.G(x1, m1, y1) - coeffs.G(x2, m2, y2),
             coeffs.lip_C * (dx + w) + coeffs.lip_G_y * dy),
        ):
            if den > 1e-12:
                worst[name] = max(worst[name], np.linalg.norm(step) / den)

    passed = all(v <= 1.0 + 1e-9 for v in worst.values())
    return ProbeReport(n_probes=n_probes, worst_ratio=worst, passed=passed)


@dataclass(frozen=True)
class EffectiveConstants:
    lip_C: float
    lip_G_y: float
    gap: float                 # lambda_1 - lip_G_y
    strongly_dissipative: bool
    fbar_lip: float            # Lipschitz bound for the averaged drift
    contraction_lambda: float  # weight making the law map a strict contraction


def effective_constants(coeffs: CoefficientSet, spec: OperatorSpec) -> EffectiveConstants:
    """Derived constants controlling well-posedness and averaging.

    The spectral gap net of the fast drift's y-slope, lambda_1 - lip_G_y,
    must be positive for the frozen equation to mix.  The frozen fixed
    point then moves by at most lip_C/gap per unit displacement of (x, mu),
    so the averaged drift inherits Lipschitz constant
    lip_C * (1 + lip_C / gap) in (x, mu).  A weight lambda > 2 lip_C makes
    the law map a contraction in the weighted flow metric; we report
    4 lip_C as a comfortable default.
    """
    gap = spec.lambda_1 - coeffs.lip_G_y
    fbar_lip = coeffs.lip_C * (1.0 + coeffs.lip_C / gap) if gap > 0 else np.inf
    return EffectiveConstants(
        lip_C=coeffs.lip_C,
        lip_G_y=coeffs.lip_G_y,
        gap=gap,
        strongly_dissipative=gap > 0,
        fbar_lip=float(fbar_lip),
        contraction_lambda=4.0 * coeffs.lip_C,
    )


def dissipativity_gap(coeffs: CoefficientSet, spec: OperatorSpec) -> float:
    """lambda_1 - L_G, raising at /coefficients/c unless positive (B3)."""
    eff = effective_constants(coeffs, spec)
    if not eff.strongly_dissipative:
        raise ConfigError(f"dissipativity gap lambda_1 - L_G = {eff.gap:.6g} <= 0: "
                          "the frozen equation does not mix", "/coefficients/c")
    return eff.gap


def check_bounded_drift(coeffs: CoefficientSet) -> None:
    """Raise at /coefficients/variant unless F is bounded, as sup-in-time errors need."""
    if not coeffs.F_bounded:
        raise ConfigError(f"family '{coeffs.variant}' has unbounded slow drift: sup-error "
                          "tails are uncontrolled; use a bounded family",
                          "/coefficients/variant")


def averaged_drift(coeffs: CoefficientSet, spec: OperatorSpec) -> Callable:
    """The family's exact Fbar, ``coeffs.fbar_factory(spec)``; raise at
    /coefficients/variant for a family that exposes none."""
    if coeffs.fbar_factory is None:
        raise ConfigError(f"family '{coeffs.variant}' exposes no averaged drift: "
                          "the averaged equation needs its fbar_factory",
                          "/coefficients/variant")
    return coeffs.fbar_factory(spec)


def assumption_report(spec: OperatorSpec, coeffs: CoefficientSet) -> ValidationReport:
    """Full admissibility report: spectrum checks plus coefficient checks.

    Extends :func:`mvspde.spectral.validate_spec` with

    * B1 — regularity of the coefficient maps (structural for the built-in
      families: compositions of affine maps, tanh and min are jointly
      continuous and Lipschitz);
    * B3 — strong dissipativity, lambda_1 - L_G > 0 with L_G the fast
      drift's Lipschitz constant in the fast variable, plus boundedness of
      the slow drift where declared.
    """
    base = validate_spec(spec)
    eff = effective_constants(coeffs, spec)
    checks = list(base.checks)
    checks.insert(2, AssumptionCheck(
        "B1", True,
        f"variant '{coeffs.variant}': continuous Lipschitz maps "
        f"(lip_C={coeffs.lip_C:.6g}, L_G={coeffs.lip_G_y:.6g})",
    ))
    b3_detail = (
        f"lambda_1 - L_G = {spec.lambda_1:.6g} - {coeffs.lip_G_y:.6g} "
        f"= {eff.gap:.6g}"
    )
    if not eff.strongly_dissipative:
        b3_detail += " <= 0"
    if coeffs.F_bounded:
        b3_detail += f"; |F| <= {coeffs.bound_const:.6g}"
    else:
        b3_detail += "; F unbounded (oracle family)"
    checks.append(AssumptionCheck("B3", eff.strongly_dissipative, b3_detail))
    return ValidationReport(tuple(checks))
