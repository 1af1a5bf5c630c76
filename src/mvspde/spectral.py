"""Spectral truncation, semigroup action, and admissibility checks.

All state lives in the eigenbasis of a diagonal negative-definite operator:
a field is the vector of its first ``n_modes`` eigen-coordinates, and the
semigroup acts mode-by-mode as ``exp(-lambda_k * t)``.

Spectra are restricted to power laws,

    lambda_k = c_lambda * k**a          (eigenvalues, a > 0)
    beta_k   = c_beta   * k**(-b)       (slow noise amplitudes)
    gamma_k  = c_gamma  * k**(-g)       (fast noise amplitudes)

so that every summability condition on the full (untruncated) spectrum
reduces to an exact inequality between exponents.  Partial sums of a finite
truncation can never decide whether a series converges; exponent arithmetic
can.  The checks below are therefore statements about the infinite family
that the truncation was cut from, not about the first ``n_modes`` terms.

Conditions checked by :func:`validate_spec` (series are over k >= 1):

* A1 - the stability index alpha lies in (1, 2), and theta, p are in range.
* A3 - sum beta_k**alpha / lambda_k < oo, i.e. alpha*b + a > 1.
* B2(slow) - sum beta_k**alpha * lambda_k**(alpha*theta/2 - 1) < oo,
  i.e. alpha*b + a*(1 - alpha*theta/2) > 1.  Controls the time regularity
  of the slow stochastic convolution.
* B2(fast) - sum gamma_k**alpha / lambda_k < oo, i.e. alpha*g + a > 1.

The dissipativity condition B3 (spectral gap minus the fast drift's
Lipschitz constant must be positive) involves the coefficients, not just
the spectrum; see :func:`mvspde.coefficients.effective_constants`.

Each admissibility rule has one guard, raising :class:`ConfigError` (a
ValueError) at its key's JSON pointer: :func:`whole_steps` and
:func:`check_moment_order` here, the gap and bounded F in coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ConfigError",
    "whole_steps",
    "check_moment_order",
    "OperatorSpec",
    "AssumptionCheck",
    "ValidationReport",
    "validate_spec",
    "apply_semigroup",
]


class ConfigError(ValueError):
    """Unreadable or off-schema config, or a broken rule, at ``pointer`` ("" if unknown)."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer

    def at(self, pointer: str) -> ConfigError:
        """This error, or a copy of it at ``pointer`` when it has no pointer."""
        return self if self.pointer else ConfigError(str(self), pointer)


def whole_steps(span: float, h: float, name: str, pointer: str = "") -> int:
    """Step count s = span / h, a whole number >= 1 to within 1e-9 max(1, s)."""
    s = span / h if h > 0 else math.nan
    if not (0.5 <= s < math.inf and abs(s - round(s)) <= 1e-9 * max(1.0, s)):
        raise ConfigError(f"{name} = {span:.6g} is not a positive whole multiple of the step "
                          f"{h:.6g} (step count {s:.10g}): not aligned to the step grid", pointer)
    return round(s)


@dataclass(frozen=True)
class OperatorSpec:
    """Power-law description of the operator spectrum and noise amplitudes.

    Parameters
    ----------
    n_modes : number of retained eigenmodes (N >= 1)
    a, c_lambda : eigenvalue law  lambda_k = c_lambda * k**a
    b, c_beta : slow amplitude law  beta_k = c_beta * k**(-b)
    g, c_gamma : fast amplitude law  gamma_k = c_gamma * k**(-g)
    alpha : stability index of the driving noise, in (1, 2)
    theta : time-regularity exponent of the slow convolution, in (0, 2/alpha]
    p : moment / Wasserstein order, in [1, alpha)
    """

    n_modes: int
    a: float
    b: float
    g: float
    c_lambda: float = 1.0
    c_beta: float = 1.0
    c_gamma: float = 1.0
    alpha: float = 1.5
    theta: float = 1.0
    p: float = 1.0

    def __post_init__(self):
        if int(self.n_modes) != self.n_modes or self.n_modes < 1:
            raise ValueError(f"n_modes must be a positive integer, got {self.n_modes}")
        if not (1.0 < self.alpha < 2.0):
            raise ValueError(f"alpha out of range (1, 2): {self.alpha}")
        if not (0.0 < self.theta <= 2.0 / self.alpha):
            raise ValueError(
                f"theta out of range (0, 2/alpha] = (0, {2.0 / self.alpha:.6g}]: {self.theta}"
            )
        if not (1.0 <= self.p < self.alpha):
            raise ValueError(f"p out of range [1, alpha) = [1, {self.alpha}): {self.p}")
        for name in ("a", "c_lambda", "c_beta", "c_gamma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @cached_property
    def modes(self) -> np.ndarray:
        k = np.arange(1, self.n_modes + 1, dtype=float)
        k.setflags(write=False)
        return k

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """lambda_k = c_lambda * k**a, increasing."""
        lam = self.c_lambda * self.modes**self.a
        lam.setflags(write=False)
        return lam

    @cached_property
    def slow_amplitudes(self) -> np.ndarray:
        """beta_k = c_beta * k**(-b)."""
        beta = self.c_beta * self.modes ** (-self.b)
        beta.setflags(write=False)
        return beta

    @cached_property
    def fast_amplitudes(self) -> np.ndarray:
        """gamma_k = c_gamma * k**(-g)."""
        gamma = self.c_gamma * self.modes ** (-self.g)
        gamma.setflags(write=False)
        return gamma

    @property
    def lambda_1(self) -> float:
        return float(self.eigenvalues[0])

    def as_field(self, values) -> np.ndarray:
        """Coerce a scalar or short vector to a length-``n_modes`` coordinate array.

        A scalar loads the first mode only; a shorter vector is zero-padded.
        Anything else raises :class:`ConfigError` without a pointer; the
        caller knows the key.
        """
        out = np.zeros(self.n_modes)
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        if vals.ndim != 1 or vals.size > self.n_modes:
            raise ConfigError(f"cannot place shape {vals.shape} into {self.n_modes} modes")
        out[: vals.size] = vals
        return out


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[AssumptionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AssumptionCheck]:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list[str]:
        return [
            f"{c.name}: {'pass' if c.passed else 'FAIL'} — {c.detail}" for c in self.checks
        ]


def check_moment_order(m: float, spec: OperatorSpec) -> None:
    """Raise at /study/m unless p <= m < alpha, where heavy-tailed moments exist."""
    if not (spec.p <= m < spec.alpha):
        raise ConfigError(f"moment order must lie in [p, alpha) = [{spec.p}, {spec.alpha}), "
                          f"got {m}", "/study/m")


def validate_spec(spec: OperatorSpec) -> ValidationReport:
    """Check the exponent inequalities behind the summability assumptions.

    Each check is exact arithmetic on the power-law exponents: a series
    sum k**(-q) converges iff q > 1, so e.g. sum beta_k**alpha / lambda_k
    with beta_k ~ k**(-b), lambda_k ~ k**a converges iff alpha*b + a > 1.
    """
    al, th = spec.alpha, spec.theta
    checks = [AssumptionCheck(
        "A1", True,
        f"alpha={al:.6g} in (1,2), theta={th:.6g} in (0,{2/al:.6g}], "
        f"p={spec.p:.6g} in [1,{al:.6g})",
    )]
    # each summability condition: (name, the series, its exponent q in sum k^-q)
    for name, series, q in (
        ("A3", "sum beta_k^alpha/lambda_k", al * spec.b + spec.a),
        ("B2-slow", "sum beta_k^alpha lambda_k^(alpha*theta/2-1)",
         al * spec.b + spec.a * (1.0 - al * th / 2.0)),
        ("B2-fast", "sum gamma_k^alpha/lambda_k", al * spec.g + spec.a),
    ):
        checks.append(AssumptionCheck(name, q > 1.0,
                                      f"{series} ~ sum k^-({q:.6g}); needs exponent > 1"))
    return ValidationReport(tuple(checks))


def apply_semigroup(u, t: float, spec: OperatorSpec) -> np.ndarray:
    """Apply the linear semigroup for time ``t``: mode k is damped by exp(-lambda_k t).

    Works on any array whose last axis is the mode axis.
    """
    if t < 0:
        raise ValueError(f"semigroup time must be >= 0, got {t}")
    u = np.asarray(u, dtype=float)
    return u * np.exp(-spec.eigenvalues * t)
