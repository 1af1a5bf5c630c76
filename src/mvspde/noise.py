"""Symmetric alpha-stable sampling and exact stochastic-convolution increments.

Standard symmetric alpha-stable variables (characteristic function
``exp(-|h|**alpha)``) are drawn by the Chambers-Mallows-Stuck transform:
with an angle v uniform on (-pi/2, pi/2) and W standard exponential,
independent,

    S = sin(alpha v) / cos(v)**(1/alpha)
        * ( cos((1 - alpha) v) / W )**((1 - alpha)/alpha).

The inputs are a raw uniform U in [0, 1) (numpy's ``random``, a multiple
of 2**-53) and W.  The angle is v = pi d with d = U + 2**-54 - 1/2,
exact in double precision, so v keeps off the two poles and its law is
symmetric.  The transform reads the three trig values off half-angle
tangents (``tan`` is the cheap trig ufunc):

    sin(alpha v)       = 2 / (a + 1/a),          a = tan(alpha v / 2)
    cos(v)             = 2 / (t + 1/t),          t = tan(pi/2 (1/2 - |d|))
    cos((1 - alpha) v) = (1 - c^2) / (1 + c^2),  c = tan((1 - alpha) v / 2)

t is the tangent of half the distance to the nearer pole, so cos(v) keeps
its relative accuracy next to the poles.  With A = a + 1/a, T = t + 1/t
and P = W / cos((1 - alpha) v), the two powers fold into one:

    S = 2**((alpha - 1)/alpha) * (T / A) * (P / T)**(1 - 1/alpha),

which is 0, not NaN, at W = 0.

Because mode k of the stochastic convolution
``int_s^t exp(-lambda_k (t-r)) dL_r^k`` is itself alpha-stable, one step of
the convolution over a window of length h can be sampled *exactly*: it is
``sigma_k(h) * S`` with

    sigma_k(h) = beta_k * ( (1 - exp(-alpha lambda_k h)) / (alpha lambda_k) )**(1/alpha)

(and ``gamma_k``, ``h/eps`` in place of ``beta_k``, ``h`` for the
accelerated component).  This follows from the scaling rule for stable
stochastic integrals: int f(r) dL_r is stable with scale (int |f|^alpha dr)^(1/alpha).

Reproducibility is organised around :class:`RngStream`: a stream is a
(seed, replica, particle, channel) address mapped through numpy's
SeedSequence spawn keys onto independent Philox counters.  The key of each
Philox is SeedSequence's, computed by :func:`philox_keys`, which runs the
SeedSequence hash over all of a bank's addresses in one vectorised pass
(numpy's ``mix_entropy`` and ``generate_state`` as uint32 column
operations), so opening a stream builds no SeedSequence.  Each particle
owns its own streams, and each conceptual noise channel keeps *separate*
streams for the uniform and exponential inputs of the CMS transform, so
that draws are bitwise independent of how the time axis is chunked into
blocks.  The transform is elementwise, so neither do they depend on the
particle groups a bank fills and transforms together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .spectral import OperatorSpec

__all__ = [
    "RngStream",
    "philox_keys",
    "sample_standard_stable",
    "convolution_scales",
    "sample_convolution_increment",
    "chf_estimate",
    "tail_slope",
    "standard_stable_pdf",
    "stable_quadrature_rule",
    "stable_quadrature_weights_at",
    "weighted_row_sums",
    "BIT_PATH_UFUNCS",
    "numpy_kernels",
    "StableNoiseBank",
    "CH_SLOW",
    "CH_FAST",
    "CH_FROZEN",
    "CH_PROJECTION",
    "CH_PROBE",
]

# Channel ids. Multiplicative layout: channel c uses spawn slots (2c, 2c+1)
# for the uniform / exponential halves of the CMS transform.
CH_SLOW = 0
CH_FAST = 1
CH_FROZEN = 2
CH_PROJECTION = 3
CH_PROBE = 4


def _coordinate(name: str, v) -> int:
    """A stream coordinate as an int; negative or non-integer ones raise."""
    if int(v) != v or v < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {v}")
    return int(v)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# The hash below runs on 32-bit words that are either Python ints (shared
# by every address) or uint32 arrays (one entry per address, wrapping mod
# 2**32); an int meeting an array becomes an array.


def _mul32(x, c: int):
    return (x * c) & _MASK32 if isinstance(x, int) else x * np.uint32(c)


def _hashmix(value, hash_const: int):
    """SeedSequence's hashmix: (hashed value, next hash constant)."""
    value = value ^ hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = _mul32(value, hash_const)
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    r = _mul32(x, _MIX_MULT_L) - _mul32(y, _MIX_MULT_R)
    if isinstance(r, int):
        r &= _MASK32
    return r ^ (r >> 16)


def _absorb(pool: list, hash_const: int, words) -> tuple[list, int]:
    """Mix entropy words past the pool's first fill into it, as mix_entropy does."""
    pool = list(pool)
    for word in words:
        for i in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[i] = _mix(pool[i], value)
    return pool, hash_const


@lru_cache(maxsize=64)
def _seed_pool(seed: int, replica: int) -> tuple[list, int]:
    """SeedSequence.mix_entropy over the seed's words (padded to the pool) and the replica's.

    Cached: every stream of a (seed, replica) starts from the same pool.
    """
    words = _words(seed)
    words += [0] * (_POOL_SIZE - len(words)) + _words(replica)
    hash_const, pool = _INIT_A, []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                value, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], value)
    return _absorb(pool, hash_const, words[_POOL_SIZE:])


def _generate_key(pool: list) -> np.ndarray:
    """generate_state(2, np.uint64) of a mixed pool, key words on the last axis."""
    state = np.empty(np.broadcast_shapes(*map(np.shape, pool)) + (_POOL_SIZE,), dtype="<u4")
    hash_const = _INIT_B
    for i, word in enumerate(pool):
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = _mul32(word, hash_const)
        state[..., i] = word ^ (word >> 16)
    return state.view("<u8").astype(np.uint64)


def _n_words(v: int) -> int:
    return (v.bit_length() + 31) // 32 or 1


def _words(v: int) -> list[int]:
    """SeedSequence's entropy words of an int: 32 bits each, low word first."""
    return [(v >> (32 * i)) & _MASK32 for i in range(_n_words(v))]


def _word_groups(values: list[int], axis: int):
    """(indices, words) per group of values with equal word counts.

    A group's words are uint32 arrays laid along ``axis`` of a 2-d address
    grid, or Python ints for a group of one.
    """
    groups: dict[int, list[int]] = {}
    for i, v in enumerate(values):
        groups.setdefault(_n_words(v), []).append(i)
    shape = (-1, 1) if axis == 0 else (1, -1)
    for n, idx in groups.items():
        if len(idx) == 1:
            yield idx, _words(values[idx[0]])
        else:
            raw = b"".join(values[i].to_bytes(4 * n, "little") for i in idx)
            words = np.frombuffer(raw, "<u4").reshape(len(idx), n).astype(np.uint32)
            yield idx, [words[:, k].reshape(shape) for k in range(n)]


def philox_keys(seed: int, replica: int, particles, slots) -> np.ndarray:
    """Philox keys of streams (seed, replica, particle, slot), shape (P, S, 2).

    keys[i, j] is ``np.random.SeedSequence(seed, spawn_key=(replica,
    particles[i], slots[j])).generate_state(2, np.uint64)``, the key a
    Philox seeded by that SeedSequence takes, for any non-negative integer
    coordinates.  SeedSequence hashes the 32-bit words of the seed (padded
    to its pool of 4) and then of each spawn-key entry.  The seed's and the
    replica's words are hashed once as ints (cached per pair); each
    particle's and slot's words are hashed as arrays over the whole
    (particle, slot) grid, one numpy operation per step of the hash.
    """
    particles = [_coordinate("particle", v) for v in particles]
    slots = [_coordinate("slot", v) for v in slots]
    pool, hash_const = _seed_pool(_coordinate("seed", seed), _coordinate("replica", replica))
    keys = np.empty((len(particles), len(slots), 2), dtype=np.uint64)
    for rows, pid_words in _word_groups(particles, axis=0):
        for cols, slot_words in _word_groups(slots, axis=1):
            mixed, _ = _absorb(pool, hash_const, pid_words + slot_words)
            if len(rows) * len(cols) == len(particles) * len(slots):
                keys[...] = _generate_key(mixed)    # one group each: the whole grid
            else:
                keys[np.ix_(rows, cols)] = _generate_key(mixed)
    return keys


class _PhiloxKey(ISeedSequence):
    """A seed that hands Philox a precomputed key (no SeedSequence, no OS entropy)."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _philox(key: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: (seed, replica, particle, channel).

    Each public channel id owns two physical spawn slots, 2c and 2c+1:
    ``generator()`` opens slot 2c, ``pair()`` opens both (the uniform and
    exponential halves of the CMS transform).  Distinct channels therefore
    never collide, and ``pair()[0]`` coincides with ``generator()``.
    Opening a stream twice gives identical draw sequences.  All stream
    coordinates must be non-negative integers.
    """

    seed: int
    replica: int = 0
    particle: int = 0
    channel: int = 0

    def __post_init__(self):
        for name in ("seed", "replica", "particle", "channel"):
            _coordinate(name, getattr(self, name))

    def _open(self, slot: int) -> np.random.Generator:
        return _philox(philox_keys(self.seed, self.replica, [self.particle], [slot])[0, 0])

    def generator(self) -> np.random.Generator:
        return self._open(2 * self.channel)

    def pair(self) -> tuple[np.random.Generator, np.random.Generator]:
        """The (uniform, exponential) generator pair for CMS sampling.

        Keeping the two inputs on separate slots makes block draws bitwise
        independent of the block size used to chunk the time axis.
        """
        return self._open(2 * self.channel), self._open(2 * self.channel + 1)


# words per particle group that a draw fills and transforms before filling
# the next: the group's uniform and exponential words (256 KB) and the
# transform's scratch stay in the L2 cache across the ufunc passes
GROUP_WORDS = 1 << 15

# U - _HALF = U + 2**-54 - 1/2, exact for U a multiple of 2**-53 in [0, 1)
_HALF = 0.5 - 2.0**-54


def _cms_closed_form(u, w, alpha: float):
    """Chambers-Mallows-Stuck transform as one expression (reference form).

    ``u`` holds raw uniforms on [0, 1) and ``w`` standard exponentials; the
    module docstring derives the tangent form.
    """
    d = u - _HALF
    a = np.tan(alpha * np.pi / 2.0 * d)
    c = np.tan((1.0 - alpha) * np.pi / 2.0 * d)
    t = np.tan(np.pi / 2.0 * (0.5 - np.abs(d)))
    c2 = c * c
    p = (c2 + 1.0) * w / (1.0 - c2)
    t_sum = t + 1.0 / t
    return (t_sum / (a + 1.0 / a) * (p / t_sum) ** (1.0 - 1.0 / alpha)
            * 2.0 ** ((alpha - 1.0) / alpha))


def _cms(u, w, alpha: float, out: np.ndarray | None = None):
    """Chambers-Mallows-Stuck transform of raw uniform/exponential inputs.

    The ufuncs of :func:`_cms_closed_form` run in the same order, pass by
    pass over the whole array, so each element has the bits of the
    one-expression form.  ``out``, when given, is a C-contiguous array of
    the inputs' shape and is returned; it may be ``u`` itself, which only
    the first pass reads.  Scalars take the closed form
    itself (numpy's scalar power is not the array loop).
    """
    if np.ndim(u) == 0:
        return _cms_closed_form(u, w, alpha)
    shape = np.shape(u)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {shape}")
    d, p, q = np.empty((3,) + shape)
    k_a, k_c = alpha * np.pi / 2.0, (1.0 - alpha) * np.pi / 2.0
    e_pow, k_out = 1.0 - 1.0 / alpha, 2.0 ** ((alpha - 1.0) / alpha)
    np.subtract(u, _HALF, out=d)
    np.multiply(k_a, d, out=out)
    np.tan(out, out=out)
    np.divide(1.0, out, out=q)
    out += q                            # a + 1/a
    np.multiply(k_c, d, out=p)
    np.tan(p, out=p)
    np.multiply(p, p, out=p)
    np.subtract(1.0, p, out=q)
    p += 1.0
    p *= w
    p /= q                              # P
    np.abs(d, out=d)
    np.subtract(0.5, d, out=d)
    d *= np.pi / 2.0
    np.tan(d, out=d)
    np.divide(1.0, d, out=q)
    d += q                              # T = t + 1/t
    p /= d
    np.power(p, e_pow, out=p)
    np.divide(d, out, out=out)
    out *= p
    out *= k_out
    return out


def _rows(a: np.ndarray) -> np.ndarray:
    """a, whose last axis is contiguous, as one void item per row of it."""
    return a.view(np.dtype((np.void, a.itemsize * a.shape[-1])))[..., 0]


def _draw_groups(pairs, alpha: float, out: np.ndarray) -> np.ndarray:
    """Fill out[i], shape (n_steps, n_modes), with stable draws from pairs[i].

    pairs[i] is a (uniform, exponential) generator pair.  The particles go
    in groups of about ``GROUP_WORDS`` words, each group's words filled
    into one pair of scratch buffers and transformed before the next group
    is filled; the transform is elementwise, so the group size never
    enters the bits.  ``out`` needs a contiguous mode axis only: a group
    whose rows of ``out`` are one C-contiguous block is transformed
    straight into it, any other (as in the particle-major view of a
    step-major block) is transformed into its uniform words and copied
    out while they are cache-hot, a particle's modes at one step moving as
    one item.
    """
    group = max(1, GROUP_WORDS // max(1, 2 * out.shape[1] * out.shape[2]))
    u, w = np.empty((2, min(group, len(pairs))) + out.shape[1:])
    for i in range(0, len(pairs), group):
        gens, dest = pairs[i:i + group], out[i:i + group]
        for (gen_u, gen_w), u_rows, w_rows in zip(gens, u, w):
            gen_u.random(out=u_rows)
            gen_w.standard_exponential(out=w_rows)
        g = len(gens)
        if dest.flags.c_contiguous:
            _cms(u[:g], w[:g], alpha, out=dest)
        else:
            _rows(dest)[...] = _rows(_cms(u[:g], w[:g], alpha, out=u[:g]))
    return out


def sample_standard_stable(rng, alpha: float, size=None) -> np.ndarray | float:
    """Draw standard symmetric alpha-stable variates, chf exp(-|h|**alpha).

    ``rng`` is an :class:`RngStream`: the uniform and exponential inputs
    come from its slot pair, so the draws are those of a
    :class:`StableNoiseBank` at the same address.
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError(f"alpha out of range (1, 2): {alpha}")
    if not isinstance(rng, RngStream):
        raise TypeError(f"expected an RngStream, got {type(rng)!r}")
    out = np.empty(() if size is None else size)
    if out.size:
        _draw_groups([rng.pair()], alpha, out.reshape(1, -1, out.shape[-1] if out.ndim else 1))
    return out if size is not None else float(out)


def convolution_scales(
    spec: OperatorSpec, h: float, process: str = "slow", epsilon: float | None = None
) -> np.ndarray:
    """Per-mode stable scale of the convolution increment over a window h.

    slow:  beta_k  * ((1 - exp(-alpha lambda_k h))     / (alpha lambda_k))**(1/alpha)
    fast:  gamma_k * ((1 - exp(-alpha lambda_k h/eps)) / (alpha lambda_k))**(1/alpha)

    The fast clock runs at rate 1/eps but the damping stays lambda_k on
    that clock, hence only the exponent is rescaled.
    """
    if h <= 0:
        raise ValueError(f"window length must be positive, got {h}")
    lam = spec.eigenvalues
    al = spec.alpha
    if process == "slow":
        amp, h_eff = spec.slow_amplitudes, h
    elif process == "fast":
        if epsilon is None or epsilon <= 0:
            raise ValueError("fast scales need a positive epsilon")
        amp, h_eff = spec.fast_amplitudes, h / epsilon
    else:
        raise ValueError(f"process must be 'slow' or 'fast', got {process!r}")
    return amp * (-np.expm1(-al * lam * h_eff) / (al * lam)) ** (1.0 / al)


def sample_convolution_increment(
    spec: OperatorSpec,
    h: float,
    rng,
    process: str = "slow",
    epsilon: float | None = None,
    size: int | None = None,
) -> np.ndarray:
    """Sample exact convolution increments, of shape (n_modes,) or (size, n_modes)."""
    sig = convolution_scales(spec, h, process, epsilon)
    n = (size, spec.n_modes) if size is not None else spec.n_modes
    return sig * sample_standard_stable(rng, spec.alpha, size=n)


def chf_estimate(samples: np.ndarray, h: float) -> float:
    """Empirical characteristic function Re E[exp(i h S)] = mean cos(h S)."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("no samples")
    return float(np.mean(np.cos(h * samples)))


def tail_slope(
    samples: np.ndarray,
    x_min: float = 5.0,
    x_max: float = 50.0,
    n_thresholds: int = 8,
) -> float:
    """Log-log slope of the empirical tail P(|S| > x) over [x_min, x_max].

    For an alpha-stable law the tail is regularly varying with index alpha,
    so the fitted slope should sit near -alpha.  Thresholds with no
    exceedances are dropped from the fit.
    """
    s = np.abs(np.asarray(samples, dtype=float))
    xs = np.geomspace(x_min, x_max, n_thresholds)
    ccdf = np.array([np.mean(s > x) for x in xs])
    keep = ccdf > 0
    if keep.sum() < 2:
        raise ValueError("tail too sparse for a slope fit; need more samples")
    from .measures import fit_line  # measures imports this module
    return fit_line(np.log(xs[keep]), np.log(ccdf[keep])).slope


# the float64 ufuncs whose kernels set output bits: the stable transform
# (tan, expm1, log1p, power), the drifts (tanh) and the quadrature tables
# (tanh, cos, exp, power)
BIT_PATH_UFUNCS = ("tan", "tanh", "cos", "exp", "expm1", "log1p", "power")


@lru_cache(maxsize=None)
def numpy_kernels(names: tuple = BIT_PATH_UFUNCS) -> dict | None:
    """name -> the CPU target of the float64 loop numpy runs for that ufunc.

    numpy picks each loop at import from the CPU's features, and loops
    for different targets can round differently, so this names the class
    of machine whose bits a run reproduces.  A ufunc with no dispatched
    float64 loop reads "baseline"; the whole is None on numpy < 2.0, which
    cannot report it.
    """
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    info = opt_func_info(func_name=f"^(?:{'|'.join(names)})$")
    kernels = {}
    for name in names:
        ufunc = getattr(np, name)
        loop = info.get(name, {}).get("d" * (ufunc.nin + ufunc.nout), {})
        kernels[name] = loop.get("current", "baseline")
    return kernels


# rows per block of a quadrature matrix: 16 rows of 2400 nodes are 300 KB,
# so the block stays in the L2 cache across its four passes
QUADRATURE_BLOCK_ROWS = 16


def weighted_row_sums(combine, kernel, x, t, weights) -> np.ndarray:
    """sum_j weights[j] * kernel(combine(x[i], t[j])) for every x[i].

    ``combine`` is a binary ufunc (its ``outer`` forms a block of the
    matrix) and ``kernel`` a unary one.  The matrix is built
    ``QUADRATURE_BLOCK_ROWS`` rows at a time in one preallocated buffer,
    and each row is reduced by ``np.add.reduce`` along the contiguous
    column axis: a fixed-order sum whose bits depend on no BLAS thread
    count and on no block size (Demmel & Nguyen, "Fast reproducible
    floating-point summation", ARITH 2013).
    """
    out = np.empty(x.size)
    buf = np.empty((min(QUADRATURE_BLOCK_ROWS, x.size), t.size))
    for i in range(0, x.size, QUADRATURE_BLOCK_ROWS):
        rows = x[i:i + QUADRATURE_BLOCK_ROWS]
        blk = buf[:rows.size]
        combine.outer(rows, t, out=blk)
        kernel(blk, out=blk)
        blk *= weights
        np.add.reduce(blk, axis=1, out=out[i:i + rows.size])
    return out


def standard_stable_pdf(x, alpha: float, n_t: int = 4096, t_max: float | None = None,
                        x_span: float | None = None):
    """Density of the standard symmetric alpha-stable law by cosine inversion.

    f(x) = (1/pi) * int_0^oo cos(x t) exp(-t**alpha) dt, evaluated with a
    trapezoid rule.  The integrand decays like exp(-t**alpha), so cutting at
    t_max with t_max**alpha ~ 46 leaves truncation error below 1e-18; the
    oscillation cos(x t) needs step < ~pi/(8 x_span) to resolve, where
    ``x_span`` defaults to |x|_max.  Each value depends on x only through
    its own entry and the rule, so a few points evaluated with the
    ``x_span`` of a larger set take that set's bits.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if t_max is None:
        t_max = 46.0 ** (1.0 / alpha)
    # resolve the fastest oscillation present
    x_span = max(1.0, float(np.max(np.abs(x))) if x_span is None else x_span)
    n_t = max(n_t, int(8 * x_span * t_max / np.pi) + 1)
    t = np.linspace(0.0, t_max, n_t)
    wt = np.full(n_t, t[1] - t[0])
    wt[0] = wt[-1] = wt[0] / 2.0
    damp = np.exp(-(t**alpha)) * wt
    out = weighted_row_sums(np.multiply, np.cos, x.ravel(), t, damp).reshape(x.shape)
    out /= np.pi
    return out if out.size > 1 else float(out[0])


def stable_quadrature_rule(
    alpha: float, s_max: float = 60.0, n_nodes: int = 2400
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating smooth bounded f against the stable density.

    Symmetric trapezoid rule on [-s_max, s_max] against the exact density,
    with the two tail masses P(|S| > s_max) re-deposited on the end nodes.
    For bounded integrands with |f| <= 1 the tail placement error is below
    P(|S| > s_max) ~ s_max**(-alpha), and the *difference* error for
    Lipschitz-in-expectation quantities is far smaller; s_max = 60 keeps
    the absolute tail mass under 1e-2 * 60**(1-alpha) for alpha > 1 and the
    diagnostic tests pin the realised accuracy.

    The nodes are bitwise symmetric: the non-negative half is mirrored, and
    the density, even bit for bit, is evaluated on that half only.
    """
    half = np.linspace(-s_max, s_max, n_nodes)[n_nodes // 2:]
    if n_nodes % 2:
        half[0] = 0.0
    s = np.concatenate([-half[::-1][:n_nodes // 2], half])
    pdf_half = standard_stable_pdf(half, alpha)
    pdf = np.concatenate([pdf_half[::-1][:n_nodes // 2], pdf_half])
    w = np.full(n_nodes, s[1] - s[0])
    w[0] = w[-1] = w[0] / 2.0
    w = pdf * w
    # put the missing tail mass on the extreme nodes so constants integrate to 1
    missing = 1.0 - w.sum()
    w[0] += missing / 2.0
    w[-1] += missing / 2.0
    return s, w


def stable_quadrature_weights_at(alpha: float, nodes: np.ndarray, idx) -> np.ndarray:
    """Weights ``idx`` of :func:`stable_quadrature_rule` with ``nodes``, with its bits.

    ``idx`` indexes interior nodes (neither end, whose weights carry the
    tail mass) of the non-negative half, where the rule evaluated the
    density; each weight is that density times the node spacing.
    """
    pdf = standard_stable_pdf(nodes[idx], alpha, x_span=float(nodes[-1]))
    return pdf * (nodes[1] - nodes[0])


class StableNoiseBank:
    """Block supplier of standard stable draws for a particle ensemble.

    Draws have shape (n_particles, n_steps, n_modes).  Each particle uses a
    dedicated (uniform, exponential) generator pair on the given channel, so
    the stream of variates assigned to particle i is a fixed sequence: the
    same (seed, replica, particle_id, channel) always reproduces the same
    noise, independent of block sizes, of how many other particles share
    the bank, and of their ordering.
    """

    def __init__(
        self,
        seed: int,
        alpha: float,
        n_particles: int,
        n_modes: int,
        channel: int,
        replica: int = 0,
        particle_ids=None,
    ):
        if particle_ids is None:
            particle_ids = range(n_particles)
        particle_ids = list(particle_ids)
        if len(particle_ids) != n_particles:
            raise ValueError("particle_ids length must match n_particles")
        self.alpha = alpha
        self.n_particles = n_particles
        self.n_modes = n_modes
        # RngStream(seed, replica, pid, channel).pair() for every pid, keyed in one pass
        slot = 2 * _coordinate("channel", channel)
        self._pairs = [(_philox(u), _philox(w))
                       for u, w in philox_keys(seed, replica, particle_ids, [slot, slot + 1])]

    def draw(self, n_steps: int, out: np.ndarray | None = None) -> np.ndarray:
        """Next (n_particles, n_steps, n_modes) block of standard stable draws.

        ``out``, when given, is a float array of that shape whose mode axis
        is contiguous; it receives the block and is returned.  It may be a
        strided view: the particle-major transpose of one bank's slice of a
        step-major block of several banks receives each transformed
        particle group straight from the cache, so no particle-major copy
        of the block is made.
        """
        shape = (self.n_particles, n_steps, self.n_modes)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or out.dtype != float or out.strides[-1] != out.itemsize:
            raise ValueError(f"out must be a float array of shape {shape} "
                             "with a contiguous last axis")
        return _draw_groups(self._pairs, self.alpha, out)
