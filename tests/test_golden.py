"""Pinned output digests: the bytes of result.csv and meta.json for small CLI studies.

Every pin below, the twelve CLI cases and the in-process ergodic_fbar and
simulate_averaged pins, was re-recorded in one change that moved every
noise bit and, at rounding level, the averaged-drift quadrature:

- the Chambers-Mallows-Stuck transform took its tangent form (half-angle
  tangents in place of sin/cos, one power in place of two);
- its uniform input became the raw [0, 1) word grid shifted by 2**-54
  (``Generator.random`` in place of ``uniform(-pi/2, pi/2)``);
- the fast noise banks of the rate study draw only the ``y_modes`` modes
  F reads, so those streams no longer skip the words of the other modes;
- the stable quadrature rule mirrors its non-negative nodes and density,
  so its nodes are bitwise symmetric.

The law statistic's move from np.linalg.norm to sqrt(add.reduce(x*x)),
bit-equal on real input, landed before that change with every pin
unchanged.  Of all the digests, only the ergodicity case's meta.json
stayed as it was.

A later change, which made ``measures.p_moment`` the one law statistic
and ``measures.fit_line`` the one line fit, re-recorded four cases once:

- ``picard-exact`` and ``picard-p125`` (result.csv and meta.json): each
  stage freezes ``p_moment`` of the previous flow, the statistic the
  interacting system's drift reads, in place of a moment curve summed
  along a strided axis with an array root; the distances moved by up to
  4.7e-8 relative, in the late iterations near the noise floor;
- ``simulate`` (meta.json only): the moment check reads ``p_moment`` at
  order m and fits its trend with ``fit_line`` (np.polyfit in place of a
  centred lstsq), so ``trend_slope`` and ``trend_stderr`` moved at 1e-15;
  the curve's rows, now ``StrongErrorStats`` of the particles' p-th norm
  powers, keep their bits at M = 16, a power of 4;
- ``ergodicity`` (result.csv only): the mixing rate and its stderr come
  from ``fit_line`` in place of lstsq, within 7.5e-15 relative.

A later change re-recorded the five rate-study cases (``rate-equal``,
``rate-unequal``, a two-thread twin of it since dropped, ``rate-m125`` and
``rate-default8``; result.csv and meta.json) once: the averaged drift's
table gather ``StackedInterp`` took its intercept form, slope[j] * u +
icept[j] in place of np.interp's slope * (u - x_j) + f_j, so every Fbar
value moved at rounding level and the errors in result.csv by at most
4.5e-16 relative.  Only the rate study reads the table Fbar; every other
pin held, through the column-sum law statistic, the full-shape Euler
weights, the step-major noise blocks and the grouped noise transform,
all bit-identical.

A later change re-recorded the ``aux-gap`` case (result.csv and
meta.json) once: the increment studies became one streaming pass,
``multiscale.increment_stats``, that steps the block-frozen auxiliary
twins beside X and Y and adds each particle's gap |Y - A| into a running
sum, one grid time after another, where the recorded fast and auxiliary
flows were averaged by numpy's pairwise sum along the time axis.  The
auxiliary paths keep their bits; the time means moved at rounding level,
the stderr column by at most 4.8e-16 relative and the fitted slope by
8.6e-16 (the error column kept its bytes).  The ``hoelder`` case held:
its recorded gaps were already added time after time, down axis 0.

A change that alters these bytes must say so and re-record them.

The cases of ``CASES`` run in one process; ``FORKED_CASES`` are large
enough that ``--threads 2`` forks two workers (see
``experiments.WORKER_PARTICLE_STEPS``), pinned to the bytes a
``--threads 1`` run wrote.  All cases share the test
session's averaged-drift table cache, so the first rate case builds the
tables and the later ones read them back; one test runs a case twice on a
fresh cache, cold and then warm.

Each case runs the CLI in a fresh interpreter with the BLAS thread pools
pinned to one thread.  No BLAS call remains on any pinned path (the
thread-count test below checks the rate path), so the pinning only keeps
the cases independent of the machine.
"""

import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvspde.coefficients import bounded_smooth, linear_test
from mvspde.measures import p_moment
from mvspde.multiscale import (
    FrozenInput,
    MultiscaleConfig,
    ergodic_fbar,
    simulate_averaged,
)
from mvspde.noise import RngStream
from mvspde.solver import SimConfig
from mvspde.spectral import OperatorSpec

SRC = Path(__file__).resolve().parent.parent / "src"

BASE_CFG = {
    "operator": {"n_modes": 4, "a": 2.0, "b": 1.0, "g": 1.0, "alpha": 1.5,
                 "theta": 1.0, "p": 1.0},
    "coefficients": {"variant": "bounded_smooth", "K": 4},
    "sim": {"T": 0.25, "h": 0.0625, "M": 64, "seed": 5,
            "xi": [0.5, -0.3, 0.2, 0.0]},
    "study": {"kind": "picard", "n_iters": 4, "out_dir": "out"},
}

RATE_STUDY = {"kind": "rate", "grid": [0.0625, 0.03125, 0.015625, 0.0078125],
              "m": 1.0, "h_fast_ratio": 0.0625, "n_replicas": 4, "n_iters": None}

DEFAULT8_RATE = {
    "operator": {"n_modes": 8, "a": 2.0, "b": 1.0, "g": 1.0, "c_lambda": 1.0,
                 "c_beta": 1.0, "c_gamma": 1.0, "alpha": 1.5,
                 "theta": 1.3333333333333333, "p": 1.0},
    "coefficients": {"variant": "bounded_smooth", "a": 1.0, "b_mu": 0.5, "c": 0.5, "K": 4},
    "sim": {"T": 0.25, "h": 0.015625, "M": 64, "seed": 1729,
            "xi": [0.5, -0.3, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0], "eta": 0.0},
    "study": {"kind": "rate", "grid": [0.0625, 0.03125, 0.015625, 0.0078125],
              "m": 1.0, "h_fast_ratio": 0.0625, "n_replicas": 8, "n_iters": None},
}

# name -> (command, section overrides, threads, sha256 of result.csv, of meta.json)
CASES = {
    # exact assignment path of the flow distance
    "picard-exact": (
        "picard", {}, 1,
        "5f3581cd0915c40d9965efda5b7b91fcbdb6dc3414f99b863a543423ae3f5392",
        "c61354665e85c7102af61410d30fe9b11fdc6186219eac6e0f6db47168b2906d",
    ),
    # more steps than one noise block (solver.BLOCK_STEPS) of the Picard sweep
    "picard-long": (
        "picard",
        {"sim": {"M": 8, "T": 0.5, "h": 1 / 1200, "seed": 3}, "study": {"n_iters": 3}}, 1,
        "364146d878c5fa08c1ca74e121625f4c3a22938f8aacc3459031a426ca9667ff",
        "635a539aa4e258aef8efa7bcb77e8fbac0c0f5fb6df00a145081190cd95a3ba4",
    ),
    # moment order p = 1.25, more iterations
    "picard-p125": (
        "picard",
        {"operator": {"p": 1.25},
         "sim": {"M": 32, "T": 0.5, "h": 0.03125, "seed": 11}, "study": {"n_iters": 6}}, 1,
        "450652eb688a19b3b711c224bd71747ffca81ff0192c44d0e64e77e2af2c4f75",
        "239d10c86b0b39ed19de2eb3a5f8d37ec2db930716fdc7e44cba46e91353a687",
    ),
    # sliced W_p, one particle past the exact-assignment limit: every pair is
    # settled in a second sweep
    "picard-sliced": (
        "picard",
        {"sim": {"M": 257, "T": 0.5, "h": 0.03125, "seed": 13}, "study": {"n_iters": 3}}, 1,
        "ed986e5b799b8a337be070647e49233021a845f3a63f6c8777213769bbf06135",
        "d80a2f50f544b26572ef742cb626a94bb14f3689f318a5f9c8aec52ab27975d5",
    ),
    # the interacting system, on simulate_mkv's self-drawing noise path
    "simulate": (
        "simulate",
        {"sim": {"T": 0.5, "h": 1 / 1200, "M": 16}, "study": {"kind": "simulate", "n_iters": None}},
        1,
        "415d4e9b6963d0c7407f4ef15c5acc61deb57dfad017e860c0b1f530d5919333",
        "20c3d0f1dcc89771e7c04947f542cc573a0024ed85274a8c24eb34311b110c2f",
    ),
    # four equal systems of 16 particles per scale ratio
    "rate-equal": (
        "rate-study", {"study": RATE_STUDY}, 1,
        "c6056b7e7d43f62a11e2ac5bab7ce69a564c0d1bf7034adf301a5f204b569fa1",
        "86062d0a7bdb0bc7892bfd67d2f6a164da70aac7d73a56b8f1201a439cd11f39",
    ),
    # systems of 17, 17, 17 and 16 particles
    "rate-unequal": (
        "rate-study", {"sim": {"M": 67, "seed": 9}, "study": RATE_STUDY}, 1,
        "566fcf67eb29cdf431b957287da2794eb54be7272a56fdccd59a99cf206df8dd",
        "a185915504637a5595066a4fb08b46bb2bb3ed5439e5a007aae75ed9acd482eb",
    ),
    # moment order m = 1.25 (p = 1 <= m < alpha): the delta-method error bar
    "rate-m125": (
        "rate-study", {"study": dict(RATE_STUDY, m=1.25)}, 1,
        "52c2edb50104da18375638d4826bc78adff7f4b023ab3a26b34d8962f24c726a",
        "427c99f4aa94b61004861dfae24a9fab44d8dc43864a19d75c94dbd45541a634",
    ),
    # the slow path's increments since each block start, summed as it steps
    "hoelder": (
        "hoelder-study",
        {"sim": {"M": 16, "h_fast": 1 / 256},
         "study": {"kind": "hoelder", "epsilon": 0.0625, "grid": [0.03125, 0.0625, 0.125],
                   "n_replicas": 2, "n_iters": None}},
        1,
        "7027d20131d920033271d7bde253992b444c0cae86718bfc7e61ff4057bc47f9",
        "d54db6b77f4b593a605833384abcd42ece315456cee5da9fa7172bf3d0ed7297",
    ),
    # the fast path against its block-frozen auxiliary twins, stepped beside it
    "aux-gap": (
        "aux-gap",
        {"sim": {"M": 16, "h_fast": 1 / 256},
         "study": {"kind": "aux-gap", "epsilon": 0.0625, "grid": [0.03125, 0.0625, 0.125],
                   "n_replicas": 2, "n_iters": None}},
        1,
        "755087063a44c9aad882f5428ed2637b57ae14dc2147948369f959423bb75eff",
        "304be1b109bb5fd6e44f7c1c8699742c0e7df84c70bd365a5297e3001ff7fdb7",
    ),
    # systems of 9 and 8 particles, two batches
    "aux-gap-unequal": (
        "aux-gap",
        {"sim": {"M": 17, "h_fast": 1 / 256},
         "study": {"kind": "aux-gap", "epsilon": 0.0625, "grid": [0.03125, 0.0625, 0.125],
                   "n_replicas": 2, "n_iters": None}},
        1,
        "a8a5716eb16c564bc00270834b42a5ddc0a392bfe22003eb59678dd8662b95d5",
        "6c47ac46ed823e949c565cef2ac541e1306b7b306ad9151afd61bf376fc8ff36",
    ),
    # frozen-equation ensembles on the linear oracle family
    "ergodicity": (
        "ergodicity",
        {"operator": {"n_modes": 2},
         "coefficients": {"variant": "linear_test", "a": 1.0, "c": 0.5, "K": None},
         "sim": {"xi": [2.0, 0.0]},
         "study": {"kind": "ergodicity", "grid": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
                   "ensemble": 600, "n_iters": None}},
        1,
        "8a490abccce314b6abbf06bee76f98572d51ba7e47ab637a6babc9e579a75c02",
        "9a5804afda498cf1538f0a0055acb89de5b78bded812e392c05ce39cf4713ed3",
    ),
    # the operator and coefficients of configs/default.json: 8 modes, K = 4,
    # eight systems of 8 particles per scale ratio
    "rate-default8": (
        "rate-study", DEFAULT8_RATE, 1,
        "69da73088ed30337b89b6ee2e16538eb50897432e52ba51d825170a2d9735a9f",
        "ff3acb7774aa720239a6f438f8ccaa28f5bf8cf27fcd4f6cd5ed2fbd40b41935",
    ),
}


# name -> (command, section overrides, threads, sha256 of result.csv, of
# meta.json): studies large enough that --threads 2 forks two workers (see
# experiments.WORKER_PARTICLE_STEPS), pinned to the bytes of --threads 1
FORKED_CASES = {
    # systems of 40, 39, 39 and 39 particles
    "rate-forked-threads2": (
        "rate-study", {"sim": {"M": 157, "T": 0.5, "seed": 9}, "study": RATE_STUDY}, 2,
        "5a9ca1e3e5b6035346d4db990229e2dd53b84f4afa770a23225385b96911ffa9",
        "8b13ad666466bea73d33965c73addcebc5d15742e6701f51c06faa6796bee7c3",
    ),
    # systems of 147 and 146 particles, two batches
    "aux-gap-forked-threads2": (
        "aux-gap",
        {"sim": {"M": 293, "T": 1.0, "h_fast": 1 / 1024},
         "study": {"kind": "aux-gap", "epsilon": 0.0625, "grid": [0.03125, 0.0625, 0.125],
                   "n_replicas": 2, "n_iters": None}},
        2,
        "75c3722f0b0d9bd70a6f12c1d6c889fc9594548991de0a85d6d8693093404473",
        "41e55ea9b9f5f2cf66202367f4fd9b74d0fe98a3b6695bbe248ece4af1b49eb0",
    ),
}


def run_cli(tmp_path, command, overrides, threads, blas_threads=1, cache_home=None):
    """Result directory of one CLI run in a fresh interpreter; ``cache_home``,
    when given, is its XDG_CACHE_HOME."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = copy.deepcopy(BASE_CFG)
    for section, changes in overrides.items():
        cfg[section].update(changes)
        for key in [k for k, v in changes.items() if v is None]:
            del cfg[section][key]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if cache_home is not None:
        env["XDG_CACHE_HOME"] = str(cache_home)
    proc = subprocess.run(
        [sys.executable, "-m", "mvspde.cli", command, "--config", str(path),
         "--out", str(tmp_path / "o"), "--threads", str(threads)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return Path(proc.stdout.strip().splitlines()[-1]).parent


def result_digests(result_dir):
    """(sha256 of result.csv, of meta.json) in a result directory."""
    return tuple(hashlib.sha256((result_dir / name).read_bytes()).hexdigest()
                 for name in ("result.csv", "meta.json"))


def run_digests(tmp_path, command, overrides, threads, blas_threads=1):
    """(sha256 of result.csv, of meta.json) of one CLI run in a fresh interpreter."""
    return result_digests(run_cli(tmp_path, command, overrides, threads, blas_threads))


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_digest(name, tmp_path):
    command, overrides, threads, csv_digest, meta_digest = CASES[name]
    assert run_digests(tmp_path, command, overrides, threads) == (csv_digest, meta_digest)


@pytest.mark.parametrize("name", sorted(FORKED_CASES))
def test_forked_result_digest(name, tmp_path):
    command, overrides, threads, csv_digest, meta_digest = FORKED_CASES[name]
    result_dir = run_cli(tmp_path, command, overrides, threads)
    assert result_digests(result_dir) == (csv_digest, meta_digest)
    assert json.loads((result_dir / "manifest.json").read_text())["workers"] == threads


def test_cold_and_warm_table_cache_write_the_pinned_bytes(tmp_path):
    # one cache directory: the first run builds and stores the averaged-drift
    # tables, the second reads them back
    command, overrides, threads, *pins = CASES["rate-equal"]
    cache = tmp_path / "cache"
    cold = run_cli(tmp_path / "cold", command, overrides, threads, cache_home=cache)
    (entry,) = (cache / "mvspde").iterdir()
    stored = entry.stat().st_mtime_ns
    warm = run_cli(tmp_path / "warm", command, overrides, threads, cache_home=cache)
    assert result_digests(cold) == result_digests(warm) == tuple(pins)
    assert [p.name for p in (cache / "mvspde").iterdir()] == [entry.name]
    assert entry.stat().st_mtime_ns == stored  # read, not rebuilt
    for result_dir in (cold, warm):
        record = json.loads((result_dir / "manifest.json").read_text())["numpy"]
        assert record["version"] == np.__version__


def test_rate_bytes_independent_of_blas_threads(tmp_path):
    # 8 modes, K = 4: the averaged-drift tables and the head-only fast field
    one, two = (run_digests(tmp_path / f"blas{n}", "rate-study", DEFAULT8_RATE, 1,
                            blas_threads=n) for n in (1, 2))
    assert one == two


# --------------------------------------------------------------------------
# in-process pins of loops that no subcommand reaches; their drifts are
# elementwise maps, so no BLAS call enters the bits


def _sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return digest.hexdigest()


# relax_time -> sha256 of (estimate, stderr); 4,800 averaging steps cross
# several noise blocks, and relax_time = 0 starts averaging at once
ERGODIC_FBAR = {
    2.0: "e407e6e2ff29ff828a18eb03c5b3a5c03596398c7e3a8191c4663808bcc4cc3f",
    0.0: "c7cf7cec3ff2d788a3d5b115d5b1546b5c51eec7c1190c84285b884557d4e266",
}


@pytest.mark.parametrize("relax_time", sorted(ERGODIC_FBAR))
def test_ergodic_fbar_digest(relax_time):
    spec = OperatorSpec(n_modes=4, a=2.0, b=1.0, g=1.0, alpha=1.5, theta=1.0, p=1.0)
    frozen = FrozenInput(x=np.array([0.5, -0.3, 0.2, 0.0]), mu_stat=0.6,
                         y0=np.array([0.1, 0.0, -0.2, 0.0]))
    est, stderr = ergodic_fbar(frozen, spec, bounded_smooth(spec), RngStream(7),
                               relax_time=relax_time, avg_time=24.0)
    assert _sha256(est, [stderr]) == ERGODIC_FBAR[relax_time]


def test_simulate_averaged_digest():
    spec = OperatorSpec(n_modes=4, a=2.0, b=1.0, g=1.0, alpha=1.5, theta=1.0, p=1.0)
    base = SimConfig(spec=spec, coeffs=linear_test(spec, a=1.0, c=0.5), T=0.5,
                     h=0.125, M=16, seed=3, xi=[0.5, -0.3, 0.2, 0.0])
    cfg = MultiscaleConfig(base=base, epsilon=2**-5, h_fast=2**-12, eta=0.1)
    flow = simulate_averaged(cfg, record_every=4)
    # particle-major paths and the law statistic the drift read, as first pinned
    assert _sha256(flow.clouds.swapaxes(0, 1), p_moment(flow.clouds, spec.p)) == (
        "78926dc1eb6e430de6d8f86101af61594b91f91fcaac5979952eecfda42aedb4")
