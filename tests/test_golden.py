"""Pinned output digests: the bytes of result.csv and meta.json for small CLI studies.

The picard and simulate result.csv digests were recorded from the code
before the Picard iteration was sped up (pruned weighted-Wasserstein sup,
noise drawn once per study); every meta.json digest and the rate and
hoelder cases were recorded from the code before the rate study batched
its replicas into one kernel.  The aux-gap, ergodicity and rate-default8
cases and the in-process ergodic_fbar and simulate_averaged pins were
recorded from the code before the seven stepping loops became one
exponential-Euler kernel.  A change that alters these bytes must say so
and re-record them.

The four rate cases (rate-equal, rate-unequal, rate-unequal-threads2 and
rate-default8) were re-recorded when the averaged-drift quadrature
tables moved from a BLAS matrix-vector product to row-blocked
``np.add.reduce`` sums: the new fixed summation order moves Fbar by at
most 8.9e-16, which changes these bytes and no others.  That change
alone was in the tree when they were recorded; the head-only fast field
and the 128-step noise blocks that followed leave them unchanged.

The rate-m125 case, the only pin of the delta-method error bar at m != 1,
was recorded before the curve studies shared one moments type and one
floor-and-fit.

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
from mvspde.multiscale import (
    AveragedDrift,
    FrozenInput,
    MultiscaleConfig,
    ergodic_fbar,
    simulate_averaged,
)
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
        "bf0ebcbcdbbafc2db83c9d52a3bb42c4006d60033fa09e0b08d59756afa0ca24",
        "9dcfdbb0c76865978670ec0a24ccbbcedc1b889d658fccfe0a201219e98393ce",
    ),
    # more steps than one noise block of simulate_mkv
    "picard-long": (
        "picard",
        {"sim": {"M": 8, "T": 0.5, "h": 1 / 1200, "seed": 3}, "study": {"n_iters": 3}}, 1,
        "2f9b65835327d29eb873b8186b37499e5566b3591d70367f829916f2f1a1952d",
        "696ecc2d36d73631b09e6a57a65693f25bbddd3ae6056b2cd71b51ea0dc9c8be",
    ),
    # moment order p = 1.25, more iterations
    "picard-p125": (
        "picard",
        {"operator": {"p": 1.25},
         "sim": {"M": 32, "T": 0.5, "h": 0.03125, "seed": 11}, "study": {"n_iters": 6}}, 1,
        "f834a7a110633ebcc1303a5c03ad4611cacbff265ddcdaa5f2a6be5e9bb15b18",
        "b1995848fd00287472b644a47e26401c38d7e6a444babf9f49c23f07a37c9ea7",
    ),
    # the interacting system, on simulate_mkv's self-drawing noise path
    "simulate": (
        "simulate",
        {"sim": {"T": 0.5, "h": 1 / 1200, "M": 16}, "study": {"kind": "simulate", "n_iters": None}},
        1,
        "530a72bff197ac1280e30246875416621992b2244827efbf416da790b6d5383e",
        "46901da8a5036d11553d0ec7207f941571a084ef751c2ceadb47c353a1ad67b3",
    ),
    # four equal systems of 16 particles per scale ratio
    "rate-equal": (
        "rate-study", {"study": RATE_STUDY}, 1,
        "f73f49d1919f501873008e17a052fd4515c21858dad859a1f510406162054226",
        "45124949176aa7df0e1078f56e54dd5edd8264d6be41d0cce8f7251daaadc49d",
    ),
    # systems of 17, 17, 17 and 16 particles
    "rate-unequal": (
        "rate-study", {"sim": {"M": 67, "seed": 9}, "study": RATE_STUDY}, 1,
        "b99a16e89e9ee8ce2042d8003f70a87dbed88f1e6ec1666f4a4c1eb3689b6bc4",
        "0a6c8bbb3ced6f9cf8c063dc4fae0618b9a70cb3e2455407112a5200474a7820",
    ),
    # the same study on two workers: the bytes may not depend on the grouping
    "rate-unequal-threads2": (
        "rate-study", {"sim": {"M": 67, "seed": 9}, "study": RATE_STUDY}, 2,
        "b99a16e89e9ee8ce2042d8003f70a87dbed88f1e6ec1666f4a4c1eb3689b6bc4",
        "0a6c8bbb3ced6f9cf8c063dc4fae0618b9a70cb3e2455407112a5200474a7820",
    ),
    # moment order m = 1.25 (p = 1 <= m < alpha): the delta-method error bar
    "rate-m125": (
        "rate-study", {"study": dict(RATE_STUDY, m=1.25)}, 1,
        "31bd2446e42fea9553d70561a7ff2bade6b2a57f4f40834c80a49b3e3bae3867",
        "740b7bb44bcaefbd87c219bc0ea6f55c89b6f434240508b7936841d6355c0377",
    ),
    # slow-fast paths recorded for the increment regularity scan
    "hoelder": (
        "hoelder-study",
        {"sim": {"M": 16, "h_fast": 1 / 256},
         "study": {"kind": "hoelder", "epsilon": 0.0625, "grid": [0.03125, 0.0625, 0.125],
                   "n_replicas": 2, "n_iters": None}},
        1,
        "c6ea09da90d8eb718ca9cc54975b3b6d64956f3b9ce38d5655e704197a98f402",
        "f8674eadb7920c2a0c31fa9a48adecf361e7372acd2bdae8ca7a8e56e1af482f",
    ),
    # the fast path against its block-frozen auxiliary twin
    "aux-gap": (
        "aux-gap",
        {"sim": {"M": 16, "h_fast": 1 / 256},
         "study": {"kind": "aux-gap", "epsilon": 0.0625, "grid": [0.03125, 0.0625, 0.125],
                   "n_replicas": 2, "n_iters": None}},
        1,
        "72f764696bd25d8ec73e6b067656cae360590c3e1db8de4a3ae4ddde0428b3e4",
        "9916506ccb5a0e97d283d182c26686e14fd5c5672892a50c4d2efae739b784af",
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
        "0a63fd223288f3657e7a6c605c74a6fd9ee940caeafcd40189c2344a795e8fa1",
        "9a5804afda498cf1538f0a0055acb89de5b78bded812e392c05ce39cf4713ed3",
    ),
    # the operator and coefficients of configs/default.json: 8 modes, K = 4,
    # eight systems of 8 particles per scale ratio
    "rate-default8": (
        "rate-study", DEFAULT8_RATE, 1,
        "aaeca81a614bbe39dee7cb10620d3c0d00595e8cdf4ce63d9ab38430369fd03e",
        "63e3c145f444520743d6d61e3a03e3e0624083381e516d194fe24d88326be19d",
    ),
}


def run_digests(tmp_path, command, overrides, threads, blas_threads=1):
    """(sha256 of result.csv, of meta.json) of one CLI run in a fresh interpreter."""
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
    proc = subprocess.run(
        [sys.executable, "-m", "mvspde.cli", command, "--config", str(path),
         "--out", str(tmp_path / "o"), "--threads", str(threads)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result_dir = Path(proc.stdout.strip().splitlines()[-1]).parent
    return tuple(hashlib.sha256((result_dir / name).read_bytes()).hexdigest()
                 for name in ("result.csv", "meta.json"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_digest(name, tmp_path):
    command, overrides, threads, csv_digest, meta_digest = CASES[name]
    assert run_digests(tmp_path, command, overrides, threads) == (csv_digest, meta_digest)


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
    2.0: "bb968aa1c9aaf6f5275e126f532e8403698e63a09eff62f76c101b554a96089f",
    0.0: "a21a7ee204edb5e30847afad9b2b82eb8dd23b565238eef85cabe7d861dd2388",
}


@pytest.mark.parametrize("relax_time", sorted(ERGODIC_FBAR))
def test_ergodic_fbar_digest(relax_time):
    spec = OperatorSpec(n_modes=4, a=2.0, b=1.0, g=1.0, alpha=1.5, theta=1.0, p=1.0)
    frozen = FrozenInput(x=np.array([0.5, -0.3, 0.2, 0.0]), mu_stat=0.6,
                         y0=np.array([0.1, 0.0, -0.2, 0.0]))
    drift = AveragedDrift(mode="ergodic_estimate", seed=7, relax_time=relax_time,
                          avg_time=24.0)
    est, stderr = ergodic_fbar(drift, frozen, spec, bounded_smooth(spec))
    assert _sha256(est, [stderr]) == ERGODIC_FBAR[relax_time]


def test_simulate_averaged_digest():
    spec = OperatorSpec(n_modes=4, a=2.0, b=1.0, g=1.0, alpha=1.5, theta=1.0, p=1.0)
    base = SimConfig(spec=spec, coeffs=linear_test(spec, a=1.0, c=0.5), T=0.5,
                     h=0.125, M=16, seed=3, xi=[0.5, -0.3, 0.2, 0.0])
    cfg = MultiscaleConfig(base=base, epsilon=2**-5, h_fast=2**-12, eta=0.1)
    ens = simulate_averaged(cfg, AveragedDrift(mode="analytic_linear"), record_every=4)
    assert _sha256(ens.paths, ens.mu_stat) == (
        "5e31127cc8154d79e41b35c432db8e5a7683ec96f47793e89939bf1d126d5e5e")
