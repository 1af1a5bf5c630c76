"""Workload definitions: config generation from a seed, input sizes, output checks.

Each workload is one CLI subcommand on a fixed physics block.  Only
``sim.seed`` varies with the workload seed, so input size and cost stay
fixed and the output checks below hold for every seed.  The physics is
written out here rather than read from ``configs/`` so that later edits to
the shipped configs cannot silently change what the benchmark measures.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from pathlib import Path

# configs/default.json physics: N=8 modes, bounded_smooth tanh drifts on K=4
_DEFAULT_OPERATOR = {
    "n_modes": 8, "a": 2.0, "b": 1.0, "g": 1.0,
    "c_lambda": 1.0, "c_beta": 1.0, "c_gamma": 1.0,
    "alpha": 1.5, "theta": 1.3333333333333333, "p": 1.0,
}
_DEFAULT_COEFFS = {"variant": "bounded_smooth", "a": 1.0, "b_mu": 0.5, "c": 0.5, "K": 4}
_DEFAULT_XI = [0.5, -0.3, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0]

RATE = {
    "operator": _DEFAULT_OPERATOR,
    "coefficients": _DEFAULT_COEFFS,
    "sim": {"T": 1.0, "h": 0.015625, "M": 1000, "seed": 1729,
            "xi": _DEFAULT_XI, "eta": 0.0},
    "study": {"kind": "rate",
              # the four largest scale ratios of configs/default.json
              "grid": [0.0625, 0.03125, 0.015625, 0.0078125],
              "m": 1.0, "h_fast_ratio": 0.0625, "n_replicas": 8, "out_dir": "out"},
}

PICARD = {
    "operator": _DEFAULT_OPERATOR,
    "coefficients": _DEFAULT_COEFFS,
    # M=256 is the exact-assignment limit of measures.wasserstein_exact
    "sim": {"T": 1.0, "h": 0.015625, "M": 256, "seed": 1729,
            "xi": _DEFAULT_XI, "eta": 0.0},
    "study": {"kind": "picard", "n_iters": 8, "out_dir": "out"},
}

# CLI subcommand and base config per workload
WORKLOADS = {
    "rate": ("rate-study", RATE),
    "picard": ("picard", PICARD),
}

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def child_seed(workload: str, seed: int, index: int) -> int:
    """sim.seed of the index-th study run of a benchmark run with ``seed``."""
    key = f"{workload}:{seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big") >> 1


# the smallest sizes, for the benchmark's self-test
SMALL = {
    "rate": {"sim": {"M": 64, "T": 0.25}},
    "picard": {"sim": {"M": 32, "T": 0.25}, "study": {"n_iters": 3}},
}

# the sliced-Wasserstein path of picard: one particle past the exact limit
SLICED_PROBE = {"sim": {"M": 257}}


def make_config(workload: str, sim_seed: int | None = None, overrides=None) -> dict:
    """Config for one study run; ``sim_seed=None`` keeps the shipped default seed.

    ``overrides`` maps a config section to keys replaced in it.
    """
    cfg = copy.deepcopy(WORKLOADS[workload][1])
    if sim_seed is not None:
        cfg["sim"]["seed"] = int(sim_seed)
    for section, values in (overrides or {}).items():
        cfg[section].update(values)
    return cfg


def sizes(cfg: dict) -> dict:
    """Input size of one study run: particle-steps, variates, batch layout.

    rate: one coupled (X, Y, Xbar) particle step counts once; picard:
    iterations x M x steps.  Variates are the standard stable draws the study needs at seed-commit semantics.
    """
    sim, study = cfg["sim"], cfg["study"]
    n_modes = cfg["operator"]["n_modes"]
    kind = study["kind"]
    if kind == "rate":
        steps = sum(round(sim["T"] / (e * study["h_fast_ratio"])) for e in study["grid"])
        particle_steps = sim["M"] * steps
        channels = 2  # slow and fast noise
        per_system = sim["M"] // study["n_replicas"]
        batch = per_system
    elif kind == "picard":
        particle_steps = study["n_iters"] * sim["M"] * round(sim["T"] / sim["h"])
        channels = 1
        per_system = batch = sim["M"]
    else:
        raise ValueError(f"unknown study kind {kind!r}")
    return {
        "particle_steps": int(particle_steps),
        "variates": int(particle_steps * channels * n_modes),
        "particles_per_system": int(per_system),
        "batch": int(batch),
    }


def _read_csv(path: Path):
    rows = path.read_text(encoding="utf-8").strip().splitlines()[1:]
    return [tuple(float(tok) for tok in row.split(",")) for row in rows]


def check_output(kind: str, result_dir: Path) -> str | None:
    """Seed-independent output invariants; returns None or the failure reason."""
    grid = _read_csv(result_dir / "result.csv")
    meta = json.loads((result_dir / "meta.json").read_text(encoding="utf-8"))
    flags = meta["flags"]
    if not grid:
        return "empty result grid"
    if kind == "rate":
        errors = [err for _, err, _ in grid]
        if not all(math.isfinite(e) and e > 0 for e in errors):
            return f"non-finite or non-positive error in {errors}"
        kept = [e for i, e in enumerate(errors) if str(i) not in flags]
        if any(b >= a for a, b in zip(kept, kept[1:])):
            return f"unflagged errors not strictly decreasing: {kept}"
        slope = meta["fitted_slope"]
        floor = 2.0 / 7.0 - 0.05
        if slope is None or not slope >= floor:
            return f"fitted slope {slope} below {floor:.4f}"
    elif kind == "picard":
        if not all(math.isfinite(v) for row in grid for v in row):
            return "non-finite flow distance"
        if not _distances_contract(grid):
            return f"law iteration not contracting: distances {[d for _, d, _ in grid]}"
    else:
        return f"unknown study kind {kind!r}"
    return None


def _distances_contract(grid) -> bool:
    """The contraction half of acceptance check c05, read off the distances.

    The iteration contracts when the distance shrinks at least once before
    the first iteration whose distance fails to shrink (the noise floor,
    where Monte Carlo resolution or an exact fixed point takes over).
    """
    d = [err for _, err, _ in grid]
    floor = next((n for n in range(1, len(d)) if d[n] >= d[n - 1]), len(d))
    return floor >= 2


def known_defects(kind: str, result_dir: Path) -> list[str]:
    """Output defects of the seed commit that are counted, not failed.

    ``picard-contracting-flag``: ``meta.contracting`` is false although the
    distances contract.  ``PicardReport.contracting`` includes the ratio
    that defines the noise floor, d[floor] / d[floor - 1] >= 1 (or 0/0 once
    the iteration reaches an exact fixed point), so every run that reaches
    its floor within ``n_iters`` reports false; about 1 study run in 20 of
    the picard workload does.
    """
    if kind != "picard":
        return []
    grid = _read_csv(result_dir / "result.csv")
    meta = json.loads((result_dir / "meta.json").read_text(encoding="utf-8"))
    if meta["meta"]["contracting"] is not _distances_contract(grid):
        return ["picard-contracting-flag"]
    return []


def recorded_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
