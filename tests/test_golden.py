"""Pinned output digests: the bytes of result.csv for small CLI studies.

Each digest was recorded from the code before the Picard iteration was
sped up (pruned weighted-Wasserstein sup, noise drawn once per study).  A
change that alters these bytes must say so and re-record them.
"""

import copy
import hashlib
import json
from pathlib import Path

import pytest

from mvspde.cli import run

BASE_CFG = {
    "operator": {"n_modes": 4, "a": 2.0, "b": 1.0, "g": 1.0, "alpha": 1.5,
                 "theta": 1.0, "p": 1.0},
    "coefficients": {"variant": "bounded_smooth", "K": 4},
    "sim": {"T": 0.25, "h": 0.0625, "M": 64, "seed": 5,
            "xi": [0.5, -0.3, 0.2, 0.0]},
    "study": {"kind": "picard", "n_iters": 4, "out_dir": "out"},
}

# name -> (command, section overrides, sha256 of result.csv)
CASES = {
    # exact assignment path of the flow distance
    "picard-exact": ("picard", {}, "bf0ebcbcdbbafc2db83c9d52a3bb42c4006d60033fa09e0b08d59756afa0ca24"),
    # more steps than one noise block of simulate_mkv
    "picard-long": (
        "picard",
        {"sim": {"M": 8, "T": 0.5, "h": 1 / 1200, "seed": 3}, "study": {"n_iters": 3}},
        "2f9b65835327d29eb873b8186b37499e5566b3591d70367f829916f2f1a1952d",
    ),
    # moment order p = 1.25, more iterations
    "picard-p125": (
        "picard",
        {"operator": {"p": 1.25},
         "sim": {"M": 32, "T": 0.5, "h": 0.03125, "seed": 11}, "study": {"n_iters": 6}},
        "f834a7a110633ebcc1303a5c03ad4611cacbff265ddcdaa5f2a6be5e9bb15b18",
    ),
    # the interacting system, on simulate_mkv's self-drawing noise path
    "simulate": (
        "simulate",
        {"sim": {"T": 0.5, "h": 1 / 1200, "M": 16}, "study": {"kind": "simulate", "n_iters": None}},
        "530a72bff197ac1280e30246875416621992b2244827efbf416da790b6d5383e",
    ),
}


def csv_digest(tmp_path, command, overrides):
    cfg = copy.deepcopy(BASE_CFG)
    for section, changes in overrides.items():
        cfg[section].update(changes)
        for key in [k for k, v in changes.items() if v is None]:
            del cfg[section][key]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    (csv,) = Path(tmp_path / "o").glob(f"{command}/*/result.csv")
    return hashlib.sha256(csv.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_digest(name, tmp_path, capsys):
    command, overrides, digest = CASES[name]
    assert csv_digest(tmp_path, command, overrides) == digest
