import copy
import dataclasses
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvspde import cli, coefficients, config, experiments, measures, noise, solver
from mvspde.cli import run
from mvspde.config import (
    ConfigError,
    build_coeffs,
    build_multiscale,
    build_sim,
    build_spec,
    load_config,
)
from mvspde.multiscale import MultiscaleConfig

REPO = Path(__file__).resolve().parents[1]

BASE_CFG = {
    "operator": {"n_modes": 4, "a": 2.0, "b": 1.0, "g": 1.0, "alpha": 1.5,
                 "theta": 1.0, "p": 1.0},
    "coefficients": {"variant": "bounded_smooth", "K": 4},
    "sim": {"T": 0.25, "h": 0.0625, "M": 16, "seed": 5,
            "xi": [0.5, -0.3, 0.2, 0.0]},
    "study": {"kind": "rate", "grid": [0.125, 0.0625, 0.03125, 0.015625],
              "m": 1.0, "h_fast_ratio": 0.0625, "n_replicas": 2,
              "out_dir": "out"},
}

# 1,920 fast steps per system over BASE_CFG's grid at T = 1, and enough
# particles that --threads 2 pays for two forked workers
FORKED_SIM = {"T": 1.0, "M": -(-2 * experiments.WORKER_PARTICLE_STEPS // 1920)}


def make_cfg(**section_overrides) -> dict:
    """BASE_CFG with sections updated; a None section or key is dropped."""
    cfg = copy.deepcopy(BASE_CFG)
    for section, changes in copy.deepcopy(section_overrides).items():
        if changes is None:
            cfg.pop(section, None)
        else:
            cfg[section].update(changes)
            for k in [k for k, v in changes.items() if v is None]:
                del cfg[section][k]
    return cfg


def write_cfg(tmp_path, name="cfg.json", **section_overrides):
    path = tmp_path / name
    path.write_text(json.dumps(make_cfg(**section_overrides)))
    return str(path)


def manifest_of(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    path = Path(out[-1])
    assert path.name == "manifest.json" and path.exists()
    return path


class TestValidate:
    def test_shipped_default_config_passes(self, capsys):
        code = run(["validate", "--config", str(REPO / "configs/default.json")])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        names = [line.split()[0].rstrip(":") for line in out]
        assert names == ["A1", "A3", "B1", "B2-slow", "B2-fast", "B3"]
        assert all("pass" in line for line in out)

    def test_shipped_aux_gap_config_passes(self, capsys):
        path = REPO / "configs/aux_gap.json"
        assert run(["validate", "--config", str(path)]) == 0
        assert all("pass" in line for line in capsys.readouterr().out.splitlines())
        # the aux-gap subcommand's kind guard accepts it
        assert load_config(path)["study"]["kind"] == "aux-gap"

    def test_vanishing_gap_names_dissipativity(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, coefficients={"c": 1.0})
        code = run(["validate", "--config", cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert "B3" in captured.err
        assert "lambda_1 - L_G" in captured.out + captured.err

    def test_unknown_key_rejected_with_pointer(self, tmp_path, capsys):
        raw = copy.deepcopy(BASE_CFG)
        raw["operator"]["n_mode"] = 4
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(raw))
        assert run(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "/operator" in err and "n_mode" in err

    def test_out_of_range_alpha_pointer(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, operator={"alpha": 2.0})
        assert run(["validate", "--config", cfg]) == 2
        assert "/operator/alpha" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run(["validate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unparseable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["validate", "--config", str(bad)]) == 2


class TestComputeGuards:
    def test_failed_assumption_blocks_compute(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, coefficients={"c": 1.0})
        assert run(["simulate", "--config", cfg]) == 2
        assert "B3" in capsys.readouterr().err

    def test_kind_mismatch_guard(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)  # study.kind = rate
        assert run(["simulate", "--config", cfg]) == 2
        assert "/study/kind" in capsys.readouterr().err

    def test_missing_grid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, study={"grid": None})
        assert run(["rate-study", "--config", cfg]) == 2
        assert "/study/grid" in capsys.readouterr().err

    def test_hoelder_needs_fast_step(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, study={"kind": "hoelder",
                                         "grid": [0.125, 0.0625]})
        assert run(["hoelder-study", "--config", cfg]) == 2
        assert "/sim/h_fast" in capsys.readouterr().err

    @pytest.mark.parametrize("command, shipped", [("rate-study", "smoke.json"),
                                                  ("hoelder-study", "hoelder.json")])
    def test_too_few_particles_per_replica(self, tmp_path, capsys, command, shipped):
        raw = json.loads((REPO / "configs" / shipped).read_text())
        raw["sim"]["M"] = 3
        path = tmp_path / shipped
        path.write_text(json.dumps(raw))
        assert run([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "/study/n_replicas" in err

    @pytest.mark.parametrize("command, kind, M", [("rate-study", "rate", 15),
                                                  ("aux-gap", "aux-gap", 7)])
    def test_replica_default_checked_against_M(self, tmp_path, capsys, command, kind, M):
        # no n_replicas key: rate splits into 8 systems, the increment studies into 4
        sections = {"rate": dict(sim={"M": M}, study={"n_replicas": None}),
                    "aux-gap": dict(sim={"M": M, "h_fast": 2**-9},
                                    study={"kind": kind, "n_replicas": None, "epsilon": 0.03125,
                                           "m": None, "h_fast_ratio": None})}
        cfg = write_cfg(tmp_path, **sections[kind])
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "/study/n_replicas" in capsys.readouterr().err

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        code = run(["rate-study", "--config", cfg, "--out", str(blocker)])
        assert code == 1
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.parametrize("failure, line", [
        # a bare MemoryError, as a study too large for the memory raises
        (MemoryError(), "runtime error: MemoryError in rate-study\n"),
        (MemoryError("Unable to allocate 8 GiB"), "runtime error: Unable to allocate 8 GiB\n"),
    ])
    def test_runtime_error_line_has_text(self, tmp_path, capsys, monkeypatch, failure, line):
        def study(*args, **kwargs):
            raise failure

        monkeypatch.setattr(cli, "rate_study", study)
        code = run(["rate-study", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == line
        assert not (tmp_path / "o").exists()


class TestThreadsOption:
    """--threads is at least 1, and above 1 only where a kind reads study.n_replicas."""

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_below_one_refused_everywhere(self, tmp_path, capsys, command, threads):
        out = tmp_path / "o"
        assert run([command, "--config", write_cfg(tmp_path), "--threads", threads,
                    "--out", str(out)]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "picard", "ergodicity", "validate"])
    def test_above_one_refused_where_one_process_runs(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        assert run([command, "--config", write_cfg(tmp_path), "--threads", "64",
                    "--out", str(out)]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_serial_kinds_are_those_without_replicas(self):
        serial = {kind for kind, row in config.STUDIES.items()
                  if "n_replicas" not in row.get("study", ())}
        assert serial == {"simulate", "picard", "ergodicity"}

    def test_one_accepted_where_one_process_runs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, sim={"M": 32},
                        study={"kind": "picard", "grid": None, "n_iters": 2,
                               "h_fast_ratio": None, "n_replicas": None, "m": None})
        assert run(["picard", "--config", cfg, "--threads", "1",
                    "--out", str(tmp_path / "o")]) == 0
        manifest_of(capsys)
        assert run(["validate", "--config", cfg, "--threads", "1"]) == 0



# Schema-admitted configs that an admissibility rule rejects before the
# first step: (subcommand, write_cfg overrides, JSON pointer of the fault).
_NO_RATE_KEYS = {"grid": None, "h_fast_ratio": None, "n_replicas": None}
_HOELDER = {"kind": "hoelder", "epsilon": 0.03125, "h_fast_ratio": None, "m": None}
_ERGODIC = dict(
    operator={"n_modes": 2},
    coefficients={"variant": "linear_test", "a": 1.0, "c": 0.5, "K": None},
    sim={"xi": [2.0, 0.0]},
)
CONFIG_FAULTS = {
    "T-over-h-not-whole": ("simulate", dict(
        sim={"T": 0.5, "h": 0.03}, study={"kind": "simulate", **_NO_RATE_KEYS}), "/sim/h"),
    "simulate-m-at-alpha": ("simulate", dict(
        study={"kind": "simulate", "m": 1.6, **_NO_RATE_KEYS}), "/study/m"),
    "rate-m-at-alpha": ("rate-study", dict(study={"m": 1.6}), "/study/m"),
    "rate-3-point-grid": ("rate-study", dict(
        study={"grid": [0.125, 0.0625, 0.03125]}), "/study/grid"),
    "rate-grid-not-decreasing": ("rate-study", dict(
        study={"grid": [0.0625, 0.125, 0.03125, 0.015625]}), "/study/grid"),
    "rate-h-fast-ratio": ("rate-study", dict(
        study={"h_fast_ratio": 0.5}), "/study/h_fast_ratio"),
    "rate-linear-family": ("rate-study", dict(
        coefficients={"variant": "linear_test", "K": None}), "/coefficients/variant"),
    "hoelder-delta-off-grid": ("hoelder-study", dict(
        sim={"h_fast": 2**-9}, study={**_HOELDER, "grid": [0.125, 1e-4]}), "/study/grid"),
    "aux-gap-delta-repeated": ("aux-gap", dict(
        sim={"h_fast": 2**-9}, study={**_HOELDER, "kind": "aux-gap",
                                      "grid": [0.125, 0.0625, 0.0625, 0.03125]}), "/study/grid"),
    "hoelder-1-point-grid": ("hoelder-study", dict(
        sim={"h_fast": 2**-9}, study={**_HOELDER, "grid": [0.125]}), "/study/grid"),
    "hoelder-h-fast-coarse": ("hoelder-study", dict(
        sim={"h_fast": 0.01}, study={**_HOELDER, "grid": [0.125, 0.0625]}), "/sim/h_fast"),
    "ergodicity-grid-not-increasing": ("ergodicity", dict(
        **_ERGODIC, study={**_NO_RATE_KEYS, "kind": "ergodicity", "grid": [1.0, 0.5],
                           "ensemble": 100, "m": None}), "/study/grid"),
    "ergodicity-t-off-step-grid": ("ergodicity", dict(
        **_ERGODIC, study={**_NO_RATE_KEYS, "kind": "ergodicity", "grid": [0.5, 1.0005],
                           "ensemble": 100, "m": None}), "/study/grid"),
    "picard-xi-too-long": ("picard", dict(
        sim={"M": 8, "xi": [0.1] * 5}, study={"kind": "picard", "n_iters": 2,
                                             **_NO_RATE_KEYS, "m": None}), "/sim/xi"),
    "rate-eta-too-long": ("rate-study", dict(sim={"eta": [0.0] * 5}), "/sim/eta"),
    "hoelder-eta-too-long": ("hoelder-study", dict(
        sim={"h_fast": 2**-9, "eta": [0.0] * 5}, study={**_HOELDER, "grid": [0.125, 0.0625]}),
        "/sim/eta"),
    "picard-weight-underflows": ("picard", dict(
        sim={"M": 8}, study={"kind": "picard", "lambda_weight": 1e300, "n_iters": 2,
                             **_NO_RATE_KEYS, "m": None}), "/study/lambda_weight"),
    "K-past-n-modes": ("rate-study", dict(coefficients={"K": 9}), "/coefficients/K"),
    # keys set where the subcommand's study kind or the family reads none
    "picard-grid-unread": ("picard", dict(
        sim={"M": 8}, study={**_NO_RATE_KEYS, "kind": "picard", "m": None,
                             "grid": [0.5]}), "/study/grid"),
    "picard-h-fast-unread": ("picard", dict(
        sim={"M": 8, "h_fast": 123}, study={**_NO_RATE_KEYS, "kind": "picard", "m": None}),
        "/sim/h_fast"),
    "picard-eta-not-zero": ("picard", dict(
        sim={"M": 8, "eta": [9.0]}, study={**_NO_RATE_KEYS, "kind": "picard", "m": None}),
        "/sim/eta"),
    "rate-h-fast-unread": ("rate-study", dict(sim={"h_fast": 123}), "/sim/h_fast"),
    "rate-epsilon-unread": ("rate-study", dict(study={"epsilon": 0.03125}), "/study/epsilon"),
    "ergodicity-linear-K-unread": ("ergodicity", dict(
        _ERGODIC, coefficients={**_ERGODIC["coefficients"], "K": 1000},
        study={**_NO_RATE_KEYS, "kind": "ergodicity", "grid": [0.5, 1.0], "ensemble": 100,
               "m": None}), "/coefficients/K"),
    "ergodicity-linear-b-mu-unread": ("ergodicity", dict(
        _ERGODIC, coefficients={**_ERGODIC["coefficients"], "b_mu": 0.5},
        study={**_NO_RATE_KEYS, "kind": "ergodicity", "grid": [0.5, 1.0], "ensemble": 100,
               "m": None}), "/coefficients/b_mu"),
}

# Configs whose numbers overflow while a study runs: (subcommand, shipped
# config, changes to its sections, words the error names).
RUNTIME_FAULTS = {
    "ergodicity-drift-overflows": ("ergodicity", "mixing.json",
                                   {"coefficients": {"a": 1e300}}, ("probe 1", "gap")),
    "ergodicity-eta-overflows": ("ergodicity", "mixing.json",
                                 {"sim": {"eta": 1e308}}, ("probe 1", "gap")),
}


class TestConfigFaults:
    @pytest.mark.parametrize("fault", list(CONFIG_FAULTS))
    def test_fault_exits_2_at_pointer(self, tmp_path, capsys, fault):
        command, overrides, pointer = CONFIG_FAULTS[fault]
        cfg = write_cfg(tmp_path, **copy.deepcopy(overrides))
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and pointer in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fault", list(RUNTIME_FAULTS))
    def test_runtime_fault_exits_1_naming_it(self, tmp_path, capsys, fault):
        command, shipped, changes, words = RUNTIME_FAULTS[fault]
        raw = json.loads((REPO / "configs" / shipped).read_text())
        for section, values in changes.items():
            raw[section].update(values)
        path = tmp_path / shipped
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "runtime error" in err and all(word in err for word in words)
        # the designed line is all the run writes to stderr, and numpy warns of nothing
        assert err.startswith("runtime error") and err.count("\n") == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("eta", [0.0, [0.0, 0.0, 0.0, 0.0]])
    def test_zero_eta_runs_where_no_study_reads_it(self, tmp_path, capsys, eta):
        cfg = write_cfg(tmp_path, sim={"M": 8, "eta": eta},
                        study={**_NO_RATE_KEYS, "kind": "picard", "n_iters": 2, "m": None})
        assert run(["picard", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        manifest_of(capsys)

    def test_parallel_rate_study_checks_moment_order_first(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, study={"m": 1.6})
        assert run(["rate-study", "--config", cfg, "--threads", "2",
                    "--out", str(tmp_path / "o")]) == 2
        assert "/study/m" in capsys.readouterr().err

    def test_moment_order_checked_before_any_bank_opens(self, tmp_path, capsys,
                                                         monkeypatch):
        opened = []
        real = noise.StableNoiseBank.__init__

        def spy(self, *args, **kwargs):
            opened.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(noise.StableNoiseBank, "__init__", spy)
        cfg = write_cfg(tmp_path, study={"kind": "simulate", "m": 1.6, **_NO_RATE_KEYS})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert opened == []

    def test_overflowing_law_statistic_is_runtime_error(self, tmp_path, capsys):
        # the fields stay finite, but |x|^p of the initial state overflows
        cfg = write_cfg(tmp_path, sim={"xi": [1e300, 0.0, 0.0, 0.0]},
                        study={"kind": "simulate", **_NO_RATE_KEYS})
        with np.errstate(over="ignore"):
            code = run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "runtime error" in err and "law statistic at step 0 of 4" in err
        assert not (tmp_path / "o").exists()


    def test_overflowing_picard_bound_names_the_iteration(self, tmp_path, capsys):
        # the iterates stay finite, but |x_i - y_i|^2 overflows at time 1
        cfg = write_cfg(tmp_path, coefficients={"a": 1e300}, sim={"M": 16},
                        study={**_PICARD, "n_iters": 8, "lambda_weight": 1.0})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["picard", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("runtime error: non-finite flow distance bound at time index 1 "
                       "(t = 0.0625): inf in Picard iteration 1 of 8\n")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "o").exists()


_PICARD = {"kind": "picard", "n_iters": 2, **_NO_RATE_KEYS, "m": None}
# Non-finite numbers, which Python's json reads and RFC 8259 JSON has not,
# on a picard config: (write_cfg overrides, JSON pointer of the number).
NON_FINITE = {
    "coefficient-nan": (dict(coefficients={"a": math.nan}), "/coefficients/a"),
    "coefficient-inf": (dict(coefficients={"a": math.inf}), "/coefficients/a"),
    "h-minus-inf": (dict(sim={"h": -math.inf}), "/sim/h"),
    "xi-nan": (dict(sim={"xi": math.nan}), "/sim/xi"),
    "xi-entry-inf": (dict(sim={"xi": [0.5, -math.inf]}), "/sim/xi"),
    "weight-nan": (dict(study={"lambda_weight": math.nan}), "/study/lambda_weight"),
    "n-iters-inf": (dict(study={"n_iters": math.inf}), "/study/n_iters"),
}
# Integer keys written as integral floats: (subcommand, write_cfg overrides,
# (section, key) of the float).
INTEGRAL_FLOATS = {
    "n_iters": ("picard", dict(sim={"M": 8}, study={**_PICARD, "n_iters": 3.0}),
                ("study", "n_iters")),
    "n_replicas": ("rate-study", dict(study={"n_replicas": 2.0}), ("study", "n_replicas")),
    "ensemble": ("ergodicity", dict(**_ERGODIC, study={
        **_NO_RATE_KEYS, "kind": "ergodicity", "grid": [0.5, 1.0, 1.5], "ensemble": 50.0,
        "m": None}), ("study", "ensemble")),
    "n_modes": ("picard", dict(operator={"n_modes": 8.0}, sim={"M": 8}, study=_PICARD),
                ("operator", "n_modes")),
}


class TestConfigNumbers:
    @pytest.mark.parametrize("case", list(NON_FINITE))
    def test_non_finite_number_exits_2_at_its_key(self, tmp_path, capsys, case):
        overrides, pointer = NON_FINITE[case]
        sections = {**overrides, "study": {**_PICARD, **overrides.get("study", {})}}
        cfg = write_cfg(tmp_path, **sections)
        assert run(["picard", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {pointer}:" in err and "finite" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", list(INTEGRAL_FLOATS))
    def test_integral_float_runs_as_its_int(self, tmp_path, capsys, case):
        command, overrides, (section, key) = INTEGRAL_FLOATS[case]
        as_float = make_cfg(**overrides)
        as_int = copy.deepcopy(as_float)
        as_int[section][key] = int(as_float[section][key])
        assert isinstance(as_float[section][key], float)
        assert config.load_config(write_cfg(tmp_path, "f.json", **overrides)) == as_int
        dirs = []
        for name, doc in (("float", as_float), ("int", as_int)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            assert run([command, "--config", str(path), "--out", str(tmp_path / name)]) == 0
            dirs.append(manifest_of(capsys).parent)
        # the key reaches the builders, and meta.json's config, as an int
        for name in ("result.csv", "meta.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


# Schema cases of the tests above, as the documents load_config checks.
SCHEMA_CASES = {
    "unknown-key": make_cfg(operator={"n_mode": 4}),
    "alpha-at-maximum": make_cfg(operator={"alpha": 2.0}),
    "two-faults": make_cfg(operator={"alpha": 2.5}, study={"kind": "nonsense"}),
    "seed-negative": make_cfg(sim={"seed": -3}),
    "seed-past-64-bits": make_cfg(sim={"seed": 2**64}),
    "seed-at-maximum": make_cfg(sim={"seed": 2**64 - 1}),
    "no-study": make_cfg(study=None),
    **{f"fault-{name}": make_cfg(**overrides)
       for name, (_, overrides, _) in CONFIG_FAULTS.items()},
    **{f"integral-{name}": make_cfg(**overrides)
       for name, (_, overrides, _) in INTEGRAL_FLOATS.items()},
}

_LEAVES = {(section, key): sub
           for section, sect in config.SCHEMA["properties"].items()
           for key, sub in sect["properties"].items()}


def _edge_values(schema: dict) -> list:
    """Each bound of ``schema``, one ulp either side of it and its integer neighbours;
    empty and non-numeric arrays where it admits an array."""
    out = []
    if "array" in json.dumps(schema):
        out += [[], [[]], ["x"], [True], [None], [0.5, "x"], [0.5, False]]
    for keyword in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"):
        if keyword in schema:
            bound = schema[keyword]
            out += [bound, float(bound), bound - 1, bound + 1,
                    math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
    return out


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_VALUES = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.integers(-3, 3), st.integers(), _FINITE,
    st.sampled_from(["picard", "rate", "linear_test"]),
    st.lists(st.one_of(_FINITE, st.integers(-3, 3), st.booleans(), st.text(max_size=2)),
             max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def mutated_configs(draw):
    """BASE_CFG after one to three drops, unknown keys, wrong types or edge values."""
    doc = copy.deepcopy(BASE_CFG)
    for _ in range(draw(st.integers(1, 3))):
        section, key = draw(st.sampled_from(sorted(_LEAVES)))
        kind = draw(st.sampled_from(["set", "edge", "drop", "unknown", "section", "root"]))
        target = doc.get(section)
        if kind == "root":
            doc[draw(st.sampled_from(["extra", "Sim", section]))] = draw(_VALUES)
        elif kind == "section":
            doc[section] = draw(st.one_of(st.just(None), _VALUES))
            if doc[section] is None:
                del doc[section]
        elif not isinstance(target, dict):
            continue
        elif kind == "drop":
            target.pop(key, None)
        elif kind == "unknown":
            target[draw(st.sampled_from(["n_mode", "Kind", "", "T "]))] = draw(_VALUES)
        elif kind == "edge" and _edge_values(_LEAVES[section, key]):
            target[key] = draw(st.sampled_from(_edge_values(_LEAVES[section, key])))
        else:
            target[key] = draw(_VALUES)
    return doc


def _interpreted_pointer(doc):
    try:
        config._validate(copy.deepcopy(doc))
    except ConfigError as exc:
        return exc.pointer
    return None


@pytest.fixture(scope="module")
def reference_pointer():
    """First error pointer, in path order, from the draft 2020-12 reference validator."""
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(config.SCHEMA)

    def first(doc):
        errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
        return "/" + "/".join(str(t) for t in errors[0].absolute_path) if errors else None

    return first


class TestSchemaInterpreter:
    """The config checker against the reference validator, on finite documents."""

    @pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.json")),
                             ids=lambda p: p.name)
    def test_shipped_configs_agree(self, reference_pointer, path):
        doc = json.loads(path.read_text())
        assert reference_pointer(doc) is None
        assert _interpreted_pointer(doc) is None

    @pytest.mark.parametrize("case", list(SCHEMA_CASES))
    def test_listed_cases_agree(self, reference_pointer, case):
        doc = SCHEMA_CASES[case]
        assert _interpreted_pointer(doc) == reference_pointer(doc)

    @pytest.mark.parametrize("root", [[], 1, 1.5, "cfg", None, True, [BASE_CFG]])
    def test_non_object_root_agrees(self, reference_pointer, root):
        assert _interpreted_pointer(root) == reference_pointer(root) == "/"

    @settings(max_examples=600)
    @given(doc=mutated_configs())
    def test_mutated_configs_agree(self, reference_pointer, doc):
        pointer = _interpreted_pointer(doc)
        assert pointer == reference_pointer(doc)
        if pointer is None:  # an accepted document keeps its values
            assert config._validate(copy.deepcopy(doc)) == doc

    @pytest.mark.parametrize("case", list(NON_FINITE))
    def test_non_finite_numbers_are_the_one_difference(self, reference_pointer, case):
        overrides, pointer = NON_FINITE[case]
        doc = make_cfg(**overrides)
        # the draft admits NaN and infinities everywhere but at an integer key
        # and out of bounds; where it admits one, the checker still stops it
        assert reference_pointer(doc) in (None, pointer)
        assert _interpreted_pointer(doc) == pointer

    def test_every_schema_keyword_is_interpreted(self):
        def keywords(schema):
            for key, arg in schema.items():
                yield key
                subs = arg.values() if key == "properties" else \
                    arg if isinstance(arg, list) else [arg]
                for sub in subs:
                    if isinstance(sub, dict):
                        yield from keywords(sub)

        used = set(keywords(config.SCHEMA))
        assert used <= config._KEYWORDS
        assert {"oneOf", "items", "minItems", "enum", "exclusiveMaximum"} <= used

    @pytest.mark.parametrize("change", [
        {"pattern": "^[a-z]+$"}, {"additionalProperties": True}, {"type": ["string", "null"]},
        {"enum": ["picard", 1]},
    ])
    def test_uninterpretable_schema_refused(self, change):
        schema = copy.deepcopy(config.SCHEMA)
        schema["properties"]["coefficients"]["properties"]["variant"].update(change)
        with pytest.raises(NotImplementedError):
            config._assert_interpretable(schema)


class TestSmokeRuns:
    def test_shipped_smoke_rate_study(self, tmp_path, capsys):
        code = run(["rate-study", "--config", str(REPO / "configs/smoke.json"),
                    "--out", str(tmp_path)])
        assert code == 0
        manifest = manifest_of(capsys)
        rows = (manifest.parent / "result.csv").read_text().splitlines()
        assert len(rows) == 1 + 4

    def test_manifest_records_peak_rss(self, tmp_path, capsys):
        assert run(["rate-study", "--config", write_cfg(tmp_path), "--threads", "2",
                    "--out", str(tmp_path / "o")]) == 0
        manifest = manifest_of(capsys)
        assert json.loads(manifest.read_text())["peak_rss_mb"] > 0.0
        for name in ("result.csv", "meta.json"):
            assert "rss" not in (manifest.parent / name).read_text()

    def test_manifest_records_numpy_kernel_class(self, tmp_path, capsys):
        assert run(["rate-study", "--config", write_cfg(tmp_path),
                    "--out", str(tmp_path / "o")]) == 0
        manifest = manifest_of(capsys)
        record = json.loads(manifest.read_text())["numpy"]
        assert record["version"] == np.__version__
        assert record["kernels"] == noise.numpy_kernels()
        if record["kernels"] is not None:
            assert sorted(record["kernels"]) == sorted(noise.BIT_PATH_UFUNCS)
        for name in ("result.csv", "meta.json"):
            text = (manifest.parent / name).read_text()
            assert all(word not in text for word in ("numpy", "kernels", "workers"))

    def test_simulate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, study={"kind": "simulate", "grid": None,
                                         "h_fast_ratio": None,
                                         "n_replicas": None})
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        manifest = manifest_of(capsys)
        meta = json.loads((manifest.parent / "meta.json").read_text())
        assert meta["kind"] == "simulate"

    def test_picard(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, sim={"M": 128},
                        study={"kind": "picard", "grid": None, "n_iters": 4,
                               "h_fast_ratio": None, "n_replicas": None, "m": None})
        assert run(["picard", "--config", cfg, "--out",
                    str(tmp_path / "o")]) == 0
        meta = json.loads((manifest_of(capsys).parent / "meta.json").read_text())
        assert meta["meta"]["contracting"] is True

    def test_picard_fixed_point_meta_is_strict_json(self, tmp_path, capsys):
        # past n_steps + 1 iterations every distance is exactly 0 and the
        # ratios 0/0; meta.json writes them as null, never as NaN
        cfg = write_cfg(tmp_path, sim={"M": 8, "T": 0.125},
                        study={"kind": "picard", "grid": None, "n_iters": 20,
                               "h_fast_ratio": None, "n_replicas": None, "m": None})
        assert run(["picard", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        root = manifest_of(capsys).parent

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        for name in ("meta.json", "manifest.json"):
            json.loads((root / name).read_text(), parse_constant=reject)
        meta = json.loads((root / "meta.json").read_text())
        assert None in meta["meta"]["ratios"]

    def test_ergodicity(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            operator={"n_modes": 2},
            coefficients={"variant": "linear_test", "a": 1.0, "c": 0.5,
                          "K": None},
            sim={"xi": [2.0, 0.0], "M": 16},
            study={"kind": "ergodicity", "grid": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
                   "ensemble": 1500, "h_fast_ratio": None, "n_replicas": None,
                   "m": None},
        )
        assert run(["ergodicity", "--config", cfg, "--out",
                    str(tmp_path / "o")]) == 0
        manifest = manifest_of(capsys)
        meta = json.loads((manifest.parent / "meta.json").read_text())
        assert meta["meta"]["theory_rate"] == pytest.approx(0.5)
        rates = [row.split(",")[1] for row in
                 (manifest.parent / "result.csv").read_text().splitlines()[1:]]
        assert all(abs(float(r) - 0.5) < 0.15 for r in rates)

    def test_hoelder(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            sim={"T": 0.5, "h": 0.03125, "M": 32, "h_fast": 2**-9},
            study={"kind": "hoelder", "grid": [0.125, 0.0625, 0.03125, 0.015625],
                   "epsilon": 0.03125, "h_fast_ratio": None, "n_replicas": 2,
                   "m": None},
        )
        assert run(["hoelder-study", "--config", cfg, "--out",
                    str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "fitted slope" in out


    def test_aux_gap(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            sim={"T": 0.5, "h": 0.03125, "M": 32, "h_fast": 2**-9},
            study={"kind": "aux-gap", "grid": [0.125, 0.0625, 0.03125, 0.015625],
                   "epsilon": 0.03125, "h_fast_ratio": None, "n_replicas": 2,
                   "m": None},
        )
        assert run(["aux-gap", "--config", cfg, "--out",
                    str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "fitted slope" in out
        manifest = Path(out.strip().splitlines()[-1])
        assert manifest.parent.parent.name == "aux-gap"
        meta = json.loads((manifest.parent / "meta.json").read_text())
        assert meta["meta"]["error_kind"] == "aux"


ERGODICITY_SECTIONS = {
    "operator": {"n_modes": 2},
    "coefficients": {"variant": "linear_test", "a": 1.0, "c": 0.5, "K": None},
    "sim": {"xi": [2.0, 0.0]},
}


class TestStudyDefaults:
    # (subcommand, study function, keys it defaults, other config changes)
    CASES = {
        "picard": ("picard", experiments.picard_study, ("n_iters",),
                   {"study": {"kind": "picard", "grid": None, "h_fast_ratio": None,
                              "n_replicas": None, "m": None}}),
        "ergodicity": ("ergodicity", experiments.ergodicity_study, ("ensemble", "h_step"),
                       dict(ERGODICITY_SECTIONS, study={
                           "kind": "ergodicity", "grid": [0.5, 1.0, 1.5],
                           "h_fast_ratio": None, "n_replicas": None, "m": None})),
        "rate": ("rate-study", experiments.rate_study, ("m", "h_fast_ratio"), {}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_omitted_keys_run_at_the_signature_defaults(self, tmp_path, capsys, case):
        command, study_fn, keys, changes = self.CASES[case]
        params = inspect.signature(study_fn).parameters
        runs = {}
        for name, values in (("omitted", dict.fromkeys(keys)),
                             ("set", {k: params[k].default for k in keys})):
            sections = copy.deepcopy(changes)
            sections.setdefault("study", {}).update(values)
            cfg = write_cfg(tmp_path, name=f"{name}.json", **sections)
            assert run([command, "--config", cfg, "--out", str(tmp_path / name)]) == 0
            runs[name] = manifest_of(capsys).parent
        omitted, given = runs["omitted"], runs["set"]
        assert (omitted / "result.csv").read_bytes() == (given / "result.csv").read_bytes()
        # meta.json records the config file itself, so only its own section
        # and hash tell the two runs apart
        metas = [json.loads((d / "meta.json").read_text()) for d in (omitted, given)]
        for meta in metas:
            del meta["config"], meta["config_hash"]
        assert metas[0] == metas[1]


def _perfbench_workloads():
    """perfbench/workloads.py, read as a module and left as it is."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checked(tmp_path, doc, kind):
    """``doc`` through load_config's schema and the key check of ``kind``."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    loaded = load_config(path)
    config.check_keys(loaded, kind)
    return loaded


class TestStudyTable:
    """The study table, SCHEMA, the study signatures and the configs in use agree."""

    STUDY_FUNCTIONS = {
        "simulate": experiments.simulate_study, "picard": experiments.picard_study,
        "ergodicity": experiments.ergodicity_study, "rate": experiments.rate_study,
        "hoelder": experiments.hoelder_study, "aux-gap": experiments.aux_gap_study,
    }

    @staticmethod
    def _schema_keys(section):
        return set(config.SCHEMA["properties"][section]["properties"])

    def test_every_schema_key_is_read_somewhere(self):
        for section in ("sim", "study"):
            read = {key for row in (config.BASE_KEYS, *config.STUDIES.values())
                    for key in row.get(section, ())}
            assert self._schema_keys(section) == read, section
        family = {key for keys in coefficients.FAMILY_KEYS.values() for key in keys}
        assert self._schema_keys("coefficients") == {"variant"} | family

    def test_every_table_key_is_a_schema_key(self):
        assert set(config.STUDIES) == set(config.SCHEMA["properties"]["study"]["properties"]
                                          ["kind"]["enum"]) == set(self.STUDY_FUNCTIONS)
        for row in (config.BASE_KEYS, *config.STUDIES.values()):
            assert set(row) <= {"sim", "study"}
            for section, keys in row.items():
                assert set(keys) <= self._schema_keys(section)
        assert set(config.REQUIRED) <= self._schema_keys("sim") | self._schema_keys("study")

    @pytest.mark.parametrize("kind", list(config.STUDIES))
    def test_optional_keys_are_study_parameters(self, kind):
        params = inspect.signature(self.STUDY_FUNCTIONS[kind]).parameters
        optional = [key for key in config.STUDIES[kind].get("study", ())
                    if key not in config.REQUIRED]
        assert all(params[key].default is not inspect.Parameter.empty for key in optional)

    @pytest.mark.parametrize("workload", ["rate", "picard"])
    @pytest.mark.parametrize("small", [False, True], ids=["default", "small"])
    def test_benchmark_workloads_pass(self, tmp_path, workload, small):
        bench = _perfbench_workloads()
        command, _ = bench.WORKLOADS[workload]
        doc = bench.make_config(workload, overrides=bench.SMALL[workload] if small else None)
        _checked(tmp_path, doc, cli._COMMANDS[command][0])

    @pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.json")),
                             ids=lambda p: p.name)
    def test_shipped_configs_pass(self, tmp_path, path):
        doc = json.loads(path.read_text())
        _checked(tmp_path, doc, doc["study"]["kind"])

    def test_library_configs_pass(self, tmp_path, spec4):
        smooth = coefficients.BuiltinFamily("bounded_smooth", c=0.25, n_active=3).build(spec4)
        linear = coefficients.BuiltinFamily("linear_test").build(spec4)
        base = solver.SimConfig(spec=spec4, coeffs=smooth, T=0.25, h=0.125, M=4, seed=2,
                                xi=0.3)
        ms = MultiscaleConfig(base=base, epsilon=2**-5, h_fast=2**-9, eta=0.1)
        results = [
            experiments.rate_study(base, [2**-4, 2**-5, 2**-6, 2**-7], n_replicas=2),
            experiments.hoelder_study(ms, [2**-6, 2**-5], n_replicas=2),
            experiments.aux_gap_study(ms, [2**-6, 2**-5], n_replicas=2),
            experiments.picard_study(base, n_iters=2),
            experiments.simulate_study(base),
            experiments.simulate_study(dataclasses.replace(base, coeffs=linear), m=1.0),
        ]
        for res in results:
            assert _checked(tmp_path, res.config, res.kind) == res.config
        # the linear family reads no b_mu or K, and its record holds none
        assert results[-1].config["coefficients"] == {"variant": "linear_test", "a": 1.0,
                                                      "c": 0.5}


class TestDeterminismFlags:
    def test_threads_do_not_change_results(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, sim=FORKED_SIM)
        assert run(["rate-study", "--config", cfg, "--out",
                    str(tmp_path / "t1")]) == 0
        m1 = manifest_of(capsys)
        assert run(["rate-study", "--config", cfg, "--threads", "2", "--out",
                    str(tmp_path / "t2")]) == 0
        m2 = manifest_of(capsys)
        for name in ("result.csv", "meta.json", "loglog.dat"):
            assert (m1.parent / name).read_bytes() == \
                (m2.parent / name).read_bytes()
        assert [json.loads(m.read_text())["workers"] for m in (m1, m2)] == [1, 2]

    def test_small_study_forks_no_worker(self, tmp_path, capsys):
        # 16 particles x 480 fast steps pay for no worker at any --threads
        assert run(["rate-study", "--config", write_cfg(tmp_path), "--threads", "8",
                    "--out", str(tmp_path / "o")]) == 0
        assert json.loads(manifest_of(capsys).read_text())["workers"] == 1

    def test_seed_override_changes_hash_reproducibly(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert run(["rate-study", "--config", cfg, "--seed", "99", "--out",
                    str(tmp_path / "s1")]) == 0
        m1 = manifest_of(capsys)
        assert run(["rate-study", "--config", cfg, "--seed", "99", "--out",
                    str(tmp_path / "s2")]) == 0
        m2 = manifest_of(capsys)
        assert m1.parent.name == m2.parent.name  # same overridden config hash
        assert (m1.parent / "result.csv").read_bytes() == \
            (m2.parent / "result.csv").read_bytes()
        assert run(["rate-study", "--config", cfg, "--out",
                    str(tmp_path / "s3")]) == 0
        m3 = manifest_of(capsys)
        assert m3.parent.name != m1.parent.name
        assert (m3.parent / "result.csv").read_bytes() != \
            (m1.parent / "result.csv").read_bytes()


class TestConfigBuilders:
    def test_load_and_build_round(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        spec = build_spec(cfg)
        assert spec.n_modes == 4
        coeffs = build_coeffs(cfg, spec)
        assert coeffs.variant == "bounded_smooth"
        base = build_sim(cfg, spec, coeffs)
        assert base.M == 16 and base.seed == 5
        assert base.xi[0] == 0.5

    def test_seed_override_plumbed(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, sim={"M": 8}, study=_PICARD)
        assert run(["picard", "--config", cfg, "--seed", "77",
                    "--out", str(tmp_path / "o")]) == 0
        meta = json.loads((manifest_of(capsys).parent / "meta.json").read_text())
        assert meta["config"]["sim"]["seed"] == 77
        assert meta["seeds"] == [77]  # the simulation ran on the override

    @pytest.mark.parametrize("seed", ["-3", str(2**64)])
    def test_out_of_range_seed_override_rejected_at_pointer(self, tmp_path, capsys, seed):
        # an override meets the schema, so it cannot alias another seed's stream
        assert run(["rate-study", "--config", write_cfg(tmp_path), "--seed", seed,
                    "--out", str(tmp_path / "o")]) == 2
        assert "/sim/seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_multiscale_pointer_errors(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        spec = build_spec(cfg)
        coeffs = build_coeffs(cfg, spec)
        base = build_sim(cfg, spec, coeffs)
        with pytest.raises(ConfigError) as exc:
            build_multiscale(cfg, base)
        assert exc.value.pointer == "/sim/h_fast"
        cfg["sim"]["h_fast"] = 2**-9
        with pytest.raises(ConfigError) as exc:
            build_multiscale(cfg, base)
        assert exc.value.pointer == "/study/epsilon"
        cfg["study"]["epsilon"] = 2**-5
        ms = build_multiscale(cfg, base)
        assert ms.epsilon == 2**-5 and ms.h_fast == 2**-9

    def test_schema_reports_first_error_by_path(self, tmp_path):
        raw = copy.deepcopy(BASE_CFG)
        raw["operator"]["alpha"] = 2.5
        raw["study"]["kind"] = "nonsense"
        path = tmp_path / "multi.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert exc.value.pointer == "/operator/alpha"


class TestBenchmarkHooks:
    """The module attributes and parameters that span hooks outside the package wrap."""

    def test_hooked_names_and_parameters_exist(self):
        for mod, name in ((cli, "rate_study"), (cli, "picard_study"), (cli, "persist"),
                          (cli, "load_config"), (coefficients.BuiltinFamily, "build"),
                          (solver, "simulate_mkv"), (solver, "dT_metric"),
                          (measures, "wasserstein_exact")):
            assert callable(getattr(mod, name)), name
        assert "cfg" in inspect.signature(experiments.strong_error_stats).parameters
        assert "config" in inspect.signature(solver.simulate_mkv).parameters
        assert "n_particles" in inspect.signature(noise.StableNoiseBank.__init__).parameters

    def test_cli_reaches_hooks_at_call_time(self, tmp_path, capsys, monkeypatch):
        seen = []

        def spy(owner, name):
            real = getattr(owner, name)

            def wrapped(*args, **kwargs):
                out = real(*args, **kwargs)
                seen.append((name, args[0], out))
                return out

            monkeypatch.setattr(owner, name, wrapped)

        for name in ("rate_study", "picard_study"):
            spy(cli, name)
        spy(coefficients.BuiltinFamily, "build")
        spy(experiments, "strong_error_stats")
        assert run(["rate-study", "--config", write_cfg(tmp_path),
                    "--out", str(tmp_path / "o")]) == 0
        picard = write_cfg(tmp_path, "picard.json", sim={"M": 8}, study=_PICARD)
        assert run(["picard", "--config", picard, "--out", str(tmp_path / "o")]) == 0
        names = [name for name, _, _ in seen]
        assert names.count("rate_study") == names.count("picard_study") == 1
        built = [out for name, _, out in seen if name == "build"]
        # every stepped system reads the set the CLI built through BuiltinFamily.build
        stepped = [cfg.base.coeffs for name, cfg, _ in seen if name == "strong_error_stats"]
        assert stepped and all(co is built[0] for co in stepped)

    def test_traced_picard_runs_through_the_benchmark_hooks(self, tmp_path):
        # perfbench/spans.py looks the package's names up when it installs
        # its traced hooks, so a rename breaks the benchmark's traced run;
        # sliced W_p, one particle past the exact-assignment limit
        cfg = write_cfg(tmp_path, sim={"M": measures.EXACT_ASSIGNMENT_LIMIT + 1},
                        study=dict(_PICARD, n_iters=3))
        code = ("import sys, spans, mvspde.cli as cli; tracer = spans.Tracer(); "
                "spans.install_traced(tracer, cli); print(cli.run(sys.argv[1:])); "
                "print(tracer.report()['spans']['study']['calls'])")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO / "perfbench")])}
        proc = subprocess.run([sys.executable, "-c", code, "picard", "--config", cfg,
                               "--out", str(tmp_path / "o")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-2:] == ["0", "1"]


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    # importing the scipy.optimize package costs about half a second; exact
    # W_p loads only its compiled assignment kernel, so neither importing
    # the CLI nor a picard run on the exact path imports the package; a
    # later import of the package hands out that same loaded function
    cfg = write_cfg(tmp_path, sim={"M": 8}, study=_PICARD)
    code = ("import sys, mvspde.cli; print('scipy.optimize' in sys.modules); "
            "print(mvspde.cli.run(sys.argv[1:])); print('scipy.optimize' in sys.modules); "
            "import scipy.optimize, mvspde.measures as m; "
            "print(scipy.optimize.linear_sum_assignment is m.assignment_solver()); "
            "print(m.assignment_solver.cache_info().misses)")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", code, "picard", "--config", cfg,
                           "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert [lines[0], *lines[-4:]] == ["False", "0", "False", "True", "1"]


def test_serial_run_imports_no_schema_library_or_process_pool(tmp_path):
    # jsonschema and the process pool each cost start-up time; a --threads 1
    # run needs neither, and --threads 2 still writes the --threads 1 bytes
    picard = write_cfg(tmp_path, "picard.json", sim={"M": 8}, study=_PICARD)
    rate = write_cfg(tmp_path, "rate.json", sim=FORKED_SIM)
    code = ("import json, sys, mvspde.cli as cli\n"
            "mods = ('jsonschema', 'multiprocessing', 'concurrent.futures')\n"
            "loaded = lambda: [m for m in mods if m in sys.modules]\n"
            "picard, rate, out = sys.argv[1:]\n"
            "seen = [loaded()]\n"
            "codes = [cli.run(['picard', '--config', picard, '--out', out + '/p'])]\n"
            "codes.append(cli.run(['rate-study', '--config', rate, '--threads', '1',\n"
            "                      '--out', out + '/t1']))\n"
            "seen.append(loaded())\n"
            "codes.append(cli.run(['rate-study', '--config', rate, '--threads', '2',\n"
            "                      '--out', out + '/t2']))\n"
            "print(json.dumps([seen, codes, loaded()]))")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", code, picard, rate, str(tmp_path / "o")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen, codes, after_pool = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == [[], []] and codes == [0, 0, 0]
    assert "concurrent.futures" in after_pool  # the pool path did run
    t1, t2 = ([p for p in (tmp_path / "o" / t).rglob("*") if p.is_file()]
              for t in ("t1", "t2"))
    for name in ("result.csv", "meta.json"):
        one, two = ([p for p in files if p.name == name] for files in (t1, t2))
        assert len(one) == len(two) == 1
        assert one[0].read_bytes() == two[0].read_bytes()
