"""Release gate: ten numbered end-to-end checks, one test (one line) each.

Each test pins its tolerances inline and prints the measured numbers, so a
``pytest -v`` run of this module reads as a checklist.  The checks lean on
the shipped configs where possible (``configs/default.json`` for the strong
rate, ``configs/hoelder.json`` for the increment studies,
``configs/mixing.json`` for the frozen-equation oracles) so the gate
exercises the same entry points a user would.

Check 9 compares thread counts; on a single-core box the byte-identity half
can pass while the speedup half cannot, and it is expected to fail there
rather than be skipped.
"""

import copy
import csv
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from mvspde.cli import PROBE_SCALES, run
from mvspde.coefficients import (
    CoefficientSet,
    averaged_drift,
    bounded_smooth,
    effective_constants,
    linear_test,
)
from mvspde.config import (
    build_coeffs,
    build_multiscale,
    build_sim,
    build_spec,
    load_config,
)
from mvspde.experiments import aux_gap_study, ergodicity_study, hoelder_study
from mvspde.multiscale import (
    FrozenInput,
    MultiscaleConfig,
    ergodic_fbar,
    simulate_frozen,
)
from mvspde.noise import (
    RngStream,
    chf_estimate,
    convolution_scales,
    sample_convolution_increment,
    sample_standard_stable,
    tail_slope,
)
from mvspde.solver import SimConfig, picard_law_iteration
from mvspde.spectral import OperatorSpec

REPO = Path(__file__).resolve().parents[1]


def _rate_run(config_path, out_dir, threads):
    """CLI rate study; returns (result dir, wall seconds)."""
    t0 = time.perf_counter()
    code = run(["rate-study", "--config", str(config_path),
                "--threads", str(threads), "--out", str(out_dir)])
    wall = time.perf_counter() - t0
    assert code == 0
    (hash_dir,) = (Path(out_dir) / "rate").iterdir()
    return hash_dir, wall


def _read_rows(result_dir):
    with open(result_dir / "result.csv") as f:
        return [(float(r["param"]), float(r["error"]), float(r["stderr"]))
                for r in csv.DictReader(f)]


@pytest.fixture(scope="module")
def rate_baseline(tmp_path_factory):
    """Single-threaded full-scale strong-rate run shared by checks 8-10."""
    out = tmp_path_factory.mktemp("rate_t1")
    return _rate_run(REPO / "configs/default.json", out, threads=1)


class TestAcceptance:
    def test_c01_noise_correctness(self):
        t0 = time.perf_counter()
        n = 1_000_000
        bound = 4.0 / np.sqrt(n)
        for i, alpha in enumerate((1.2, 1.5, 1.8)):
            draws = sample_standard_stable(RngStream(900 + i), alpha, n)
            for h in (0.5, 1.0, 2.0):
                err = abs(chf_estimate(draws, h) - np.exp(-h ** alpha))
                print(f"alpha={alpha} h={h}: chf error {err:.2e} "
                      f"(bound {bound:.2e})")
                assert err <= bound
            slope = tail_slope(draws)
            print(f"alpha={alpha}: tail slope {slope:.3f}")
            assert abs(slope + alpha) <= 0.15
        wall = time.perf_counter() - t0
        print(f"runtime {wall:.1f}s (< 30s)")
        assert wall < 30.0

    def test_c02_exact_convolution_law(self):
        t0 = time.perf_counter()
        spec = OperatorSpec(n_modes=3, a=2.0, b=1.0, g=1.0, alpha=1.5,
                            theta=1.0, p=1.0)
        sig = convolution_scales(spec, 1.0)
        assert sig[0] == pytest.approx(0.6449182519666063, abs=1e-12)
        n = 100_000
        inc = sample_convolution_increment(spec, 1.0, RngStream(41), size=n)
        for k in range(spec.n_modes):
            ref = sig[k] * sample_standard_stable(RngStream(42 + k), 1.5, n)
            ks = stats.ks_2samp(inc[:, k], ref)
            print(f"mode {k + 1}: KS p-value {ks.pvalue:.4f} (need > 1e-3)")
            assert ks.pvalue > 1e-3
        wall = time.perf_counter() - t0
        print(f"runtime {wall:.1f}s (< 10s)")
        assert wall < 10.0

    def test_c03_frozen_equation_oracle(self):
        t0 = time.perf_counter()
        cfg = load_config(str(REPO / "configs/mixing.json"))
        spec = build_spec(cfg)
        coeffs = build_coeffs(cfg, spec)
        base = build_sim(cfg, spec, coeffs)

        frozen = FrozenInput(x=base.xi, mu_stat=float(np.linalg.norm(base.xi)),
                             y0=np.zeros(spec.n_modes))
        ens = simulate_frozen(frozen, 2.0, 0.01, spec, coeffs, RngStream(11),
                              n_particles=10_000, record_every=200)
        term = ens.clouds[-1, :, 0]
        mean = term.mean()
        se = term.std(ddof=1) / np.sqrt(term.size)
        oracle = 4.0 * (1.0 - np.exp(-1.0))  # 2.5285
        print(f"frozen mean {mean:.4f} vs {oracle:.4f} (3 se = {3 * se:.4f})")
        assert abs(mean - oracle) <= 3.0 * se

        probes = [FrozenInput(x=s * base.xi,
                              mu_stat=float(np.linalg.norm(s * base.xi)),
                              y0=spec.as_field(0.0))
                  for s in PROBE_SCALES]
        res = ergodicity_study(probes, spec, coeffs, cfg["study"]["grid"],
                               ensemble=cfg["study"]["ensemble"],
                               seed=base.seed, h_step=cfg["study"]["h_step"])
        theory = res.meta["theory_rate"]
        for g in res.grid:
            print(f"probe {g.param:.0f}: rate {g.error:.4f} "
                  f"vs {theory} (15% band)")
            assert str(int(g.param) - 1) not in res.flags
            assert abs(g.error - theory) <= 0.15 * theory
        wall = time.perf_counter() - t0
        print(f"runtime {wall:.1f}s (< 60s)")
        assert wall < 60.0

    def test_c04_averaged_drift_agreement(self):
        t0 = time.perf_counter()
        spec = OperatorSpec(n_modes=2, a=2.0, b=1.0, g=1.0, alpha=1.5,
                            theta=1.0, p=1.0)
        coeffs = linear_test(spec, a=1.0, c=0.5)
        frozen = FrozenInput(x=np.array([2.0, 0.0]), mu_stat=2.0,
                             y0=np.zeros(2))
        analytic = averaged_drift(coeffs, spec)(frozen.x, frozen.mu_stat)
        assert analytic[0] == pytest.approx(4.0)
        est, stderr = ergodic_fbar(frozen, spec, coeffs, RngStream(17))
        print(f"ergodic {est[0]:.4f} vs analytic {analytic[0]:.1f} "
              f"(3 se = {3 * stderr:.4f})")
        assert abs(est[0] - analytic[0]) <= 3.0 * stderr

        spec8 = OperatorSpec(n_modes=8, a=2.0, b=1.0, g=1.0, alpha=1.5,
                             theta=1.0, p=1.0)
        smooth = bounded_smooth(spec8, n_active=4)
        eff = effective_constants(smooth, spec8)
        fbar = averaged_drift(smooth, spec8)
        gen = RngStream(271, channel=3).generator()
        worst = 0.0
        for _ in range(50):
            x1, x2 = 2.0 * gen.standard_normal((2, 8))
            s1, s2 = np.abs(gen.standard_normal(2))
            gap = np.linalg.norm(fbar(x1, s1) - fbar(x2, s2))
            budget = eff.fbar_lip * (np.linalg.norm(x1 - x2) + abs(s1 - s2))
            if budget > 1e-12:
                worst = max(worst, gap / budget)
        print(f"Lipschitz probe worst ratio {worst:.3f} over 50 pairs")
        assert worst <= 1.0 + 1e-9
        wall = time.perf_counter() - t0
        print(f"runtime {wall:.1f}s (< 120s)")
        assert wall < 120.0

    def test_c05_picard_contraction(self):
        t0 = time.perf_counter()
        spec = OperatorSpec(n_modes=8, a=2.0, b=1.0, g=1.0, alpha=1.5,
                            theta=1.0, p=1.0)
        coeffs = bounded_smooth(spec, n_active=4)
        xi = np.array([0.5, -0.3, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0])
        for seed in (1729, 2029, 977):
            cfg = SimConfig(spec=spec, coeffs=coeffs, T=1.0, h=1.0 / 64,
                            M=256, seed=seed, xi=xi)
            rep = picard_law_iteration(cfg, n_iters=6)
            upto = (rep.noise_floor_iter if rep.noise_floor_iter is not None
                    else len(rep.ratios))
            print(f"seed {seed}: ratios {np.round(rep.ratios[:upto], 3)} "
                  f"(floor at {rep.noise_floor_iter})")
            assert rep.contracting
        wall = time.perf_counter() - t0
        print(f"runtime {wall:.1f}s (< 300s)")
        assert wall < 300.0

    def test_c06_time_hoelder_increments(self):
        t0 = time.perf_counter()
        cfg = load_config(str(REPO / "configs/hoelder.json"))
        spec = build_spec(cfg)
        assert spec.theta == 1.0
        coeffs = build_coeffs(cfg, spec)
        ms = build_multiscale(cfg, build_sim(cfg, spec, coeffs))
        grid = cfg["study"]["grid"]
        assert grid == [2.0 ** -k for k in range(3, 8)]
        res = hoelder_study(ms, grid, n_replicas=cfg["study"]["n_replicas"])
        floor = spec.theta / 2.0 - 0.1
        print(f"hoelder slope {res.fitted_slope:.4f} (need >= {floor})")
        assert res.fitted_slope >= floor
        wall = time.perf_counter() - t0
        print(f"runtime {wall:.1f}s (< 600s)")
        assert wall < 600.0

    def test_c07_auxiliary_gap(self):
        t0 = time.perf_counter()
        cfg = load_config(str(REPO / "configs/hoelder.json"))
        spec = build_spec(cfg)
        coeffs = build_coeffs(cfg, spec)
        ms = build_multiscale(cfg, build_sim(cfg, spec, coeffs))
        grid = cfg["study"]["grid"]
        res = aux_gap_study(ms, grid, n_replicas=cfg["study"]["n_replicas"])
        floor = spec.theta / 2.0 - 0.1
        print(f"aux gap slope {res.fitted_slope:.4f} (need >= {floor})")
        assert res.fitted_slope >= floor

        # G reading only its own state: the block-frozen twin is exact.
        spec4 = OperatorSpec(n_modes=4, a=2.0, b=1.0, g=1.0, alpha=1.5,
                             theta=1.0, p=1.0)

        def F(x, mu_stat, y):
            return 0.5 * np.tanh(np.asarray(y, dtype=float))

        def G(x, mu_stat, y):
            return 0.4 * np.tanh(np.asarray(y, dtype=float))

        blind = CoefficientSet(
            variant="custom", B=lambda x, mu: np.zeros_like(x), F=F, G=G,
            lip_C=0.5, lip_G_y=0.4, p=1.0, bound_const=1.0,
            fbar_factory=None,
        )
        base = SimConfig(spec=spec4, coeffs=blind, T=0.25, h=2.0 ** -4, M=16,
                         seed=7, xi=np.array([0.5, -0.3, 0.2, 0.0]))
        ms4 = MultiscaleConfig(base=base, epsilon=2.0 ** -4, h_fast=2.0 ** -8)
        zero = aux_gap_study(ms4, [2.0 ** -6, 2.0 ** -5], n_replicas=2)
        gaps = [g.error for g in zero.grid]
        print(f"state-blind G gaps {gaps} (must be exactly zero)")
        assert gaps == [0.0, 0.0]
        wall = time.perf_counter() - t0
        print(f"runtime {wall:.1f}s (< 600s)")
        assert wall < 600.0

    def test_c08_strong_averaging_rate(self, rate_baseline):
        result_dir, wall = rate_baseline
        meta = json.loads((result_dir / "meta.json").read_text())
        rows = _read_rows(result_dir)
        assert [p for p, _, _ in rows] == [2.0 ** -k for k in range(4, 10)]
        flagged = {int(k) for k in meta["flags"] if k.isdigit()}
        kept = [err for i, (_, err, _) in enumerate(rows) if i not in flagged]
        print(f"errors {[f'{e:.4f}' for _, e, _ in rows]} "
              f"(flagged: {sorted(flagged) or 'none'})")
        assert all(a > b for a, b in zip(kept, kept[1:]))
        floor = 2.0 / 7.0 - 0.05
        print(f"fitted slope {meta['fitted_slope']:.4f} (need >= {floor:.4f})")
        assert meta["fitted_slope"] >= floor
        print(f"runtime {wall:.1f}s single-threaded (< 3600s)")
        assert wall < 3600.0

    def test_c09_determinism_and_scaling(self, rate_baseline, tmp_path):
        dir1, wall1 = rate_baseline
        dir8, wall8 = _rate_run(REPO / "configs/default.json",
                                tmp_path / "t8", threads=8)
        identical = (dir1 / "result.csv").read_bytes() == \
            (dir8 / "result.csv").read_bytes()
        print(f"CSV byte-identical across thread counts: {identical}")
        assert identical
        speedup = wall1 / wall8
        print(f"speedup {speedup:.2f}x at 8 threads vs 1 "
              f"({os.cpu_count()} cpu core(s) visible); need >= 4x")
        assert speedup >= 4.0

    def test_c10_discretization_consistency(self, rate_baseline, tmp_path):
        dir1, _ = rate_baseline
        base_rows = dict((p, e) for p, e, _ in _read_rows(dir1))
        mod = json.loads((REPO / "configs/default.json").read_text())
        mod["operator"]["n_modes"] = 16
        mod["sim"]["xi"] = mod["sim"]["xi"] + [0.0] * 8
        mod["sim"]["M"] = 2000
        mod["study"]["h_fast_ratio"] = 0.03125
        mod["study"]["grid"] = [0.03125, 0.015625, 0.0078125, 0.00390625]
        cfg_path = tmp_path / "refined.json"
        cfg_path.write_text(json.dumps(mod))
        dir_mod, _ = _rate_run(cfg_path, tmp_path / "out", threads=1)
        mod_rows = dict((p, e) for p, e, _ in _read_rows(dir_mod))
        eps = 2.0 ** -6
        change = abs(mod_rows[eps] - base_rows[eps]) / base_rows[eps]
        print(f"eps=2^-6 error {base_rows[eps]:.4f} -> {mod_rows[eps]:.4f} "
              f"({change:.2%} change, budget 10%)")
        assert change < 0.10
