"""Command-line front end: validate configs, run studies, persist results.

Every subcommand loads and schema-checks the config, rebuilds the
operator and coefficient family, and runs the admissibility report
before any simulation starts; a failed assumption is a config problem,
not a runtime one, and exits with code 2 naming the check.  The studies'
guards (whole step counts, moment order, grids, bounded drift, h_fast,
Picard weight) raise ConfigError before the first step, which exits 2 at
the key's JSON pointer.  Exit code 1 is reserved for genuine runtime
failures, such as a non-finite field or law statistic.  On success the
last stdout line is the manifest path of the persisted result.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .coefficients import assumption_report
from .config import (
    ConfigError,
    build_coeffs,
    build_eta,
    build_multiscale,
    build_replicas,
    build_sim,
    build_spec,
    load_config,
)
from .experiments import (
    aux_gap_study,
    ergodicity_study,
    hoelder_study,
    persist,
    picard_study,
    rate_study,
    simulate_study,
)
from .multiscale import FrozenInput

# frozen-equation probes scan the initial state at these multiples
PROBE_SCALES = (0.5, 1.0, 2.0)

# subcommand -> (study kind its config may declare, help blurb), in --help order
_COMMANDS = {
    "validate": (None, "check operator and coefficient assumptions, then stop"),
    "simulate": ("simulate", "run the interacting system; persist the moment curve"),
    "picard": ("picard", "trace the law fixed-point iteration distances"),
    "ergodicity": ("ergodicity", "fit frozen-equation mixing rates on probe inputs"),
    "rate-study": ("rate", "strong averaging error against the timescale ratio"),
    "hoelder-study": ("hoelder", "slow-path increment regularity against block length"),
    "aux-gap": ("aux-gap", "fast-path gap to its block-frozen twin against block length"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvspde",
        description="two-timescale interacting-system simulations and studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override sim.seed from the config")
        cmd.add_argument("--out", default=None,
                         help="output directory (default: study.out_dir or ./out)")
        cmd.add_argument("--threads", type=int, default=1,
                         help="worker processes for replica-parallel studies")
    return parser


def _study_section(cfg: dict, expected_kind: str) -> dict:
    study = cfg.get("study", {})
    declared = study.get("kind")
    if declared is not None and declared != expected_kind:
        raise ConfigError(
            f"config declares study kind '{declared}' but the "
            f"'{expected_kind}' subcommand was invoked",
            pointer="/study/kind",
        )
    return study


def _given(study: dict, *keys) -> dict:
    """The ``keys`` the study section sets; each default lives in its study's signature."""
    return {key: study[key] for key in keys if key in study}


def _require_grid(study: dict):
    if "grid" not in study:
        raise ConfigError("this study needs a grid", pointer="/study/grid")
    return study["grid"]


def _raise_malloc_thresholds() -> None:
    """Free one mapped 4 MiB block, so glibc serves the studies' temporaries from its heap.

    glibc maps each block past its mmap threshold (128 KiB at start) afresh
    and unmaps it when freed, so every 0.1-4 MiB temporary of the W_p cost
    matrix and the flow bounds would fault its pages in again.  Freeing a
    mapped block raises that threshold to the block's size and the heap's
    trim threshold to twice it (mallopt(3), dynamic mmap threshold).  Other
    allocators just allocate and free the block.
    """
    np.empty(1 << 19)


def run(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)

    try:
        cfg = load_config(args.config, seed=args.seed)
        spec = build_spec(cfg)
        coeffs = build_coeffs(cfg, spec)
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    report = assumption_report(spec, coeffs)
    if args.command == "validate":
        for line in report.lines():
            print(line)
        if not report.ok:
            first = report.failures()[0]
            print(f"validation failed — {first.name}: {first.detail}",
                  file=sys.stderr)
            return 2
        return 0
    if not report.ok:
        first = report.failures()[0]
        print(f"{first.name}: {first.detail}", file=sys.stderr)
        return 2

    _raise_malloc_thresholds()
    try:
        study = _study_section(cfg, _COMMANDS[args.command][0])
        base = build_sim(cfg, spec, coeffs)
        out_dir = args.out or study.get("out_dir", "out")

        if args.command == "simulate":
            result = simulate_study(base, **_given(study, "m"))
        elif args.command == "picard":
            result = picard_study(base, **_given(study, "n_iters", "lambda_weight"))
        elif args.command == "ergodicity":
            t_grid = _require_grid(study)
            eta = build_eta(cfg, spec)
            probes = [
                FrozenInput(
                    x=s * base.xi,
                    mu_stat=float(np.linalg.norm(s * base.xi)),
                    y0=eta,
                )
                for s in PROBE_SCALES
            ]
            result = ergodicity_study(
                probes, spec, coeffs, t_grid, seed=base.seed,
                **_given(study, "ensemble", "h_step"),
            )
        elif args.command == "rate-study":
            eps_grid = _require_grid(study)
            result = rate_study(
                base, eps_grid,
                eta=build_eta(cfg, spec),
                n_replicas=build_replicas(cfg, 8),
                n_workers=args.threads,
                **_given(study, "m", "h_fast_ratio"),
            )
        else:  # hoelder-study, aux-gap
            delta_grid = _require_grid(study)
            ms = build_multiscale(cfg, base)
            increment_study = hoelder_study if args.command == "hoelder-study" else aux_gap_study
            result = increment_study(
                ms, delta_grid,
                n_replicas=build_replicas(cfg, 4),
                n_workers=args.threads,
            )
        # the file, not the objects built from it, names a CLI run
        result = dataclasses.replace(result, config=cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1

    if result.fitted_slope is not None:
        print(f"fitted slope {result.fitted_slope:.4f} "
              f"(stderr {result.slope_stderr:.4f}, r2 {result.fit_r2:.4f})")
    if result.flags:
        print("flags: " + ", ".join(f"{k}={v}" for k, v in sorted(result.flags.items())))
    try:
        manifest = persist(result, out_dir)
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    print(manifest)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
