"""Command-line front end: validate configs, run studies, persist results.

Every subcommand loads and schema-checks the config, rebuilds the
operator and coefficient family, and runs the admissibility report
before any simulation starts; a failed assumption is a config problem,
not a runtime one, and exits with code 2 naming the check.  The key check
against the study table ``config.STUDIES`` (a key set but not read, or a
required one missing) and the studies' guards (step counts, moment order,
grids, replica split, bounded drift, h_fast, Picard weight) raise
ConfigError before the first step, which exits 2 at the key's JSON
pointer.  Exit code 1 is reserved for genuine runtime failures, such as a
non-finite field or law statistic.  On success the last stdout line is
the manifest path of the persisted result.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .coefficients import assumption_report
from .config import (
    REQUIRED,
    STUDIES,
    ConfigError,
    build_coeffs,
    build_eta,
    build_multiscale,
    build_sim,
    build_spec,
    check_keys,
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


def _probes(cfg: dict, base) -> list:
    """The initial state at each of PROBE_SCALES, with the fast state at sim.eta."""
    eta = build_eta(cfg, base.spec)
    return [FrozenInput(x=s * base.xi, mu_stat=float(np.linalg.norm(s * base.xi)), y0=eta)
            for s in PROBE_SCALES]


# subcommand -> (study kind, help blurb, study call), in --help order.  A
# call takes (config, base system, --threads, the optional study keys the
# config sets) and names its study function when it runs, so that a wrapper
# set on this module's attribute is the function called.
_COMMANDS = {
    "validate": (None, "check operator and coefficient assumptions, then stop", None),
    "simulate": ("simulate", "run the interacting system; persist the moment curve",
                 lambda cfg, base, threads, kw: simulate_study(base, **kw)),
    "picard": ("picard", "trace the law fixed-point iteration distances",
               lambda cfg, base, threads, kw: picard_study(base, **kw)),
    "ergodicity": ("ergodicity", "fit frozen-equation mixing rates on probe inputs",
                   lambda cfg, base, threads, kw: ergodicity_study(
                       _probes(cfg, base), base.spec, base.coeffs, cfg["study"]["grid"],
                       seed=base.seed, **kw)),
    "rate-study": ("rate", "strong averaging error against the timescale ratio",
                   lambda cfg, base, threads, kw: rate_study(
                       base, cfg["study"]["grid"], eta=build_eta(cfg, base.spec),
                       n_workers=threads, **kw)),
    "hoelder-study": ("hoelder", "slow-path increment regularity against block length",
                      lambda cfg, base, threads, kw: hoelder_study(
                          build_multiscale(cfg, base), cfg["study"]["grid"],
                          n_workers=threads, **kw)),
    "aux-gap": ("aux-gap", "fast-path gap to its block-frozen twin against block length",
                lambda cfg, base, threads, kw: aux_gap_study(
                    build_multiscale(cfg, base), cfg["study"]["grid"],
                    n_workers=threads, **kw)),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvspde",
        description="two-timescale interacting-system simulations and studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override sim.seed from the config")
        cmd.add_argument("--out", default=None,
                         help="output directory (default: study.out_dir or ./out)")
        cmd.add_argument("--threads", type=int, default=1,
                         help="worker processes for replica-parallel studies")
    return parser


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
        prefix = "validation failed — " if args.command == "validate" else ""
        print(f"{prefix}{first.name}: {first.detail}", file=sys.stderr)
        return 2

    kind, _, call = _COMMANDS[args.command]
    study = cfg.get("study", {})
    try:
        # validate checks the keys of the kind its config declares
        check_keys(cfg, kind or study.get("kind"))
        if call is None:
            return 0
        _raise_malloc_thresholds()
        base = build_sim(cfg, spec, coeffs)
        options = {key: study[key] for key in STUDIES[kind].get("study", ())
                   if key in study and key not in REQUIRED}  # unset: the study's default
        result = call(cfg, base, args.threads, options)
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
        manifest = persist(result, args.out or study.get("out_dir", "out"))
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    print(manifest)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
