"""mvspde benchmark: end-to-end CLI study runs and a traced per-layer split.

    python3 perfbench/run.py --workload {rate,picard} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each study run is a fresh interpreter
(``perfbench/child.py``) that drives ``mvspde.cli.run`` on a config
generated from ``--seed`` with ``--threads 1``, and every run's output is
checked.  With ``--trace 0`` study runs repeat for about ``--seconds`` and
the end-to-end metrics are medians over them.  With ``--trace 1`` each
config runs untraced and then traced, the two ``result.csv`` files must be
byte-identical, and the per-layer metrics come from the traced runs plus
the layer probes (``perfbench/probes.py``) and the sliced-path probe.

Progress and the machine/input record go to stdout; the last stdout line
is the result object ``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DEADLINE_S = 170.0  # every child is killed past this, the run must exit by 180 s

# (name, unit), in BENCHMARK.json order
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("particle_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)
PER_LAYER = (
    ("noise.draw_ns_per_variate", "ns"),
    ("noise.variates", "count"),
    ("noise.bank_init_us_per_stream", "us"),
    ("noise.streams_opened", "count"),
    ("noise.share", "ratio"),
    ("coefficients.F_us_per_call", "us"),
    ("coefficients.G_us_per_call", "us"),
    ("coefficients.fbar_us_per_call", "us"),
    ("coefficients.B_us_per_call", "us"),
    ("coefficients.calls", "count"),
    ("coefficients.fbar_table_s", "s"),
    ("coefficients.share", "ratio"),
    ("multiscale.loop_self_us_per_step", "us"),
    ("multiscale.steps", "count"),
    ("multiscale.share", "ratio"),
    ("measures.wasserstein_exact_ms_per_call", "ms"),
    ("measures.wasserstein_calls", "count"),
    ("measures.share", "ratio"),
    ("measures.sliced_probe_ok", "count"),
    ("solver.mkv_self_us_per_step", "us"),
    ("solver.steps", "count"),
    ("solver.share", "ratio"),
    ("experiments.self_s", "s"),
    ("experiments.persist_s", "s"),
    ("experiments.digest_match", "count"),
    ("experiments.contracting_flag_wrong", "count"),
    ("cli.import_s", "s"),
    ("config.load_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("probe.bank_init_us_per_stream.m125", "us"),
    ("probe.bank_init_us_per_stream.m1000", "us"),
    ("probe.draw_ns_per_variate.m125", "ns"),
    ("probe.draw_ns_per_variate.m1000", "ns"),
    ("probe.F_us.m125", "us"),
    ("probe.F_us.m1000", "us"),
    ("probe.G_us.m125", "us"),
    ("probe.G_us.m1000", "us"),
    ("probe.fbar_us.m125", "us"),
    ("probe.fbar_us.m1000", "us"),
)


class Session:
    """One benchmark run: a scratch directory in the checkout and a deadline."""

    def __init__(self, workload: str, small: bool = False):
        self.workload = workload
        self.overrides = wl.SMALL[workload] if small else None
        self.work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
        self.start = time.monotonic()
        self.n_children = 0
        self.env = dict(os.environ)
        # one thread everywhere: BLAS pools on a shared 2-core box add noise
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)
        work_root = self.work.parent
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def _spawn(self, script: Path, args, tag: str):
        """Run a perfbench script in a fresh interpreter; returns (proc, wall_s, t0)."""
        timeout = max(1.0, RUN_DEADLINE_S - self.elapsed())
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(script), *args], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            proc = subprocess.CompletedProcess(args, -9, "", f"{tag}: timed out")
        return proc, time.monotonic() - t0, t0

    def study(self, cfg: dict, traced: bool) -> dict:
        """One CLI study run on ``cfg``; the record holds timings and the check."""
        tag = f"c{self.n_children:03d}"
        self.n_children += 1
        d = self.work / tag
        d.mkdir()
        cfg_path, report_path = d / "config.json", d / "report.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        subcommand = wl.WORKLOADS[cfg["study"]["kind"]][0]
        args = ["--report", str(report_path)] + (["--trace"] if traced else []) + [
            "--", subcommand, "--config", str(cfg_path), "--out", str(d / "out"),
            "--threads", "1",
        ]
        proc, wall_s, t0 = self._spawn(HERE / "child.py", args, tag)
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = None
        stderr = proc.stderr.strip().splitlines()
        rec = {"seed": cfg["sim"]["seed"], "traced": traced, "exit": proc.returncode,
               "wall_s": wall_s, "ok": False, "csv": None, "report": report,
               "error": stderr[-1] if stderr else "", "defects": []}
        if proc.returncode == 0 and report is not None:
            marks = report["marks"]
            rec["setup_s"] = marks["first_step"] - t0
            rec["study_s"] = marks["study_end"] - marks["first_step"]
            rec["rss_mb"] = report["maxrss_kb"] / 1024.0
            result_dir = Path(proc.stdout.strip().splitlines()[-1]).parent
            rec["csv"] = (result_dir / "result.csv").read_bytes()
            reason = wl.check_output(cfg["study"]["kind"], result_dir)
            rec["ok"] = reason is None
            rec["error"] = reason or ""
            rec["defects"] = wl.known_defects(cfg["study"]["kind"], result_dir)
        shutil.rmtree(d, ignore_errors=True)
        return rec

    def probes(self) -> dict:
        report_path = self.work / "probes.json"
        proc, _, _ = self._spawn(HERE / "probes.py", ["--report", str(report_path)], "probes")
        if proc.returncode != 0:
            raise RuntimeError(f"layer probes failed: {proc.stderr.strip()}")
        return json.loads(report_path.read_text(encoding="utf-8"))

    def config(self, sim_seed=None) -> dict:
        return wl.make_config(self.workload, sim_seed, self.overrides)


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(values, high: bool):
    """Highest percentile with at least 10 samples beyond it, or None below 11 samples."""
    n = len(values)
    if n < 11:
        return None
    s = sorted(values, reverse=not high)
    return {"pct": round(100.0 * (n - 10) / n, 1), "value": s[n - 11]}


def _summary(values, high_is_tail=True) -> dict:
    return {"median": _median(values), "tail": _tail(values, high_is_tail), "n": len(values),
            "samples": values}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(report: dict) -> dict:
    """Per-layer figures of one traced study run (0 where a layer did no work)."""
    spans, counts = report["spans"], report["counters"]

    def total(name):
        return spans.get(name, {}).get("total_ns", 0)

    def self_ns(name):
        return spans.get(name, {}).get("self_ns", 0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    study = total("study")
    coeff_names = ("F", "G", "fbar", "B")
    coeff_ns = sum(total(f"coefficients.{c}") for c in coeff_names)
    coeff_ns += total("coefficients.fbar_table")
    variates, streams = counts.get("noise.variates", 0), counts.get("noise.streams", 0)
    ms_steps, mkv_steps = counts.get("multiscale.steps", 0), counts.get("solver.steps", 0)
    out = {
        "noise.draw_ns_per_variate": _ratio(total("noise.draw"), variates),
        "noise.variates": variates,
        "noise.bank_init_us_per_stream": _ratio(total("noise.bank_init") / 1e3, streams),
        "noise.streams_opened": streams,
        "noise.share": _ratio(total("noise.draw") + total("noise.bank_init"), study),
        "coefficients.calls": sum(calls(f"coefficients.{c}") for c in coeff_names),
        "coefficients.fbar_table_s": total("coefficients.fbar_table") / 1e9,
        "coefficients.share": _ratio(coeff_ns, study),
        "multiscale.loop_self_us_per_step": _ratio(self_ns("multiscale.loop") / 1e3, ms_steps),
        "multiscale.steps": ms_steps,
        "multiscale.share": _ratio(self_ns("multiscale.loop"), study),
        "measures.wasserstein_exact_ms_per_call": _ratio(
            total("measures.wasserstein_exact") / 1e6, calls("measures.wasserstein_exact")),
        "measures.wasserstein_calls": calls("measures.wasserstein_exact"),
        "measures.share": _ratio(total("measures.dT_metric"), study),
        "solver.mkv_self_us_per_step": _ratio(self_ns("solver.mkv") / 1e3, mkv_steps),
        "solver.steps": mkv_steps,
        "solver.share": _ratio(self_ns("solver.mkv"), study),
        "experiments.self_s": self_ns("study") / 1e9,
        "experiments.persist_s": total("persist") / 1e9,
        "cli.import_s": report["import_s"],
        "config.load_s": total("load") / 1e9,
    }
    for c in coeff_names:
        out[f"coefficients.{c}_us_per_call"] = _ratio(
            total(f"coefficients.{c}") / 1e3, calls(f"coefficients.{c}"))
    return out


def _defect_counts(records) -> dict:
    return dict(Counter(name for r in records for name in r["defects"]))


def _keep_going(session: Session, seconds: float, durations) -> bool:
    """Start another unit of work while its expected midpoint is inside the budget."""
    return session.elapsed() + _median(durations) / 2.0 <= seconds


def run_end_to_end(session: Session, seed: int, seconds: float):
    records, durations = [], []
    while True:
        t0 = session.elapsed()
        cfg = session.config(wl.child_seed(session.workload, seed, len(records)))
        records.append(session.study(cfg, traced=False))
        durations.append(session.elapsed() - t0)
        if not _keep_going(session, seconds, durations):
            break
    ok = [r for r in records if r["ok"]]
    steps = wl.sizes(session.config())["particle_steps"]
    samples = {
        "wall_s": [r["wall_s"] for r in ok],
        "setup_s": [r["setup_s"] for r in ok],
        "particle_steps_per_s": [steps / r["study_s"] for r in ok],
        "peak_rss_mb": [r["rss_mb"] for r in ok],
    }
    metrics = {name: _median(v) for name, v in samples.items()}
    metrics["ok_ratio"] = len(ok) / len(records)
    detail = {name: _summary(v, high_is_tail=(name != "particle_steps_per_s"))
              for name, v in samples.items()}
    detail["known_defects"] = _defect_counts(records)
    return records, metrics, detail


def run_traced(session: Session, seed: int, seconds: float):
    """Untraced/traced pairs on the same config, then the probes."""
    records, durations, pair_info, layer = [], [], [], []
    digest_match = 0
    while True:
        t0 = session.elapsed()
        # the first pair runs the shipped default seed, for the digest check
        sim_seed = None if not pair_info else wl.child_seed(session.workload, seed,
                                                            len(pair_info))
        cfg = session.config(sim_seed)
        plain = session.study(cfg, traced=False)
        traced = session.study(cfg, traced=True)
        identical = plain["csv"] is not None and plain["csv"] == traced["csv"]
        if not identical:
            traced["ok"] = False
            traced["error"] = traced["error"] or "traced result.csv differs from untraced"
        if not pair_info and plain["csv"] is not None and session.overrides is None:
            digest = hashlib.sha256(plain["csv"]).hexdigest()
            digest_match = int(digest == wl.recorded_digests()[session.workload])
        pair = {"seed": cfg["sim"]["seed"], "identical": identical}
        if plain["ok"] and traced["ok"]:
            pair["overhead"] = (traced["report"]["spans"]["study"]["total_ns"]
                                / plain["report"]["spans"]["study"]["total_ns"])
            layer.append(layer_metrics(traced["report"]))
        records += [plain, traced]
        pair_info.append(pair)
        durations.append(session.elapsed() - t0)
        if not _keep_going(session, seconds, durations):
            break

    metrics = {name: _median([m[name] for m in layer]) for name in layer[0]} if layer else {}
    metrics["trace.overhead_ratio"] = _median(
        [p["overhead"] for p in pair_info if "overhead" in p])
    metrics["experiments.digest_match"] = digest_match
    defects = _defect_counts(records)
    metrics["experiments.contracting_flag_wrong"] = defects.get("picard-contracting-flag", 0)
    sliced = session.study(wl.make_config("picard", None, wl.SLICED_PROBE), traced=False)
    metrics["measures.sliced_probe_ok"] = int(sliced["ok"])
    metrics.update(session.probes())
    detail = {"pairs": pair_info, "known_defects": defects,
              "sliced_probe": {"exit": sliced["exit"], "error": sliced["error"]}}
    return records, metrics, detail


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _l3_bytes():
    """Size of the level-3 cache next to CPU 0, from sysfs (read only), or None."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            return None
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
        return int(size.rstrip("KM")) * scale
    return None


def describe(session: Session, seed: int, records) -> dict:
    versions = next((r["report"]["versions"] for r in records if r.get("report")), {})
    input_size = wl.sizes(session.config())
    n_runs = sum(1 for r in records if r["ok"])
    return {
        "machine": {
            "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "l3_bytes": _l3_bytes(),
            **versions,
        },
        "inputs": {
            "workload": session.workload,
            "seed": seed,
            "commit": _git_commit(),
            "src_sha256": _src_digest(),
            "study_runs": len(records),
            "particles_per_system": input_size["particles_per_system"],
            "batch": input_size["batch"],
            "particle_steps_per_run": input_size["particle_steps"] * n_runs,
            "variates_per_run": input_size["variates"] * n_runs,
        },
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """One benchmark run; returns (result object, description, detail, records)."""
    compileall.compile_dir(str(SRC), quiet=1)
    with Session(workload, small=small) as session:
        runner = run_traced if trace else run_end_to_end
        records, values, detail = runner(session, seed, seconds)
        info = describe(session, seed, records)
    units = PER_LAYER if trace else END_TO_END
    failed = sum(1 for r in records if not r["ok"])
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units},
    }
    return result, info, detail, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mvspde" / "cli.py").is_file():
        print(f"no mvspde sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2

    result, info, detail, records = measure(args.workload, args.seed, args.seconds,
                                            bool(args.trace))
    for r in records:
        status = "ok" if r["ok"] else f"FAILED ({r['error']})"
        if r["defects"]:
            status += f", known defect: {', '.join(r['defects'])}"
        print(f"study seed={r['seed']} traced={int(r['traced'])} exit={r['exit']} "
              f"wall={r['wall_s']:.3f}s {status}")
    print(json.dumps({**info, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
