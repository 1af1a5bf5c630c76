"""Self-test of the benchmark at the smallest sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, runs one untraced benchmark run and
one traced run on the reduced configs of ``workloads.SMALL`` and checks
that

* the metric names and units emitted equal BENCHMARK.json's
  ``end_to_end`` (untraced) and ``per_layer`` (traced) lists, in order;
* every study run exits 0;
* the traced run's result.csv is byte-identical to the untraced run's on
  the same config, so the span wrappers cannot change arithmetic.

The output invariants of ``workloads.check_output`` are not asserted here:
they are statistical statements about the full sizes.  Exits 1 on failure.
"""

import json
import sys

import run
import workloads as wl


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        False: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        True: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(wl.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(wl.WORKLOADS)}")
    for workload in names:
        for trace in (False, True):
            result, _, detail, records = run.measure(workload, seed=0, seconds=0,
                                                     trace=trace, small=True)
            emitted = [(k, v["unit"]) for k, v in result["metrics"].items()]
            if emitted != want[trace]:
                problems.append(f"{workload} trace={int(trace)}: emitted metrics "
                                f"differ from BENCHMARK.json: {emitted}")
            for r in records:
                if r["exit"] != 0:
                    problems.append(f"{workload} seed {r['seed']} traced={r['traced']}: "
                                    f"exit {r['exit']}: {r['error']}")
            if trace:
                for pair in detail["pairs"]:
                    if not pair["identical"]:
                        problems.append(f"{workload} seed {pair['seed']}: traced "
                                        "result.csv differs from untraced")
            print(f"{workload} trace={int(trace)}: {len(records)} study runs", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
