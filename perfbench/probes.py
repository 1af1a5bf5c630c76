"""Warmed single-process layer probes at two batch sizes, M=125 and M=1000.

    python3 perfbench/probes.py --report REPORT.json

Times opening a ``StableNoiseBank`` (µs per particle stream), its ``draw``
(ns per variate) and the ``F``, ``G`` and averaged-drift ``fbar`` maps of the rate workload's coefficient family
(µs per call) on one particle array of each size.  125 is the size of one
interacting system of the rate workload (1000 particles in 8 systems);
1000 is the same ensemble as one array, the size a replica-batched kernel
would work on.  Each figure is the median of several repeats after a
warm-up call.
"""

import json
import statistics
import sys
import time
from pathlib import Path

from workloads import RATE

ROOT = Path(__file__).resolve().parent.parent
SIZES = (125, 1000)
REPEATS = 7
VARIATES_PER_DRAW = 1 << 19
CALLS_PER_REPEAT = 200


def _median_time(fn, n_calls: int) -> float:
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n_calls):
            fn()
        times.append((time.perf_counter() - t0) / n_calls)
    return statistics.median(times)


def main(argv) -> int:
    report_path = Path(argv[argv.index("--report") + 1])
    sys.path.insert(0, str(ROOT / "src"))
    from mvspde.config import build_coeffs, build_spec
    from mvspde.noise import CH_FAST, StableNoiseBank

    spec = build_spec(RATE)
    coeffs = build_coeffs(RATE, spec)
    fbar = coeffs.fbar_factory(spec)
    xi = RATE["sim"]["xi"]
    out = {}
    for m in SIZES:
        def open_bank():
            return StableNoiseBank(RATE["sim"]["seed"], spec.alpha, m, spec.n_modes, CH_FAST)

        out[f"probe.bank_init_us_per_stream.m{m}"] = _median_time(open_bank, 1) * 1e6 / m
        bank = open_bank()
        steps = max(1, VARIATES_PER_DRAW // (m * spec.n_modes))
        draw_s = _median_time(lambda: bank.draw(steps), 1)
        out[f"probe.draw_ns_per_variate.m{m}"] = draw_s * 1e9 / (m * steps * spec.n_modes)

        noise = bank.draw(2)
        x = xi + 0.1 * noise[:, 0]
        y = 0.1 * noise[:, 1]
        mu_stat = float(abs(x).sum(axis=1).mean())
        for name, fn in (("F", lambda: coeffs.F(x, mu_stat, y)),
                         ("G", lambda: coeffs.G(x, mu_stat, y)),
                         ("fbar", lambda: fbar(x, mu_stat))):
            out[f"probe.{name}_us.m{m}"] = _median_time(fn, CALLS_PER_REPEAT) * 1e6
    report_path.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
