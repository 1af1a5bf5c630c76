"""One study run in a fresh interpreter, through the mvspde CLI entry point.

    python3 perfbench/child.py --report REPORT.json [--trace] -- <mvspde CLI args>

Imports ``mvspde`` from ``src/`` of the checkout this file sits in, installs
the span hooks of :mod:`spans`, calls ``mvspde.cli.run`` with the CLI
arguments and writes a JSON report: the CLI's exit code, import time,
span aggregates, counters, first-step and study-end timestamps
(``time.monotonic``, which is system-wide on Linux, so the parent can
subtract its own spawn time) and the peak resident set size.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    report_path = Path(own[own.index("--report") + 1])
    traced = "--trace" in own

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import mvspde.cli as cli
    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "mvspde":
        print(f"mvspde imported from {cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 3
    import numpy
    import scipy

    tracer = spans.Tracer()
    (spans.install_traced if traced else spans.install_untraced)(tracer, cli)
    code = cli.run(cli_args)
    sys.stdout.flush()

    report = tracer.report()
    report.update({
        "exit": code,
        "start": T_START,
        "import_s": import_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    })
    report_path.write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
