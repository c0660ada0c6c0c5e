"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fib-locate --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository: the library is
imported from the checkout's ``src/``, never from an installed copy.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` gives the
end-to-end metrics of ``BENCHMARK.json`` and ``--trace 1`` the per-layer
ones.  Index files and the span dump go to ``.bench_work/`` in the
checkout.  A progress summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "twgi" / "__init__.py").is_file():
        print(f"run.py: no library sources at {ROOT / 'src' / 'twgi'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import bench  # imports the library, so only after the path is set
    from clock import Clock

    if args.workload not in bench.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; have {', '.join(bench.WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    run = bench.traced if args.trace else bench.end_to_end
    with Clock() as clock:
        values, tally = run(args.workload, args.seed, args.seconds, work, clock)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        print(f"run.py: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(units) - set(values))}, "
              f"undeclared {sorted(set(values) - set(units))}", file=sys.stderr)
        return 3
    for line in tally.failures:
        print(f"failed: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {tally.attempted} operations, "
          f"{tally.failed} failed", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
