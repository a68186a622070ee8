"""wirespec benchmark: one workload, one seed, one line of JSON results.

    python3 bench/run.py --workload myp-inproc --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports ``wirespec`` from its
``src`` directory, never from an installed copy.  Prints one
``name value unit`` line per metric, an ``env`` line, and as the last
line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  Results and spans are also
written under ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("myp-inproc", "imap-tcp", "codec-myp-burst", "codec-imap-lines")


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the path, or exit if it is missing."""
    if not (SRC / "wirespec" / "__init__.py").is_file():
        sys.exit(f"bench: no wirespec source at {SRC}")
    sys.path.insert(0, str(SRC))
    import wirespec

    if Path(wirespec.__file__).resolve().parent != SRC / "wirespec":
        sys.exit(f"bench: imported wirespec from {wirespec.__file__}, not {SRC}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), SRC)
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value!r} {unit}")
    print("env " + json.dumps(result.env, sort_keys=True))

    if args.trace:
        reported = {k: v for k, v in result.metrics.items() if k not in workloads.LAYER_PRINTED_ONLY}
    else:
        reported = {name: result.metrics[name] for name in workloads.GATED}
    line = {
        "correct": result.hard_failures == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as f:
        all_metrics = {name: {"value": v, "unit": u} for name, (v, u) in result.metrics.items()}
        json.dump({**line, "all_metrics": all_metrics, "env": result.env}, f, indent=1)
    if result.tracer is not None:
        result.tracer.write_jsonl(OUT / f"{stem}.spans.jsonl")

    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
