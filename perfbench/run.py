"""Wall-clock benchmark of fit, predict and HTTP serving.

Run from the repository root::

    python3 perfbench/run.py --workload fit_dense_k10 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --list

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
makes the separate traced run that reports the per-layer metrics.  Every
metric is printed by name with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--list`` prints the metric tables of ``BENCHMARK.json``
and the map from each layer to the end-to-end metrics it should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from pathlib import Path

# One BLAS thread, set before NumPy loads, so that the benchmark process
# and the repro-serve child (which inherits it) each keep to one of the
# host's two cores.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

from layers import LAYERS, load_spec  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="a workload of BENCHMARK.json, or fit_sparse_k20")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print the metric tables and exit")
    args = parser.parse_args(argv)
    if not args.list and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def print_tables(spec: dict) -> None:
    print("end-to-end metrics (every workload, untraced run):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:24s} {m['unit']:10s} {m['better']:6s} bound {m['bound']}")
    print("per-layer metrics (traced run):")
    for m in spec["per_layer"]:
        print(f"  {m['name']:40s} {m['unit']:14s} {m['better']}")
    print("layer -> end-to-end map:")
    for layer, moves, most, little in LAYERS:
        print(f"  {layer:12s} moves {', '.join(moves)}; "
              f"most work: {most}; little work: {little}")


def main(argv=None) -> int:
    spec = load_spec(ROOT)
    args = parse_args(argv)
    if args.list:
        print_tables(spec)
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import workloads

    available = workloads(ROOT)
    if args.workload not in available:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(available), file=sys.stderr)
        return 2
    workload = available[args.workload]
    run = workload.run_traced if args.trace else workload.run
    try:
        result = run(args.seed, args.seconds)
    except Exception:
        traceback.print_exc()
        return 1

    table = spec["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in table}
    if args.trace:
        # A layer the workload does not reach reports 0; the traced run
        # fails instead if a layer it must reach was never called.
        result.metrics = {name: result.metrics.get(name, 0.0) for name in expected}
    else:
        result.metrics["success_rate"] = (
            (result.attempted - result.failed) / result.attempted
            if result.attempted else 0.0
        )
    missing = sorted(name for name in expected if name not in result.metrics)
    for note in result.notes:
        print(note)
    for failure in result.failures[:20]:
        print(f"FAILED {failure}")
    if missing:
        print("missing metrics: " + ", ".join(missing))
    metrics, finite = {}, True
    for name, unit in expected.items():
        value = float(result.metrics.get(name, 0.0))
        print(f"{name} = {value:.6g} {unit}")
        if not math.isfinite(value):
            finite, value = False, 0.0
        metrics[name] = {"value": value, "unit": unit}
    correct = result.failed == 0 and result.attempted > 0 and not missing and finite
    print(json.dumps({
        "correct": correct,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
