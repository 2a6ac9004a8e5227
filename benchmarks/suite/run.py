#!/usr/bin/env python3
"""Run one workload of the benchmark suite and print its metrics.

    python3 benchmarks/suite/run.py --workload oneshot_points_polygons \\
        --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run is spread over several processes started one after another
(see ``measure.py``), each taking an equal share of ``--seconds``.  The
human-readable report comes first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones (see ``README.md`` beside this file).  Processes run
with ``PYTHONHASHSEED=0`` so counter ledgers repeat across processes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="wall seconds of the timed loop, over all processes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on every input size (tests use 0.05)")
    parser.add_argument("--out", help="also write the full result document here")
    # Internal: run one process's share and print its raw samples.
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main() -> int:
    args = parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing salts the MapReduce shuffle's bucket order; a
        # fixed seed makes counter ledgers repeat across processes.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.suite import measure
    from benchmarks.suite.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.part is not None:
        data = measure.run_part(
            args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), scale=args.scale, part=args.part,
        )
        print(json.dumps(data))
        return 0

    start = measure.host_facts()
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale} processes={measure.PROCESSES}")
    if args.workload == "serve_mixed_skewed" and start["affinity"] < 2:
        print(f"warning: {start['affinity']} core(s) granted; the 2-worker "
              "backend is undersubscribed")
    parts = []
    for part in range(measure.PROCESSES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed),
             "--seconds", repr(args.seconds / measure.PROCESSES),
             "--trace", str(args.trace), "--scale", repr(args.scale),
             "--part", str(part)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: measuring process {part} exited with "
                  f"{proc.returncode}", file=sys.stderr)
            return 1
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    data = measure.pool(parts)
    end = measure.host_facts()
    result = measure.result(data, args.workload)
    for line in measure.report_lines(data, start, end):
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if args.out:
        document = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
            "host": {"start": start, "end": end}, "result": result,
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
