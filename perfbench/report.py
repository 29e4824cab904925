"""Run every workload untraced and traced, and print all metrics.

    python3 perfbench/report.py [--seed 1]

Runs every workload of BENCHMARK.json for its ``run_seconds``. Each run is
its own process (perfbench/run.py), so the traced run's wrappers never
touch the untraced one. Prints the end-to-end metrics with units, the
failure count, where the tail sits, the tracing overhead (traced against
untraced ops_per_s, the median over ``PAIRS`` pairs run in alternating
order, because the host's speed drifts between processes) and the
per-layer metrics the workload moves.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = [w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]
#: traced and untraced runs per workload, for the tracing overhead
PAIRS = 3


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited with {proc.returncode}")
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    all_correct = True
    for workload in WORKLOADS:
        overheads = []
        for pair in range(PAIRS):
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            runs = {trace: run(workload, args.seed, trace) for trace in order}
            plain, traced = runs[0], runs[1]
            all_correct &= plain["correct"] and traced["correct"]
            overheads.append(1 - traced["per_layer"]["trace.ops_per_s"]["value"]
                             / plain["end_to_end"]["ops_per_s"]["value"])
        print(f"== {workload} (seed {args.seed}): correct={plain['correct']}, "
              f"{plain['failed']} of {plain['attempted']} operations failed, "
              f"{plain['unexpected_failures']} of them unexpectedly")
        for name, m in plain["end_to_end"].items():
            print(f"  {name:<18} {m['value']:>12.6g} {m['unit']}")
        print(f"  tail is p{plain['tail_percentile']:.1f} of {plain['tail_samples']} operation times")
        print(f"  tracing overhead   {statistics.median(overheads):>12.1%} "
              f"(median of {', '.join(f'{o:.1%}' for o in overheads)})")
        for name, m in traced["per_layer"].items():
            if m["value"]:
                print(f"    {name:<56} {m['value']:>12.6g} {m['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
