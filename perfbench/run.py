"""Benchmark of coherence-lab: one workload, one seed, one process.

    python3 perfbench/run.py --workload scan --seed 1 --trace 0

Runs the workload's fixed list of operations through the library in
``src/`` of this checkout, checks every output against an oracle outside
the timed interval, and prints a summary followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the library's public
functions are wrapped and the metrics are the per-layer ones read from the
spans. ``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json. The full
record, with the environment, goes to ``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: BLAS runs single-threaded; see NOTES.md for the measured reason
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS_VAR = "COHERENCE_LAB_THREADS"
#: set-ups measured per run: this process plus fresh child processes
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a name in workloads.WORKLOADS")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop before the first timed operation and print the set-up time")
    return parser.parse_args(argv)


def pin_environment():
    """Serial library, single-threaded BLAS; returns an ignored thread setting."""
    ignored = os.environ.pop(THREADS_VAR, None)
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    return ignored


def import_library():
    """Import coherence_lab from this checkout's src/, and from nowhere else."""
    package_dir = SRC / "coherence_lab"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {package_dir}")
    sys.path.insert(0, str(SRC))
    import coherence_lab

    if Path(coherence_lab.__file__).resolve().parent != package_dir:
        raise SystemExit(f"perfbench: coherence_lab imported from {coherence_lab.__file__}")
    return coherence_lab


def code_sha256() -> str:
    digest = hashlib.sha256()
    files = sorted([*SRC.glob("coherence_lab/**/*.py"), *HERE.glob("*.py")])
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, ignored_threads, code) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        THREADS_VAR: os.environ.get(THREADS_VAR),
        f"{THREADS_VAR}_ignored": ignored_threads,
        "git_commit": git_commit(),
        "code_sha256": code,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def child_setup(args) -> dict:
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest_key(workload: str, seed: int, n_ops: int, code: str) -> str:
    """What fixes a run's outputs: the workload, its seed, the length of its
    operation list (set by ``--seconds``) and the source hash."""
    return f"{workload}/seed={seed}/ops={n_ops}/code={code}"


def recorded_digest(path: Path, key: str, digest: str):
    """Compare with the digest an earlier run with the same key recorded in
    ``path``; record it if there is none."""
    known = json.loads(path.read_text()) if path.is_file() else {}
    previous = known.setdefault(key, digest)
    if previous == digest:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return previous


def median_ms_by_kind(ops, times) -> dict:
    by_kind = {}
    for op, seconds in zip(ops, times):
        by_kind.setdefault(op.kind, []).append(1e3 * seconds)
    return {kind: statistics.median(ms) for kind, ms in by_kind.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    ignored_threads = pin_environment()
    package = import_library()
    import measure
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = spans.Tracer() if args.trace else None
    try:
        if tracer:  # before the inputs are built, so that ops call the wrappers
            tracer.install(package)
        try:
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            ops = workload.ops(args.seconds)
            warmup = measure.run_rounds(workload.warmup, 1)
            setup_wall = time.perf_counter() - _T0
            setup = [{"setup_s": setup_wall * measure.speed_scale(), "setup_wall_s": setup_wall}]
            if args.setup_only:
                print(json.dumps(setup[0]))
                return 0
            loop = measure.run_rounds(ops, measure.ROUNDS,
                                      root=tracer.root if tracer else None)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        setup += [child_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures, tail_info = measure.end_to_end(loop, peak_rss_mb,
                                            statistics.median(x["setup_s"] for x in setup))
    code = code_sha256()
    digest = loop.digest
    previous = recorded_digest(OUT / "digests.json",
                               digest_key(args.workload, args.seed, len(ops), code), digest)
    unstable = [ops[i].kind for i in loop.unstable]
    # equal digests mean equal outputs, so also the same failures as the record
    correct = loop.unexpected == 0 and not unstable and previous == digest

    if tracer:
        metrics = measure.layer_metrics(tracer.spans, measure.ROUNDS, loop.facts,
                                        measure.throughput(loop))
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write(str(OUT / f"{stem}.spans.jsonl"))
    else:
        metrics = {name: figures[name] for name in figures if name != "failed_frac"}
    record = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "unexpected_failures": loop.unexpected,
        "rounds": measure.ROUNDS,
        "ops_per_round": len(ops),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        **tail_info,
        "setup_samples": setup,
        "wall_clock": {k: {"value": v, "unit": u}
                       for k, (v, u) in measure.latencies(loop, scaled=False).items()},
        "probe_median_ms": 1e3 * statistics.median(p for ps in loop.probes for p in ps),
        "median_ms_by_kind": median_ms_by_kind(ops, measure.op_times(loop)),
        "per_layer": ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
                      if tracer else None),
        "digest": digest,
        "recorded_digest": previous,
        "unstable_outputs": unstable,
        "failures": loop.failures,
        "warmup_failures": warmup.failures,
        "environment": environment(args, ignored_threads, code),
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(ops)} rounds={measure.ROUNDS}")
    for name, (value, unit) in figures.items():
        print(f"  {name:<16} {value:.6g} {unit}")
    print("  wall clock: " + ", ".join(f"{k} {m['value']:.6g} {m['unit']}"
                                       for k, m in record["wall_clock"].items())
          + f"; probe {record['probe_median_ms']:.4g} ms")
    samples = ", ".join(f"{x['setup_s']:.3f}" for x in setup)
    print(f"  tail is p{tail_info['tail_percentile']:.1f} of {tail_info['tail_samples']} "
          f"operations; set-up samples {samples} s")
    print(f"  digest {digest[:16]} unstable_outputs={unstable} "
          f"matches_record={previous == digest} unexpected_failures={loop.unexpected}")
    for failure in loop.failures[:5]:
        print(f"  FAILED {failure}")
    if tracer:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<52} {value:.6g} {unit}")
    print(f"  env {json.dumps(record['environment'])}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
