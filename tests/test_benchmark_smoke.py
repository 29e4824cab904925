"""The benchmark's library surface: every workload's operations still build,
run, pass their oracles and give their recorded output bits.

The benchmark in ``perfbench/`` reads names of the library (``Factor.j``,
``ScanSystem``'s constructors, the trajectory fields and more) that no other
test reads. This builds the warm-up and the first block of each workload in
``workloads.WORKLOADS`` and checks every operation's output with its own
oracle, once untraced and once with a ``spans.Tracer`` installed before the
operations are built, as ``perfbench/run.py --trace 1`` does. It also hashes
those operations' outputs at seed 3, as ``perfbench/measure.py`` hashes
them, and compares the hashes with ``golden/bench_block0.json``, which, unlike
the benchmark's own digest, is not keyed by the source and so holds from one
commit to the next.
"""

import hashlib
import importlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402
from test_cli import environment, environment_changes  # noqa: E402

#: each workload's first-block output hash at seed 3, with the versions it
#: was recorded under
GOLDEN = Path(__file__).resolve().parent / "golden" / "bench_block0.json"


def run_block0(name, workdir):
    """The kind and verdict of each operation of ``name``'s seed-3 warm-up
    and first block whose check fails, and the first 16 hex digits of the
    SHA-256 of every operation's ``kind``, a NUL and its fingerprint, in
    order."""
    workload = workloads.WORKLOADS[name](3, str(workdir))
    failed, digest = [], hashlib.sha256()
    for op in workload.warmup + workload.block(0):
        checked = op.check(op.run())
        if not checked.ok:
            failed.append((op.kind, checked.facts))
        digest.update(op.kind.encode() + b"\0" + checked.fingerprint)
    return failed, digest.hexdigest()[:16]


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_operation_passes_its_oracle(name, traced, tmp_path):
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install(importlib.import_module("coherence_lab"))
    try:
        assert run_block0(name, tmp_path)[0] == []
    finally:
        if tracer:
            tracer.uninstall()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_first_block_output_bits_are_the_recorded_ones(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_block0(name, tmp_path)[1]
    changed = environment_changes(golden["environment"])
    assert got == golden["block0"][name], (
        f"{name}'s first-block outputs differ from {GOLDEN.name}; "
        + (f"the environment differs from the record's: {changed}" if changed else
           "the environment is the record's, so the program's bits moved; "
           "re-record with `OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python "
           "tests/test_benchmark_smoke.py` if that is intended"))


if __name__ == "__main__":
    # re-record GOLDEN from this tree:
    #   OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_benchmark_smoke.py
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        sys.exit("set OPENBLAS_NUM_THREADS=1, as tests/conftest.py does")
    block0 = {}
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as workdir:
            block0[name] = run_block0(name, workdir)[1]
    record = {"environment": environment(), "block0": block0}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
