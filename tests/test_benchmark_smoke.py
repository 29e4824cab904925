"""The benchmark's library surface: every workload's operations still build,
run and pass their oracles, plain and under the span tracer.

The benchmark in ``perfbench/`` reads names of the library (``Factor.j``,
``ScanSystem``'s constructors, the trajectory fields and more) that no other
test reads. This builds the warm-up and the first block of each workload in
``workloads.WORKLOADS`` and checks every operation's output with its own
oracle, once untraced and once with a ``spans.Tracer`` installed before the
operations are built, as ``perfbench/run.py --trace 1`` does.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


def failed_ops(name, tmp_path):
    """The kind and verdict of each operation of ``name``'s warm-up and
    first block whose check fails."""
    workload = workloads.WORKLOADS[name](3, str(tmp_path))
    failed = []
    for op in workload.warmup + workload.block(0):
        checked = op.check(op.run())
        if not checked.ok:
            failed.append((op.kind, checked.facts))
    return failed


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_operation_passes_its_oracle(name, traced, tmp_path):
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install(importlib.import_module("coherence_lab"))
    try:
        assert failed_ops(name, tmp_path) == []
    finally:
        if tracer:
            tracer.uninstall()
