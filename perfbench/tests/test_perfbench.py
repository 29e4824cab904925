"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import itertools
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import measure  # noqa: E402
import spans  # noqa: E402
from measure import Checked, Op, run_rounds, tail  # noqa: E402


# -- tail percentile ---------------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(100))
    value, percentile, n = tail(reversed(values))
    assert (value, percentile, n) == (89, 90.0, 100)
    assert sum(v > value for v in values) == 10
    assert tail(range(1000))[:2] == (989, 99.0)


def test_tail_needs_more_than_ten_samples():
    assert tail(range(11)) == (0, 100.0 / 11, 11)
    with pytest.raises(ValueError):
        tail(range(10))


# -- self time ---------------------------------------------------------------

def _span(name, start, end, parent):
    span = spans.Span(name, start, parent, 0)
    span.end = end
    return span


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    tree = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),      # overlaps a: covered once
        _span("a.c", 1.5, 2.0, 1),    # grandchild: counts against a only
        _span("d", 9.0, 12.0, 0),     # runs past root: clipped at 10
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.5, 3.0, 0.5, 3.0])


def test_self_times_of_traced_nested_calls_add_up_to_the_root():
    tracer = spans.Tracer()
    ns = types.SimpleNamespace()

    def inner():
        return sum(range(1000))

    def outer():
        return ns.inner() + ns.inner()

    ns.inner = tracer.wrap("inner", inner)
    wrapped_outer = tracer.wrap("outer", outer)
    wrapped_outer()  # outside an operation: records nothing
    assert tracer.spans == []
    with tracer.root(0, "op"):
        wrapped_outer()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("op", None), ("outer", 0), ("inner", 1), ("inner", 1)]
    root = tracer.spans[0]
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(root.end - root.start)


# -- the closed loop ---------------------------------------------------------

def _boom():
    raise RuntimeError("boom")


def test_failed_operations_are_counted_and_do_not_stop_the_loop():
    ops = [
        Op("ok", lambda: 1, lambda out: Checked(out == 1, b"1")),
        Op("raises", _boom, lambda out: Checked(True, b"")),
        Op("wrong", lambda: 2, lambda out: Checked(out == 1, b"2")),
        Op("check-raises", lambda: 3, lambda out: 1 / 0),
        Op("known", lambda: 5, lambda out: Checked(False, b"\xff", {"gap": 2}, known=True)),
        Op("ok-again", lambda: 4, lambda out: Checked(True, b"4", {"n_samples": 5})),
    ]
    loop = run_rounds(ops, rounds=2)
    assert loop.attempted == 12
    assert loop.failed == 8
    assert loop.unexpected == 6  # the known defect is failed, not unexpected
    assert loop.completed == [True, False, True, True, True, True]
    assert [len(t) for t in loop.seconds] == [2] * 6
    assert loop.facts[-1] == {"n_samples": 5}
    assert loop.unstable == []
    assert "round 0 op 4 known (known defect): {'gap': 2}" in loop.failures
    assert measure.throughput(loop) == 5 / sum(measure.op_times(loop))


def test_outputs_that_change_between_rounds_are_flagged():
    counter = itertools.count()
    ops = [Op("drift", lambda: next(counter), lambda out: Checked(True, str(out).encode())),
           Op("steady", lambda: 7, lambda out: Checked(True, str(out).encode()))]
    assert run_rounds(ops, rounds=2).unstable == [0]


def test_operation_time_is_the_median_of_its_rounds_at_reference_speed():
    ref = measure.PROBE_REF_S
    loop = measure.LoopResult(seconds=[[1.0, 2.0, 3.0]], hashes=[["h"] * 3], completed=[True],
                              facts=[{}], probes=[[ref, 2 * ref, ref]])
    assert measure.op_times(loop) == [1.0]  # scaled timings 1, 1, 3
    assert measure.op_times(loop, scaled=False) == [2.0]


# -- reproducibility record ------------------------------------------------

def test_runs_of_different_length_keep_separate_digest_records(tmp_path):
    import run
    import workloads

    scan = workloads.WORKLOADS["scan"](1, str(tmp_path))
    short, full = scan.ops(10), scan.ops(16)
    assert len(short) != len(full)
    keys = [run.digest_key("scan", 1, len(ops), "code") for ops in (short, full)]
    path = tmp_path / "digests.json"
    assert run.recorded_digest(path, keys[0], "a") == "a"
    assert run.recorded_digest(path, keys[1], "b") == "b"
    assert run.recorded_digest(path, keys[0], "c") == "a"  # a changed output still shows
    assert json.loads(path.read_text()) == dict(zip(keys, "ab"))


# -- wrappers ----------------------------------------------------------------

def _library_modules():
    import scipy.linalg

    import coherence_lab

    layers = [importlib.import_module(f"coherence_lab.{name}") for name in spans.LAYERS]
    return [coherence_lab, *layers, scipy.linalg]


def test_uninstall_restores_every_replaced_attribute():
    modules = _library_modules()
    before = [dict(vars(module)) for module in modules]
    tracer = spans.Tracer()
    tracer.install(modules[0])
    try:
        changed = {module.__name__ for module, saved in zip(modules, before)
                   if any(vars(module)[k] is not v for k, v in saved.items())}
        assert changed == {module.__name__ for module in modules}
    finally:
        tracer.uninstall()
    for module, saved in zip(modules, before):
        assert vars(module).keys() == saved.keys(), module.__name__
        assert all(vars(module)[k] is v for k, v in saved.items()), module.__name__


def test_traced_split_records_layer_spans_and_bytes():
    from coherence_lab import fock, qcore

    tracer = spans.Tracer()
    tracer.install(importlib.import_module("coherence_lab"))
    try:
        with tracer.root(0, "op"):
            out = fock.split_fock(fock.glauber_cs(0.5, 20), fock.SplitSpec.balanced())
            qcore.schmidt_cut(out, 1)
    finally:
        tracer.uninstall()
    by_name = {s.name: s for s in tracer.spans}
    assert {"fock.glauber_cs", "fock.split_fock", "fock.beamsplit_isometry",
            "qcore.SplitIsometry", "qcore.schmidt_cut"} <= by_name.keys()
    assert by_name["fock.beamsplit_isometry"].attrs == {"bytes": 21 * 21 * 21 * 16}
    iso = by_name["qcore.SplitIsometry"]
    assert tracer.spans[iso.parent].name == "fock.beamsplit_isometry"


# -- the benchmark definition ------------------------------------------------

def test_benchmark_json_names_the_metrics_the_runner_reports():
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == measure.PER_LAYER
    loop = run_rounds([Op("ok", lambda: 1, lambda out: Checked(True, b""))] * 11, rounds=1)
    figures, _ = measure.end_to_end(loop, peak_rss_mb=1.0, setup_s=1.0)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} <= {
        (name, unit) for name, (_, unit) in figures.items()}
