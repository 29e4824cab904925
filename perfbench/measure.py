"""The closed loop, the end-to-end metrics and the per-layer metrics.

One client makes a fixed number of rounds over a fixed list of operations
generated from the seed; every round runs the same list in the same order.
Each operation is timed alone and its oracle check runs after the timer
stops. An operation that raises or fails its check is counted and the loop
goes on; a failure its check marks as a known defect of the library is
counted like any other but kept apart from unexpected ones. Every round
must give the same outputs as the first.

Times are scaled to the reference host speed. The host these numbers were
tuned on switches between speeds that differ by up to 1.8x for tens of
seconds at a time, so a fixed probe is timed just before and just after
every operation, and the operation's wall time is multiplied by
``PROBE_REF_S`` over the probe's mean time. An operation's time is the
median of its scaled timings over the rounds. Wall-clock figures are kept
beside the scaled ones in each run's record.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np

from spans import self_times

#: passes over a run's operation list; two or more check reproducibility
ROUNDS = 3
#: samples that must lie beyond the reported tail latency
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Checked:
    """An oracle verdict: pass or fail, the bytes that enter the output
    digest, and facts the per-layer metrics read (gaps, sample counts).
    ``known`` marks a failure as a defect of the library that NOTES.md
    documents: it counts as failed but does not make the run incorrect."""

    ok: bool
    fingerprint: bytes
    facts: dict = field(default_factory=dict)
    known: bool = False


@dataclass(frozen=True)
class Op:
    """One call into the library (``run``) and its oracle (``check``)."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Checked]


@dataclass
class LoopResult:
    """Timings ``seconds[i][r]`` and output hashes ``hashes[i][r]`` of
    operation ``i`` in round ``r``; facts come from round 0. ``completed[i]``
    is false once operation ``i`` has raised; ``unexpected`` counts the
    failures that are not known defects."""

    seconds: list
    hashes: list
    completed: list
    facts: list
    probes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    unexpected: int = 0

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.seconds)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def digest(self) -> str:
        """Digest of every operation's outputs in round 0, in order."""
        return hashlib.sha256("".join(h[0] for h in self.hashes).encode()).hexdigest()

    @property
    def unstable(self) -> list:
        """Indices of operations whose outputs changed between rounds."""
        return [i for i, h in enumerate(self.hashes) if len(set(h)) > 1]


def _verdict(op: Op, out, error: Optional[BaseException]) -> Checked:
    if error is not None:
        return Checked(False, f"raised {type(error).__name__}: {error}".encode())
    try:
        return op.check(out)
    except Exception as exc:  # a broken check is a failed operation
        traceback.print_exc(file=sys.stderr)
        return Checked(False, f"check raised {type(exc).__name__}: {exc}".encode())


def _detail(checked: Checked) -> str:
    """The fingerprint if it is text, else the facts."""
    try:
        return checked.fingerprint.decode()[:200]
    except UnicodeDecodeError:
        return repr(checked.facts)


def run_rounds(ops, rounds: int, root=None) -> LoopResult:
    """Run ``ops`` in order, ``rounds`` times, one operation at a time.

    ``root(index, kind)`` opens the operation's root span in a traced run.
    """
    n = len(ops)
    result = LoopResult([[] for _ in ops], [[] for _ in ops], [True] * n, [{}] * n,
                        [[] for _ in ops])
    for r in range(rounds):
        for i, op in enumerate(ops):
            error = None
            before = probe()
            with root(r * n + i, op.kind) if root else nullcontext():
                t0 = perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # counted as failed; the loop goes on
                    out, error = None, exc
                t1 = perf_counter()
            result.probes[i].append(0.5 * (before + probe()))
            checked = _verdict(op, out, error)
            result.seconds[i].append(t1 - t0)
            result.hashes[i].append(hashlib.sha256(
                op.kind.encode() + b"\0" + checked.fingerprint).hexdigest())
            if r == 0:
                result.facts[i] = checked.facts
            if error is not None:
                result.completed[i] = False
            if not checked.ok:
                result.unexpected += not checked.known
                result.failures.append(f"round {r} op {i} {op.kind}"
                                       + (" (known defect)" if checked.known else "")
                                       + f": {_detail(checked)}")
    return result


#: the probe's time on the reference host (2 vCPUs, the slower of its two
#: common speeds); scaled times there read close to wall times
PROBE_REF_S = 0.55e-3
_PROBE_MATRIX = np.eye(40, dtype=complex) * (1 + 1e-3j)


def probe() -> float:
    """Seconds a fixed mix of interpreter and small numpy work takes now."""
    a = _PROBE_MATRIX
    t0 = perf_counter()
    total = 0
    for i in range(4000):
        total += i
    for _ in range(20):
        a = a @ _PROBE_MATRIX
    return perf_counter() - t0


def speed_scale() -> float:
    """PROBE_REF_S over the median of three probes: the factor that turns
    seconds measured now into seconds at the reference speed."""
    return PROBE_REF_S / statistics.median(probe() for _ in range(3))


def op_times(loop: LoopResult, scaled: bool = True) -> list:
    """Each operation's time: the median over rounds of its timings, scaled
    to the reference speed unless ``scaled`` is false."""
    if not scaled:
        return [statistics.median(ts) for ts in loop.seconds]
    return [statistics.median(t * PROBE_REF_S / p for t, p in zip(ts, ps))
            for ts, ps in zip(loop.seconds, loop.probes)]


def tail(values, beyond: int = TAIL_BEYOND):
    """The highest percentile that still has ``beyond`` samples above it.

    Returns ``(value, percentile, n)``: the sample at sorted rank
    n - 1 - beyond, and the share of samples at or below that rank.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    rank = n - 1 - beyond
    return xs[rank], 100.0 * (rank + 1) / n, n


def throughput(loop: LoopResult, scaled: bool = True) -> float:
    """Operations that completed, each with its output checked, per second
    of the summed operation times. Whether the checks passed is
    ``failed_frac``'s business, so that a seed's share of known failures
    does not move throughput."""
    return sum(loop.completed) / sum(op_times(loop, scaled))


def latencies(loop: LoopResult, scaled: bool = True) -> dict:
    times = op_times(loop, scaled)
    return {
        "ops_per_s": (throughput(loop, scaled), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(times), "ms"),
        "latency_tail_ms": (1e3 * tail(times)[0], "ms"),
    }


def end_to_end(loop: LoopResult, peak_rss_mb: float, setup_s: float):
    """Every end-to-end figure, plus where the tail sits."""
    _, tail_pct, n = tail(op_times(loop))
    return {
        **latencies(loop),
        "failed_frac": (loop.failed / loop.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }, {"tail_percentile": tail_pct, "tail_samples": n,
        "tail_samples_beyond": TAIL_BEYOND}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of a traced run
# ---------------------------------------------------------------------------

#: parents that split fock.glauber_cs: the fit objective (inside
#: fock.minimize), the evolve overlap, the scan's coherent grid and the CLI
GLAUBER_PARENTS = ("fock.minimize", "dynamics.cs_overlap",
                   "splitting.uniqueness_scan", "cli.main", "other")

#: a multistart run counts as useful when it ends this close to the best
STARTS_TOL = 1e-6


def _calls_self(name):
    return [(f"{name}.calls", "count/round"), (f"{name}.self_s", "s/round")]


def _optimizer(layer):
    return [(f"{layer}.minimize.self_s", "s/round"),
            (f"{layer}.minimize.nfev", "count/round"),
            (f"{layer}.minimize.converged_frac", "ratio")]


PER_LAYER = [
    # scan
    *_calls_self("splitting.uniqueness_scan"),
    ("splitting.polish_frac", "ratio"),
    ("splitting.polish_useful_frac", "ratio"),
    *_calls_self("spin.nearest_cs_fit"),
    *_optimizer("spin"),
    *_calls_self("fock.nearest_coherent_fit"),
    *_optimizer("fock"),
    # chsh
    *_calls_self("bell.chsh_maximize"),
    ("bell.minimize.calls", "count/round"),
    *_optimizer("bell"),
    ("bell.starts_useful_frac", "ratio"),
    ("bell.oracle_gap_max", "1"),
    # evolve
    *_calls_self("dynamics.expm"),
    ("dynamics.evolve_fock.self_s", "s/round"),
    ("dynamics.evolve_spin.self_s", "s/round"),
    *_calls_self("dynamics.cs_overlap"),
    ("dynamics.alpha_gap_max", "1"),
    # split
    *_calls_self("fock.beamsplit_isometry"),
    ("fock.beamsplit_isometry.bytes", "B/round"),
    *_calls_self("spin.addition_isometry"),
    ("spin.addition_isometry.bytes", "B/round"),
    *_calls_self("qcore.SplitIsometry"),
    *_calls_self("fock.split_fock"),
    *_calls_self("spin.split_spin"),
    *_calls_self("splitting.factorization_report"),
    *_calls_self("serialize.state_to_dict"),
    *_calls_self("serialize.json_text"),
    ("serialize.json_text.bytes", "B/round"),
    ("cli.main.self_s", "s/round"),
    # shared
    *_calls_self("qcore.schmidt_cut"),
    *_calls_self("fock.glauber_cs"),
    *[m for parent in GLAUBER_PARENTS
      for m in _calls_self(f"fock.glauber_cs.parent.{parent}")],
    # the traced run itself
    ("trace.ops_per_s", "1/s"),
    ("trace.spans", "count/round"),
]


@dataclass
class _Totals:
    calls: int = 0
    self_s: float = 0.0
    bytes: int = 0
    nfev: int = 0
    converged: int = 0


def span_totals(spans) -> dict:
    """Calls, self time and recorded attributes summed by span name.

    ``scipy.linalg.expm`` called from a ``dynamics`` span also counts as
    ``dynamics.expm``; ``fock.glauber_cs`` also counts under its parent.
    """
    totals = defaultdict(_Totals)
    for span, own in zip(spans, self_times(spans)):
        parent = spans[span.parent].name if span.parent is not None else None
        keys = [span.name]
        if span.name == "scipy.linalg.expm" and parent and parent.startswith("dynamics."):
            keys.append("dynamics.expm")
        if span.name == "fock.glauber_cs":
            group = parent if parent in GLAUBER_PARENTS else "other"
            keys.append(f"fock.glauber_cs.parent.{group}")
        attrs = span.attrs or {}
        for key in keys:
            t = totals[key]
            t.calls += 1
            t.self_s += own
            t.bytes += attrs.get("bytes", 0)
            t.nfev += attrs.get("nfev", 0)
            t.converged += bool(attrs.get("success", False))
    return totals


def _starts_useful_frac(spans) -> float:
    """Share of bell.minimize runs that end within STARTS_TOL of the best
    run of the same chsh_maximize call."""
    by_call = defaultdict(list)
    for span in spans:
        if span.name == "bell.minimize":
            by_call[span.parent].append(span.attrs["fun"])
    runs = sum(len(funs) for funs in by_call.values())
    useful = sum(sum(f <= min(funs) + STARTS_TOL for f in funs)
                 for funs in by_call.values())
    return useful / runs if runs else 0.0


def _fits_in_scan(spans) -> int:
    return sum(1 for span in spans
               if span.name in ("spin.nearest_cs_fit", "fock.nearest_coherent_fit")
               and span.parent is not None
               and spans[span.parent].name == "splitting.uniqueness_scan")


def layer_metrics(spans, rounds: int, facts, traced_ops_per_s: float) -> dict:
    """Every PER_LAYER metric; counts and times are per round (one pass
    over the operation list), and a layer the workload never calls reads 0.
    ``facts`` come from one round."""
    totals = span_totals(spans)
    fits = _fits_in_scan(spans) / rounds
    samples = sum(f.get("n_samples", 0) for f in facts)
    excluded = sum(f.get("n_excluded", 0) for f in facts)
    special = {
        "splitting.polish_frac": fits / samples if samples else 0.0,
        "splitting.polish_useful_frac": excluded / fits if fits else 0.0,
        "bell.starts_useful_frac": _starts_useful_frac(spans),
        "bell.oracle_gap_max": max((f.get("oracle_gap", 0.0) for f in facts), default=0.0),
        "dynamics.alpha_gap_max": max((f.get("alpha_gap", 0.0) for f in facts), default=0.0),
        "trace.ops_per_s": traced_ops_per_s,
        "trace.spans": len(spans) / rounds,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            base, stat = name.rsplit(".", 1)
            t = totals.get(base, _Totals())
            if stat == "converged_frac":
                value = t.converged / t.calls if t.calls else 0.0
            else:
                value = getattr(t, stat) / rounds
        out[name] = (value, unit)
    return out
