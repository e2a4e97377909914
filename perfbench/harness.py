"""The closed goal loop and metric computation.

One client sends the next goal only after the previous one completed.
The untraced run sets the workload up several times (``setup_s`` is the
median), then runs goals for the requested number of seconds; between
set-ups and between goals it probes the host's speed, and every
end-to-end timing is scaled to the reference speed (see ``speed``).  The
traced run executes a fixed, seed-determined number of goals twice --
once untraced, once with spans and the program's counters on -- so its
counts repeat exactly and ``obs.overhead_pct`` compares like with like.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import Instrumentation, instrumented

from .speed import SpeedProbe
from .tracing import NullRecorder, SpanRecorder

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("goals_per_s", "1/s"),
    ("goal_p50_ms", "ms"),
    ("goal_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit, kind) of every per-layer metric.  ``kind`` is ``time``
#: for wall-clock figures and ``count`` for figures derived only from
#: counts, which repeat exactly for a fixed seed.
PER_LAYER = (
    ("parser.goal_us", "us", "time"),
    ("parser.setup_ms", "ms", "time"),
    ("engine.select_ms", "ms", "time"),
    ("interpreter.self_ms_per_goal", "ms", "time"),
    ("search.configs_expanded_per_goal", "count", "count"),
    ("search.steps_per_goal", "count", "count"),
    ("iso.searches_per_goal", "count", "count"),
    ("search.frontier_peak", "count", "count"),
    ("search.depth_peak", "count", "count"),
    ("search.yield", "ratio", "count"),
    ("unify.attempts_per_goal", "count", "count"),
    ("por.steps_pruned_per_goal", "count", "count"),
    ("por.prune_ratio", "ratio", "count"),
    ("table.hit_ratio", "ratio", "count"),
    ("table.lookups_per_goal", "count", "count"),
    ("table.delta_bytes_per_goal", "bytes", "count"),
    ("table.keys", "count", "count"),
    ("store.write_us", "us", "time"),
    ("store.commit_ms", "ms", "time"),
    ("store.commit_tail_ms", "ms", "time"),
    ("store.commits", "count", "count"),
    ("store.rollbacks", "count", "count"),
    ("store.appends_per_commit", "count", "count"),
    ("store.snapshots", "count", "count"),
    ("store.bytes_per_user_byte", "ratio", "count"),
    ("store.self_share", "ratio", "time"),
    ("store.load_ms", "ms", "time"),
    ("store.reopen_ms", "ms", "time"),
    ("workflow.compile_ms", "ms", "time"),
    ("workflow.actions_per_item", "count", "count"),
    ("bench.self_share", "ratio", "time"),
    ("obs.overhead_pct", "%", "time"),
)

#: Set-ups are short, so they are probed more often than goals.
SETUP_PROBE_EVERY_S = 0.02

#: Spans whose self time is the engine's own work (search, unification,
#: tabling, reduction): the engine call minus the store calls under it.
ENGINE_SPANS = ("engine.solve", "engine.simulate", "workflow.run")
STORE_SPANS = (
    "store.database", "store.insert", "store.delete",
    "store.savepoint", "store.release", "store.rollback",
)


@dataclass
class Phase:
    """What one pass over the goal stream produced."""

    latencies: List[float] = field(default_factory=list)
    answers: int = 0
    #: End-of-run checks made (durability), counted as attempts too.
    final_checks: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.final_checks

    @property
    def goals_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def windowed_median(values: List[float], size: int) -> Tuple[float, int]:
    """The median latency of each window of *size* consecutive goals,
    averaged over the complete windows: ``(value, windows)``.

    When latencies fall into a few distinct modes in a fixed mix, the
    median of a whole run sits between two modes and jumps from one to
    the other as their shares cross one half; the average of windows'
    medians moves in proportion to the shares instead.  A run shorter
    than one window is one window."""
    chunks = [values[i:i + size] for i in range(0, len(values) - size + 1, size)]
    chunks = chunks or [values]
    return statistics.fmean(statistics.median(c) for c in chunks), len(chunks)


def tail(values: List[float]) -> Tuple[float, float, int]:
    """The value at the highest percentile that has at least ten samples
    beyond it: ``(value, percentile, samples beyond)``.  With ten or
    fewer samples there is no such percentile, and the maximum is
    returned with zero beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def drive(
    session, goals, rec, *, seconds: float = 0.0, count: int = 0,
    probe: Optional[SpeedProbe] = None,
) -> Phase:
    """Run goals until *seconds* of wall time have passed (untraced
    measurement) or exactly *count* goals have run (traced run).  A
    *probe* is sampled between goals, outside their timers."""
    phase = Phase()
    clock = time.perf_counter
    deadline = clock() + seconds
    i = 0
    for goal in goals:
        if count:
            if i >= count:
                break
        elif clock() >= deadline:
            break
        if probe is not None:
            probe.maybe(i)
        rec.goal = i
        i += 1
        start = clock()
        try:
            with rec.span("goal"):
                outcome = session.execute(goal)
        except Exception as exc:  # a goal that raises is a failed goal
            phase.latencies.append(clock() - start)
            phase.failed += 1
            phase.problems.append("%r raised %s: %s" % (goal, type(exc).__name__, exc))
            continue
        phase.latencies.append(clock() - start)
        rec.goal = -1
        phase.answers += session.answers(outcome)
        problem = session.check(goal, outcome)
        if problem is not None:
            phase.failed += 1
            phase.problems.append(problem)
    rec.goal = -1
    if probe is not None:
        probe.sample(i)
    return phase


def _finish(session, phase: Phase) -> None:
    problems = session.finish()
    phase.final_checks += session.final_checks
    phase.failed += len(problems)
    phase.problems.extend(problems)


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    problems: List[str]
    notes: List[str] = field(default_factory=list)


def run_untraced(workload, seconds: float) -> Result:
    """The end-to-end run."""
    rec = NullRecorder()
    setups = []
    setup_probe = SpeedProbe(every_s=SETUP_PROBE_EVERY_S)
    session = None
    for _ in range(workload.setup_repeats):
        if session is not None:
            session.close()
        setup_probe.maybe(len(setups))
        start = time.perf_counter()
        session = workload.setup(rec)
        setups.append(time.perf_counter() - start)
    setup_probe.sample(len(setups))
    goal_probe = SpeedProbe()
    phase = drive(session, workload.goals(), rec, seconds=seconds, probe=goal_probe)
    _finish(session, phase)
    raw = _timings(phase.latencies, setups, workload.window)
    metrics = _timings(
        goal_probe.scale(phase.latencies), setup_probe.scale(setups), workload.window
    )
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    _, pct, beyond = tail(phase.latencies)
    n = len(phase.latencies)
    ref, spread, probes = goal_probe.summary()
    if workload.window:
        p50_note = "goal_p50_ms averages the medians of %d windows of %d goals" % (
            max(1, n // workload.window), workload.window)
    else:
        p50_note = "goal_p50_ms is the median of %d goals" % n
    notes = [
        p50_note,
        "goal_tail_ms is p%.2f of %d goals (%d beyond)" % (pct, n, beyond),
        "setup_s is the median of %d set-ups" % len(setups),
        "timings are scaled to the reference speed; reference task %.3f ms "
        "(median of %d probes, IQR/median %.2f)" % (ref * 1e3, probes, spread),
        "unscaled: " + ", ".join("%s %.6g" % kv for kv in raw.items()),
        "failed_share %.4g (%d of %d)"
        % (phase.failed / phase.attempted, phase.failed, phase.attempted),
    ]
    return Result(phase.attempted, phase.failed, metrics, phase.problems, notes)


def _timings(
    latencies: List[float], setups: List[float], window: Optional[int]
) -> Dict[str, float]:
    """The timing metrics of one run, from its goal latencies and its
    set-up times (seconds).  ``goal_p50_ms`` is a windowed median when
    the workload names a *window*, else the plain median."""
    if window:
        p50 = windowed_median(latencies, window)[0]
    else:
        p50 = statistics.median(latencies)
    return {
        "goals_per_s": len(latencies) / sum(latencies),
        "goal_p50_ms": p50 * 1e3,
        "goal_tail_ms": tail(latencies)[0] * 1e3,
        "setup_s": statistics.median(setups),
    }


def run_traced(workload, seconds: float) -> Tuple[Result, SpanRecorder]:
    """The per-layer run: the same goals untraced, then traced."""
    count = max(1, int(round(workload.trace_rate * seconds)))
    plain_rec = NullRecorder()
    plain = workload.setup(plain_rec)
    base = drive(plain, workload.goals(), plain_rec, count=count)
    _finish(plain, base)

    rec = SpanRecorder()
    session = workload.setup(rec, traced=True)
    inst = Instrumentation.create()
    with instrumented(inst):
        traced = drive(session, workload.goals(), rec, count=count)
    files, user = session.store_bytes()
    _finish(session, traced)

    metrics = layer_metrics(rec, inst, session, traced, count, files, user)
    metrics["obs.overhead_pct"] = (base.goals_per_s / traced.goals_per_s - 1.0) * 100.0
    notes = ["%d goals per phase" % count] + breakdown(rec)
    failed = base.failed + traced.failed
    return (
        Result(base.attempted + traced.attempted, failed, metrics,
               base.problems + traced.problems, notes),
        rec,
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    rec: SpanRecorder, inst: Instrumentation, session, phase: Phase,
    goals: int, files: int, user: int,
) -> Dict[str, float]:
    totals = rec.totals()
    setup = rec.totals(goals_only=False)
    c = inst.metrics.counters
    g = inst.metrics.gauges

    def ms(name: str, table=setup) -> float:
        return table.get(name, {}).get("ns", 0) / 1e6

    def calls(name: str) -> int:
        return totals.get(name, {}).get("count", 0)

    def self_ns(names) -> int:
        return sum(totals.get(n, {}).get("self_ns", 0) for n in names)

    goal_ns = totals["goal"]["ns"]
    write_ms = ms("store.insert", totals) + ms("store.delete", totals)
    writes = calls("store.insert") + calls("store.delete")
    proxy = getattr(session, "proxy", None)
    commits = proxy.commit_ns if proxy is not None else []
    hits, misses = c.get("table.hits", 0), c.get("table.misses", 0)
    steps, pruned = c.get("search.steps", 0), c.get("por.steps_pruned", 0)
    expanded = c.get("search.configs_expanded", 0)
    actions, items = getattr(session, "actions", 0), getattr(session, "items", 0)
    return {
        "parser.goal_us": _ratio(ms("parser.goal", totals) * 1e3, calls("parser.goal")),
        "parser.setup_ms": ms("parser.program") + ms("parser.database"),
        "engine.select_ms": ms("engine.select"),
        "interpreter.self_ms_per_goal": self_ns(ENGINE_SPANS) / 1e6 / goals,
        "search.configs_expanded_per_goal": expanded / goals,
        "search.steps_per_goal": steps / goals,
        "iso.searches_per_goal": c.get("iso.searches", 0) / goals,
        "search.frontier_peak": g.get("search.frontier_peak", 0),
        "search.depth_peak": g.get("search.depth_peak", 0),
        "search.yield": _ratio(phase.answers, expanded),
        "unify.attempts_per_goal": c.get("unify.attempts", 0) / goals,
        "por.steps_pruned_per_goal": pruned / goals,
        "por.prune_ratio": _ratio(pruned, steps + pruned),
        "table.hit_ratio": _ratio(hits, hits + misses),
        "table.lookups_per_goal": (hits + misses) / goals,
        "table.delta_bytes_per_goal": c.get("table.delta_bytes", 0) / goals,
        "table.keys": g.get("table.keys", 0),
        "store.write_us": _ratio(write_ms * 1e3, writes),
        "store.commit_ms": _ratio(sum(commits) / 1e6, len(commits)),
        "store.commit_tail_ms": tail(commits)[0] / 1e6 if commits else 0.0,
        "store.commits": len(commits),
        "store.rollbacks": proxy.rollbacks if proxy is not None else 0,
        "store.appends_per_commit": _ratio(c.get("store.wal_appends", 0), len(commits)),
        "store.snapshots": c.get("store.snapshots", 0),
        "store.bytes_per_user_byte": _ratio(files, user),
        "store.self_share": self_ns(STORE_SPANS) / goal_ns,
        "store.load_ms": ms("store.load"),
        "store.reopen_ms": ms("store.reopen"),
        "workflow.compile_ms": ms("workflow.compile"),
        "workflow.actions_per_item": _ratio(actions, items),
        "bench.self_share": self_ns(("goal",)) / goal_ns,
    }


def breakdown(rec: SpanRecorder) -> List[str]:
    """Self time per span name as a share of goal time, largest first."""
    totals = rec.totals()
    goal_ns = totals["goal"]["ns"]
    rows = sorted(totals.items(), key=lambda kv: -kv[1]["self_ns"])
    return [
        "self %-18s %6d calls %10.2f ms %5.1f%% of goal time"
        % (name, row["count"], row["self_ns"] / 1e6, 100.0 * row["self_ns"] / goal_ns)
        for name, row in rows
    ]
