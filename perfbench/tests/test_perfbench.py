"""Tests for the benchmark's own code: generators, oracles, the host-speed
scaling, the store proxy, the exit status, and repeatable per-layer
counts.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.obs import Instrumentation, instrumented

from perfbench import gen, harness, run, speed
from perfbench.oracles import LedgerOracle, ReachOracle, check_lab_batch
from perfbench.tracing import NullRecorder, SpanRecorder
from perfbench.workloads import BankDurable, ReachMixed

ROOT = run.ROOT


def _take(stream, n):
    return list(itertools.islice(stream, n))


# -- seeded generators ---------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: _take(gen.bank_transfers(seed), 300),
        lambda seed: gen.bank_balances(seed),
        lambda seed: _take(gen.lab_batches(seed), 40),
        lambda seed: gen.reach_edges(seed),
        lambda seed: _take(gen.reach_goals(seed), 400),
    ],
)
def test_generators_are_deterministic(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_generated_inputs_have_the_stated_shape():
    transfers = _take(gen.bank_transfers(3), 2000)
    refused = sum(t.amount > 1000 for t in transfers) / len(transfers)
    assert 0.01 < refused < 0.06
    sizes = [b.size for b in _take(gen.lab_batches(3), 25)]
    for block in range(5):
        assert sorted(sizes[5 * block:5 * block + 5]) == list(gen.LAB_BATCH_SIZES)
    edges = gen.reach_edges(3)
    assert len(edges) == gen.REACH_EDGES and all(a < b for a, b in edges)
    goals = _take(gen.reach_goals(3), 1000)
    writes = [g for g in goals if isinstance(g, gen.Link)]
    assert len(writes) == 1000 // gen.REACH_WRITE_EVERY
    # Every generated write is valid against the evolving edge set.
    mirror = set(edges)
    for w in writes:
        assert ((w.src, w.dst) in mirror) != w.add
        (mirror.add if w.add else mirror.discard)((w.src, w.dst))


# -- oracles -------------------------------------------------------------------


def test_ledger_oracle_accepts_the_right_outcomes():
    oracle = LedgerOracle({0: 50, 1: 10})
    assert oracle.check(gen.Transfer(0, 1, 30), True, {0: 20, 1: 40}) is None
    assert oracle.check(gen.Transfer(0, 1, 30), False, {0: 20, 1: 40}) is None
    assert oracle.check_final({0: 20, 1: 40}) is None


def test_ledger_oracle_rejects_wrong_answers():
    assert LedgerOracle({0: 50, 1: 10}).check(
        gen.Transfer(0, 1, 60), True, {0: -10, 1: 70}) is not None
    assert LedgerOracle({0: 50, 1: 10}).check(
        gen.Transfer(0, 1, 30), False, {0: 50, 1: 10}) is not None
    assert LedgerOracle({0: 50, 1: 10}).check(
        gen.Transfer(0, 1, 30), True, {0: 20, 1: 41}) is not None
    oracle = LedgerOracle({0: 50, 1: 10})
    assert oracle.check_final({0: 50, 1: 11}) is not None  # not conserved
    assert oracle.check_final({0: 10, 1: 50}) is not None  # lost update
    assert oracle.check_final({0: 50}) is not None


def _lab_done(items):
    from perfbench.oracles import LAB_TASKS

    return [(task, item) for item in items for task in LAB_TASKS]


def test_lab_oracle_rejects_wrong_answers():
    items = ["s0", "s1"]
    agents = frozenset({"clerk0", "tech0"})
    done = _lab_done(items)
    assert check_lab_batch(items, done, agents, agents, 0) is None
    assert check_lab_batch(items, done[:-1], agents, agents, 0) is not None
    assert check_lab_batch(items, done + done[:1], agents, agents, 0) is not None
    assert check_lab_batch(items, done, frozenset({"tech0"}), agents, 0) is not None
    assert check_lab_batch(items, done, agents, agents, 1) is not None


def test_reach_oracle_rejects_wrong_answers():
    edges = {(0, 1), (1, 2), (3, 4)}
    assert ReachOracle(edges).check_write(gen.Link(0, 1, False), False) is not None
    oracle = ReachOracle(edges)
    assert oracle.check_read(gen.Reach(0), {1, 2}) is None
    assert oracle.check_read(gen.Reach(0), {1}) is not None
    assert oracle.check_read(gen.Reach(0), {1, 2, 4}) is not None
    assert oracle.check_write(gen.Link(0, 1, False), True) is None
    assert oracle.check_read(gen.Reach(0), set()) is None
    assert oracle.check_write(gen.Link(0, 1, False), True) is not None


def test_windowed_median_moves_with_the_share_of_slow_windows():
    assert harness.windowed_median([1, 1, 1, 9, 9, 9], 3) == (5, 2)
    value, windows = harness.windowed_median([1, 1, 1, 1, 1, 9, 9, 9, 9], 3)
    assert (value, windows) == (pytest.approx(11 / 3), 3)
    assert harness.windowed_median([2, 4], 3) == (3, 1)


# -- host-speed scaling --------------------------------------------------------


def _probe(samples):
    probe = speed.SpeedProbe()
    probe.samples = list(samples)
    return probe


def test_scaling_cancels_a_host_that_slows_down():
    # Goals 0-9 ran at the reference speed, goals 10-19 on a host twice
    # as slow: each goal and each probe took twice as long.
    ref = speed.REFERENCE_S
    probe = _probe([(i, ref) for i in range(0, 10, 2)]
                   + [(i, 2 * ref) for i in range(10, 21, 2)])
    latencies = [0.010] * 10 + [0.020] * 10
    scaled = probe.scale(latencies)
    assert scaled[:7] == pytest.approx([0.010] * 7)
    assert scaled[13:] == pytest.approx([0.010] * 7)


def test_scaling_uses_the_median_of_nearby_probes():
    ref = speed.REFERENCE_S
    # One probe that an interrupt made ten times slower moves nothing.
    probe = _probe([(0, ref), (1, ref), (2, 10 * ref), (3, ref), (4, ref), (5, ref)])
    assert probe.scale([0.5] * 5) == pytest.approx([0.5] * 5)


def test_probe_records_one_sample_per_call():
    probe = speed.SpeedProbe(every_s=3600)
    probe.sample(0)
    probe.maybe(1)  # not due yet
    assert [p for p, _ in probe.samples] == [0]
    assert probe.samples[0][1] > 0


# -- the store proxy -----------------------------------------------------------


def _run_through(workload_cls, workdir, traced, count):
    workdir.mkdir()
    workload = workload_cls(5, str(workdir))
    rec = SpanRecorder() if traced else NullRecorder()
    session = workload.setup(rec, traced=traced)
    inst = Instrumentation.create()
    with instrumented(inst):
        phase = harness.drive(session, workload.goals(), rec, count=count)
    snapshot = inst.metrics.snapshot(include_timers=False)
    digest = session.store.content_hash()
    session.close()
    assert phase.failed == 0, phase.problems
    return digest, snapshot["counters"], snapshot["gauges"], session


@pytest.mark.parametrize("workload_cls,count", [(BankDurable, 120), (ReachMixed, 60)])
def test_store_proxy_is_transparent(tmp_path, workload_cls, count):
    plain = _run_through(workload_cls, tmp_path / "plain", False, count)
    proxied = _run_through(workload_cls, tmp_path / "proxied", True, count)
    assert proxied[0] == plain[0]  # content_hash of the final store
    assert proxied[1] == plain[1]  # counters
    assert proxied[2] == plain[2]  # gauges
    assert proxied[3].proxy.commit_ns  # and it did time the commits


# -- the command ---------------------------------------------------------------


def test_command_exits_nonzero_when_an_oracle_fails(monkeypatch, capsys):
    monkeypatch.setattr(ReachOracle, "closure", lambda self, node: set())
    code = run.main(["--workload", "reach_mixed", "--seed", "1",
                     "--seconds", "0.5", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lab_batches",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode not in (0, 1)
    assert proc.stdout.strip() == ""


def _traced_counts(workload, seconds, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "4",
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {
        name: metrics[name]["value"]
        for name, _, kind in harness.PER_LAYER
        if kind == "count"
    }


# reach_mixed runs long enough to include a write (goal 50).
@pytest.mark.parametrize(
    "workload,seconds", [("bank_durable", 1), ("lab_batches", 1), ("reach_mixed", 4)]
)
def test_layer_counts_repeat_across_processes_and_hash_seeds(workload, seconds):
    first = _traced_counts(workload, seconds, 1)
    assert first == _traced_counts(workload, seconds, 2)
    assert any(first.values())
