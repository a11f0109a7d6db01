"""Tests for the deterministic simulation harness itself.

Three layers: unit tests for the simulation primitives (virtual clock,
seeded scheduler, crash-semantics filesystem), determinism tests (same
seed -> byte-identical run hash; different seeds -> different traces),
and canary tests proving the harness *catches* each injected bug and
that the shrunk repro replays to the same invariant violation.
"""

import random

import pytest

from repro.simtest import (
    BUGS,
    SimClock,
    SimFileSystem,
    SimScheduler,
    SimulatedCrash,
    generate_trace,
    run_seed,
    run_trace,
    shrink_failure,
    trace_hash,
)


class TestSimClock:
    def test_starts_at_zero_and_advances(self):
        clock = SimClock()
        assert clock() == 0.0
        clock.advance(1.5)
        clock.sleep(0.5)
        assert clock() == 2.0
        assert clock.monotonic() == 2.0

    def test_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)


class TestSimScheduler:
    def test_runs_spawned_thunks_to_completion(self):
        sched = SimScheduler(seed=1)
        ran = []
        for i in range(5):
            sched.spawn(lambda i=i: ran.append(i))
        assert sched.pending == 5
        sched.run_until_idle()
        assert sorted(ran) == [0, 1, 2, 3, 4]
        assert sched.pending == 0

    def test_order_is_a_function_of_the_seed(self):
        def record(seed):
            sched = SimScheduler(seed=seed)
            out = []
            for i in range(8):
                sched.spawn(lambda i=i: out.append(i))
            sched.run_until_idle()
            return out

        assert record(3) == record(3)
        orders = {tuple(record(s)) for s in range(6)}
        assert len(orders) > 1  # different seeds explore different orders

    def test_run_until_predicate(self):
        sched = SimScheduler(seed=0)
        hits = []
        for i in range(10):
            sched.spawn(lambda i=i: hits.append(i))
        sched.run_until(lambda: len(hits) >= 3)
        assert len(hits) >= 3
        assert sched.pending > 0  # stopped as soon as the predicate held


class TestSimFileSystem:
    def test_fsynced_bytes_survive_a_crash(self):
        fs = SimFileSystem()
        fh = fs.open("wal", "wb")
        fh.write(b"durable")
        fs.fsync(fh)
        fh.write(b"-volatile")
        fh.close()
        fs.crash(random.Random(0))
        data = fs.read_bytes("wal")
        assert data.startswith(b"durable")

    def test_crash_point_kills_the_writer(self):
        fs = SimFileSystem()
        fh = fs.open("f", "wb")
        fs.schedule_crash(2)
        fh.write(b"one")  # op 1: survives the arming
        with pytest.raises(SimulatedCrash):
            fh.write(b"two")  # op 2: dies
        # Once dead, every later side effect dies too.
        with pytest.raises(SimulatedCrash):
            fh.write(b"three")
        fs.crash(random.Random(1))
        assert fs.unsynced_ops("f") == 0

    def test_disarm_cancels_a_pending_crash(self):
        fs = SimFileSystem()
        fh = fs.open("f", "wb")
        fs.schedule_crash(5)
        fh.write(b"x")
        fs.disarm()
        for _ in range(10):
            fh.write(b"y")  # would have crashed at op 5

    def test_never_synced_file_can_vanish(self):
        # With a salt that keeps a zero-length journal prefix, a file
        # that was never fsynced disappears entirely.
        for salt in range(50):
            fs = SimFileSystem()
            fh = fs.open("tmp", "wb")
            fh.write(b"data")
            fh.close()
            fs.crash(random.Random(salt))
            if not fs.exists("tmp"):
                return
        pytest.fail("no salt in 0..49 erased a never-synced file")

    def test_torn_write_keeps_a_strict_prefix(self):
        seen_torn = False
        for salt in range(200):
            fs = SimFileSystem()
            fh = fs.open("f", "wb")
            fh.write(b"AAAA")
            fs.fsync(fh)
            fh.write(b"BBBBBBBB")
            fs.crash(random.Random(salt))
            data = fs.read_bytes("f")
            assert data.startswith(b"AAAA")  # fsynced prefix always holds
            tail = data[4:]
            assert tail in (b"", b"BBBBBBBB") or (
                0 < len(tail) < 8 and tail == b"B" * len(tail)
            )
            if 0 < len(tail) < 8:
                seen_torn = True
        assert seen_torn  # the torn-write path actually fires

    def test_replace_is_atomic_and_durable(self):
        fs = SimFileSystem()
        fh = fs.open("snap.tmp", "wb")
        fh.write(b"snapshot")
        fs.fsync(fh)
        fh.close()
        fs.replace("snap.tmp", "snap")
        fs.crash(random.Random(7))
        assert not fs.exists("snap.tmp")
        assert fs.read_bytes("snap") == b"snapshot"


class TestHarnessDeterminism:
    def test_trace_generation_is_pure(self):
        assert generate_trace(42) == generate_trace(42)
        assert generate_trace(42) != generate_trace(43)

    def test_same_seed_same_run_hash(self):
        for seed in (0, 2, 11):
            first = run_seed(seed)
            second = run_seed(seed)
            assert first.ok and second.ok
            assert first.run_hash == second.run_hash

    def test_trace_hash_covers_events(self):
        trace = generate_trace(1)
        assert trace_hash(trace) != trace_hash(trace, events=[{"op": "x"}])

    def test_clean_seed_batch_passes_all_invariants(self):
        failures = [
            (seed, report.failure)
            for seed in range(20)
            for report in [run_seed(seed)]
            if not report.ok
        ]
        assert failures == []

    def test_both_modes_get_exercised(self):
        modes = {generate_trace(seed)["mode"] for seed in range(20)}
        assert modes == {"single", "cluster"}

    def test_cluster_traces_carry_stream_steps(self):
        ops = [
            step["op"]
            for seed in range(5)
            for step in generate_trace(seed, mode="cluster")["steps"]
        ]
        assert {"register", "poll", "kill_resume", "outage"} <= set(ops)


class TestChaosWorkload:
    """Shard-fault chaos steps: generated, self-contained, and actually
    exercising both degraded and fault-absorbed scatter outcomes."""

    def test_cluster_traces_contain_chaos_steps(self):
        steps = [
            step
            for seed in range(10)
            for step in generate_trace(seed, mode="cluster")["steps"]
            if step["op"] == "chaos_search"
        ]
        assert len(steps) >= 10
        # Every plan is self-contained plain JSON: scripts keyed by
        # "<shard>:<replica>" with a known fault vocabulary, plus an
        # optional partitioned shard group.
        from repro.net.sim import SHARD_FAULTS

        saw_partition = saw_script = False
        for step in steps:
            plan = step["plan"]
            for key, script in plan["scripts"].items():
                shard, replica = key.split(":")
                assert shard.isdigit() and replica.isdigit()
                assert all(fault in SHARD_FAULTS for fault in script)
                saw_script = True
            if plan["partition"]:
                saw_partition = True
        assert saw_script and saw_partition

    def test_chaos_exercises_both_outcomes(self):
        """Across a seed batch, some chaos plans must fully fail a shard
        (degraded answer checked against the restricted model) and some
        must be absorbed by failover (full-model equality) — otherwise
        one arm of degraded-correctness is dead code."""
        from repro.simtest.harness import _Simulation

        degraded = absorbed = 0
        for seed in range(8):
            sim = _Simulation(generate_trace(seed, mode="cluster"), None)
            report = sim.run()
            assert report.ok, (seed, report.failure)
            for event in sim.events:
                if event.get("op") == "chaos_search" and "degraded" in event:
                    if event["degraded"]:
                        degraded += 1
                    else:
                        absorbed += 1
                    # scatter-no-hang, restated on the event stream.
                    assert event["elapsed"] <= 5.0 + 1e-6
        assert degraded > 0 and absorbed > 0


class TestCanaries:
    """The harness must catch every bug it claims to catch — and the
    shrunk repro must replay to the same invariant violation."""

    # A stale cache may first surface either at a direct probe
    # (cache-coherence) or over the simulated wire (net-equivalence):
    # net_query steps ride the same result cache.
    EXPECTED_INVARIANT = {
        "lost-wal-record": {"prefix-durability"},
        "stale-cache": {"cache-coherence", "net-equivalence"},
        "dropped-push": {"stream-delivery"},
        # A resurrected slice first surfaces either structurally (it
        # survived past the horizon) or observably (an expired doc is
        # served); both are the retention invariant.
        "stale-slice": {"retention"},
        # A one-ulp score drift is invisible to every 9-decimal rounded
        # comparison; only the bit-exact differential against the tuple
        # reference on query_many steps can convict it.
        "vector-skew": {"exec-equivalence"},
        # A keyword cell decoded before an insert and never dropped: the
        # service serves from the stale columns, so whichever served
        # answer first reads the cell is wrong against the model (a
        # standing query, a probe, a wire query), or the differential
        # against the tuple reference (which reads pages) convicts it.
        "stale-decoded-cell": {
            "standing-query", "topk-equivalence", "cache-coherence",
            "net-equivalence", "exec-equivalence",
        },
        # The routing bug silently drops the best-bound shard from the
        # scatter plan, so its documents vanish from answers: caught as
        # a wrong merged answer at a plain search, or at a rebalance
        # bracket probe (planner-equivalence).
        "lost-shard-route": {"topk-equivalence", "planner-equivalence"},
        # The degraded flag (and failed-shard ids) are scrubbed off a
        # partial answer: degraded-correctness convicts the "complete"
        # answer against the full model at the chaos step itself, or —
        # because the lying answer is cacheable — topk-equivalence at a
        # later plain search served the poisoned cache entry.
        "silent-shard-drop": {"degraded-correctness", "topk-equivalence"},
        # The deadline slice never expires, so a stalled shard burns
        # unbounded virtual time past the cluster deadline.
        "stuck-scatter": {"scatter-no-hang"},
    }

    @pytest.mark.parametrize("bug", BUGS)
    def test_injected_bug_is_caught_and_shrinks(self, bug):
        caught = None
        for seed in range(40):
            report = run_seed(seed, inject_bug=bug)
            if not report.ok:
                caught = report
                break
        assert caught is not None, f"{bug} escaped 40 seeds"
        invariant = caught.failure.invariant
        assert invariant in self.EXPECTED_INVARIANT[bug]
        shrunk = shrink_failure(
            caught.trace, invariant, inject_bug=bug, max_attempts=200
        )
        assert len(shrunk["steps"]) <= shrunk["shrunk_from"]
        replay = run_trace(shrunk, inject_bug=bug)
        assert replay.failure is not None
        assert replay.failure.invariant == invariant
        # Without the bug, the shrunk trace is innocent: the failure is
        # the injected defect, not the workload.
        assert run_trace(shrunk).ok

    def test_dropped_push_is_caught_on_a_cluster_seed(self):
        """One canary, both stacks: a cluster's stream is the same
        StreamingService, so the same ``matcher._emit`` wrap convicts it
        through the cluster leg's register/poll steps."""
        bug = "dropped-push"
        caught = next(
            (report for report in (
                run_seed(seed, mode="cluster", inject_bug=bug)
                for seed in range(25)
            ) if not report.ok),
            None,
        )
        assert caught is not None and caught.mode == "cluster"
        assert caught.failure.invariant == "stream-delivery"
        shrunk = shrink_failure(
            caught.trace, "stream-delivery", inject_bug=bug, max_attempts=200
        )
        assert run_trace(shrunk, inject_bug=bug).failure.invariant == "stream-delivery"
        assert run_trace(shrunk).ok

    @pytest.mark.parametrize("bug", ["silent-shard-drop", "stuck-scatter"])
    def test_chaos_canaries_pinned_seed(self, bug):
        """The acceptance bar for the chaos canaries, pinned: caught at
        seed 0, shrunk to <= 3 steps, and replayed byte-identically."""
        report = run_seed(0, inject_bug=bug)
        assert report.failure is not None, f"{bug} escaped pinned seed 0"
        invariant = report.failure.invariant
        assert invariant in self.EXPECTED_INVARIANT[bug]
        shrunk = shrink_failure(
            report.trace, invariant, inject_bug=bug, max_attempts=200
        )
        assert len(shrunk["steps"]) <= 3
        first = run_trace(shrunk, inject_bug=bug)
        second = run_trace(shrunk, inject_bug=bug)
        assert first.failure is not None
        assert first.failure.invariant == invariant
        assert first.run_hash == second.run_hash
