"""Crash recovery: every injected fault must be invisible in the output
and exactly accounted in the attempt ledger.

The matrix kills each shard, on the first attempt and again on the retry,
in both phases, over integer and float accumulators and ragged shapes; the
result must stay bit-identical to the serial reference (float64 data is
integer-valued, so stitching is exact) and the per-shard attempt counters
must equal :meth:`FaultPlan.expected_attempts` — a silently swallowed
fault or a spurious retry fails even when the numbers agree.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.distsat import (CheckpointStore, FaultAction, FaultPlan,
                           distributed_sat)
from repro.distsat.protocol import decode_message, encode_message
from repro.distsat.transport import ProcessTransport
from repro.errors import CoordinatorAborted, ShardFailedError
from repro.sat import sat_reference

SHARDS = 3
SHAPE = (53, 21)        # ragged: 53 = 3*17 + 2, not tile- or shard-aligned


def matrix(dtype, seed=23):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 100, size=SHAPE).astype(dtype)


def run_and_check(a, plan, **kwargs):
    """One faulted run: bit-identical result + pinned attempt ledger."""
    result = distributed_sat(a, shards=SHARDS, fault_plan=plan,
                             max_attempts=4, **kwargs)
    np.testing.assert_array_equal(result.sat, sat_reference(a))
    for phase in ("reduce", "apply"):
        for shard in range(SHARDS):
            assert result.stats["attempts"][phase][shard] \
                == plan.expected_attempts(shard, phase), \
                (phase, shard, result.stats["attempts"])
    return result


class TestKillMatrix:
    @pytest.mark.parametrize("dtype", ["int32", "float64"])
    @pytest.mark.parametrize("phase", ["reduce", "apply"])
    @pytest.mark.parametrize("shard", range(SHARDS))
    def test_single_kill(self, shard, phase, dtype):
        plan = FaultPlan(actions=(
            FaultAction(kind="kill", shard=shard, attempt=1, phase=phase),))
        result = run_and_check(matrix(dtype), plan)
        assert result.stats["recovered_shards"] == [shard]

    @pytest.mark.parametrize("phase", ["reduce", "apply"])
    @pytest.mark.parametrize("shard", range(SHARDS))
    def test_kill_first_attempt_and_retry(self, shard, phase):
        """The retry itself dies too; the third attempt must land."""
        plan = FaultPlan(actions=(
            FaultAction(kind="kill", shard=shard, attempt=1, phase=phase),
            FaultAction(kind="kill", shard=shard, attempt=2, phase=phase)))
        assert plan.expected_attempts(shard, phase) == 3
        run_and_check(matrix("int32"), plan)

    def test_kills_on_different_shards_and_phases(self):
        plan = FaultPlan(actions=(
            FaultAction(kind="kill", shard=0, attempt=1, phase="reduce"),
            FaultAction(kind="kill", shard=2, attempt=1, phase="apply")))
        result = run_and_check(matrix("int32"), plan)
        assert result.stats["recovered_shards"] == [0, 2]

    def test_fault_plan_accepted_in_dict_form(self):
        plan = FaultPlan(actions=(
            FaultAction(kind="kill", shard=1, attempt=1, phase="apply"),))
        a = matrix("int32")
        result = distributed_sat(a, shards=SHARDS,
                                 fault_plan=plan.to_dict(), max_attempts=4)
        np.testing.assert_array_equal(result.sat, sat_reference(a))


class TestCorruptAndDelay:
    @pytest.mark.parametrize("phase", ["reduce", "apply"])
    def test_corrupt_payload_detected_and_retried(self, phase):
        """The payload is damaged after its checksum: the coordinator must
        reject the mismatch and retry — corruption never reaches the SAT."""
        plan = FaultPlan(actions=(
            FaultAction(kind="corrupt", shard=1, attempt=1, phase=phase),))
        result = run_and_check(matrix("int32"), plan)
        assert result.stats["recovered_shards"] == [1]

    def test_delay_is_not_a_failure(self):
        plan = FaultPlan(actions=(
            FaultAction(kind="delay", shard=0, attempt=1, phase="reduce",
                        seconds=0.01),))
        result = run_and_check(matrix("int32"), plan)
        assert result.stats["recovered_shards"] == []

    def test_chunked_shards_recover_too(self):
        plan = FaultPlan(actions=(
            FaultAction(kind="kill", shard=2, attempt=1, phase="apply"),
            FaultAction(kind="corrupt", shard=0, attempt=1, phase="reduce")))
        run_and_check(matrix("float64"), plan, chunk_rows=5)


class TestRetryBudget:
    def test_exhausted_budget_raises(self):
        plan = FaultPlan(actions=tuple(
            FaultAction(kind="kill", shard=1, attempt=j, phase="reduce")
            for j in (1, 2, 3)))
        with pytest.raises(ShardFailedError) as err:
            distributed_sat(matrix("int32"), shards=SHARDS,
                            fault_plan=plan, max_attempts=3)
        assert err.value.shard == 1
        assert err.value.attempts == 3


class TestPersistedCarries:
    def test_killed_apply_resumes_from_disk(self, tmp_path, monkeypatch):
        """A retried apply must take its carry-in from the checkpoint files
        (the recovery seam), not from coordinator memory."""
        calls = []
        real = CheckpointStore.load_carry_before

        def spy(self, shard):
            calls.append(shard)
            return real(self, shard)
        monkeypatch.setattr(CheckpointStore, "load_carry_before", spy)
        plan = FaultPlan(actions=(
            FaultAction(kind="kill", shard=2, attempt=1, phase="apply"),))
        result = run_and_check(matrix("int32"), plan,
                               checkpoint_dir=tmp_path)
        assert calls == [2]     # exactly the killed shard, exactly once
        assert result.stats["attempts"]["apply"] == {0: 1, 1: 1, 2: 2}
        assert (tmp_path / "manifest.json").exists()
        assert sorted(tmp_path.glob("carry_*.npy")) \
            == [tmp_path / f"carry_{k}.npy" for k in range(SHARDS)]

    def test_coordinator_crash_and_restart(self, tmp_path):
        """An aborted coordinator's successor resumes from the manifest:
        committed shards never publish again, the others publish once, and
        the persisted attempt ledger pins exactly which is which."""
        a = matrix("int32")
        plan = FaultPlan(abort_after_shard=1)
        with pytest.raises(CoordinatorAborted) as err:
            distributed_sat(a, shards=4, fault_plan=plan,
                            checkpoint_dir=tmp_path)
        assert err.value.committed_shards == 2

        result = distributed_sat(a, shards=4, checkpoint_dir=tmp_path)
        np.testing.assert_array_equal(result.sat, sat_reference(a))
        assert result.stats["resumed_shards"] == [0, 1]
        # One worker scans the shards in order: shard 0 published and was
        # stitched, shard 1 published, then the crash.  After the restart
        # shards 0-1 are stitched from their persisted sums without
        # publishing again; shard 0's rows were requested once before the
        # crash, so its apply numbering continues at 2.
        assert result.stats["attempts"] == {
            "reduce": {0: 1, 1: 1, 2: 1, 3: 1},
            "apply": {0: 2, 1: 1, 2: 1, 3: 1}}
        assert result.stats["recovered_shards"] == [0]

    def test_restart_with_worker_kill_still_bit_identical(self, tmp_path):
        a = matrix("float64")
        with pytest.raises(CoordinatorAborted):
            distributed_sat(a, shards=SHARDS, workers=2,
                            fault_plan=FaultPlan(abort_after_shard=0),
                            checkpoint_dir=tmp_path)
        plan = FaultPlan(actions=(
            FaultAction(kind="kill", shard=1, attempt=2, phase="reduce"),))
        # Shard 1 was dispatched to the second worker before the crash, so
        # its reduce attempt counter is already at 1 from the aborted run
        # and the kill targets the post-restart recompute attempt.
        result = distributed_sat(a, shards=SHARDS, workers=2, fault_plan=plan,
                                 checkpoint_dir=tmp_path, max_attempts=4)
        np.testing.assert_array_equal(result.sat, sat_reference(a))
        assert result.stats["resumed_shards"] == [0]
        assert result.stats["attempts"] == {
            "reduce": {0: 1, 1: 3, 2: 1},
            "apply": {0: 1, 1: 1, 2: 1}}


class TestLostHeldBand:
    """A ``carry`` for a band the worker no longer holds (a replacement
    process) is answered, and the coordinator resubmits the shard."""

    def test_worker_answers_a_carry_it_cannot_stitch(self):
        from repro.distsat import checksum
        from repro.distsat.worker import handle_task
        carry = np.zeros(5, dtype=np.int64)
        reply = handle_task({"type": "carry", "phase": "apply", "shard": 3,
                             "attempt": 1, "worker": 1, "carry_in": carry,
                             "carry_checksum": checksum(carry)}, {})
        assert (reply["type"], reply["phase"], reply["shard"],
                reply["attempt"], reply["worker"]) \
            == ("result", "apply", 3, 1, 1)
        assert "not held" in reply["reason"]
        assert not {"rows", "bottom_row", "checksum"} & set(reply)

    def test_coordinator_resubmits_the_forgotten_shard(self, monkeypatch):
        from repro.distsat import transport
        real = transport.handle_task

        def forgetful(msg, held, **kwargs):
            if (msg["type"], msg["shard"], msg["attempt"]) \
                    == ("carry", 1, 1):
                held.clear()        # as a freshly spawned process would
            return real(msg, held, **kwargs)
        monkeypatch.setattr(transport, "handle_task", forgetful)
        a = matrix("int32")
        result = distributed_sat(a, shards=SHARDS, workers=2)
        np.testing.assert_array_equal(result.sat, sat_reference(a))
        assert result.stats["attempts"] == {
            "reduce": {0: 1, 1: 1, 2: 1}, "apply": {0: 1, 1: 2, 2: 1}}


class TestProcessTransport:
    """Real worker processes: one clean run, one with a genuine kill.

    Hard process deaths are detected by liveness, which can lose more than
    the faulted task (results die with the queue feeder thread), so the
    ledger assertions here are lower bounds — exact accounting is pinned on
    the inline transport above.
    """

    def test_clean_run(self):
        a = matrix("int32")
        result = distributed_sat(a, shards=4, transport="process", workers=2)
        np.testing.assert_array_equal(result.sat, sat_reference(a))
        assert result.stats["workers"] == 2

    def test_worker_process_killed_mid_run(self):
        a = matrix("int32")
        plan = FaultPlan(actions=(
            FaultAction(kind="kill", shard=1, attempt=1, phase="reduce"),))
        result = distributed_sat(a, shards=4, transport="process",
                                 workers=2, fault_plan=plan, max_attempts=5)
        np.testing.assert_array_equal(result.sat, sat_reference(a))
        assert result.stats["attempts"]["reduce"][1] >= 2
        assert 1 in result.stats["recovered_shards"]

    def test_worker_killed_while_idle_is_replaced(self):
        """A worker SIGKILLed while it waits for a task dies holding its
        task queue's read lock: the replacement must read from a fresh
        queue, answer, and let ``close()`` return promptly."""
        # A carry for a band the worker does not hold: answered at once.
        probe = encode_message({"type": "carry", "phase": "apply",
                                "shard": 0, "attempt": 1})
        tx = ProcessTransport(workers=2)
        try:
            tx.send(0, probe)
            assert decode_message(tx.recv(time.monotonic() + 10))["worker"] \
                == 0
            time.sleep(0.2)      # back in task_q.get(), holding its lock
            os.kill(tx._procs[0].pid, signal.SIGKILL)
            died = decode_message(tx.recv(time.monotonic() + 10))
            assert (died["type"], died["worker"]) == ("died", 0)
            tx.send(0, probe)
            reply = decode_message(tx.recv(time.monotonic() + 10))
            assert (reply["type"], reply["worker"]) == ("result", 0)
        finally:
            t0 = time.monotonic()
            tx.close()
            assert time.monotonic() - t0 < 2.0
