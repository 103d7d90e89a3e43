"""Wire protocol, shard geometry and fault-plan algebra."""

import numpy as np
import pytest

from repro.distsat import FaultAction, FaultPlan, checksum, shard_bounds
from repro.distsat.protocol import decode_message, encode_message
from repro.errors import ConfigurationError


class TestShardBounds:
    def test_covers_all_rows_contiguously(self):
        bounds = shard_bounds(53, 4)
        assert bounds[0][0] == 0 and bounds[-1][1] == 53
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_near_equal_split(self):
        # 53 = 4*13 + 1: the first shard gets the extra row.
        sizes = [hi - lo for lo, hi in shard_bounds(53, 4)]
        assert sizes == [14, 13, 13, 13]

    def test_clamped_to_rows(self):
        assert shard_bounds(3, 8) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("rows,shards", [(0, 2), (-1, 2), (5, 0), (5, -3)])
    def test_rejects_non_positive(self, rows, shards):
        with pytest.raises(ConfigurationError):
            shard_bounds(rows, shards)


class TestChecksum:
    def test_sensitive_to_content_shape_and_dtype(self):
        a = np.arange(12, dtype=np.int64)
        assert checksum(a) == checksum(a.copy())
        assert checksum(a) != checksum(a + 1)
        assert checksum(a) != checksum(a.reshape(3, 4))
        assert checksum(a) != checksum(a.astype(np.int32))

    def test_non_contiguous_input(self):
        a = np.arange(24, dtype=np.int64).reshape(4, 6)
        assert checksum(a[:, ::2]) == checksum(np.ascontiguousarray(a[:, ::2]))


class TestFaultPlan:
    def test_action_validation(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultAction(kind="explode", shard=0)
        with pytest.raises(ConfigurationError, match="unknown fault phase"):
            FaultAction(kind="kill", shard=0, phase="shuffle")
        with pytest.raises(ConfigurationError, match="attempt >= 1"):
            FaultAction(kind="kill", shard=0, attempt=0)
        with pytest.raises(ConfigurationError, match="shard must be >= 0"):
            FaultAction(kind="kill", shard=-1)

    @pytest.mark.parametrize("field,value", [
        ("shard", True), ("shard", "1"), ("shard", 1.0),
        ("attempt", True), ("attempt", 2.0)])
    def test_action_rejects_non_integer_coordinates(self, field, value):
        kwargs = {"kind": "kill", "shard": 0, field: value}
        with pytest.raises(ConfigurationError, match="both integers"):
            FaultAction(**kwargs)

    @pytest.mark.parametrize("seconds", [-1.0, float("nan"), float("inf"),
                                         "0.1", True])
    def test_action_rejects_bad_delay_seconds(self, seconds):
        with pytest.raises(ConfigurationError, match="seconds"):
            FaultAction(kind="delay", shard=0, seconds=seconds)

    @pytest.mark.parametrize("bad", ["1", -1, True, 1.0])
    def test_plan_rejects_bad_abort_after_shard(self, bad):
        with pytest.raises(ConfigurationError, match="abort_after_shard"):
            FaultPlan(abort_after_shard=bad)
        with pytest.raises(ConfigurationError, match="abort_after_shard"):
            FaultPlan.from_dict({"abort_after_shard": bad})

    def test_from_dict_validates_action_values(self):
        with pytest.raises(ConfigurationError, match="seconds"):
            FaultPlan.from_dict({"actions": [
                {"kind": "delay", "shard": 0, "seconds": -1.0}]})
        with pytest.raises(ConfigurationError, match="both integers"):
            FaultPlan.from_dict({"actions": [{"kind": "kill", "shard": True}]})

    def test_action_for_is_exact(self):
        plan = FaultPlan(actions=(
            FaultAction(kind="kill", shard=1, attempt=1, phase="reduce"),))
        assert plan.action_for(1, 1, "reduce").kind == "kill"
        assert plan.action_for(1, 1, "apply") is None
        assert plan.action_for(1, 2, "reduce") is None
        assert plan.action_for(0, 1, "reduce") is None

    def test_expected_attempts(self):
        plan = FaultPlan(actions=(
            FaultAction(kind="kill", shard=2, attempt=1, phase="reduce"),
            FaultAction(kind="corrupt", shard=2, attempt=2, phase="reduce"),
            FaultAction(kind="delay", shard=0, attempt=1, phase="apply",
                        seconds=0.001),
        ))
        # Two lossy attempts then a clean third.
        assert plan.expected_attempts(2, "reduce") == 3
        # Delays reply normally: no attempt is consumed.
        assert plan.expected_attempts(0, "apply") == 1
        assert plan.expected_attempts(1, "reduce") == 1

    def test_dict_round_trip(self):
        plan = FaultPlan(actions=(
            FaultAction(kind="corrupt", shard=0, attempt=2, phase="apply"),),
            abort_after_shard=1)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown fault plan"):
            FaultPlan.from_dict({"actions": [], "retries": 3})
        with pytest.raises(ConfigurationError, match="invalid fault action"):
            FaultPlan.from_dict({"actions": [{"kind": "kill", "row": 1}]})


class TestMessages:
    def test_ndarray_round_trip(self):
        carry = np.arange(7, dtype=np.int64) * 3
        msg = {"type": "task", "phase": "apply", "shard": 2,
               "carry_in": carry, "nested": {"rows": [carry, carry + 1]}}
        out = decode_message(encode_message(msg))
        np.testing.assert_array_equal(out["carry_in"], carry)
        np.testing.assert_array_equal(out["nested"]["rows"][1], carry + 1)
        assert out["carry_in"].dtype == carry.dtype

    def test_numpy_scalars_become_plain_numbers(self):
        msg = {"type": "result", "shard": np.int64(3), "x": np.float64(0.5)}
        out = decode_message(encode_message(msg))
        assert out["shard"] == 3 and isinstance(out["shard"], int)
        assert out["x"] == 0.5 and isinstance(out["x"], float)

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown message type"):
            encode_message({"type": "gossip"})

    def test_reserved_key_rejected(self):
        with pytest.raises(ConfigurationError, match="reserved key"):
            encode_message({"type": "task", "bad": {"__ndarray__": "x"}})

    def test_undecodable_bytes_rejected(self):
        with pytest.raises(ConfigurationError, match="undecodable"):
            decode_message(b"\xff\xfenot json")
        with pytest.raises(ConfigurationError,
                           match="not a protocol message"):
            decode_message(b'{"phase": "reduce"}')
        with pytest.raises(ConfigurationError,
                           match="not a protocol message"):
            decode_message(b"[1, 2]")
