"""distributed_sat happy paths: bit-identity, shards, chunks, digest mode."""

import zlib

import numpy as np
import pytest

from repro.distsat import (MatrixSource, SyntheticSource, distributed_sat,
                           shard_bounds)
from repro.errors import ConfigurationError
from repro.sat import get_algorithm, sat_reference

ALGORITHMS = ("2R2W", "2R2W-optimal", "2R1W", "1R1W", "(1+r)R1W",
              "1R1W-SKSS", "1R1W-SKSS-LB")


def matrix(shape, dtype=np.int64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 100, size=shape).astype(dtype)


class TestBitIdentity:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_algorithms_match_serial(self, algorithm):
        a = matrix((53, 38))
        result = distributed_sat(a, shards=3, algorithm=algorithm,
                                 tile_width=16)
        want = get_algorithm(algorithm, tile_width=16).run_host(a)
        np.testing.assert_array_equal(result.sat, want)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.float64])
    def test_dtypes(self, dtype):
        # Integer-valued data keeps float64 stitching exact too.
        a = matrix((40, 25), dtype=dtype, seed=3)
        result = distributed_sat(a, shards=4, tile_width=16)
        np.testing.assert_array_equal(result.sat, sat_reference(a))

    @pytest.mark.parametrize("shape", [(1, 1), (7, 5), (16, 48), (33, 17)])
    def test_ragged_shapes(self, shape):
        a = matrix(shape, seed=5)
        result = distributed_sat(a, shards=3, tile_width=16)
        np.testing.assert_array_equal(result.sat, sat_reference(a))

    def test_single_shard_and_overclamped_shards(self):
        a = matrix((9, 12), seed=7)
        one = distributed_sat(a, shards=1)
        many = distributed_sat(a, shards=50)   # clamped to 9 row-shards
        np.testing.assert_array_equal(one.sat, sat_reference(a))
        np.testing.assert_array_equal(many.sat, one.sat)
        assert many.stats["shards"] == 9
        assert many.bounds == tuple(shard_bounds(9, 9))

    def test_chunked_workers_match_unchunked(self):
        a = matrix((50, 21), seed=9)
        whole = distributed_sat(a, shards=3)
        chunked = distributed_sat(a, shards=3, chunk_rows=4)
        np.testing.assert_array_equal(chunked.sat, whole.sat)
        assert 0 < chunked.stats["peak_worker_bytes"] \
            < whole.stats["peak_worker_bytes"]


class TestResult:
    def test_carries_are_total_column_sums(self):
        a = matrix((31, 14), seed=11)
        result = distributed_sat(a, shards=4)
        np.testing.assert_array_equal(
            result.carries.planes()["BCS"],
            a.sum(axis=0, dtype=result.sat.dtype))

    def test_rect_sum_full_mode(self):
        a = matrix((24, 18), seed=13)
        result = distributed_sat(a, shards=3)
        assert result.rect_sum(0, 0, 23, 17) == a.sum()
        assert result.rect_sum(5, 3, 11, 9) == a[5:12, 3:10].sum()
        with pytest.raises(ConfigurationError, match="invalid rectangle"):
            result.rect_sum(4, 0, 2, 5)

    def test_clean_run_stats(self):
        a = matrix((20, 10), seed=15)
        result = distributed_sat(a, shards=2)
        stats = result.stats
        assert stats["attempts"] == {"reduce": {0: 1, 1: 1},
                                     "apply": {0: 1, 1: 1}}
        assert stats["recovered_shards"] == []
        assert stats["resumed_shards"] == []
        assert stats["transport"] == "inline"


class TestDigestMode:
    def test_edge_rows_and_rect_sums(self):
        source = SyntheticSource(64, 40)
        result = distributed_sat(source, shards=4, collect=False,
                                 chunk_rows=8)
        assert result.sat is None
        assert sorted(result.digests) == [0, 1, 2, 3]
        full = sat_reference(source.band(0, 64))
        for edge, row in result.edge_rows.items():
            np.testing.assert_array_equal(row, full[edge])
        # edge-aligned rectangles answered from retained rows alone
        assert result.rect_sum(0, 0, 15, 39) \
            == source.rect(0, 0, 15, 39).sum()
        assert result.rect_sum(16, 5, 47, 20) \
            == source.rect(16, 5, 47, 20).sum()

    def test_non_edge_rows_refused(self):
        result = distributed_sat(SyntheticSource(64, 40), shards=4,
                                 collect=False)
        with pytest.raises(ConfigurationError, match="retained shard edge"):
            result.rect_sum(0, 0, 14, 10)

    def test_matrix_source_streams_in_band_chunks(self):
        a = matrix((48, 30), seed=17)
        result = distributed_sat(MatrixSource(a), shards=3, collect=False)
        full = sat_reference(a)
        for edge, row in result.edge_rows.items():
            np.testing.assert_array_equal(row, full[edge])

    def test_digests_are_crc32_of_the_stitched_rows(self):
        a = matrix((50, 21), seed=23)
        result = distributed_sat(a, shards=3, chunk_rows=7, collect=False)
        full = sat_reference(a)
        for k, (lo, hi) in enumerate(result.bounds):
            assert result.digests[k] == zlib.crc32(full[lo:hi].tobytes())


class TestLookBack:
    """One task per shard: the worker reads its band once, publishes the
    column sums and stitches the band it holds when its carry arrives."""

    @staticmethod
    def count_productions(monkeypatch) -> list:
        calls = []
        real = SyntheticSource.rect

        def counting(self, *corners):
            calls.append(corners)
            return real(self, *corners)
        monkeypatch.setattr(SyntheticSource, "rect", counting)
        return calls

    def test_each_band_is_produced_once(self, monkeypatch):
        source = SyntheticSource(256, 200)
        full = sat_reference(source.band(0, 256))
        calls = self.count_productions(monkeypatch)
        result = distributed_sat(source, shards=4, collect=False)
        assert len(calls) == 4
        for k, (lo, hi) in enumerate(result.bounds):
            assert result.digests[k] == zlib.crc32(full[lo:hi].tobytes())

    def test_chunked_bands_are_read_again_for_the_stitch(self, monkeypatch):
        # 512-row shards in 128-row chunks: four chunks for the sums and
        # the same four again for the stitch, per shard.
        source = SyntheticSource(2048, 2048)
        calls = self.count_productions(monkeypatch)
        result = distributed_sat(source, shards=4, chunk_rows=128,
                                 collect=False)
        assert len(calls) == 32
        assert result.stats["peak_worker_bytes"] == 128 * 2048 * (1 + 8)

    def test_no_worker_gets_a_second_task_while_holding_a_shard(
            self, monkeypatch):
        from repro.distsat import transport
        log = []
        real = transport.handle_task

        def spy(msg, held, **kwargs):
            if msg["type"] == "task":
                assert not held, (msg["worker"], msg["shard"], sorted(held))
            log.append((msg["type"], msg["shard"], msg["worker"]))
            return real(msg, held, **kwargs)
        monkeypatch.setattr(transport, "handle_task", spy)
        a = matrix((45, 19), seed=29)
        result = distributed_sat(a, shards=5, workers=2)
        np.testing.assert_array_equal(result.sat, sat_reference(a))
        tasks = [(shard, worker) for kind, shard, worker in log
                 if kind == "task"]
        assert [shard for shard, _ in tasks] == [0, 1, 2, 3, 4]
        assert {worker for _, worker in tasks} == {0, 1}
        assert sorted(shard for kind, shard, _ in log if kind == "carry") \
            == [0, 1, 2, 3, 4]


class TestRectSumErrors:
    """Out-of-range corners raise the typed error in both result modes."""

    @pytest.mark.parametrize("corners", [(0, 0, 23, 18), (0, 0, 24, 17)])
    def test_collect_mode(self, corners):
        result = distributed_sat(matrix((24, 18), seed=13), shards=3)
        with pytest.raises(ConfigurationError):
            result.rect_sum(*corners)

    def test_digest_mode_column_beyond_the_table(self):
        result = distributed_sat(matrix((24, 18), seed=13), shards=3,
                                 collect=False)
        assert 7 in result.edge_rows
        with pytest.raises(ConfigurationError, match="invalid rectangle"):
            result.rect_sum(0, 0, 7, 18)


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, True, 1.5])
    def test_bad_shards(self, bad):
        with pytest.raises(ConfigurationError, match="shards"):
            distributed_sat(matrix((8, 8)), shards=bad)

    @pytest.mark.parametrize("bad", [0, -3, True, 2.0])
    def test_bad_chunk_rows(self, bad):
        with pytest.raises(ConfigurationError, match="chunk_rows"):
            distributed_sat(matrix((8, 8)), chunk_rows=bad)

    @pytest.mark.parametrize("transport", ["inline", "process"])
    @pytest.mark.parametrize("bad", [0, -1, True, 1.5])
    def test_bad_workers(self, transport, bad):
        # Only None means the transport's default pool.
        with pytest.raises(ConfigurationError, match="workers"):
            distributed_sat(matrix((8, 8)), transport=transport, workers=bad)

    def test_bad_max_attempts(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            distributed_sat(matrix((8, 8)), max_attempts=0)

    def test_cannot_nest_itself(self):
        with pytest.raises(ConfigurationError, match="cannot use itself") \
                as exc:
            distributed_sat(matrix((8, 8)), inner_engine="distributed")
        # The alternatives come from the registry, the simulator included.
        assert "serial, wavefront, gpusim" in str(exc.value)

    @pytest.mark.parametrize("kind", ["WavefrontEngine", "GPU"])
    def test_engine_instances_refused_before_any_file(self, kind, tmp_path):
        """Task messages name the per-band engine, so an instance cannot
        travel in one: it is refused before the checkpoint store opens."""
        from repro.gpusim import GPU
        from repro.hostexec import WavefrontEngine
        store = tmp_path / "run"
        with WavefrontEngine(workers=1) as eng:
            engine = eng if kind == "WavefrontEngine" else GPU()
            with pytest.raises(ConfigurationError, match=kind):
                distributed_sat(matrix((8, 8)), inner_engine=engine,
                                checkpoint_dir=store)
        assert not store.exists()

    def test_bad_inner_configuration_fails_before_dispatch(self):
        with pytest.raises(ConfigurationError):
            distributed_sat(matrix((8, 8)), algorithm="no-such-algorithm")


class TestInnerEngines:
    @pytest.mark.parametrize("engine", ["serial", "wavefront"])
    def test_any_host_engine_per_band(self, engine):
        a = matrix((40, 22), seed=19)
        result = distributed_sat(a, shards=3, algorithm="1R1W-SKSS",
                                 tile_width=16, inner_engine=engine)
        want = get_algorithm("1R1W-SKSS", tile_width=16).run_host(a)
        np.testing.assert_array_equal(result.sat, want)

    def test_simulator_per_band(self):
        """gpusim runs each band with its default algorithm."""
        a = matrix((64, 64), seed=23)
        result = distributed_sat(a, shards=2, tile_width=32,
                                 inner_engine="gpusim")
        np.testing.assert_array_equal(result.sat, sat_reference(a))


class TestComputeSatIntegration:
    def test_engine_distributed_via_top_level_api(self):
        from repro.sat import compute_sat
        a = matrix((35, 27), seed=21)
        result = compute_sat(a, engine="distributed", shards=3,
                             tile_width=16)
        want = get_algorithm(result.algorithm, tile_width=16).run_host(a)
        np.testing.assert_array_equal(result.sat, want)
        assert result.params["engine"] == "distributed"

    def test_shards_rejected_without_distributed_engine(self):
        from repro.sat import compute_sat
        with pytest.raises(ConfigurationError, match="distributed backend"):
            compute_sat(matrix((8, 8)), shards=2)
        with pytest.raises(ConfigurationError, match="not meaningful"):
            compute_sat(matrix((8, 8)), engine="wavefront", shards=2)
