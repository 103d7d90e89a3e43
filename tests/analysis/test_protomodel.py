"""Protocol extraction: AST skeletons and model builders.

The model checker is only as honest as its models; these tests pin the two
guarantees that keep the models tied to the kernels: (1) extraction recovers
each kernel's protocol skeleton from its sites (the KERNEL_HINTS drift gate
that refuses a drifted kernel is pinned in test_kernelir.py); (2) the
builders' walk geometry is re-derived from the kernels' own
``status_index`` lambdas, not re-invented.
"""

import pytest

from repro.analysis.protomodel import (build_corpus_model, build_model,
                                       col_mass, extract_kernel, rect_mass,
                                       row_mass, unit, walker_status_indexer)
from repro.analysis.table1 import TABLE1_ORDER
from repro.errors import ConfigurationError


class TestMassHelpers:
    """Each input cell carries a distinct power of two, so any partial sum
    identifies exactly which cells it covers."""

    def test_units_are_distinct_bits(self):
        t = 3
        masses = {unit(i, j, t) for i in range(t) for j in range(t)}
        assert len(masses) == t * t
        for m in masses:
            assert m & (m - 1) == 0  # a single bit

    def test_rect_mass_is_the_region_sum(self):
        t = 3
        for i in range(t):
            for j in range(t):
                expected = sum(unit(a, b, t)
                               for a in range(i + 1) for b in range(j + 1))
                assert rect_mass(i, j, t) == expected

    def test_row_and_col_masses(self):
        t = 4
        assert row_mass(1, 0, 2, t) == sum(unit(1, j, t) for j in range(3))
        assert col_mass(0, 2, 3, t) == sum(unit(i, 3, t) for i in range(3))

    def test_full_mass_is_all_ones(self):
        t = 2
        assert rect_mass(t - 1, t - 1, t) == (1 << (t * t)) - 1


class TestExtraction:
    def test_skss_lb_skeleton(self):
        from repro.sat import skss_lb
        from repro.sat.tilecommon import (C_GCS, C_LCS, R_GLS, R_GRS, R_GS,
                                          R_LRS)
        proto = extract_kernel(skss_lb.skss_lb_kernel)
        assert proto.ticket and proto.counter == "counter"
        assert proto.publishes == (
            ("lrs", "R", R_LRS), ("lcs", "C", C_LCS), ("grs", "R", R_GRS),
            ("gcs", "C", C_GCS), ("gls", "R", R_GLS), ("gs", "R", R_GS))
        assert [w[4] for w in proto.walks] == ["grs", "gcs", "gs"]
        assert proto.waits == ()
        assert proto.stores == ("b",) and proto.loads == ("a",)

    def test_skss_wait_threshold_is_resolved(self):
        from repro.sat import skss
        proto = extract_kernel(skss.skss_kernel)
        assert proto.ticket
        assert proto.waits == (("R", skss.GRS_READY),)
        assert proto.publishes == (("grs", "R", skss.GRS_READY),)

    def test_scan1d_walk_event(self):
        from repro.primitives import scan1d
        proto = extract_kernel(scan1d.row_scan_kernel)
        assert proto.ticket
        (walk,) = proto.walks
        assert walk == ("status", scan1d.STATUS_AGGREGATE,
                        scan1d.STATUS_PREFIX, "aggregates", "prefixes")


class TestWalkerGeometry:
    """The builders' step lists are checked against the status_index lambdas
    compiled from the kernels' own walker helpers."""

    def test_row_walk_indexes_columns(self):
        from repro.sat import tilecommon as tc
        idx = walker_status_indexer(tc.row_lookback)
        t, I, J = 3, 2, 2
        assert [idx(t, I, J, j) for j in range(3)] == [I * t + j
                                                       for j in range(3)]

    def test_col_walk_indexes_rows(self):
        from repro.sat import tilecommon as tc
        idx = walker_status_indexer(tc.col_lookback)
        t, I, J = 3, 2, 2
        assert [idx(t, I, J, i) for i in range(3)] == [i * t + J
                                                       for i in range(3)]

    def test_diag_walk_steps_up_left(self):
        from repro.sat import tilecommon as tc
        idx = walker_status_indexer(tc.diag_lookback)
        t = 3
        assert [idx(t, 2, 2, s) for s in range(3)] == [8, 4, 0]


class TestCorpusModels:
    def test_flag_kernels_compile_to_producer_consumer(self):
        for name in ("dropped-fence", "premature-flag", "correct"):
            model = build_corpus_model(name)
            assert model.algorithm == f"corpus:{name}"
            (launch,) = model.launches
            assert len(launch.programs) == 2
            assert launch.out_spec == {("out", 0): 42}

    def test_counter_kernel_has_no_out_spec(self):
        model = build_corpus_model("nonatomic-counter")
        (launch,) = model.launches
        assert launch.out_spec == {}  # duplicate-ticket check covers it


class TestBuildModel:
    @pytest.mark.parametrize("name", TABLE1_ORDER)
    def test_all_algorithms_build(self, name):
        model = build_model(name, 2)
        assert model.algorithm == name
        assert model.t == 2
        assert model.launches
        for launch in model.launches:
            assert launch.programs

    def test_aliases_resolve(self):
        assert build_model("skss-lb", 2).algorithm == "1R1W-SKSS-LB"

    def test_grid_size_bounds(self):
        with pytest.raises(ConfigurationError):
            build_model("1R1W-SKSS", 0)
        with pytest.raises(ConfigurationError):
            build_model("1R1W-SKSS", 7)

    def test_unknown_acquisition_rejected(self):
        with pytest.raises(ConfigurationError):
            build_model("1R1W-SKSS-LB", 2, acquisition="spiral")

    def test_swapped_acquisition_reorders_dispatch(self):
        base = build_model("1R1W-SKSS-LB", 2)
        swapped = build_model("1R1W-SKSS-LB", 2, acquisition="swapped")
        (launch,) = base.launches
        (launch_s,) = swapped.launches
        labels = [p.label for p in launch.programs]
        labels_s = [p.label for p in launch_s.programs]
        assert sorted(labels) == sorted(labels_s)
        assert labels != labels_s

    def test_final_launch_covers_full_mass(self):
        for name in TABLE1_ORDER:
            model = build_model(name, 2)
            spec = model.launches[-1].out_spec
            assert spec[("b", 1, 1)] == rect_mass(1, 1, 2)
