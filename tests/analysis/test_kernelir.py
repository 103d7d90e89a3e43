"""The kernel site table: one parse per kernel, one KERNEL_HINTS gate.

Every static proof — Table I traffic, rounding depth, protocol models —
reads the kernels through :func:`repro.analysis.kernelir.kernel_sites`.
These tests pin the parse (which sites exist, in which order, with which
roles) and the drift gate (every way a table can disagree with its kernel
is refused with a source location).  Tables are tampered through
``monkeypatch``, exactly as an edit to the module would change them.
"""

import importlib
import sys

import pytest

from repro.analysis.costcheck import KERNELS, build_geometry, kernel_totals
from repro.analysis.kernelir import kernel_sites, parse_sites
from repro.analysis.numcheck import build_error_geometry, kernel_error_depth
from repro.analysis.protomodel import extract_kernel
from repro.analysis.table1 import TABLE1_ORDER
from repro.errors import ExtractionError
from repro.sat import naive_2r2w, skss_lb
from repro.sat.naive_2r2w import column_scan_kernel
from repro.sat.skss_lb import skss_lb_kernel


def _tamper(monkeypatch, module, kernel, edit):
    """Replace ``module.KERNEL_HINTS[kernel]`` by ``edit`` of a copy."""
    table = dict(module.KERNEL_HINTS[kernel])
    edit(table)
    monkeypatch.setitem(module.KERNEL_HINTS, kernel, table)


def _hint_here(monkeypatch, kernel, table):
    """Give a kernel defined in this test module a KERNEL_HINTS entry."""
    monkeypatch.setattr(sys.modules[__name__], "KERNEL_HINTS",
                        {kernel.__name__: table}, raising=False)


def _unique_kernels():
    seen = {}
    for algorithm in TABLE1_ORDER:
        for spec in KERNELS[algorithm]:
            seen.setdefault((spec.module, spec.kernel), spec)
    return list(seen.values())


class TestSites:
    def test_naive_scan_has_one_accumulation_site(self):
        sites = [s for s in parse_sites(column_scan_kernel) if s.error]
        assert [s.error for s in sites] == ["accumulate"]
        assert sites[0].kernel == "column_scan_kernel"
        assert sites[0].file == "naive_2r2w.py"
        assert sites[0].line > 0

    def test_keys_are_unparsed_source(self):
        keys = [s.key for s in parse_sites(column_scan_kernel)]
        assert keys == list(naive_2r2w.KERNEL_HINTS["column_scan_kernel"])

    def test_duplicate_sites_rejected(self):
        def twin_kernel(ctx, data, shift):
            acc = ctx.gload(data, 0)
            acc = acc + shift
            acc = acc + shift

        with pytest.raises(ExtractionError, match="lexically unique"):
            parse_sites(twin_kernel)

    def test_carry_sites_need_a_float_binop(self):
        """A store of a plain value is data movement, not a rounding site."""
        def mover(ctx, data, out):
            value = ctx.gload_scalar(data, 0)
            ctx.gstore_scalar(out, 0, value)

        assert [s for s in parse_sites(mover) if s.error] == []

        def carrier(ctx, data, out):
            ctx.gstore_scalar(out, 0, left + ctx.gload_scalar(data, 0))

        assert [s.error for s in parse_sites(carrier) if s.error] == \
            ["carry"]

    def test_duplicate_access_raises_excess_read(self):
        def kern(ctx, data, out):
            a = ctx.gload_scalar(data, 0)
            b = ctx.gload_scalar(data, 0)
            ctx.gstore_scalar(out, 0, a + b)
        with pytest.raises(ExtractionError, match="excess-read"):
            parse_sites(kern)

    def test_repeated_bare_fences_are_one_site(self):
        """Legitimate repeated fences share one hint; the redundant-fence
        detector judges them separately."""
        def kern(ctx, data):
            ctx.gstore_scalar(data, 0, 1.0)
            ctx.threadfence()
            ctx.gstore_scalar(data, 1, 1.0)
            ctx.threadfence()
        sites = parse_sites(kern)
        assert sum(1 for s in sites if s.cost == "fence") == 1


class TestCostDrift:
    """Editing a kernel's cost entries out of step with its source fails
    costcheck loudly."""

    g = build_geometry("2R2W", sym=True)

    def test_missing_hint_pinpoints_the_site(self, monkeypatch):
        key = next(iter(naive_2r2w.KERNEL_HINTS["column_scan_kernel"]))
        _tamper(monkeypatch, naive_2r2w, "column_scan_kernel",
                lambda table: table.pop(key))
        with pytest.raises(ExtractionError,
                           match=r"naive_2r2w\.py:\d+: .*no KERNEL_HINTS"):
            kernel_totals(column_scan_kernel, self.g, concrete=False)

    def test_stale_hint_rejected(self, monkeypatch):
        _tamper(monkeypatch, naive_2r2w, "column_scan_kernel",
                lambda table: table.update(
                    {"ctx.gload(nonexistent, 0)": {"count": 1}}))
        with pytest.raises(ExtractionError, match="stale annotation"):
            kernel_totals(column_scan_kernel, self.g, concrete=False)

    def test_unknown_hint_field_rejected(self, monkeypatch):
        key = next(iter(naive_2r2w.KERNEL_HINTS["column_scan_kernel"]))
        _tamper(monkeypatch, naive_2r2w, "column_scan_kernel",
                lambda table: table.update(
                    {key: {**table[key], "bogus_field": 1}}))
        with pytest.raises(ExtractionError, match="unknown field"):
            kernel_totals(column_scan_kernel, self.g, concrete=False)

    def test_every_registered_kernel_has_complete_hints(self):
        """Each of the 13 kernels' sites carries its entry, in order (this
        is what makes an un-annotated edit un-mergeable)."""
        for spec in _unique_kernels():
            module = importlib.import_module(spec.module)
            keys = [s.key for s in parse_sites(spec.fn)]
            assert keys == list(module.KERNEL_HINTS[spec.kernel]), \
                spec.kernel


class TestErrorDrift:
    g = build_error_geometry("2R2W", sym=False, n=128)

    def test_missing_hint_raises_with_location(self, monkeypatch):
        _tamper(monkeypatch, naive_2r2w, "column_scan_kernel",
                lambda table: table.clear())
        with pytest.raises(ExtractionError, match=r"naive_2r2w\.py:\d+"):
            kernel_error_depth(column_scan_kernel, self.g)

    def test_stale_hint_raises(self, monkeypatch):
        _tamper(monkeypatch, naive_2r2w, "column_scan_kernel",
                lambda table: table.update(
                    {"acc = acc + nothing_like_this": {"depth": 1}}))
        with pytest.raises(ExtractionError, match="stale"):
            kernel_error_depth(column_scan_kernel, self.g)

    def test_malformed_hint_raises(self, monkeypatch):
        key = next(s.key for s in parse_sites(column_scan_kernel)
                   if s.error)
        _tamper(monkeypatch, naive_2r2w, "column_scan_kernel",
                lambda table: table.update({key: {"weight": 3}}))
        with pytest.raises(ExtractionError, match="depth"):
            kernel_error_depth(column_scan_kernel, self.g)


class TestProtocolDrift:
    """A kernel edit that changes synchronization structure without updating
    its KERNEL_HINTS entry must refuse to build a model, loudly."""

    def _keys(self):
        return list(skss_lb.KERNEL_HINTS["skss_lb_kernel"])

    def test_every_hinted_kernel_validates(self):
        """The full 13-kernel sweep: every module's KERNEL_HINTS entries
        pass the gate and extract (what build_model runs before any
        exploration)."""
        modules = ["repro.primitives.scan1d", "repro.primitives.colscan",
                   "repro.sat.naive_2r2w", "repro.sat.nehab_2r1w",
                   "repro.sat.kasagi_1r1w", "repro.sat.hybrid_1r1w",
                   "repro.sat.skss", "repro.sat.skss_lb"]
        checked = 0
        for name in modules:
            module = importlib.import_module(name)
            for kernel in module.KERNEL_HINTS:
                extract_kernel(getattr(module, kernel))  # raises on drift
                checked += 1
        assert checked == 13

    def test_matching_hints_pass(self):
        proto = extract_kernel(skss_lb_kernel)
        assert len(proto.publishes) == 6 and len(proto.walks) == 3

    def test_missing_publish_is_drift(self, monkeypatch):
        last_publish = [k for k in self._keys()
                        if k.startswith("publish")][-1]
        _tamper(monkeypatch, skss_lb, "skss_lb_kernel",
                lambda table: table.pop(last_publish))
        with pytest.raises(ExtractionError, match="no KERNEL_HINTS entry"):
            extract_kernel(skss_lb_kernel)

    def test_wrong_ticket_is_drift(self, monkeypatch):
        def retarget(table):
            table.pop("ctx.atomic_add(sb.counter, 0, 1)")
            table["ctx.atomic_add(sb.counter, 0, 2)"] = {"count": 1}
        _tamper(monkeypatch, skss_lb, "skss_lb_kernel", retarget)
        with pytest.raises(ExtractionError, match="stale annotation"):
            extract_kernel(skss_lb_kernel)

    def test_wrong_stores_are_drift(self, monkeypatch):
        _tamper(monkeypatch, skss_lb, "skss_lb_kernel",
                lambda table: table.update({
                    "smem.store_tile(ctx, extra, stride, W, I, J, 'tile', "
                    "layout)": {"count": 1}}))
        with pytest.raises(ExtractionError, match="stale annotation"):
            extract_kernel(skss_lb_kernel)

    def test_undeclared_flag_store_refuses(self, monkeypatch):
        def flagging_kernel(ctx, sb, flag):
            ctx.gstore_scalar(sb.R, flag, 1)
        _hint_here(monkeypatch, flagging_kernel,
                   {"ctx.gstore_scalar(sb.R, flag, 1)": {"count": 1}})
        with pytest.raises(ExtractionError, match="flag store"):
            extract_kernel(flagging_kernel)

    def test_unhinted_kernel_refuses(self):
        def rogue_kernel(ctx, a):
            pass
        with pytest.raises(ExtractionError, match="no KERNEL_HINTS entry"):
            extract_kernel(rogue_kernel)


class TestGate:
    """The checks only the single gate makes."""

    def test_all_13_kernels_pass(self):
        specs = _unique_kernels()
        assert len(specs) == 13
        for spec in specs:
            pairs = kernel_sites(spec.fn)
            assert pairs and all(site.key for site, _ in pairs)

    def test_reordered_entries_refused(self, monkeypatch):
        def swap_first_two(table):
            items = list(table.items())
            items[0], items[1] = items[1], items[0]
            table.clear()
            table.update(items)
        _tamper(monkeypatch, skss_lb, "skss_lb_kernel", swap_first_two)
        with pytest.raises(ExtractionError,
                           match=r"skss_lb\.py:\d+: .*out of source order"):
            kernel_sites(skss_lb_kernel)

    def test_walk_that_no_longer_matches_its_walker(self, monkeypatch):
        key = "row_lookback(ctx, sb, I, J)"
        status, lo, hi, local, glob = \
            skss_lb.KERNEL_HINTS["skss_lb_kernel"][key]["walk"]
        _tamper(monkeypatch, skss_lb, "skss_lb_kernel",
                lambda table: table.update({key: {
                    **table[key], "walk": (status, lo, hi + 1, local,
                                           glob)}}))
        with pytest.raises(ExtractionError, match="row_lookback walks"):
            kernel_sites(skss_lb_kernel)

    def test_walker_call_needs_its_walk(self, monkeypatch):
        key = "col_lookback(ctx, sb, I, J)"
        _tamper(monkeypatch, skss_lb, "skss_lb_kernel",
                lambda table: table.update({key: {
                    k: v for k, v in table[key].items() if k != "walk"}}))
        with pytest.raises(ExtractionError, match="needs walk="):
            kernel_sites(skss_lb_kernel)

    def test_walk_needs_step_bounds(self, monkeypatch):
        key = "diag_lookback(ctx, sb, I, J)"
        _tamper(monkeypatch, skss_lb, "skss_lb_kernel",
                lambda table: table.update({key: {
                    k: v for k, v in table[key].items() if k != "steps_hi"}}))
        with pytest.raises(ExtractionError, match="steps_lo= and steps_hi="):
            kernel_sites(skss_lb_kernel)

    def test_plain_status_flag_store_refused(self, monkeypatch):
        def raw_flag_kernel(ctx, data, status):
            ctx.gstore(data, 0, 1.0)
            ctx.gstore(status, 0, 1)
        _hint_here(monkeypatch, raw_flag_kernel, {
            "ctx.gstore(data, 0, 1.0)": {"count": 1},
            "ctx.gstore(status, 0, 1)": {"count": 1}})
        with pytest.raises(ExtractionError,
                           match=r"test_kernelir\.py:\d+: plain flag store"):
            kernel_sites(raw_flag_kernel)
