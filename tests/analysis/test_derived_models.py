"""The protocol models follow the kernels, and the checker's inputs mean
what they say.

Each planted kernel is an edited copy of ``skss_kernel`` with a matching
``KERNEL_HINTS`` entry, swapped in with ``monkeypatch``: the drift gate
accepts it, so only a model derived from the kernel's own events can tell
it from the real one.
"""

import ast

import pytest

from repro.analysis.kernelir import function_ast
from repro.analysis.modelcheck import check_algorithm
from repro.analysis.protomodel import build_model
from repro.cli import main
from repro.errors import ConfigurationError, ExtractionError

WAIT = ("ctx.wait_until(sb.R, sb.scalar_idx(I, J - 1), "
        "lambda v: v >= GRS_READY)")
PUBLISH = ("publish(ctx, [(sb.grs, sb.vec_idx(I, J), grs_now)], sb.R, "
           "sb.scalar_idx(I, J), GRS_READY)")


def _statement(tree, source):
    """``(statement list, index)`` of the statement whose source starts
    with ``source``."""
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list):
            for k, stmt in enumerate(body):
                if ast.unparse(stmt).startswith(source):
                    return body, k
    raise AssertionError(f"skss_kernel has no statement `{source}`")


def _plant_skss(monkeypatch, tmp_path, edit):
    """Swap in ``skss_kernel`` edited by ``edit(tree, hint keys)``."""
    from repro.sat import skss
    tree = function_ast(skss.skss_kernel)
    hints = skss.KERNEL_HINTS["skss_kernel"]
    keys = edit(tree, list(hints))
    path = tmp_path / "planted_skss.py"
    path.write_text(ast.unparse(tree) + "\n")
    namespace = dict(vars(skss))
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    monkeypatch.setattr(skss, "skss_kernel", namespace["skss_kernel"])
    monkeypatch.setitem(skss.KERNEL_HINTS, "skss_kernel",
                        {key: hints[key] for key in keys})


def _drop_wait(tree, keys):
    body, k = _statement(tree, f"yield from {WAIT}")
    del body[k]
    return [key for key in keys if key != WAIT]


def _publish_before_wait(tree, keys):
    body, k = _statement(tree, PUBLISH)
    stmt = body.pop(k)
    body.insert(_statement(tree, "if J > 0:")[1], stmt)
    keys.remove(PUBLISH)
    keys.insert(keys.index(WAIT), PUBLISH)
    return keys


class TestModelsFollowTheKernels:
    def test_dropped_wait_is_a_stale_read(self, monkeypatch, tmp_path):
        _plant_skss(monkeypatch, tmp_path, _drop_wait)
        (launch,) = check_algorithm("1R1W-SKSS", 2).launches
        by_pool = {p.pool: p for p in launch.pools}
        assert by_pool[1].ok  # one column at a time hides the bug
        stale = [v for v in by_pool[2].violations if v.kind == "stale-read"]
        assert stale and "grs[0,0]" in stale[0].message

    @pytest.mark.parametrize("t", [2, 3])
    def test_publish_before_its_wait_is_refused(self, monkeypatch, tmp_path,
                                                t):
        _plant_skss(monkeypatch, tmp_path, _publish_before_wait)
        with pytest.raises(ExtractionError, match="publish grs"):
            build_model("1R1W-SKSS", t)


class TestCheckerInputs:
    @pytest.mark.parametrize("pools", [(0,), (-1,), (2, 0)])
    def test_pool_below_one_rejected(self, pools):
        with pytest.raises(ConfigurationError, match="pool"):
            check_algorithm("1R1W-SKSS", 2, pools=pools)

    def test_pool_above_program_count_is_full_residency(self):
        (launch,) = check_algorithm("1R1W-SKSS", 2, pools=(9,)).launches
        assert launch.programs == 2
        assert [p.pool for p in launch.pools] == [2]

    def test_clamped_pools_are_not_repeated(self):
        (launch,) = check_algorithm("1R1W-SKSS", 2, pools=(2, 9, 1)).launches
        assert [p.pool for p in launch.pools] == [2, 1]

    @pytest.mark.parametrize("budget", [0, -5])
    def test_non_positive_budget_rejected(self, budget):
        with pytest.raises(ConfigurationError, match="budget"):
            check_algorithm("1R1W-SKSS", 2, max_states=budget)

    def test_cli_budget_zero_is_not_the_default(self):
        with pytest.raises(ConfigurationError, match="budget"):
            main(["modelcheck", "-a", "1R1W-SKSS", "--max-states", "0"])

    @pytest.mark.parametrize("name", ["2R2W", "2R1W", "1R1W-SKSS"])
    def test_acquisition_only_orders_skss_lb(self, name):
        with pytest.raises(ConfigurationError, match="acquisition"):
            build_model(name, 2, acquisition="swapped")

    def test_cli_acquisition_needs_skss_lb(self):
        with pytest.raises(ConfigurationError, match="acquisition"):
            main(["modelcheck", "--acquisition", "swapped"])
