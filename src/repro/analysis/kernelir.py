"""One parse per kernel: the site table every static checker reads.

The static proofs — Table I traffic (:mod:`repro.analysis.costcheck`),
worst-path rounding depth (:mod:`repro.analysis.numcheck`) and the protocol
models (:mod:`repro.analysis.protomodel`) — all derive from the same kernel
ASTs.  This module parses a kernel into its *sites*, in evaluation order (a
call's arguments before the call, a statement's calls before the
statement):

* every counted global-memory call, with its **cost role** — ``load``,
  ``scalar_load``, ``tile_load``, ``store``, ``scalar_store``,
  ``tile_store``, ``publish``, ``wait``, ``walk``, ``atomic`` or ``fence`` —
  and the buffer it touches;
* every rounding-error site, with its **error role**: ``reduction`` (a call
  to a reduction/prefix helper), ``carry`` (a store or publish whose stored
  value itself adds) or ``accumulate`` (an assignment folding its own target
  back in with ``+``/``-``).

A site is keyed by its unparsed source.  Each kernel module declares one
``KERNEL_HINTS`` table: per kernel, one entry per site in the same order,
holding the site's cost fields (``count``/``width``/``pattern``, or
``steps_lo``/``steps_hi`` for a walk) and/or its error ``depth``.  The
tilecommon walker calls (``row_lookback``/``col_lookback``/
``diag_lookback``) also carry ``walk=(status, lo, hi, local, global)``: their
``lookback_walk`` lives in tilecommon, so it is the one protocol fact their
own source does not show.  Every other protocol fact — each publish, wait,
walk, load, store and ticket — is pinned by its exact-source key.

:func:`kernel_sites` pairs each site with its hint and is the single drift
gate: it raises :class:`~repro.errors.ExtractionError` at ``file:line`` for
a missing, stale or out-of-order entry, an unknown field, a walk without
``steps_lo``/``steps_hi``, an error site without ``depth``, a ``walk=`` that
does not match its walker, or a plain store to a status flag (flags are
raised only through :func:`~repro.primitives.lookback.publish`, which owns
the fence).  :func:`parse_sites` refuses a repeated site: identical counted
accesses are redundant traffic (the excess-read detector of
:func:`~repro.analysis.costcheck.find_cost_bugs`), and hints key on the
source text.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.errors import ExtractionError

#: Counted global-memory methods -> cost role.
COST_ROLES = {
    "gload": "load", "gload_scalar": "scalar_load",
    "load_tile": "tile_load", "load_tile_with_col_sums": "tile_load",
    "gstore": "store", "gstore_scalar": "scalar_store",
    "store_tile": "tile_store",
    "publish": "publish", "publish_vector": "publish",
    "publish_scalar": "publish",
    "wait_until": "wait",
    "lookback_walk": "walk", "row_lookback": "walk", "col_lookback": "walk",
    "diag_lookback": "walk",
    "atomic_add": "atomic",
    "threadfence": "fence",
}

#: The tilecommon look-back walkers: calls whose walk is declared by hint.
_WALKERS = ("row_lookback", "col_lookback", "diag_lookback")

#: Hint fields each cost role takes (``count`` defaults to 1 where optional).
_COST_FIELDS = {
    "load": {"count", "width", "pattern"},
    "scalar_load": {"count"},
    "tile_load": {"count", "width", "pattern"},
    "store": {"count", "width", "pattern"},
    "scalar_store": {"count"},
    "tile_store": {"count", "width", "pattern"},
    "publish": {"count", "width", "pattern"},
    "wait": {"count"},
    "walk": {"steps_lo", "steps_hi", "width", "pattern"},
    "atomic": {"count"},
    "fence": {"count"},
}

#: Reduction/prefix helpers whose result feeds an accumulator.  ``sum`` is
#: deliberately absent: bare ``.sum(...)`` only appears inside accumulation
#: statements, which are already sites — listing it would double-extract.
_REDUCTIONS = frozenset({
    "tile_row_sums", "tile_col_sums", "tile_row_prefix_sums",
    "tile_col_prefix_sums", "load_tile_with_col_sums",
    "assemble_gsat_in_shared", "lane_vector_sum", "block_inclusive_scan",
    "cumsum", "lookback_walk", "row_lookback", "col_lookback",
    "diag_lookback", "add_to_col", "add_to_row", "add_to_element",
})

#: Store methods -> positional index of the stored value expression
#: (``publish`` carries its values in a ``[(buf, idx, values), ...]`` list).
_VALUE_ARG = {"gstore": 2, "gstore_scalar": 2,
              "publish_vector": 3, "publish_scalar": 3}


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------

def expr_name(node: ast.AST) -> str:
    """Best-effort identifier of a buffer expression: ``sb.grs[i]`` ->
    ``grs``, ``get_buf()`` -> ``get_buf`` ("" when there is none)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return expr_name(node.func)
    if isinstance(node, ast.Subscript):
        return expr_name(node.value)
    return ""


def method_name(call: ast.Call) -> str:
    """``ctx.gstore(...)`` -> ``gstore``; plain ``publish(...)`` -> ``publish``."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return ""


def is_status_name(name: str) -> bool:
    """Status buffers: any name containing ``status``, or TileScratch's
    ``R``/``C`` bytes."""
    return name in ("R", "C") or "status" in name.lower()


def is_counter_name(name: str) -> bool:
    """Ticket counters: any name containing ``counter``."""
    return "counter" in name.lower()


def _postorder(node: ast.AST) -> Iterator[ast.AST]:
    """``node`` and the nodes lexically inside it, excluding nested function
    and lambda bodies, children before parents (evaluation order)."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield from _postorder(child)
    yield node


def calls_postorder(node: ast.AST) -> list[ast.Call]:
    """Calls lexically inside ``node`` (excluding nested function/lambda
    bodies), children before parents — i.e. argument evaluation order."""
    return [n for n in _postorder(node) if isinstance(n, ast.Call)]


def function_ast(fn: Callable) -> ast.FunctionDef:
    """The parsed definition of ``fn``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    func = tree.body[0]
    if not isinstance(func, ast.FunctionDef):
        raise ExtractionError(f"{fn!r} is not a plain function")
    return func


def resolve_const(node: ast.AST, g: Mapping, where: str) -> int:
    """An integer constant, possibly spelled as a module-level name."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return int(node.value)
    if isinstance(node, ast.Name):
        value = g.get(node.id)
        if isinstance(value, int):
            return value
    raise ExtractionError(
        f"{where}: cannot resolve {ast.dump(node)} to an integer constant")


def keyword_arg(call: ast.Call, name: str, where: str) -> ast.AST:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    raise ExtractionError(f"{where}: lookback_walk missing keyword '{name}'")


def _reader_buffer(node: ast.AST, where: str) -> str:
    """Buffer a walk's ``read_local``/``read_global`` argument reads from."""
    if isinstance(node, ast.Lambda):
        for call in calls_postorder(node.body):
            if COST_ROLES.get(method_name(call)) in ("load", "scalar_load") \
                    and call.args:
                return expr_name(call.args[0])
        node = node.body
    if isinstance(node, ast.Call):
        for arg in node.args:
            name = expr_name(arg)
            if name and name != "ctx":
                return name
    name = expr_name(node)
    if name:
        return name
    raise ExtractionError(f"{where}: cannot name the walk's read buffer")


def walk_of(call: ast.Call, g: Mapping, where: str) -> tuple:
    """``(status, local threshold, global threshold, local buffer, global
    buffer)`` of one ``lookback_walk`` call; ``g`` resolves named constants."""
    return (expr_name(keyword_arg(call, "status_buf", where)),
            resolve_const(keyword_arg(call, "local_threshold", where), g,
                          where),
            resolve_const(keyword_arg(call, "global_threshold", where), g,
                          where),
            _reader_buffer(keyword_arg(call, "read_local", where), where),
            _reader_buffer(keyword_arg(call, "read_global", where), where))


def walker_call(walker_fn: Callable) -> ast.Call:
    """The single ``lookback_walk`` call inside a tilecommon walker."""
    for call in calls_postorder(function_ast(walker_fn)):
        if method_name(call) == "lookback_walk":
            return call
    raise ExtractionError(f"{walker_fn.__name__}: no lookback_walk call found")


# ---------------------------------------------------------------------------
# Sites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Site:
    """One cost and/or rounding-error site in a kernel's source."""

    kernel: str
    key: str     # ast.unparse of the call/statement — the KERNEL_HINTS key
    cost: str    # cost role ("" when no global memory is counted)
    error: str   # error role ("" when the site does not round)
    buffer: str  # AST name of the buffer a counted call touches ("" if none)
    file: str
    line: int    # 1-based line in the source file
    node: ast.AST = field(compare=False, repr=False)

    @property
    def where(self) -> str:
        return f"{self.file}:{self.line}"


def _site_buffer(call: ast.Call, role: str) -> str:
    """The AST-level name of the buffer a counted call touches."""
    args = call.args
    if role in ("tile_load", "tile_store"):
        return expr_name(args[1]) if len(args) > 1 else ""
    if role == "publish" and len(args) > 1:
        node = args[1]
        if isinstance(node, (ast.List, ast.Tuple)) and node.elts \
                and isinstance(node.elts[0], (ast.Tuple, ast.List)) \
                and node.elts[0].elts:
            node = node.elts[0].elts[0]  # [(buf, idx, values), ...]
        return expr_name(node)
    if role in ("load", "scalar_load", "store", "scalar_store", "wait",
                "atomic"):
        return expr_name(args[0]) if args else ""
    return ""


def _adds(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.BinOp)
               and isinstance(sub.op, (ast.Add, ast.Sub))
               for sub in ast.walk(node))


def _stored_values(call: ast.Call, method: str) -> list[ast.AST]:
    """The stored value expression(s) of a store/publish call."""
    if method in _VALUE_ARG:
        idx = _VALUE_ARG[method]
        return [call.args[idx]] if len(call.args) > idx else []
    if method == "publish" and len(call.args) > 1 \
            and isinstance(call.args[1], (ast.List, ast.Tuple)):
        return [e.elts[2] for e in call.args[1].elts
                if isinstance(e, (ast.Tuple, ast.List)) and len(e.elts) >= 3]
    return []


def _is_accumulation(stmt: ast.AST) -> bool:
    """An assignment that folds its own target back in with ``+``/``-``."""
    if isinstance(stmt, ast.AugAssign):
        return isinstance(stmt.op, (ast.Add, ast.Sub))
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
        return (isinstance(target, ast.Name) and isinstance(value, ast.BinOp)
                and isinstance(value.op, (ast.Add, ast.Sub))
                and target.id in {n.id for n in ast.walk(value)
                                  if isinstance(n, ast.Name)})
    return False


def _roles(node: ast.AST) -> tuple[str, str]:
    """``(cost role, error role)`` of one AST node ("" for none)."""
    if isinstance(node, ast.Call):
        method = method_name(node)
        if method in _REDUCTIONS:
            error = "reduction"
        elif any(_adds(v) for v in _stored_values(node, method)):
            error = "carry"
        else:
            error = ""
        return COST_ROLES.get(method, ""), error
    if _is_accumulation(node):
        return "", "accumulate"
    return "", ""


def parse_sites(fn: Callable) -> tuple[Site, ...]:
    """Every cost and rounding-error site of ``fn``, in evaluation order.

    A repeated site raises :class:`~repro.errors.ExtractionError`: two
    lexically identical counted accesses are redundant traffic by
    construction (excess-read), and hints key on the source text.  Repeated
    bare fences are the exception — legitimate, judged separately by the
    redundant-fence detector, and covered by one hint.
    """
    file = fn.__code__.co_filename.rsplit("/", 1)[-1]
    base = fn.__code__.co_firstlineno - 1
    sites: list[Site] = []
    seen: dict[str, Site] = {}
    for node in _postorder(function_ast(fn)):
        cost, error = _roles(node)
        if not (cost or error):
            continue
        site = Site(kernel=fn.__name__, key=ast.unparse(node), cost=cost,
                    error=error, buffer=_site_buffer(node, cost) if cost
                    else "", file=file, line=base + node.lineno, node=node)
        first = seen.get(site.key)
        if first is None:
            seen[site.key] = site
            sites.append(site)
        elif cost == "fence":
            continue
        elif cost:
            raise ExtractionError(
                f"{site.where}: kernel {fn.__name__} repeats the global "
                f"access `{site.key}` (first at {first.where}) — identical "
                f"accesses are redundant traffic (excess-read)")
        else:
            raise ExtractionError(
                f"{site.where}: kernel {fn.__name__} repeats the {error} "
                f"site `{site.key}` (first at {first.where}); KERNEL_HINTS "
                f"needs lexically unique sites")
    return tuple(sites)


# ---------------------------------------------------------------------------
# The drift gate
# ---------------------------------------------------------------------------

def _check_hint(fn: Callable, site: Site, hint: Mapping[str, Any]) -> None:
    method = method_name(site.node) if site.cost else ""
    allowed = set(_COST_FIELDS.get(site.cost, ()))
    if site.error:
        allowed.add("depth")
    if method in _WALKERS:
        allowed.add("walk")
    extra = set(hint) - allowed
    if extra:
        raise ExtractionError(
            f"{site.where}: KERNEL_HINTS for `{site.key}` has unknown "
            f"field(s) {sorted(extra)}; this {site.cost or site.error} site "
            f"takes {sorted(allowed)}")
    if site.cost == "walk" and not {"steps_lo", "steps_hi"} <= set(hint):
        raise ExtractionError(
            f"{site.where}: walk site `{site.key}` needs steps_lo= and "
            f"steps_hi= bounds")
    if site.error and "depth" not in hint:
        raise ExtractionError(
            f"{site.where}: {site.error} site `{site.key}` needs depth= "
            f"(an int or a lambda over the geometry)")
    if site.cost in ("store", "scalar_store") and is_status_name(site.buffer):
        raise ExtractionError(
            f"{site.where}: plain flag store `{site.key}` to status buffer "
            f"'{site.buffer}' bypasses publish() and voids the model's fence "
            f"assumptions")
    if method in _WALKERS:
        walker = fn.__globals__.get(method)
        if walker is None:
            raise ExtractionError(
                f"{site.where}: walker helper '{method}' is not importable")
        actual = walk_of(walker_call(walker), walker.__globals__, method)
        if "walk" not in hint:
            raise ExtractionError(
                f"{site.where}: walker call `{site.key}` needs walk="
                f"{actual!r} (status, lo, hi, local, global)")
        if tuple(hint["walk"]) != actual:
            raise ExtractionError(
                f"{site.where}: KERNEL_HINTS declares walk={hint['walk']!r} "
                f"for `{site.key}` but {method} walks {actual!r}; kernel "
                f"and declaration drifted")


def kernel_sites(fn: Callable) -> tuple[tuple[Site, Mapping[str, Any]], ...]:
    """``fn``'s sites paired with their ``KERNEL_HINTS`` entries — the
    drift gate every static checker reads the kernels through.

    The table is looked up on ``fn``'s module at every call, so an edit to
    either the kernel or its table is judged afresh.
    """
    sites = parse_sites(fn)
    where = (f"{fn.__code__.co_filename.rsplit('/', 1)[-1]}:"
             f"{fn.__code__.co_firstlineno}")
    module = sys.modules.get(fn.__module__)
    table = getattr(module, "KERNEL_HINTS", {}).get(fn.__name__)
    if table is None:
        raise ExtractionError(
            f"{where}: {fn.__name__} has no KERNEL_HINTS entry in "
            f"{fn.__module__}")
    keys = {site.key for site in sites}
    for key in table:
        if key not in keys:
            raise ExtractionError(
                f"{where}: KERNEL_HINTS entry `{key}` of {fn.__name__} "
                f"matches no site in the kernel source — stale annotation")
    for site in sites:
        if site.key not in table:
            raise ExtractionError(
                f"{site.where}: {site.cost or site.error} site `{site.key}` "
                f"has no KERNEL_HINTS entry in {fn.__module__}")
    for site, key in zip(sites, table):
        if site.key != key:
            raise ExtractionError(
                f"{site.where}: KERNEL_HINTS of {fn.__name__} is out of "
                f"source order: `{key}` is listed where `{site.key}` "
                f"comes")
    for site in sites:
        _check_hint(fn, site, table[site.key])
    return tuple((site, table[site.key]) for site in sites)


__all__ = ["COST_ROLES", "Site", "calls_postorder", "expr_name",
           "function_ast", "is_counter_name", "is_status_name", "keyword_arg",
           "kernel_sites", "method_name", "parse_sites", "resolve_const",
           "walk_of", "walker_call"]
