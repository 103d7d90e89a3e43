"""Protocol extraction: kernel ASTs -> finite protocol models.

The dynamic sanitizer (:mod:`repro.analysis.sanitizer`) observes the
schedules a run happens to explore; the model checker
(:mod:`repro.analysis.modelcheck`) needs the *complete* behaviour instead.
This module builds that bridge: it statically extracts each kernel's
synchronization skeleton — publish/fence/wait edges, look-back walks, ticket
acquisition — from the kernel's AST and compiles it, together with the host
side's real geometry functions, into a finite :class:`ProtocolModel` that the
checker can exhaust.

The split of trust is deliberate and narrow:

* the **protocol shape** (which buffers are published under which status
  values, in which order; which walks run with which thresholds; whether the
  kernel loops on an ``atomicAdd`` ticket) is *extracted* by
  :func:`extract_kernel` from the kernel's sites, read through the
  :mod:`~repro.analysis.kernelir` drift gate: every publish, wait, walk,
  load, store and ticket is pinned by its exact-source ``KERNEL_HINTS`` key,
  the tilecommon walkers' walks by their ``walk=`` entries, and any drift
  between source and table raises :class:`~repro.errors.ExtractionError`;
* the **index geometry** (which tile a serial maps to, which predecessors a
  walk visits) comes from the same host functions the kernels themselves
  call at run time (``acquisition_tile``, ``serial_to_tile``,
  ``RowScanLayout``/``ColScanLayout``, ``band_limits``/``band_tiles``,
  ``tiles_on_diagonal``); the per-step ``status_index`` lambdas of the
  tile walkers are additionally re-evaluated from their extracted ASTs
  against the builder's step lists;
* the **value algebra** is abstracted to integer *masses*: input cell
  ``(i, j)`` of a ``t x t`` tile grid carries ``2**(i*t + j)``, so every
  region sum is a distinct bitmask and the refinement check
  (model output == sequential SAT of the masses) is exact.

Plain global stores whose only readers live in *later* launches (the
multi-launch algorithms' ``grs``/``gcs``/``gs``/output tiles) are modeled as
immediate :class:`Out` writes: the kernel-launch boundary is a full barrier,
so their intra-launch visibility is irrelevant — the checker still verifies
that every cross-launch read finds a committed value (barrier sufficiency).
Stores that *are* read within a launch must go through :class:`Publish`
(data, fence, monotone flag) — exactly the discipline
:func:`repro.primitives.lookback.publish` implements.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.analysis.kernelir import (COST_ROLES, expr_name, function_ast,
                                     is_counter_name, is_status_name,
                                     kernel_sites, keyword_arg, method_name,
                                     resolve_const, walk_of, walker_call)
from repro.errors import ConfigurationError, ExtractionError

# ---------------------------------------------------------------------------
# Value expressions: int mass | register name | ("+"/"-", lhs, rhs)
# ---------------------------------------------------------------------------

Loc = tuple
Expr = object


def eval_expr(expr: Expr, env: Mapping[str, int]) -> int:
    """Evaluate a mass expression against a register environment."""
    if isinstance(expr, bool):  # bool is an int subclass; reject explicitly
        raise ConfigurationError(f"invalid mass expression {expr!r}")
    if isinstance(expr, int):
        return expr
    if isinstance(expr, str):
        return env[expr]
    op, lhs, rhs = expr
    if op == "+":
        return eval_expr(lhs, env) + eval_expr(rhs, env)
    if op == "-":
        return eval_expr(lhs, env) - eval_expr(rhs, env)
    raise ConfigurationError(f"unknown expression operator {op!r}")


def describe_loc(loc: Loc) -> str:
    """``("grs", 1, 0)`` -> ``"grs[1,0]"``."""
    return f"{loc[0]}[{','.join(str(x) for x in loc[1:])}]"


def unit(i: int, j: int, t: int) -> int:
    """The mass of input tile/cell ``(i, j)`` on a ``t x t`` grid."""
    return 1 << (i * t + j)


def rect_mass(i: int, j: int, t: int) -> int:
    """Mass of the inclusive rectangle ``(0..i, 0..j)`` — the SAT value."""
    return sum(unit(a, b, t) for a in range(i + 1) for b in range(j + 1))


def row_mass(i: int, j0: int, j1: int, t: int) -> int:
    """Mass of row ``i``, columns ``j0 .. j1`` inclusive (empty -> 0)."""
    return sum(unit(i, b, t) for b in range(j0, j1 + 1))


def col_mass(i0: int, i1: int, j: int, t: int) -> int:
    """Mass of column ``j``, rows ``i0 .. i1`` inclusive (empty -> 0)."""
    return sum(unit(a, j, t) for a in range(i0, i1 + 1))


# ---------------------------------------------------------------------------
# Protocol operations (the model IR)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Store:
    """Plain global store: enters the worker's store buffer (unfenced)."""
    loc: Loc
    expr: Expr


@dataclass(frozen=True)
class Fence:
    """``__threadfence()``: commits every pending store of this worker."""


@dataclass(frozen=True)
class Publish:
    """The :func:`~repro.primitives.lookback.publish` discipline, atomically:
    drain own pending stores, commit ``stores``, then raise the (strictly
    monotone, domain-checked) status flag."""
    stores: tuple[tuple[Loc, Expr], ...]
    status: Loc
    value: int


@dataclass(frozen=True)
class RaiseFlag:
    """A *plain* store to a status byte: the flag becomes visible without
    draining pending data stores (the dropped-fence bug shape)."""
    status: Loc
    value: int


@dataclass(frozen=True)
class Wait:
    """Spin until ``status >= threshold`` (blocking; statuses are monotone)."""
    status: Loc
    threshold: int


@dataclass(frozen=True)
class Read:
    """Load a data slot into a register; reading an unwritten slot is the
    ``stale-read`` violation (own pending stores are forwarded first)."""
    loc: Loc
    reg: str


@dataclass(frozen=True)
class WalkStep:
    """One predecessor probe of a look-back walk."""
    status: Loc
    local_threshold: int
    global_threshold: int
    local_loc: Loc
    global_loc: Loc


@dataclass(frozen=True)
class Walk:
    """A decoupled look-back walk: per step, spin to ``local_threshold``;
    if the observed status reaches ``global_threshold`` read the global slot
    and stop, else accumulate the local slot.  The result lands in ``reg``."""
    steps: tuple[WalkStep, ...]
    reg: str


@dataclass(frozen=True)
class Out:
    """A store whose readers are all in later launches (or nobody): committed
    immediately, checked against the launch's output spec.  ``reg`` optionally
    also binds the value for later expressions of the same worker."""
    loc: Loc
    expr: Expr
    reg: str | None = None


@dataclass(frozen=True)
class CounterRead:
    """Plain (non-atomic) load of a ticket counter."""
    counter: str
    reg: str


@dataclass(frozen=True)
class CounterStore:
    """Plain (non-atomic) store of a ticket counter."""
    counter: str
    expr: Expr


Op = object

# ---------------------------------------------------------------------------
# Programs, launches, models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Program:
    """The op sequence one parallel unit (block/worker) executes."""
    label: str
    ops: tuple[Op, ...]


@dataclass(frozen=True)
class LaunchModel:
    """One kernel launch: programs plus dispatch mode and memory contract.

    ``dispatch`` is ``"static"`` (program ``k`` goes to block ``k``, blocks
    dispatched in order under bounded residency) or ``"ticket"`` (persistent
    workers acquire programs via an atomic counter; the checker exploits that
    ticket assignment order is worker-symmetric and assigns eagerly).
    ``initial`` holds the committed data slots visible at launch start (the
    cumulative spec of earlier launches — the launch boundary is a barrier);
    ``out_spec`` the required value of every :class:`Out` location;
    ``status_domains`` the legal value set per status buffer name.
    """
    name: str
    dispatch: str
    programs: tuple[Program, ...]
    initial: Mapping[Loc, int]
    out_spec: Mapping[Loc, int]
    status_domains: Mapping[str, tuple[int, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class ProtocolModel:
    """A whole algorithm: its launch sequence over a ``t x t`` tile grid."""
    algorithm: str
    t: int
    launches: tuple[LaunchModel, ...]


# ---------------------------------------------------------------------------
# AST extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelProtocol:
    """The extracted synchronization skeleton of one kernel function.

    ``events`` is the source-ordered tuple of protocol events:

    ``("publish", data, status, value)``, ``("walk", status, lo, hi,
    local_buf, global_buf, walker)``, ``("wait", status, threshold)``,
    ``("fence",)``, ``("store", buf)``, ``("load", buf)``.
    """
    kernel: str
    ticket: bool
    counter: str
    events: tuple[tuple, ...]

    def _select(self, kind: str) -> tuple[tuple, ...]:
        return tuple(ev for ev in self.events if ev[0] == kind)

    @property
    def publishes(self) -> tuple[tuple, ...]:
        return tuple(ev[1:] for ev in self._select("publish"))

    @property
    def walks(self) -> tuple[tuple, ...]:
        return tuple(ev[1:6] for ev in self._select("walk"))

    @property
    def waits(self) -> tuple[tuple, ...]:
        return tuple(ev[1:] for ev in self._select("wait"))

    @property
    def stores(self) -> tuple[str, ...]:
        return tuple(sorted({ev[1] for ev in self._select("store")}))

    @property
    def loads(self) -> tuple[str, ...]:
        return tuple(sorted({ev[1] for ev in self._select("load")}))


def _wait_threshold(call: ast.Call, g: Mapping, where: str) -> int:
    """Threshold from a ``lambda v: v >= X`` wait predicate."""
    if len(call.args) >= 3 and isinstance(call.args[2], ast.Lambda):
        body = call.args[2].body
        if (isinstance(body, ast.Compare) and len(body.ops) == 1
                and isinstance(body.ops[0], ast.GtE)):
            return resolve_const(body.comparators[0], g, where)
    raise ExtractionError(
        f"{where}: wait_until predicate is not 'lambda v: v >= <const>'")


class _ScratchGeometry:
    """Mirrors :class:`~repro.sat.tilecommon.TileScratch` index arithmetic
    for evaluating extracted ``status_index`` lambdas."""

    def __init__(self, tc: int) -> None:
        self.tc = tc

    def scalar_idx(self, i: int, j: int) -> int:
        return i * self.tc + j


def walker_status_indexer(walker_fn: Callable) -> Callable:
    """Compile a walker's ``status_index`` lambda from its AST.

    Returns ``indexer(t, I, J, step) -> flat status index`` so builders can
    verify their step geometry against the kernel's own index arithmetic.
    """
    where = walker_fn.__name__
    lam = keyword_arg(walker_call(walker_fn), "status_index", where)
    if not isinstance(lam, ast.Lambda):
        raise ExtractionError(f"{where}: status_index is not a lambda")
    expr = ast.Expression(lam)
    ast.fix_missing_locations(expr)
    code = compile(expr, f"<{where}.status_index>", "eval")

    def indexer(t: int, I: int, J: int, step: int) -> int:
        fn = eval(code, {"sb": _ScratchGeometry(t), "I": I, "J": J})
        return fn(step)

    return indexer


def extract_kernel(fn: Callable) -> KernelProtocol:
    """The protocol skeleton of one kernel, read from its sites through the
    :mod:`~repro.analysis.kernelir` drift gate (which refuses a kernel whose
    ``KERNEL_HINTS`` entry drifted from its source)."""
    g = fn.__globals__
    where = fn.__name__
    events: list[tuple] = []
    ticket = False
    counter = ""
    for site, hint in kernel_sites(fn):
        call, role = site.node, site.cost
        if not isinstance(call, ast.Call):
            continue  # accumulate statements carry no protocol event
        if role == "atomic" and is_counter_name(site.buffer):
            ticket, counter = True, site.buffer
        elif role == "publish":
            # Every publish helper ends in (status_buf, status_idx, value).
            if len(call.args) < 5:
                raise ExtractionError(f"{where}: truncated publish call")
            events.append(("publish", site.buffer, expr_name(call.args[-3]),
                           resolve_const(call.args[-1], g, where)))
        elif role == "wait":
            events.append(("wait", site.buffer,
                           _wait_threshold(call, g, where)))
        elif role == "walk" and "walk" in hint:
            events.append(("walk", *hint["walk"], method_name(call)))
        elif role == "walk":
            events.append(("walk", *walk_of(call, g, where), ""))
        elif role == "fence":
            events.append(("fence",))
        elif role in ("store", "scalar_store", "tile_store"):
            events.append(("store", site.buffer))
        elif role in ("load", "scalar_load", "tile_load"):
            events.append(("load", site.buffer))
    return KernelProtocol(kernel=where, ticket=ticket, counter=counter,
                          events=tuple(events))


# ---------------------------------------------------------------------------
# Bug-corpus compiler (statement-level; two-block kernels)
# ---------------------------------------------------------------------------

def _const_scalar(node: ast.AST, where: str) -> int:
    """Integer from a literal, possibly wrapped in ``np.asarray([x])``."""
    if isinstance(node, ast.Call) and method_name(node) == "asarray" \
            and node.args and isinstance(node.args[0], ast.List) \
            and node.args[0].elts:
        node = node.args[0].elts[0]
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return int(node.value)
    raise ExtractionError(f"{where}: expected a literal scalar")


def _compile_corpus_stmts(stmts: Iterable[ast.stmt], block_id: int,
                          where: str) -> list[Op]:
    """Compile straight-line corpus-kernel statements into model ops."""
    ops: list[Op] = []
    env_regs: dict[str, str] = {}  # python variable -> model register

    def flat_loc(node: ast.AST, index: ast.AST) -> Loc:
        name = expr_name(node)
        if isinstance(index, ast.Constant):
            return (name, int(index.value))
        if expr_name(index) == "block_id":
            return (name, block_id)
        raise ExtractionError(f"{where}: unsupported index {ast.dump(index)}")

    def value_expr(node: ast.AST) -> Expr:
        if isinstance(node, ast.Constant):
            return int(node.value)
        if isinstance(node, ast.Name) and node.id in env_regs:
            return env_regs[node.id]
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return ("+", value_expr(node.left), value_expr(node.right))
        if isinstance(node, ast.Call) and COST_ROLES.get(
                method_name(node)) in ("load", "scalar_load"):
            reg = f"r{len(ops)}"
            ops.append(Read(flat_loc(node.args[0], node.args[1]), reg))
            return reg
        raise ExtractionError(f"{where}: unsupported value {ast.dump(node)}")

    for stmt in stmts:
        node = stmt.value if isinstance(stmt, (ast.Expr, ast.Assign)) else None
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            node = node.value
        if not isinstance(node, ast.Call):
            if node is None and isinstance(stmt, ast.Return):
                continue
            raise ExtractionError(
                f"{where}: unsupported statement {ast.dump(stmt)}")
        method = method_name(node)
        args = node.args
        if method == "syncthreads":
            continue
        elif method == "publish":
            data = args[1].elts[0]  # [(buf, idx, values)]
            ops.append(Publish(
                (((expr_name(data.elts[0]), 0),
                  _const_scalar(data.elts[2], where)),),
                flat_loc(args[2], args[3]),
                resolve_const(args[4], {}, where)))
        elif method == "wait_until":
            ops.append(Wait(flat_loc(args[0], args[1]),
                            _wait_threshold(node, {}, where)))
        elif method == "threadfence":
            ops.append(Fence())
        elif COST_ROLES.get(method) in ("store", "scalar_store"):
            name = expr_name(args[0])
            if is_counter_name(name):
                ops.append(CounterStore(name, value_expr(args[2])))
            elif is_status_name(name):
                ops.append(RaiseFlag(flat_loc(args[0], args[1]),
                                     resolve_const(args[2], {}, where)))
            elif name == "out":
                ops.append(Out(flat_loc(args[0], args[1]),
                               value_expr(args[2])))
            else:
                ops.append(Store(flat_loc(args[0], args[1]),
                                 _const_scalar(args[2], where)))
        elif COST_ROLES.get(method) in ("load", "scalar_load") \
                and is_counter_name(expr_name(args[0])):
            if not isinstance(stmt, ast.Assign):
                raise ExtractionError(f"{where}: dangling counter load")
            var = stmt.targets[0].id
            reg = f"{var}{block_id}"
            env_regs[var] = reg
            ops.append(CounterRead(expr_name(args[0]), reg))
        else:
            raise ExtractionError(
                f"{where}: unsupported call '{method}' in corpus kernel")
    return ops


def build_corpus_model(name: str) -> ProtocolModel:
    """Compile one bug-corpus kernel into a two-block protocol model."""
    from repro.analysis.bugcorpus import get_spec
    spec = get_spec(name)
    func = function_ast(spec.kernel)
    where = spec.kernel.__name__
    body = func.body
    while body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # docstring
    programs = []
    if len(body) == 1 and isinstance(body[0], ast.If):
        # ``if ctx.block_id == 0: <producer> else: <consumer>``
        for block_id, stmts in ((0, body[0].body), (1, body[0].orelse)):
            ops = _compile_corpus_stmts(stmts, block_id, where)
            role = "producer" if block_id == 0 else "consumer"
            programs.append(Program(label=f"{role}(block {block_id})",
                                    ops=tuple(ops)))
        out_spec = {("out", 0): 42}
    else:
        for block_id in (0, 1):
            ops = _compile_corpus_stmts(body, block_id, where)
            programs.append(Program(label=f"block {block_id}",
                                    ops=tuple(ops)))
        out_spec = {}  # tickets land nondeterministically; the claimed-set
        #               check catches duplicates exhaustively instead
    launch = LaunchModel(
        name=where, dispatch="static", programs=tuple(programs),
        initial={}, out_spec=out_spec, status_domains={"status": (0, 1)})
    return ProtocolModel(algorithm=f"corpus:{name}", t=0, launches=(launch,))


# ---------------------------------------------------------------------------
# Per-algorithm model builders
# ---------------------------------------------------------------------------

def _status_domains_tile() -> dict[str, tuple[int, ...]]:
    from repro.sat import tilecommon as tc
    return {"R": (0, tc.R_LRS, tc.R_GRS, tc.R_GLS, tc.R_GS),
            "C": (0, tc.C_LCS, tc.C_GCS)}


def _check_walk_geometry(walker: str, steps: tuple[WalkStep, ...],
                         step_args: tuple[int, ...], t: int, I: int,
                         J: int) -> None:
    """Re-evaluate the walker's extracted ``status_index`` lambda against the
    builder's step list; any disagreement means the geometry drifted."""
    from repro.sat import tilecommon as tc
    indexer = walker_status_indexer(getattr(tc, walker))
    for step, arg in zip(steps, step_args):
        want = step.status[1] * t + step.status[2]
        got = indexer(t, I, J, arg)
        if got != want:
            raise ExtractionError(
                f"{walker}: status_index({arg}) = {got} but the model "
                f"expects {describe_loc(step.status)} (flat {want}); "
                f"walk geometry drifted")


def _skss_lb_tile_ops(proto: KernelProtocol, I: int, J: int,
                      t: int) -> tuple[Op, ...]:
    """Ops for one SKSS-LB tile, ordered by the kernel's extracted events."""
    gls_expr: Expr = ("+", ("+", "row", "col"), "x")
    exprs: dict[str, Expr] = {
        "lrs": "x", "lcs": "x",
        "grs": ("+", "row", "x"), "gcs": ("+", "col", "x"),
        "gls": gls_expr, "gs": ("+", "diag", gls_expr),
    }
    walk_regs = {"lrs": "row", "lcs": "col", "gls": "diag"}
    ops: list[Op] = []
    for ev in proto.events:
        kind = ev[0]
        if kind == "load":
            ops.append(Read(("a", I, J), "x"))
        elif kind == "publish":
            data, status, value = ev[1], ev[2], ev[3]
            ops.append(Publish((((data, I, J), exprs[data]),),
                               (status, I, J), value))
        elif kind == "walk":
            status, lo, hi, lbuf, gbuf, walker = ev[1:]
            if lbuf == "lrs":
                args = tuple(range(J - 1, -1, -1))
                locs = [(I, jp) for jp in args]
            elif lbuf == "lcs":
                args = tuple(range(I - 1, -1, -1))
                locs = [(ip, J) for ip in args]
            else:  # gls: diagonal walk
                args = tuple(range(1, min(I, J) + 1))
                locs = [(I - k, J - k) for k in args]
            steps = tuple(
                WalkStep((status, i, j), lo, hi, (lbuf, i, j), (gbuf, i, j))
                for i, j in locs)
            if walker:
                _check_walk_geometry(walker, steps, args, t, I, J)
            ops.append(Walk(steps, walk_regs[lbuf]))
        elif kind == "store":
            ops.append(Out(("b", I, J), exprs["gs"]))
    return tuple(ops)


def _build_skss_lb(t: int, acquisition: str = "diagonal") -> ProtocolModel:
    from repro.sat.skss_lb import acquisition_tile, skss_lb_kernel
    proto = extract_kernel(skss_lb_kernel)
    initial = {("a", i, j): unit(i, j, t)
               for i in range(t) for j in range(t)}
    programs, out_spec = [], {}
    for serial in range(t * t):
        I, J = acquisition_tile(serial, t, acquisition, t)
        programs.append(Program(label=f"tile({I},{J})",
                                ops=_skss_lb_tile_ops(proto, I, J, t)))
        out_spec[("b", I, J)] = rect_mass(I, J, t)
    launch = LaunchModel(
        name=f"skss_lb[{acquisition}]", dispatch="ticket",
        programs=tuple(programs), initial=initial, out_spec=out_spec,
        status_domains=_status_domains_tile())
    return ProtocolModel(algorithm="1R1W-SKSS-LB", t=t, launches=(launch,))


def _build_skss(t: int) -> ProtocolModel:
    from repro.sat.skss import GRS_READY, skss_kernel
    proto = extract_kernel(skss_kernel)
    assert proto.publishes == (("grs", "R", GRS_READY),)
    initial = {("a", i, j): unit(i, j, t)
               for i in range(t) for j in range(t)}
    programs, out_spec = [], {}
    for J in range(t):
        ops: list[Op] = []
        acc: Expr | None = None
        for i in range(t):
            ops.append(Read(("a", i, J), f"x{i}"))
            if J > 0:
                ops.append(Wait(("R", i, J - 1), GRS_READY))
                ops.append(Read(("grs", i, J - 1), f"g{i}"))
                grs_expr: Expr = ("+", f"g{i}", f"x{i}")
            else:
                grs_expr = f"x{i}"
            ops.append(Publish(((("grs", i, J), grs_expr),),
                               ("R", i, J), GRS_READY))
            acc = grs_expr if acc is None else ("+", acc, grs_expr)
            ops.append(Out(("b", i, J), acc))
            out_spec[("b", i, J)] = rect_mass(i, J, t)
        programs.append(Program(label=f"column {J}", ops=tuple(ops)))
    launch = LaunchModel(
        name="skss", dispatch="ticket", programs=tuple(programs),
        initial=initial, out_spec=out_spec,
        status_domains={"R": (0, GRS_READY)})
    return ProtocolModel(algorithm="1R1W-SKSS", t=t, launches=(launch,))


def _build_naive(t: int) -> ProtocolModel:
    from repro.sat.naive_2r2w import column_scan_kernel, row_scan_kernel
    extract_kernel(column_scan_kernel)
    extract_kernel(row_scan_kernel)
    initial = {("a", i, j): unit(i, j, t)
               for i in range(t) for j in range(t)}
    col_programs, col_spec = [], {}
    for j in range(t):
        ops: list[Op] = []
        acc: Expr | None = None
        for i in range(t):
            ops.append(Read(("a", i, j), f"x{i}"))
            acc = f"x{i}" if acc is None else ("+", acc, f"x{i}")
            ops.append(Out(("b", i, j), acc))
            col_spec[("b", i, j)] = col_mass(0, i, j, t)
        col_programs.append(Program(label=f"column {j}", ops=tuple(ops)))
    launch1 = LaunchModel(name="column_scan", dispatch="static",
                          programs=tuple(col_programs), initial=initial,
                          out_spec=col_spec)
    initial2 = dict(initial)
    initial2.update(col_spec)
    row_programs, row_spec = [], {}
    for i in range(t):
        ops = []
        acc = None
        for j in range(t):
            ops.append(Read(("b", i, j), f"y{j}"))
            acc = f"y{j}" if acc is None else ("+", acc, f"y{j}")
            ops.append(Out(("b", i, j), acc))
            row_spec[("b", i, j)] = rect_mass(i, j, t)
        row_programs.append(Program(label=f"row {i}", ops=tuple(ops)))
    launch2 = LaunchModel(name="row_scan", dispatch="static",
                          programs=tuple(row_programs), initial=initial2,
                          out_spec=row_spec)
    return ProtocolModel(algorithm="2R2W", t=t, launches=(launch1, launch2))


def _scan_launch(name: str, t: int, serial_to_tile: Callable,
                 cell_of: Callable, initial: Mapping[Loc, int],
                 spec_of: Callable, thresholds: tuple[int, int]) -> LaunchModel:
    """A decoupled look-back scan launch (colscan panels / scan1d parts).

    ``serial_to_tile(serial) -> (line, step)`` where ``line`` is the
    independent scan line (strip/row) and ``step`` the position along it;
    ``cell_of(line, step)`` / ``spec_of(line, step)`` give the data cell read
    and the required inclusive prefix mass.
    """
    lo, hi = thresholds
    agg, pref, status = f"{name}.agg", f"{name}.pref", f"{name}.status"
    programs, out_spec = [], {}
    for serial in range(t * t):
        line, step = serial_to_tile(serial)
        cell = cell_of(line, step)
        walk = tuple(
            WalkStep((status, line, p), lo, hi,
                     (agg, line, p), (pref, line, p))
            for p in range(step - 1, -1, -1))
        incl: Expr = ("+", "ex", "x")
        ops = (
            Read(cell, "x"),
            Publish((((agg, line, step), "x"),), (status, line, step), lo),
            Walk(walk, "ex"),
            Publish((((pref, line, step), incl),), (status, line, step), hi),
            Out(cell, incl),
        )
        programs.append(Program(label=f"{name}({line},{step})", ops=ops))
        out_spec[cell] = spec_of(line, step)
    return LaunchModel(name=name, dispatch="ticket", programs=tuple(programs),
                       initial=initial, out_spec=out_spec,
                       status_domains={status: (0, lo, hi)})


def _build_optimal(t: int) -> ProtocolModel:
    from repro.primitives.colscan import ColScanLayout, col_scan_kernel
    from repro.primitives.scan1d import (STATUS_AGGREGATE, STATUS_PREFIX,
                                         RowScanLayout, row_scan_kernel)
    extract_kernel(col_scan_kernel)
    extract_kernel(row_scan_kernel)
    thresholds = (STATUS_AGGREGATE, STATUS_PREFIX)
    initial = {("a", i, j): unit(i, j, t)
               for i in range(t) for j in range(t)}
    # Launch 1: column scan — one model cell per (strip=column, panel=row),
    # serials in the real layout's panel-major acquisition order.
    col_layout = ColScanLayout(rows=t, cols=t, panel_rows=1, strip_width=1)
    launch1 = _scan_launch(
        "colscan", t, col_layout.serial_to_tile,
        cell_of=lambda strip, panel: ("b", panel, strip),
        initial=initial,
        spec_of=lambda strip, panel: col_mass(0, panel, strip, t),
        thresholds=thresholds)
    # Column scan reads a, writes b: rewire the read cell via op surgery is
    # avoided by modeling the copy as Read(a)/Out(b) of the same (row, col).
    launch1 = LaunchModel(
        name=launch1.name, dispatch=launch1.dispatch,
        programs=tuple(
            Program(p.label, tuple(
                Read(("a",) + op.loc[1:], op.reg)
                if isinstance(op, Read) and op.loc[0] == "b" else op
                for op in p.ops))
            for p in launch1.programs),
        initial=launch1.initial, out_spec=launch1.out_spec,
        status_domains=launch1.status_domains)
    initial2 = dict(initial)
    initial2.update(launch1.out_spec)
    # Launch 2: row scan over b in place, partition-major serials.
    row_layout = RowScanLayout(rows=t, n=t, partition_size=1)
    launch2 = _scan_launch(
        "rowscan", t, row_layout.serial_to_tile,
        cell_of=lambda row, part: ("b", row, part),
        initial=initial2,
        spec_of=lambda row, part: rect_mass(row, part, t),
        thresholds=thresholds)
    return ProtocolModel(algorithm="2R2W-optimal", t=t,
                         launches=(launch1, launch2))


def _guarded_read(ops: list[Op], loc: Loc, reg: str,
                  condition: bool) -> Expr:
    """Append a Read when in range; out-of-range regions have mass 0."""
    if not condition:
        return 0
    ops.append(Read(loc, reg))
    return reg


def _gsat_tile_ops(I: int, J: int) -> tuple[Op, ...]:
    """The L3 assemble: b(I,J) = gs(I-1,J-1) + grs(I,J-1) + gcs(I-1,J) + x."""
    ops: list[Op] = [Read(("a", I, J), "x")]
    gl = _guarded_read(ops, ("grs", I, J - 1), "gl", J > 0)
    ga = _guarded_read(ops, ("gcs", I - 1, J), "ga", I > 0)
    gc = _guarded_read(ops, ("gs", I - 1, J - 1), "gc", I > 0 and J > 0)
    ops.append(Out(("b", I, J), ("+", ("+", ("+", gc, gl), ga), "x")))
    return tuple(ops)


def _build_nehab(t: int) -> ProtocolModel:
    from repro.sat.nehab_2r1w import (global_sums_kernel, gsat_kernel,
                                      local_sums_kernel)
    extract_kernel(local_sums_kernel)
    extract_kernel(global_sums_kernel)
    extract_kernel(gsat_kernel)
    initial = {("a", i, j): unit(i, j, t)
               for i in range(t) for j in range(t)}
    # L1: per-tile local sums (block_id row-major, one tile per block).
    l1_programs, l1_spec = [], {}
    for I in range(t):
        for J in range(t):
            ops = (Read(("a", I, J), "x"),
                   Out(("lrs", I, J), "x"), Out(("lcs", I, J), "x"),
                   Out(("ls", I, J), "x"))
            l1_programs.append(Program(label=f"local({I},{J})", ops=ops))
            for buf in ("lrs", "lcs", "ls"):
                l1_spec[(buf, I, J)] = unit(I, J, t)
    launch1 = LaunchModel(name="local_sums", dispatch="static",
                          programs=tuple(l1_programs), initial=initial,
                          out_spec=l1_spec)
    cumulative = dict(initial)
    cumulative.update(l1_spec)
    # L2: three chain workers (row chains, column chains, the GS block).
    l2_spec: dict[Loc, int] = {}
    grs_ops: list[Op] = []
    for I in range(t):
        acc: Expr | None = None
        for J in range(t):
            reg = f"r{I}_{J}"
            grs_ops.append(Read(("lrs", I, J), reg))
            acc = reg if acc is None else ("+", acc, reg)
            grs_ops.append(Out(("grs", I, J), acc))
            l2_spec[("grs", I, J)] = row_mass(I, 0, J, t)
    gcs_ops: list[Op] = []
    for J in range(t):
        acc = None
        for I in range(t):
            reg = f"c{I}_{J}"
            gcs_ops.append(Read(("lcs", I, J), reg))
            acc = reg if acc is None else ("+", acc, reg)
            gcs_ops.append(Out(("gcs", I, J), acc))
            l2_spec[("gcs", I, J)] = col_mass(0, I, J, t)
    gs_ops: list[Op] = []
    for I in range(t):
        for J in range(t):
            gs_ops.append(Read(("ls", I, J), f"s{I}_{J}"))
    for I in range(t):
        for J in range(t):
            acc = None
            for i in range(I + 1):
                for j in range(J + 1):
                    reg = f"s{i}_{j}"
                    acc = reg if acc is None else ("+", acc, reg)
            gs_ops.append(Out(("gs", I, J), acc))
            l2_spec[("gs", I, J)] = rect_mass(I, J, t)
    launch2 = LaunchModel(
        name="global_sums", dispatch="static",
        programs=(Program("row chains", tuple(grs_ops)),
                  Program("column chains", tuple(gcs_ops)),
                  Program("GS block", tuple(gs_ops))),
        initial=dict(cumulative), out_spec=l2_spec)
    cumulative.update(l2_spec)
    # L3: per-tile GSAT assembly.
    l3_programs, l3_spec = [], {}
    for I in range(t):
        for J in range(t):
            l3_programs.append(Program(label=f"gsat({I},{J})",
                                       ops=_gsat_tile_ops(I, J)))
            l3_spec[("b", I, J)] = rect_mass(I, J, t)
    launch3 = LaunchModel(name="gsat", dispatch="static",
                          programs=tuple(l3_programs),
                          initial=dict(cumulative), out_spec=l3_spec)
    return ProtocolModel(algorithm="2R1W", t=t,
                         launches=(launch1, launch2, launch3))


def _wavefront_tile_ops(I: int, J: int) -> tuple[Op, ...]:
    """One 1R1W wavefront tile: read the frontier, write all four results."""
    ops: list[Op] = [Read(("a", I, J), "x")]
    gl = _guarded_read(ops, ("grs", I, J - 1), "gl", J > 0)
    ga = _guarded_read(ops, ("gcs", I - 1, J), "ga", I > 0)
    gc = _guarded_read(ops, ("gs", I - 1, J - 1), "gc", I > 0 and J > 0)
    rect: Expr = ("+", ("+", ("+", gc, gl), ga), "x")
    ops.append(Out(("grs", I, J), ("+", gl, "x")))
    ops.append(Out(("gcs", I, J), ("+", ga, "x")))
    ops.append(Out(("gs", I, J), rect))
    ops.append(Out(("b", I, J), rect))
    return tuple(ops)


def _wavefront_spec(I: int, J: int, t: int) -> dict[Loc, int]:
    return {("grs", I, J): row_mass(I, 0, J, t),
            ("gcs", I, J): col_mass(0, I, J, t),
            ("gs", I, J): rect_mass(I, J, t),
            ("b", I, J): rect_mass(I, J, t)}


def _wavefront_launch(name: str, tiles: Iterable[tuple[int, int]], t: int,
                      cumulative: dict[Loc, int]) -> LaunchModel:
    programs, spec = [], {}
    for I, J in tiles:
        programs.append(Program(label=f"tile({I},{J})",
                                ops=_wavefront_tile_ops(I, J)))
        spec.update(_wavefront_spec(I, J, t))
    launch = LaunchModel(name=name, dispatch="static",
                         programs=tuple(programs),
                         initial=dict(cumulative), out_spec=spec)
    cumulative.update(spec)
    return launch


def _build_kasagi(t: int) -> ProtocolModel:
    from repro.primitives.tile import TileGrid
    from repro.sat.kasagi_1r1w import wavefront_kernel
    extract_kernel(wavefront_kernel)
    grid = TileGrid(n=32 * t, W=32)
    cumulative = {("a", i, j): unit(i, j, t)
                  for i in range(t) for j in range(t)}
    launches = tuple(
        _wavefront_launch(f"wavefront K={K}", grid.tiles_on_diagonal(K), t,
                          cumulative)
        for K in range(grid.num_diagonals))
    return ProtocolModel(algorithm="1R1W", t=t, launches=launches)


def _band_row_range(band: str, I: int, t: int, Ka: int,
                    Kc: int) -> range:
    """Tile columns the band-A/C chain kernels cover in row ``I`` (mirrors
    ``band_global_sums_kernel``; validated end-to-end by the refinement
    check against the mass spec)."""
    if band == "A":
        return range(0, min(t, Ka - I))
    return range(max(0, Kc - I + 1), t)


def _band_launches(band: str, tiles: list[tuple[int, int]], t: int, Ka: int,
                   Kc: int, cumulative: dict[Loc, int]) -> list[LaunchModel]:
    """The local-sums / chain-sums / gsat launch triple over one band."""
    if not tiles:
        return []
    launches = []
    local_programs, local_spec = [], {}
    for I, J in tiles:
        ops = (Read(("a", I, J), "x"),
               Out(("lrs", I, J), "x"), Out(("lcs", I, J), "x"),
               Out(("ls", I, J), "x"))
        local_programs.append(Program(label=f"local({I},{J})", ops=ops))
        for buf in ("lrs", "lcs", "ls"):
            local_spec[(buf, I, J)] = unit(I, J, t)
    launches.append(LaunchModel(
        name=f"band-{band} local", dispatch="static",
        programs=tuple(local_programs), initial=dict(cumulative),
        out_spec=local_spec))
    cumulative.update(local_spec)

    spec: dict[Loc, int] = {}
    grs_ops: list[Op] = []
    for I in range(t):
        cols = _band_row_range(band, I, t, Ka, Kc)
        if not cols:
            continue
        acc: Expr = 0
        if cols.start:
            grs_ops.append(Read(("grs", I, cols.start - 1), f"gr{I}"))
            acc = f"gr{I}"
        for J in cols:
            reg = f"r{I}_{J}"
            grs_ops.append(Read(("lrs", I, J), reg))
            acc = reg if acc == 0 else ("+", acc, reg)
            grs_ops.append(Out(("grs", I, J), acc))
            spec[("grs", I, J)] = row_mass(I, 0, J, t)
    gcs_ops: list[Op] = []
    for J in range(t):
        rows = _band_row_range(band, J, t, Ka, Kc)
        if not rows:
            continue
        acc = 0
        if rows.start:
            gcs_ops.append(Read(("gcs", rows.start - 1, J), f"gc{J}"))
            acc = f"gc{J}"
        for I in rows:
            reg = f"c{I}_{J}"
            gcs_ops.append(Read(("lcs", I, J), reg))
            acc = reg if acc == 0 else ("+", acc, reg)
            gcs_ops.append(Out(("gcs", I, J), acc))
            spec[("gcs", I, J)] = col_mass(0, I, J, t)
    gs_ops: list[Op] = []
    in_band: dict[tuple[int, int], str] = {}
    for I in range(t):
        for J in _band_row_range(band, I, t, Ka, Kc):
            def term(i: int, j: int, reg: str) -> Expr:
                if i < 0 or j < 0:
                    return 0
                if (i, j) in in_band:
                    return in_band[(i, j)]
                gs_ops.append(Read(("gs", i, j), reg))
                return reg
            up = term(I - 1, J, f"u{I}_{J}")
            left = term(I, J - 1, f"l{I}_{J}")
            corner = term(I - 1, J - 1, f"k{I}_{J}")
            gs_ops.append(Read(("ls", I, J), f"s{I}_{J}"))
            # Four-corner recurrence: GS = up + left - corner + LS.
            expr: Expr = ("+", ("-", ("+", up, left), corner), f"s{I}_{J}")
            reg = f"g{I}_{J}"
            gs_ops.append(Out(("gs", I, J), expr, reg=reg))
            in_band[(I, J)] = reg
            spec[("gs", I, J)] = rect_mass(I, J, t)
    launches.append(LaunchModel(
        name=f"band-{band} chains", dispatch="static",
        programs=(Program("row chains", tuple(grs_ops)),
                  Program("column chains", tuple(gcs_ops)),
                  Program("GS block", tuple(gs_ops))),
        initial=dict(cumulative), out_spec=spec))
    cumulative.update(spec)

    gsat_programs, gsat_spec = [], {}
    for I, J in tiles:
        gsat_programs.append(Program(label=f"gsat({I},{J})",
                                     ops=_gsat_tile_ops(I, J)))
        gsat_spec[("b", I, J)] = rect_mass(I, J, t)
    launches.append(LaunchModel(
        name=f"band-{band} gsat", dispatch="static",
        programs=tuple(gsat_programs), initial=dict(cumulative),
        out_spec=gsat_spec))
    cumulative.update(gsat_spec)
    return launches


def _build_hybrid(t: int, r: float = 0.25) -> ProtocolModel:
    from repro.primitives.tile import TileGrid
    from repro.sat.hybrid_1r1w import (band_gsat_kernel,
                                       band_global_sums_kernel,
                                       band_limits, band_local_sums_kernel,
                                       band_tiles)
    extract_kernel(band_local_sums_kernel)
    extract_kernel(band_global_sums_kernel)
    extract_kernel(band_gsat_kernel)
    grid = TileGrid(n=32 * t, W=32)
    Ka, Kc = band_limits(r, t)
    a_tiles, b_tiles, c_tiles = band_tiles(grid, Ka, Kc)
    cumulative = {("a", i, j): unit(i, j, t)
                  for i in range(t) for j in range(t)}
    launches = _band_launches("A", a_tiles, t, Ka, Kc, cumulative)
    for K in range(Ka, min(Kc, grid.num_diagonals - 1) + 1):
        launches.append(_wavefront_launch(
            f"wavefront K={K}", grid.tiles_on_diagonal(K), t, cumulative))
    launches.extend(_band_launches("C", c_tiles, t, Ka, Kc, cumulative))
    return ProtocolModel(algorithm="(1+r)R1W", t=t, launches=tuple(launches))


def build_model(algorithm: str, t: int = 2, *, acquisition: str = "diagonal",
                r: float = 0.25) -> ProtocolModel:
    """Build the protocol model of one algorithm over a ``t x t`` tile grid.

    The final launch's output spec always covers the complete SAT; the
    builder asserts the bottom-right cell's spec is the full input mass.
    """
    if t < 1 or t > 6:
        raise ConfigurationError(f"model grid size t={t} out of range 1..6")
    from repro.sat.registry import get_algorithm
    name = get_algorithm(algorithm, tile_width=32).name
    builders: dict[str, Callable[[], ProtocolModel]] = {
        "2R2W": lambda: _build_naive(t),
        "2R2W-optimal": lambda: _build_optimal(t),
        "2R1W": lambda: _build_nehab(t),
        "1R1W": lambda: _build_kasagi(t),
        "(1+r)R1W": lambda: _build_hybrid(t, r),
        "1R1W-SKSS": lambda: _build_skss(t),
        "1R1W-SKSS-LB": lambda: _build_skss_lb(t, acquisition),
    }
    model = builders[name]()
    full = rect_mass(t - 1, t - 1, t)
    final = model.launches[-1].out_spec.get(("b", t - 1, t - 1))
    if final != full:
        raise ExtractionError(
            f"{name}: final output spec {final!r} is not the full input "
            f"mass {full}; the builder's launch sequence is incomplete")
    return model
