"""Protocol extraction: kernel ASTs -> finite protocol models.

The dynamic sanitizer (:mod:`repro.analysis.sanitizer`) observes the
schedules a run happens to explore; the model checker
(:mod:`repro.analysis.modelcheck`) needs the *complete* behaviour instead.
This module builds that bridge: it statically extracts each kernel's
synchronization skeleton — publish/fence/wait edges, look-back walks, ticket
acquisition — from the kernel's AST and replays it, over the host side's
real geometry functions, into a finite :class:`ProtocolModel` that the
checker can exhaust.

The split of trust is deliberate and narrow:

* the **op sequence** is *extracted*: :func:`extract_kernel` reads each
  kernel's publishes, waits, walks, loads, stores and ticket from its sites
  through the :mod:`~repro.analysis.kernelir` drift gate (every one pinned
  by its exact-source ``KERNEL_HINTS`` key, the tilecommon walkers' walks by
  their ``walk=`` entries; drift between source and table raises
  :class:`~repro.errors.ExtractionError`), and one interpreter replays those
  events once per cell a program visits — load -> :class:`Read`, wait ->
  :class:`Wait`, walk -> :class:`Walk`, publish -> :class:`Publish`, store
  -> :class:`Out` — dispatching by ticket exactly when the kernel takes an
  ``atomicAdd`` ticket;
* each launch's **table** declares only what the events leave open: the
  cells each program visits (from the host functions the kernels call at
  run time: ``acquisition_tile``, ``serial_to_tile``,
  ``RowScanLayout``/``ColScanLayout``, ``band_limits``/``band_tiles``,
  ``tiles_on_diagonal``) and which buffers each chain program runs; the
  neighbour (left, up or corner) each load, wait or walk indexes; kernel to
  model buffer names and status domains; and one Table II mass rule per
  store or publish.  A rule that needs a value the kernel has not loaded,
  walked or written by then, or a store or publish without a rule, raises
  :class:`~repro.errors.ExtractionError`; the tile walkers' extracted
  ``status_index`` lambdas are re-evaluated against each walk's steps;
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
import re
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

    Returns ``indexer(t, I, J, step) -> flat status index`` so the
    interpreter can verify its step geometry against the kernel's own index
    arithmetic.
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
# Launch tables and the event interpreter
# ---------------------------------------------------------------------------

Cell = tuple[int, int]

#: The cell offset ``(di, dj)`` each neighbour name steps back by.
_OFFSETS = {"self": (0, 0), "left": (0, 1), "up": (1, 0), "corner": (1, 1)}

#: One mass-rule term: optional sign, buffer, optional ``@neighbour``.
_TERM = re.compile(r"([+-]?)\s*(\w+)(?:@(\w+))?")

#: The mass each output buffer holds at ``(i, j)``.
_OUT_SPECS: dict[str, Callable[[int, int, int], int]] = {
    "b": rect_mass, "gs": rect_mass,
    "grs": lambda i, j, t: row_mass(i, 0, j, t),
    "gcs": lambda i, j, t: col_mass(0, i, j, t),
    "lrs": unit, "lcs": unit, "ls": unit,
}

#: Where a tile's look-back values live, and GSAT from them (Table II).
_TILE_AT = {"grs": "left", "gcs": "up", "gs": "corner"}
_GSAT = "gs@corner + grs@left + gcs@up + a"


@dataclass(frozen=True)
class _LaunchTable:
    """What one launch's kernel events leave open.

    * ``programs`` — per program: its label, the cells it visits in order,
      and the kernel buffers whose events it runs (``None``: all);
    * ``at`` — the neighbour each load or wait of a kernel buffer indexes
      (``self`` when absent; a tuple is consumed in event order within a
      cell), and each walk, keyed by the global buffer it computes;
    * ``names`` — kernel -> model buffer names (identity when absent), and
      ``transposed`` the model buffers cell ``(i, j)`` indexes at ``(j, i)``;
    * ``rules`` — per stored or published kernel buffer, its mass rule:
      ``buf@neighbour`` terms joined by ``+``/``-``;
    * ``domains`` — the legal values of each status buffer;
    * ``spec`` — output specs overriding :data:`_OUT_SPECS`.
    """
    name: str
    kernel: Callable
    programs: tuple[tuple[str, tuple[Cell, ...], frozenset[str] | None], ...]
    rules: Mapping[str, str]
    at: Mapping[str, str | tuple[str, ...]] = field(default_factory=dict)
    names: Mapping[str, str] = field(default_factory=dict)
    transposed: frozenset[str] = frozenset()
    domains: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    spec: Mapping[str, Callable[[int, int, int], int]] = field(
        default_factory=dict)


def _hop(cell: Cell, neighbour: str, k: int = 1) -> Cell | None:
    """The cell ``k`` steps towards ``neighbour``; ``None`` past the top or
    left edge, where the kernel's zero guard applies."""
    di, dj = _OFFSETS[neighbour]
    i, j = cell[0] - k * di, cell[1] - k * dj
    return (i, j) if i >= 0 and j >= 0 else None


def _check_walk_geometry(walker: str, steps: tuple[WalkStep, ...],
                         step_args: tuple[int, ...], t: int, I: int,
                         J: int) -> None:
    """Re-evaluate the walker's extracted ``status_index`` lambda against the
    model's step list; any disagreement means the geometry drifted."""
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


def _interpret(table: _LaunchTable, t: int,
               initial: Mapping[Loc, int]) -> LaunchModel:
    """Replay the kernel's events once per cell each program visits.

    load -> :class:`Read` (or, for a slot the program already wrote, the
    value it wrote), wait -> :class:`Wait`, walk -> :class:`Walk`, publish
    -> :class:`Publish`, store -> :class:`Out`; ops follow cell order, then
    event order.
    """
    proto = extract_kernel(table.kernel)
    specs = {**_OUT_SPECS, **table.spec}
    out_spec: dict[Loc, int] = {}

    def loc(buf: str, cell: Cell) -> Loc:
        name = table.names.get(buf, buf)
        i, j = cell[::-1] if name in table.transposed else cell
        return (name, i, j)

    def mass(kind: str, buf: str, cell: Cell, bound: Mapping[Loc, Expr]
             ) -> Expr:
        """The stored value by the buffer's rule, from ``bound`` slots."""
        rule = table.rules.get(buf)
        if rule is None:
            raise ExtractionError(
                f"{proto.kernel}: `{kind} {buf}` has no mass rule in launch "
                f"{table.name}")
        expr: Expr = 0
        for sign, term, neighbour in _TERM.findall(rule):
            near = _hop(cell, neighbour or "self")
            if near is None:
                continue
            src = loc(term, near)
            if src not in bound:
                raise ExtractionError(
                    f"{proto.kernel}: the mass rule of `{kind} {buf}` at cell "
                    f"{cell} needs {describe_loc(src)}, which the kernel has "
                    f"not loaded, walked or written by then")
            expr = (sign or "+", expr, bound[src])
        return expr

    programs = []
    for label, cells, runs in table.programs:
        ops: list[Op] = []
        bound: dict[Loc, Expr] = {}  # slot -> the value this program holds
        wrote: set[Loc] = set()
        for cell in cells:
            nth: dict[str, int] = {}
            for kind, *args in proto.events:
                buf = args[0] if args else ""
                # A bare fence has nothing to drain: stores become Outs,
                # committed at once, and Publish carries its own fence.
                if kind == "fence" or (runs is not None and buf not in runs):
                    continue
                if kind in ("publish", "store"):
                    dst = loc(buf, cell)
                    bound[dst] = mass(kind, buf, cell, bound)
                    wrote.add(dst)
                    if kind == "publish":
                        ops.append(Publish(((dst, bound[dst]),),
                                           loc(args[1], cell), args[2]))
                    else:
                        ops.append(Out(dst, bound[dst]))
                        out_spec[dst] = specs[dst[0]](dst[1], dst[2], t)
                    continue
                # A walk is keyed by the global buffer whose value it yields.
                at = table.at.get(args[4] if kind == "walk" else buf, "self")
                if not isinstance(at, str):
                    nth[buf] = nth.get(buf, -1) + 1
                    at = at[nth[buf]]
                if kind == "walk":
                    status, lo, hi, local, glob, walker = args
                    hops = [c for k in range(1, t + 1)
                            if (c := _hop(cell, at, k)) is not None]
                    if not hops:
                        continue  # the kernel's zero guard
                    steps = tuple(WalkStep(loc(status, c), lo, hi,
                                           loc(local, c), loc(glob, c))
                                  for c in hops)
                    if walker:
                        # Its status_index takes the coordinate that moves,
                        # or the step count on a diagonal.
                        _check_walk_geometry(
                            walker, steps,
                            tuple(k + 1 if at == "corner" else
                                  c[0] if at == "up" else c[1]
                                  for k, c in enumerate(hops)), t, *cell)
                    reg = bound[loc(glob, hops[0])] = f"r{len(ops)}"
                    ops.append(Walk(steps, reg))
                    continue
                near = _hop(cell, at)
                if near is None:
                    continue  # the kernel's zero guard
                src = loc(buf, near)
                if kind == "wait":
                    ops.append(Wait(src, args[1]))
                elif src not in wrote:
                    reg = bound[src] = f"r{len(ops)}"
                    ops.append(Read(src, reg))
        programs.append(Program(label=label, ops=tuple(ops)))
    return LaunchModel(
        name=table.name, dispatch="ticket" if proto.ticket else "static",
        programs=tuple(programs), initial=dict(initial), out_spec=out_spec,
        status_domains=dict(table.domains))


# ---------------------------------------------------------------------------
# Per-algorithm launch tables
# ---------------------------------------------------------------------------

def _tiles(prefix: str, cells: Iterable[Cell]) -> tuple:
    """One program per cell, labelled ``prefix(i,j)``."""
    return tuple((f"{prefix}({i},{j})", ((i, j),), None) for i, j in cells)


def _columns(t: int) -> tuple:
    """One program per column, walking it top to bottom."""
    return tuple((f"column {j}", tuple((i, j) for i in range(t)), None)
                 for j in range(t))


def _wavefront(K: int, tiles: Iterable[Cell]) -> _LaunchTable:
    """One 1R1W anti-diagonal launch."""
    from repro.sat.kasagi_1r1w import wavefront_kernel
    return _LaunchTable(
        f"wavefront K={K}", wavefront_kernel, _tiles("tile", tiles),
        at=_TILE_AT, rules={"grs": "grs@left + a", "gcs": "gcs@up + a",
                            "gs": _GSAT, "b": _GSAT})


def _two_pass(names: tuple[str, str, str], tiles: list[Cell],
              kernels: tuple[Callable, Callable, Callable]
              ) -> list[_LaunchTable]:
    """2R1W's local-sums, chain-sums and GSAT launches over ``tiles``."""
    if not tiles:
        return []
    local, chains, gsat = kernels
    rows = tuple(sorted(tiles))
    cols = tuple(sorted(tiles, key=lambda cell: cell[::-1]))
    return [
        _LaunchTable(names[0], local, _tiles("local", tiles),
                     rules={"lrs": "a", "lcs": "a", "ls": "a"}),
        _LaunchTable(
            names[1], chains,
            (("row chains", rows, frozenset({"lrs", "grs"})),
             ("column chains", cols, frozenset({"lcs", "gcs"})),
             ("GS block", rows, frozenset({"ls", "gs"}))),
            at={"grs": "left", "gcs": "up", "gs": ("up", "left", "corner")},
            rules={"grs": "grs@left + lrs", "gcs": "gcs@up + lcs",
                   "gs": "gs@up + gs@left - gs@corner + ls"}),
        _LaunchTable(names[2], gsat, _tiles("gsat", tiles), at=_TILE_AT,
                     rules={"b": _GSAT}),
    ]


def _naive_tables(t: int) -> list[_LaunchTable]:
    from repro.sat.naive_2r2w import column_scan_kernel, row_scan_kernel
    rows = tuple((f"row {i}", tuple((i, j) for j in range(t)), None)
                 for i in range(t))
    return [
        _LaunchTable("column_scan", column_scan_kernel, _columns(t),
                     names={"src": "a", "dst": "b"},
                     rules={"dst": "dst@up + src"},
                     spec={"b": _OUT_SPECS["gcs"]}),
        _LaunchTable("row_scan", row_scan_kernel, rows, names={"buf": "b"},
                     rules={"buf": "buf@left + buf"}),
    ]


def _optimal_tables(t: int) -> list[_LaunchTable]:
    """Decoupled look-back column then row scan; a cell is a scan's
    ``(line, step)``, so the column scan indexes ``a``/``b`` transposed."""
    from repro.primitives.colscan import ColScanLayout, col_scan_kernel
    from repro.primitives.scan1d import (STATUS_AGGREGATE, STATUS_PREFIX,
                                         RowScanLayout, row_scan_kernel)
    rules = {"aggregates": "src", "prefixes": "prefixes@left + aggregates",
             "dst": "prefixes"}

    def scan(name: str, kernel: Callable, layout, src: str,
             **extra) -> _LaunchTable:
        return _LaunchTable(
            name, kernel, _tiles(name, map(layout.serial_to_tile,
                                           range(t * t))),
            at={"prefixes": "left"}, rules=rules,
            names={"src": src, "dst": "b", "status": f"{name}.status",
                   "aggregates": f"{name}.agg", "prefixes": f"{name}.pref"},
            domains={f"{name}.status": (0, STATUS_AGGREGATE, STATUS_PREFIX)},
            **extra)

    return [
        scan("colscan", col_scan_kernel,
             ColScanLayout(rows=t, cols=t, panel_rows=1, strip_width=1), "a",
             transposed=frozenset({"a", "b"}),
             spec={"b": _OUT_SPECS["gcs"]}),
        scan("rowscan", row_scan_kernel,
             RowScanLayout(rows=t, n=t, partition_size=1), "b"),
    ]


def _nehab_tables(t: int) -> list[_LaunchTable]:
    from repro.sat.nehab_2r1w import (global_sums_kernel, gsat_kernel,
                                      local_sums_kernel)
    return _two_pass(("local_sums", "global_sums", "gsat"),
                     [(i, j) for i in range(t) for j in range(t)],
                     (local_sums_kernel, global_sums_kernel, gsat_kernel))


def _kasagi_tables(t: int) -> list[_LaunchTable]:
    from repro.primitives.tile import TileGrid
    grid = TileGrid(n=32 * t, W=32)
    return [_wavefront(K, grid.tiles_on_diagonal(K))
            for K in range(grid.num_diagonals)]


def _hybrid_tables(t: int, r: float) -> list[_LaunchTable]:
    from repro.primitives.tile import TileGrid
    from repro.sat.hybrid_1r1w import (band_gsat_kernel,
                                       band_global_sums_kernel,
                                       band_limits, band_local_sums_kernel,
                                       band_tiles)
    grid = TileGrid(n=32 * t, W=32)
    Ka, Kc = band_limits(r, t)
    a_tiles, _, c_tiles = band_tiles(grid, Ka, Kc)
    kernels = (band_local_sums_kernel, band_global_sums_kernel,
               band_gsat_kernel)

    def band(name: str, tiles: list[Cell]) -> list[_LaunchTable]:
        return _two_pass((f"band-{name} local", f"band-{name} chains",
                          f"band-{name} gsat"), tiles, kernels)

    return (band("A", a_tiles)
            + [_wavefront(K, grid.tiles_on_diagonal(K))
               for K in range(Ka, min(Kc, grid.num_diagonals - 1) + 1)]
            + band("C", c_tiles))


def _skss_tables(t: int) -> list[_LaunchTable]:
    from repro.sat.skss import GRS_READY, skss_kernel
    return [_LaunchTable(
        "skss", skss_kernel, _columns(t), at={"R": "left", "grs": "left"},
        rules={"grs": "grs@left + a", "b": "b@up + grs"},
        domains={"R": (0, GRS_READY)})]


def _skss_lb_tables(t: int, acquisition: str) -> list[_LaunchTable]:
    from repro.sat import tilecommon as tc
    from repro.sat.skss_lb import acquisition_tile, skss_lb_kernel
    return [_LaunchTable(
        f"skss_lb[{acquisition}]", skss_lb_kernel,
        _tiles("tile", (acquisition_tile(serial, t, acquisition, t)
                        for serial in range(t * t))),
        at=_TILE_AT,
        rules={"lrs": "a", "lcs": "a", "grs": "grs@left + lrs",
               "gcs": "gcs@up + lcs", "gls": "grs@left + gcs@up + a",
               "gs": "gs@corner + gls", "b": "gs"},
        domains={"R": (0, tc.R_LRS, tc.R_GRS, tc.R_GLS, tc.R_GS),
                 "C": (0, tc.C_LCS, tc.C_GCS)})]


def build_model(algorithm: str, t: int = 2, *, acquisition: str = "diagonal",
                r: float = 0.25) -> ProtocolModel:
    """Build the protocol model of one algorithm over a ``t x t`` tile grid.

    ``acquisition`` (the tile order of 1R1W-SKSS-LB's tickets) must stay
    ``diagonal`` for every other algorithm; ``r`` sizes the (1+r)R1W bands.
    The final launch's output spec always covers the complete SAT: the
    bottom-right cell's spec must be the full input mass.
    """
    if t < 1 or t > 6:
        raise ConfigurationError(f"model grid size t={t} out of range 1..6")
    from repro.sat.registry import get_algorithm
    name = get_algorithm(algorithm, tile_width=32).name
    if acquisition != "diagonal" and name != "1R1W-SKSS-LB":
        raise ConfigurationError(
            f"{name} acquires no tiles; acquisition={acquisition!r} applies "
            f"to 1R1W-SKSS-LB only")
    tables: dict[str, Callable[[], list[_LaunchTable]]] = {
        "2R2W": lambda: _naive_tables(t),
        "2R2W-optimal": lambda: _optimal_tables(t),
        "2R1W": lambda: _nehab_tables(t),
        "1R1W": lambda: _kasagi_tables(t),
        "(1+r)R1W": lambda: _hybrid_tables(t, r),
        "1R1W-SKSS": lambda: _skss_tables(t),
        "1R1W-SKSS-LB": lambda: _skss_lb_tables(t, acquisition),
    }
    cumulative = {("a", i, j): unit(i, j, t)
                  for i in range(t) for j in range(t)}
    launches = []
    for table in tables[name]():
        launches.append(_interpret(table, t, cumulative))
        cumulative = {**cumulative, **launches[-1].out_spec}
    full = rect_mass(t - 1, t - 1, t)
    final = launches[-1].out_spec.get(("b", t - 1, t - 1))
    if final != full:
        raise ExtractionError(
            f"{name}: final output spec {final!r} is not the full input "
            f"mass {full}; the launch tables are incomplete")
    return ProtocolModel(algorithm=name, t=t, launches=tuple(launches))
