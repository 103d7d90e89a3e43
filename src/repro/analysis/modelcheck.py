"""Exhaustive model checking of the extracted SAT protocols.

Explores **every** block interleaving of a :class:`~repro.analysis.protomodel.
ProtocolModel` on a small tile grid with an explicit-state BFS, proving (not
sampling) four properties per launch and residency pool:

* **deadlock freedom** — no reachable state where every resident worker is
  blocked on a ``wait``/look-back probe and no store can still commit;
* **status monotonicity & domains** — every flag write strictly increases the
  flag and stays inside the buffer's declared value domain;
* **look-back termination** — walks are finite by construction, so this
  reduces to deadlock freedom of their per-step spins;
* **refinement** — every output cell equals the sequential SAT of the
  symbolic input masses, every spec'd cell is written exactly once, and
  every cross-launch read finds a committed value (launch-barrier
  sufficiency).

Exploration assumes exactly the dispatcher contract the simulator publishes
(:class:`repro.gpusim.DispatchModel`): blocks dispatched in launch order,
bounded residency, slots refilled eagerly.  Two reductions keep the state
space finite and small without losing behaviours:

* **worker symmetry** — resident workers are interchangeable (their identity
  is the program they run, which is part of their state), so states are
  stored with the worker tuple sorted;
* **partial-order reduction** — operations whose timing other workers cannot
  observe (reads of committed single-writer slots, satisfied waits over
  monotone flags, output writes, store-buffer appends, empty fences,
  walk probes whose outcome is already final) are folded deterministically
  into their predecessor edge.  ``por=False`` disables this folding and
  explores them as first-class transitions — the verdict must not change,
  which the test suite cross-checks.

Counterexamples are shortest traces (BFS with parent pointers) and carry a
replay configuration in the fuzzer's ``FuzzConfig`` JSON format, so every
statically found violation can be reproduced dynamically with
``repro fuzz --replay '<json>'`` under the concurrency sanitizer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from repro.analysis.protomodel import (CounterRead, CounterStore, Fence,
                                       LaunchModel, Loc, Out, ProtocolModel,
                                       Publish, RaiseFlag, Read, Store, Wait,
                                       Walk, build_corpus_model, build_model,
                                       describe_loc, eval_expr)
from repro.errors import ConfigurationError, ModelCheckError

#: Default state budget per (launch, pool) exploration.
DEFAULT_MAX_STATES = 500_000

#: Residency pools swept per launch (capped at the program count).
MAX_POOL = 4

#: Violation kinds the checker can report, in severity order.
VIOLATION_KINDS = (
    "deadlock", "stale-read", "duplicate-ticket", "status-regression",
    "status-domain", "double-write", "wrong-value", "conflicting-write",
    "missing-output",
)


class _Worker(NamedTuple):
    """One resident block: program position plus private execution state."""
    prog: int
    pc: int
    phase: int        # next look-back step when parked on a Walk op
    acc: int          # walk accumulator
    env: tuple        # sorted ((register, value), ...)
    pending: tuple    # FIFO store buffer: ((loc, value), ...)


class _Violation(Exception):
    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind
        self.message = message


class _Mem:
    """Mutable memory under exploration (frozen into state tuples)."""

    __slots__ = ("slots", "written", "statuses", "counters", "claimed", "outs")

    def __init__(self, initial) -> None:
        self.slots = dict(initial)
        self.written: dict = {}        # slots committed during THIS launch
        self.statuses: dict = {}
        self.counters: dict = {}
        self.claimed: set = set()
        self.outs: dict = {}

    def freeze(self) -> tuple:
        return (tuple(sorted(self.written.items())),
                tuple(sorted(self.statuses.items())),
                tuple(sorted(self.counters.items())),
                tuple(sorted(self.claimed)),
                tuple(sorted(self.outs.items())))

    def commit(self, loc: Loc, value: int) -> None:
        if loc in self.written:
            raise _Violation("double-write",
                             f"{describe_loc(loc)} committed twice")
        self.written[loc] = value
        self.slots[loc] = value

    def raise_flag(self, loc: Loc, value: int,
                   domains) -> None:
        domain = domains.get(loc[0])
        if domain is not None and value not in domain:
            raise _Violation(
                "status-domain",
                f"{describe_loc(loc)} <- {value} outside domain {domain}")
        old = self.statuses.get(loc, 0)
        if value <= old:
            raise _Violation(
                "status-regression",
                f"{describe_loc(loc)} <- {value} does not increase {old}")
        self.statuses[loc] = value


@dataclass
class Violation:
    """One property violation with its shortest counterexample trace."""

    kind: str
    message: str
    trace: tuple[str, ...]
    replay: dict | None = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message,
                "trace": list(self.trace), "replay": self.replay}


@dataclass
class PoolCheck:
    """Exploration result of one launch at one residency pool."""

    pool: int
    states: int
    transitions: int
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"pool": self.pool, "ok": self.ok, "states": self.states,
                "transitions": self.transitions,
                "violations": [v.to_dict() for v in sorted(
                    self.violations,
                    key=lambda v: VIOLATION_KINDS.index(v.kind))]}


@dataclass
class LaunchCheck:
    """All pool sweeps of one launch."""

    name: str
    dispatch: str
    programs: int
    pools: list[PoolCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.pools)

    def to_dict(self) -> dict:
        return {"launch": self.name, "dispatch": self.dispatch,
                "programs": self.programs, "ok": self.ok,
                "pools": [p.to_dict() for p in self.pools]}


@dataclass
class CheckResult:
    """Complete verification result of one algorithm (or corpus kernel)."""

    algorithm: str
    t: int
    acquisition: str
    por: bool
    launches: list[LaunchCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(launch.ok for launch in self.launches)

    @property
    def states(self) -> int:
        return sum(p.states for launch in self.launches
                   for p in launch.pools)

    @property
    def transitions(self) -> int:
        return sum(p.transitions for launch in self.launches
                   for p in launch.pools)

    def violations(self) -> list[Violation]:
        return [v for launch in self.launches for p in launch.pools
                for v in p.violations]

    def to_dict(self) -> dict:
        return {"algorithm": self.algorithm, "t": self.t,
                "acquisition": self.acquisition, "por": self.por,
                "ok": self.ok, "states": self.states,
                "transitions": self.transitions,
                "launches": [launch.to_dict() for launch in self.launches]}

    def report(self) -> str:
        verdict = "VERIFIED" if self.ok else "VIOLATIONS FOUND"
        lines = [f"modelcheck {self.algorithm} t={self.t} "
                 f"(acquisition={self.acquisition}, por={self.por}): "
                 f"{verdict} — {self.states} states, "
                 f"{self.transitions} transitions"]
        for launch in self.launches:
            pools = ", ".join(
                f"pool {p.pool}: "
                + ("ok" if p.ok else "/".join(v.kind for v in p.violations))
                + f" ({p.states} states)"
                for p in launch.pools)
            lines.append(f"  {launch.name} [{launch.dispatch}, "
                         f"{launch.programs} programs] {pools}")
        for v in self.violations():
            lines.append(f"  counterexample [{v.kind}] {v.message}")
            for step in v.trace:
                lines.append(f"    {step}")
            if v.replay:
                lines.append(f"    replay: repro fuzz --replay "
                             f"'{_replay_json(v.replay)}'")
        return "\n".join(lines)


def _replay_json(replay: dict) -> str:
    import json
    return json.dumps(replay, sort_keys=True)


# ---------------------------------------------------------------------------
# The explorer
# ---------------------------------------------------------------------------

class _LaunchExplorer:
    def __init__(self, launch: LaunchModel, pool: int, *, por: bool,
                 max_states: int) -> None:
        self.launch = launch
        self.pool = pool
        self.por = por
        self.max_states = max_states

    # -- operation semantics ------------------------------------------------

    def _read_value(self, worker: _Worker, mem: _Mem, loc: Loc) -> int:
        for ploc, value in reversed(worker.pending):
            if ploc == loc:
                return value  # store-buffer forwarding
        if loc in mem.slots:
            return mem.slots[loc]
        raise _Violation(
            "stale-read",
            f"read of {describe_loc(loc)} observes no committed value")

    def _can_read(self, worker: _Worker, mem: _Mem, loc: Loc) -> bool:
        return loc in mem.slots or any(p == loc for p, _ in worker.pending)

    def _enabled(self, worker: _Worker, mem: _Mem) -> bool:
        op = self.launch.programs[worker.prog].ops[worker.pc]
        if isinstance(op, Wait):
            return mem.statuses.get(op.status, 0) >= op.threshold
        if isinstance(op, Walk) and worker.phase < len(op.steps):
            step = op.steps[worker.phase]
            return mem.statuses.get(step.status, 0) >= step.local_threshold
        return True

    def _is_eager(self, worker: _Worker, mem: _Mem) -> bool:
        """True when the op's timing is unobservable by other workers (or its
        outcome can no longer change), so it can be folded deterministically.

        Publish/RaiseFlag/Fence-with-pending/Counter ops are always visible.
        Reads are eager only for already-committed values — sound because the
        double-write check guarantees committed slots are final.  Waits are
        eager once satisfied — sound because flags are checked monotone.
        Walk probes are eager only once the observed flag has reached the
        global threshold (terminal branch; monotone flags cannot back out).
        """
        op = self.launch.programs[worker.prog].ops[worker.pc]
        if isinstance(op, (Store, Out)):
            return True
        if isinstance(op, Fence):
            return not worker.pending
        if isinstance(op, Wait):
            return self._enabled(worker, mem)
        if isinstance(op, Read):
            return self._can_read(worker, mem, op.loc)
        if isinstance(op, Walk):
            if worker.phase >= len(op.steps):
                return True  # completion is a pure register write
            step = op.steps[worker.phase]
            return (mem.statuses.get(step.status, 0) >= step.global_threshold
                    and step.global_loc in mem.slots)
        return False

    def _apply(self, worker: _Worker, mem: _Mem) -> tuple[_Worker, str]:
        """Execute the worker's current op against ``mem``."""
        program = self.launch.programs[worker.prog]
        op = program.ops[worker.pc]
        env = dict(worker.env)
        label = f"{program.label}: "
        pending = worker.pending
        phase, acc = 0, 0

        if isinstance(op, Store):
            pending = pending + ((op.loc, eval_expr(op.expr, env)),)
            label += f"store {describe_loc(op.loc)} (buffered)"
        elif isinstance(op, Fence):
            for loc, value in pending:
                mem.commit(loc, value)
            label += f"fence ({len(pending)} stores committed)"
            pending = ()
        elif isinstance(op, Publish):
            for loc, value in pending:
                mem.commit(loc, value)
            pending = ()
            for loc, expr in op.stores:
                mem.commit(loc, eval_expr(expr, env))
            mem.raise_flag(op.status, op.value, self.launch.status_domains)
            locs = ",".join(describe_loc(loc) for loc, _ in op.stores)
            label += f"publish {locs} -> {describe_loc(op.status)}={op.value}"
        elif isinstance(op, RaiseFlag):
            mem.raise_flag(op.status, op.value, self.launch.status_domains)
            label += (f"raise {describe_loc(op.status)}={op.value} "
                      f"({len(pending)} stores still buffered)")
        elif isinstance(op, Wait):
            label += f"wait {describe_loc(op.status)}>={op.threshold}"
        elif isinstance(op, Read):
            env[op.reg] = self._read_value(worker, mem, op.loc)
            label += f"read {describe_loc(op.loc)}"
        elif isinstance(op, Walk):
            if worker.phase < len(op.steps):
                step = op.steps[worker.phase]
                status = mem.statuses.get(step.status, 0)
                if status >= step.global_threshold:
                    value = self._read_value(worker, mem, step.global_loc)
                    env[op.reg] = worker.acc + value
                    label += (f"look-back {describe_loc(step.status)}={status}"
                              f": global {describe_loc(step.global_loc)},"
                              f" walk done")
                else:
                    value = self._read_value(worker, mem, step.local_loc)
                    label += (f"look-back {describe_loc(step.status)}={status}"
                              f": local {describe_loc(step.local_loc)}")
                    return worker._replace(
                        phase=worker.phase + 1, acc=worker.acc + value,
                        env=tuple(sorted(env.items()))), label
            else:
                env[op.reg] = worker.acc
                label += "look-back exhausted all predecessors"
        elif isinstance(op, Out):
            value = eval_expr(op.expr, env)
            want = self.launch.out_spec.get(op.loc)
            if want is not None and value != want:
                raise _Violation(
                    "wrong-value",
                    f"{describe_loc(op.loc)} <- {value}, spec requires {want}"
                    f" (refinement of the sequential SAT fails)")
            if op.loc in mem.outs and mem.outs[op.loc] != value:
                raise _Violation(
                    "conflicting-write",
                    f"{describe_loc(op.loc)} rewritten with a different "
                    f"value ({mem.outs[op.loc]} then {value})")
            mem.outs[op.loc] = value
            if op.reg is not None:
                env[op.reg] = value
            label += f"out {describe_loc(op.loc)}"
        elif isinstance(op, CounterRead):
            value = mem.counters.get(op.counter, 0)
            if value in mem.claimed:
                raise _Violation(
                    "duplicate-ticket",
                    f"ticket {value} acquired twice from '{op.counter}' "
                    f"(non-atomic read-modify-write)")
            mem.claimed.add(value)
            env[op.reg] = value
            label += f"ticket read -> {value}"
        elif isinstance(op, CounterStore):
            mem.counters[op.counter] = eval_expr(op.expr, env)
            label += f"ticket store {mem.counters[op.counter]}"
        else:  # pragma: no cover - op set is closed
            raise ModelCheckError(f"unknown op {op!r}")
        return worker._replace(pc=worker.pc + 1, phase=phase, acc=acc,
                               env=tuple(sorted(env.items())),
                               pending=pending), label

    def _drain(self, worker: _Worker, mem: _Mem) -> tuple[_Worker, str]:
        (loc, value), rest = worker.pending[0], worker.pending[1:]
        mem.commit(loc, value)
        program = self.launch.programs[worker.prog]
        return worker._replace(pending=rest), \
            f"{program.label}: store buffer drains {describe_loc(loc)}"

    # -- normalization ------------------------------------------------------

    def _normalize(self, workers: list[_Worker], nxt: int,
                   mem: _Mem) -> tuple[tuple, int, list[str]]:
        """Retire finished workers, dispatch eagerly, fold eager ops."""
        folded: list[str] = []
        changed = True
        while changed:
            changed = False
            kept = []
            for worker in workers:
                ops = self.launch.programs[worker.prog].ops
                if worker.pc >= len(ops) and not worker.pending:
                    changed = True  # retired: frees a residency slot
                else:
                    kept.append(worker)
            workers = kept
            while len(workers) < self.pool and nxt < len(self.launch.programs):
                workers.append(_Worker(nxt, 0, 0, 0, (), ()))
                folded.append(
                    f"dispatch {self.launch.programs[nxt].label}")
                nxt += 1
                changed = True
            if not self.por:
                continue
            for i, worker in enumerate(workers):
                if worker.pc >= len(self.launch.programs[worker.prog].ops):
                    continue
                if self._is_eager(worker, mem):
                    workers[i], label = self._apply(worker, mem)
                    folded.append(label)
                    changed = True
                    break
        return tuple(sorted(workers)), nxt, folded

    # -- exploration --------------------------------------------------------

    def run(self) -> PoolCheck:
        result = PoolCheck(pool=self.pool, states=0, transitions=0)
        seen_kinds: set[str] = set()
        parents: dict = {}

        def record(kind: str, message: str, state, labels: Iterable[str]):
            if kind in seen_kinds:
                return
            seen_kinds.add(kind)
            trace: list[str] = list(labels)
            while state is not None:
                state, label = parents[state]
                if label:
                    trace[:0] = label
            result.violations.append(
                Violation(kind=kind, message=message, trace=tuple(trace)))

        def freeze(workers, nxt, mem):
            return (workers, nxt, mem.freeze())

        mem = _Mem(self.launch.initial)
        try:
            workers, nxt, folded = self._normalize([], 0, mem)
        except _Violation as exc:
            record(exc.kind, exc.message, None, [])
            return result
        init = freeze(workers, nxt, mem)
        parents[init] = (None, folded)
        queue = deque([init])
        explored = set()

        while queue:
            state = queue.popleft()
            if state in explored:
                continue
            explored.add(state)
            result.states += 1
            if result.states > self.max_states:
                raise ModelCheckError(
                    f"launch '{self.launch.name}' pool={self.pool}: state "
                    f"budget {self.max_states} exceeded — raise --max-states "
                    f"or shrink t")
            workers, nxt, mem_frozen = state
            if not workers:
                for loc in sorted(self.launch.out_spec):
                    outs = dict(mem_frozen[4])
                    if loc not in outs:
                        record("missing-output",
                               f"terminated without writing "
                               f"{describe_loc(loc)}", state, [])
                continue

            moves = []
            seen_workers: set = set()
            mem0 = self._thaw(mem_frozen)
            for i, worker in enumerate(workers):
                if worker in seen_workers:
                    continue  # symmetric: identical worker, same successors
                seen_workers.add(worker)
                in_program = \
                    worker.pc < len(self.launch.programs[worker.prog].ops)
                if in_program and self._enabled(worker, mem0):
                    moves.append(("op", i))
                if worker.pending:
                    moves.append(("drain", i))
            if not moves:
                blocked = "; ".join(self._describe_block(w) for w in workers)
                record("deadlock",
                       f"{len(workers)} worker(s) blocked forever: {blocked}",
                       state, [])
                continue

            for kind, i in moves:
                mem = self._thaw(mem_frozen)
                mutable = list(workers)
                labels: list[str] = []
                try:
                    if kind == "op":
                        mutable[i], label = self._apply(mutable[i], mem)
                    else:
                        mutable[i], label = self._drain(mutable[i], mem)
                    labels.append(label)
                    new_workers, new_nxt, folded = \
                        self._normalize(mutable, nxt, mem)
                    labels.extend(folded)
                except _Violation as exc:
                    record(exc.kind, exc.message, state, labels)
                    continue
                result.transitions += 1
                successor = freeze(new_workers, new_nxt, mem)
                if successor not in parents:
                    parents[successor] = (state, labels)
                    queue.append(successor)
        return result

    def _thaw(self, mem_frozen) -> _Mem:
        written, statuses, counters, claimed, outs = mem_frozen
        mem = _Mem(self.launch.initial)
        mem.written = dict(written)
        mem.slots.update(mem.written)
        mem.statuses = dict(statuses)
        mem.counters = dict(counters)
        mem.claimed = set(claimed)
        mem.outs = dict(outs)
        return mem

    def _describe_block(self, worker: _Worker) -> str:
        program = self.launch.programs[worker.prog]
        if worker.pc >= len(program.ops):
            return f"{program.label} draining"
        op = program.ops[worker.pc]
        if isinstance(op, Wait):
            return (f"{program.label} waiting on "
                    f"{describe_loc(op.status)}>={op.threshold}")
        if isinstance(op, Walk):
            step = op.steps[worker.phase]
            return (f"{program.label} spinning in look-back on "
                    f"{describe_loc(step.status)}>={step.local_threshold}")
        return f"{program.label} at op {worker.pc}"


# ---------------------------------------------------------------------------
# Driver API
# ---------------------------------------------------------------------------

def _assert_dispatch_assumptions() -> None:
    """Refuse to verify against a dispatcher the simulator does not implement."""
    from repro.gpusim import DispatchModel
    model = DispatchModel()
    for name in ("in_order", "bounded_residency", "eager",
                 "intra_residency_free"):
        if not getattr(model, name):
            raise ModelCheckError(
                f"the simulator's DispatchModel no longer guarantees "
                f"'{name}'; the model checker's dispatch normalization "
                f"is built on it and must be revisited")


def check_launch(launch: LaunchModel, pool: int, *, por: bool = True,
                 max_states: int = DEFAULT_MAX_STATES) -> PoolCheck:
    """Exhaustively explore one launch at one residency pool."""
    explorer = _LaunchExplorer(launch, pool, por=por, max_states=max_states)
    return explorer.run()


def _pool_range(launch: LaunchModel,
                pools: tuple[int, ...] | None) -> tuple[int, ...]:
    """The sweep by default; requested pools above the program count clamp
    to it (full residency)."""
    if not pools:
        cap = max(1, min(MAX_POOL, len(launch.programs)))
        return tuple(range(1, cap + 1))
    return tuple(dict.fromkeys(min(p, len(launch.programs)) for p in pools))


def check_model(model: ProtocolModel, *, pools: tuple[int, ...] | None = None,
                por: bool = True,
                max_states: int = DEFAULT_MAX_STATES) -> CheckResult:
    """Check every launch of a model over the residency pool sweep.

    Each launch is explored independently (the launch boundary is a full
    barrier; its memory contract is the cumulative spec of earlier launches,
    and barrier sufficiency is itself checked — a cross-launch read of a cell
    no earlier launch was specified to write is a ``stale-read``).
    """
    if pools and min(pools) < 1:
        raise ConfigurationError(
            f"residency pools must be >= 1, got {list(pools)}")
    if max_states < 1:
        raise ConfigurationError(
            f"state budget must be >= 1, got {max_states}")
    _assert_dispatch_assumptions()
    result = CheckResult(algorithm=model.algorithm, t=model.t,
                         acquisition="-", por=por)
    for launch in model.launches:
        launch_check = LaunchCheck(name=launch.name, dispatch=launch.dispatch,
                                   programs=len(launch.programs))
        for pool in _pool_range(launch, pools):
            launch_check.pools.append(
                check_launch(launch, pool, por=por, max_states=max_states))
        result.launches.append(launch_check)
    return result


def _algorithm_replay(algorithm: str, t: int, acquisition: str,
                      pool: int) -> dict:
    """A ``FuzzConfig``-format replay of one violation: same algorithm, same
    residency, under the dynamic sanitizer with a bounded spin budget."""
    return {
        "algorithm": algorithm, "n": 32 * t, "tile_width": 32,
        "policy": "round_robin", "sim_seed": 0, "data_seed": 0,
        "residency": pool, "consistency": "relaxed", "tiny_device": False,
        "mode": "sanitize", "acquisition": acquisition, "spin_bound": 20000,
    }


def _corpus_replay(kernel: str, seed: int = 0) -> dict:
    return {
        "algorithm": "corpus", "kernel": kernel, "n": 32, "tile_width": 32,
        "policy": "random", "sim_seed": seed, "data_seed": 0,
        "residency": 2, "consistency": "relaxed", "tiny_device": True,
        "mode": "sanitize", "spin_bound": 20000,
    }


def _attach_replays(result: CheckResult, make_replay) -> CheckResult:
    for launch_check in result.launches:
        for pool_check in launch_check.pools:
            for violation in pool_check.violations:
                violation.replay = make_replay(pool_check.pool)
    return result


def check_algorithm(algorithm: str, t: int = 2, *,
                    acquisition: str = "diagonal", r: float = 0.25,
                    por: bool = True, pools: tuple[int, ...] | None = None,
                    max_states: int = DEFAULT_MAX_STATES) -> CheckResult:
    """Extract, build and exhaustively check one SAT algorithm."""
    model = build_model(algorithm, t, acquisition=acquisition, r=r)
    result = check_model(model, pools=pools, por=por, max_states=max_states)
    result.algorithm = model.algorithm
    result.acquisition = acquisition
    return _attach_replays(result, lambda pool: _algorithm_replay(
        model.algorithm, t, acquisition, pool))


def check_corpus(name: str, *, por: bool = True,
                 max_states: int = DEFAULT_MAX_STATES) -> CheckResult:
    """Check one bug-corpus kernel; violations replay the corpus entry."""
    model = build_corpus_model(name)
    result = check_model(model, por=por, max_states=max_states)
    return _attach_replays(result, lambda pool: _corpus_replay(name))


def check(target: str, t: int = 2, **kwargs) -> CheckResult:
    """Check an algorithm by name, or a bug-corpus kernel by its entry name."""
    from repro.analysis.bugcorpus import CONTROL, CORPUS
    corpus_names = {spec.name for spec in CORPUS + (CONTROL,)}
    if target in corpus_names:
        kwargs.pop("acquisition", None)
        kwargs.pop("r", None)
        kwargs.pop("pools", None)
        return check_corpus(target, **kwargs)
    return check_algorithm(target, t, **kwargs)
