"""Static kernel lint: AST checks for look-back protocol discipline.

The dynamic sanitizer (:mod:`repro.analysis.sanitizer`) catches protocol bugs
on the schedules a test run happens to explore; this module catches the same
*classes* of bug at the source level, before any simulation runs.  It parses
kernel modules (``src/repro/primitives`` and ``src/repro/sat`` by default) and
checks, per function and in source order:

``KL001`` *fence-before-flag* — a store to a status buffer while earlier data
    stores in the same function have not been fenced.  This is the static twin
    of the sanitizer's ``missing-fence`` rule: on hardware the unfenced data
    may land after the flag.
``KL002`` *atomic-only counters* — a ticket counter accessed with a plain
    ``gload``/``gstore`` instead of ``atomic_add``.  Plain accesses race on
    the very variable whose atomicity the dispatch-order argument rests on.
``KL003`` *publish-only status stores* — a direct ``gstore`` to a status
    buffer anywhere outside :mod:`repro.primitives.lookback`.  All flag
    raises must go through :func:`~repro.primitives.lookback.publish`, which
    owns the fence and the strict-monotonicity assertion.
``KL004`` *yielded spin-waits* — a ``ctx.wait_until(...)`` call not wrapped
    in ``yield from``.  ``wait_until`` is a generator; calling it without
    delegation never polls and silently skips the synchronization.
``KL005`` *bounded spin loops* — a hand-rolled ``while`` loop that polls a
    status buffer directly instead of going through ``ctx.wait_until``.
    Hand-rolled spins bypass the simulator's configurable spin bound
    (:class:`~repro.errors.DeadlockSuspectedError`) and its scheduler-level
    deadlock detection, so an unsound protocol hangs instead of failing
    loudly.  Ticket-acquisition loops (``while True`` around ``atomic_add``)
    are not spins and are exempt.

Buffer and call roles come from :mod:`repro.analysis.kernelir`, the AST
helpers every static checker shares: an identifier (or attribute)
containing ``status`` — or the scratch attributes ``.R``/``.C`` — is a
status buffer; one containing ``counter`` is a ticket counter; a method's
role (load, store, publish, wait, ...) is its kernelir cost role.  A call
to ``publish``/``publish_vector``/``publish_scalar`` resets the
unfenced-store count (the helper fences internally).  The AST predicates
of KL006 (:func:`spin_store_calls`, :func:`redundant_fence_calls`) and
KL007 (:func:`roundtrip_update_stmts`) live here and are the ones
:mod:`repro.analysis.costcheck` and :mod:`repro.analysis.numcheck` run, so
the lint and the verifiers can never disagree on a shape.

The checks are heuristic in the way all lints are: they approximate program
order by evaluation order (a call's arguments before the call) within one
function.  They are tuned to be exactly clean on this repository's kernels
and to catch each seeded bug in the corpus at
:mod:`repro.analysis.bugcorpus`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.kernelir import (COST_ROLES, calls_postorder, expr_name,
                                     is_counter_name, is_status_name,
                                     method_name)

#: Rule identifiers and their one-line descriptions.
RULES = {
    "KL001": "status flag stored while data stores are unfenced "
             "(missing __threadfence before publish)",
    "KL002": "ticket counter accessed non-atomically "
             "(use ctx.atomic_add)",
    "KL003": "plain global store to a status buffer "
             "(use lookback.publish, which fences and checks monotonicity)",
    "KL004": "ctx.wait_until(...) not wrapped in 'yield from' "
             "(the spin-wait generator is never driven)",
    "KL005": "hand-rolled spin loop polling a status buffer "
             "(use ctx.wait_until, which honors the spin bound and "
             "deadlock detection)",
    "KL006": "redundant global-memory traffic: a store re-issued inside a "
             "spin loop, or a __threadfence with no store since the "
             "previous fence",
    "KL007": "cancellation-prone read-modify-write update "
             "('x += y - x' / 'x = x + (y - x)'): the subtraction against "
             "the accumulator re-rounds it and drops low bits — assign "
             "the new value directly",
}

#: Module basenames allowed to store status bytes directly (the publish
#: helper itself lives here and owns the fence).
_PUBLISH_MODULES = ("lookback.py",)

_STORES = ("store", "scalar_store")
_LOADS = ("load", "scalar_load")


@dataclass(frozen=True)
class LintFinding:
    """One static lint diagnostic."""

    rule: str
    path: str
    line: int
    function: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} in '{self.function}': " \
               f"{self.message}"


def _role(call: ast.Call) -> str:
    return COST_ROLES.get(method_name(call), "")


def _is_status_buffer(node: ast.AST) -> bool:
    return is_status_name(expr_name(node))


def _is_counter_buffer(node: ast.AST) -> bool:
    return is_counter_name(expr_name(node))


def lint_source(source: str, path: str = "<string>") -> list[LintFinding]:
    """Lint one module's source text; returns all findings in line order."""
    tree = ast.parse(source, filename=path)
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    basename = Path(path).name
    may_store_status = basename in _PUBLISH_MODULES
    findings: list[LintFinding] = []

    funcs = [n for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for func in funcs:
        unfenced = 0  # data stores since the last fence, in program order
        for call in calls_postorder(func):
            role = _role(call)
            args = call.args
            if role in ("fence", "publish"):
                unfenced = 0  # publish fences before raising the flag
            elif role in _STORES and args:
                buf = args[0]
                if _is_counter_buffer(buf):
                    findings.append(LintFinding(
                        "KL002", path, call.lineno, func.name,
                        f"plain store to counter "
                        f"'{expr_name(buf)}' — {RULES['KL002']}"))
                elif _is_status_buffer(buf):
                    if not may_store_status:
                        findings.append(LintFinding(
                            "KL003", path, call.lineno, func.name,
                            f"direct store to status buffer "
                            f"'{expr_name(buf)}' — {RULES['KL003']}"))
                    if unfenced:
                        findings.append(LintFinding(
                            "KL001", path, call.lineno, func.name,
                            f"{unfenced} data store(s) unfenced when the "
                            f"status flag is raised — {RULES['KL001']}"))
                else:
                    unfenced += 1
            elif role in _LOADS and args and _is_counter_buffer(args[0]):
                findings.append(LintFinding(
                    "KL002", path, call.lineno, func.name,
                    f"plain load of counter '{expr_name(args[0])}' — "
                    f"{RULES['KL002']}"))
            elif role == "wait":
                if not isinstance(parents.get(call), ast.YieldFrom):
                    findings.append(LintFinding(
                        "KL004", path, call.lineno, func.name,
                        RULES["KL004"]))
        findings.extend(_check_spin_loops(func, path))
        findings.extend(_check_redundant_traffic(func, path))
        findings.extend(_check_roundtrip_updates(func, path))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _unbounded_loops(func: ast.AST):
    """``while`` loops that neither drive ``wait_until`` (the bounded
    primitive) nor acquire tickets via ``atomic_add`` (a dispatch loop, not
    a spin), each with its calls."""
    for loop in ast.walk(func):
        if isinstance(loop, ast.While):
            calls = calls_postorder(loop)
            if not {_role(c) for c in calls} & {"wait", "atomic"}:
                yield loop, calls


def _check_spin_loops(func: ast.AST, path: str) -> list[LintFinding]:
    """KL005: unbounded ``while`` loops that poll a status buffer."""
    return [LintFinding("KL005", path, loop.lineno, func.name,
                        RULES["KL005"])
            for loop, calls in _unbounded_loops(func)
            if any(_role(c) in _LOADS and c.args
                   and _is_status_buffer(c.args[0]) for c in calls)]


def spin_store_calls(func: ast.AST) -> list[ast.Call]:
    """Global stores issued inside hand-rolled spin loops.

    A spin loop is a ``while`` that polls global memory (``gload``/
    ``gload_scalar``) without the sanctioned primitives (``wait_until``,
    ticket ``atomic_add``).  A store inside one is re-issued every
    iteration: unbounded redundant write traffic.  Shared with
    :func:`repro.analysis.costcheck.find_cost_bugs` so lint rule KL006 and
    the cost verifier can never disagree on the shape.
    """
    stores = []
    for _, calls in _unbounded_loops(func):
        if any(_role(c) in _LOADS for c in calls):
            stores += [c for c in calls if _role(c) in _STORES]
    return stores


def redundant_fence_calls(func: ast.AST) -> list[ast.Call]:
    """``threadfence`` calls with no global store since the previous fence.

    Back-to-back fences commit nothing new — pure latency.  ``publish``
    counts as a store (its flag store follows its internal fence), so a
    fence after a publish is *not* flagged.  Shared with
    :func:`repro.analysis.costcheck.find_cost_bugs`.
    """
    findings = []
    stores_since_fence: int | None = None
    for call in calls_postorder(func):
        role = _role(call)
        if role == "fence":
            if stores_since_fence == 0:
                findings.append(call)
            stores_since_fence = 0
        elif role in _STORES + ("tile_store", "publish", "atomic"):
            if stores_since_fence is not None:
                stores_since_fence += 1
    return findings


def _check_redundant_traffic(func: ast.AST, path: str) -> list[LintFinding]:
    """KL006: traffic a correct kernel never needs to issue.

    Two shapes, both also caught quantitatively by
    :mod:`repro.analysis.costcheck`: a global store inside a hand-rolled
    spin loop (:func:`spin_store_calls`) — re-issued on *every* poll
    iteration, so its traffic is schedule-unbounded — and a ``threadfence``
    with no global store since the previous fence
    (:func:`redundant_fence_calls`).
    """
    name = getattr(func, "name", "<lambda>")
    return [LintFinding("KL006", path, call.lineno, name,
                        f"global store re-issued on every iteration of a "
                        f"spin loop — {RULES['KL006']}")
            for call in spin_store_calls(func)] + \
        [LintFinding("KL006", path, call.lineno, name,
                     f"no global store since the previous fence — "
                     f"{RULES['KL006']}")
         for call in redundant_fence_calls(func)]


def roundtrip_update_stmts(func: ast.AST) -> list[ast.stmt]:
    """Statements of the ``x += y - x`` / ``x = x + (y - x)`` shape.

    The PR 4 regression class: updating an accumulator through a
    subtraction against itself re-rounds the accumulator and silently
    drops low bits under cancellation.  Kahan compensation
    (``comp = (t - total) - y``) does *not* match: its outer operation is
    a subtraction and its target never appears on the right-hand side.
    Shared with :func:`repro.analysis.numcheck.find_numeric_bugs` so the
    lint (KL007) and the numeric verifier can never disagree on the shape.
    """
    out: list[ast.stmt] = []
    for stmt in ast.walk(func):
        if isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Add):
            value = stmt.value
            if isinstance(value, ast.BinOp) \
                    and isinstance(value.op, ast.Sub) \
                    and ast.unparse(value.right) == ast.unparse(stmt.target):
                out.append(stmt)
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = ast.unparse(stmt.targets[0])
            value = stmt.value
            if not (isinstance(value, ast.BinOp)
                    and isinstance(value.op, ast.Add)):
                continue
            for own, rest in ((value.left, value.right),
                              (value.right, value.left)):
                if ast.unparse(own) == target \
                        and isinstance(rest, ast.BinOp) \
                        and isinstance(rest.op, ast.Sub) \
                        and ast.unparse(rest.right) == target:
                    out.append(stmt)
                    break
    return out


def _check_roundtrip_updates(func: ast.AST, path: str) -> list[LintFinding]:
    """KL007: cancellation-prone read-modify-write accumulator updates."""
    name = getattr(func, "name", "<lambda>")
    return [LintFinding("KL007", path, stmt.lineno, name,
                        f"update `{ast.unparse(stmt)}` — {RULES['KL007']}")
            for stmt in roundtrip_update_stmts(func)]


def lint_file(path: str | Path) -> list[LintFinding]:
    path = Path(path)
    return lint_source(path.read_text(), str(path))


def default_targets() -> list[Path]:
    """Every kernel-bearing source location.

    The ``primitives`` and ``sat`` trees hold the algorithm kernels;
    ``hostexec/kernels.py`` holds the incremental engine's repair kernels and
    ``gpusim/kernel.py`` documents the kernel authoring idiom — both were
    historically missed by the lint sweep.  ``hostexec/incremental.py``
    reconstructs accumulator state from edits, exactly the code KL007's
    cancellation-prone update pattern bites hardest.
    """
    import repro
    pkg = Path(repro.__file__).parent
    return [pkg / "primitives", pkg / "sat",
            pkg / "hostexec" / "kernels.py",
            pkg / "hostexec" / "incremental.py",
            pkg / "gpusim" / "kernel.py"]


def lint_paths(paths: Iterable[str | Path] | None = None) -> list[LintFinding]:
    """Lint files and/or directory trees (defaults to :func:`default_targets`)."""
    targets: Sequence[str | Path] = list(paths) if paths else default_targets()
    findings: list[LintFinding] = []
    for target in targets:
        target = Path(target)
        files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        for f in files:
            findings.extend(lint_file(f))
    return findings
