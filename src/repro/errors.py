"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError`, so callers
can catch a single base class.  Simulator-specific failures (deadlock, invalid
memory access, resource exhaustion) get their own subclasses because tests and
benchmarks assert on them individually.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A run configuration is inconsistent (e.g. W not a multiple of the warp size)."""


class SimulationError(ReproError):
    """Base class for errors raised by the GPU simulator."""


class DeadlockError(SimulationError):
    """All resident blocks are spin-waiting and no global-memory progress is possible.

    This is the failure mode single-kernel soft synchronization must avoid: if a
    block spins on a flag owned by a block that the dispatcher has not yet made
    resident, the kernel hangs on real hardware.  The simulator detects the
    condition and raises instead of looping forever.
    """

    def __init__(self, message: str, *, resident_blocks: tuple[int, ...] = (),
                 pending_blocks: int = 0) -> None:
        super().__init__(message)
        self.resident_blocks = resident_blocks
        self.pending_blocks = pending_blocks


class DeadlockSuspectedError(SimulationError):
    """A single ``wait_until`` spin-wait exceeded its configured iteration
    bound (``GPU(spin_bound=...)``).

    Unlike :class:`DeadlockError` — the scheduler's global "nobody can make
    progress" verdict — this is a *local* tripwire: one block polled one flag
    more times than any plausibly-live protocol should need.  Harnesses that
    replay suspected-hung protocols (the model checker's counterexamples, the
    sanitize-mode fuzzer) set a bound so hangs fail fast with the offending
    buffer and index instead of spinning until the global detector fires.
    """

    def __init__(self, message: str, *, block_id: int = -1,
                 buffer_name: str = "", flat_index: int = -1,
                 spins: int = 0) -> None:
        super().__init__(message)
        self.block_id = block_id
        self.buffer_name = buffer_name
        self.flat_index = flat_index
        self.spins = spins


class InvalidAccessError(SimulationError):
    """An out-of-bounds or wrongly-typed global/shared memory access."""


class AllocationError(SimulationError):
    """Global or shared memory allocation exceeded device capacity."""


class KernelLaunchError(SimulationError):
    """A kernel launch request violated device limits (threads per block, etc.)."""


class RaceConditionError(SimulationError):
    """The simulator's debug checker observed a data hazard (e.g. a non-monotone
    status flag or a read of a location with an uncommitted remote store)."""


class ProtocolError(SimulationError):
    """A publish/look-back protocol invariant was violated in-kernel (e.g. a
    status flag was written with a value that does not strictly increase the
    committed flag — statuses must be monotone for pollers to be sound)."""


class ExtractionError(ReproError):
    """The kernel drift gate refused a kernel: its sites and its module's
    ``KERNEL_HINTS`` entry disagree — a missing, stale or out-of-order
    entry, an unknown field, a walk without step bounds, an error site
    without ``depth``, a ``walk=`` that does not match its walker, a plain
    status-flag store or a repeated site — or its AST cannot be read (see
    :mod:`repro.analysis.kernelir`).  Carries ``file:line`` in the message
    when one exists."""


class CostModelError(ReproError):
    """Static cost verification failed: a kernel's derived global-memory
    traffic cannot be interpreted (an unaligned coalesced width, an unknown
    pattern, a store with no overflow bound), disagrees with Table I, or
    disagrees with the dynamic counters it is cross-validated against (see
    :mod:`repro.analysis.costcheck`).  Carries the offending source location
    in the message when one exists."""


class NumericModelError(ReproError):
    """Static numerical-accuracy verification failed: a tolerance was
    requested for an algorithm/dtype the error model cannot cover — the
    proven rounding depth saturates the dtype, so no finite relative bound
    exists (see :mod:`repro.analysis.numcheck`)."""


class ModelCheckError(ReproError):
    """The explicit-state explorer could not complete (e.g. the state budget
    was exhausted before the frontier emptied; see
    :mod:`repro.analysis.modelcheck`)."""


class DistributedError(ReproError):
    """Base class for runtime failures of the sharded out-of-core executor
    (:mod:`repro.distsat`).  Configuration mistakes still raise
    :class:`ConfigurationError`; these subclasses cover things that go wrong
    *during* a distributed run — worker crashes, corrupted carries, an
    aborted coordinator."""


class ShardFailedError(DistributedError):
    """One shard exhausted its retry budget: every attempt was lost to a
    worker death or a rejected (corrupt) result."""

    def __init__(self, message: str, *, shard: int = -1,
                 attempts: int = 0) -> None:
        super().__init__(message)
        self.shard = shard
        self.attempts = attempts


class CarryChecksumError(DistributedError):
    """A carry vector — persisted in the checkpoint directory or carried in
    a protocol message — failed its checksum.  Raised when corruption is
    detected somewhere it cannot be retried (a damaged checkpoint file);
    in-flight corruption is retried and only surfaces as
    :class:`ShardFailedError` once the budget is gone."""


class CoordinatorAborted(DistributedError):
    """The fault plan stopped the coordinator mid-run (a simulated crash).

    Everything committed so far is already persisted in the checkpoint
    directory, so a new coordinator pointed at the same directory resumes
    from the last persisted carry instead of starting over — the property
    the crash-recovery suite pins."""

    def __init__(self, message: str, *, committed_shards: int = 0) -> None:
        super().__init__(message)
        self.committed_shards = committed_shards
