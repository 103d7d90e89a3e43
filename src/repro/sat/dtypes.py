"""Dtype policies: how an input element type maps to an accumulator type.

The paper evaluates 32-bit elements; the integral-image workloads it
motivates (box filters, Haar cascades, NCC) run on uint8/uint16 images; and
both Zhang et al. (*Parallel Prefix Sum with SIMD*) and Liu & Aluru
(*LightScan*) treat the element width as a first-class tuning axis.  This
module makes the choice explicit: a :class:`DTypePolicy` maps the *input*
dtype of a matrix to the *accumulator* dtype its SAT is computed and returned
in.

Three named policies cover the useful points of the space:

``exact`` (the default)
    Integers (and bool) widen to ``int64`` — every SAT entry is computed in
    exact integer arithmetic, with no float rounding.  ``uint64`` stays
    ``uint64`` (wrap-around semantics; ``int64`` would truncate the domain).
    ``float16`` widens to ``float32``; ``float32``/``float64`` accumulate in
    their own precision.

``widen-float``
    Like ``exact``, but every float accumulates in ``float64`` — for
    workloads where ``float32`` row sums lose too many low bits.

``float64`` (the pre-policy legacy behavior)
    Everything is converted to ``float64``, reproducing the original
    behavior of this code base (exact for integer inputs whose SAT stays
    below 2**53).

:func:`resolve_policy` also accepts a dtype-like (``np.int32``, ``"f4"``,
...) and builds a fixed-accumulator policy from it, so call sites can say
``dtype_policy=np.float64`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError


def _check_numeric(dtype: np.dtype) -> np.dtype:
    if not (np.issubdtype(dtype, np.integer)
            or np.issubdtype(dtype, np.floating)
            or np.issubdtype(dtype, np.bool_)):
        raise ConfigurationError(
            f"SAT input dtype {dtype} is not a real numeric type")
    return dtype


def _exact_rule(dtype: np.dtype) -> np.dtype:
    if np.issubdtype(dtype, np.bool_):
        return np.dtype(np.int64)
    if dtype == np.dtype(np.uint64):
        return np.dtype(np.uint64)
    if np.issubdtype(dtype, np.integer):
        return np.dtype(np.int64)
    if dtype == np.dtype(np.float16):
        return np.dtype(np.float32)
    if dtype == np.dtype(np.float32):
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def _widen_float_rule(dtype: np.dtype) -> np.dtype:
    acc = _exact_rule(dtype)
    if np.issubdtype(acc, np.floating):
        return np.dtype(np.float64)
    return acc


@dataclass(frozen=True)
class DTypePolicy:
    """A named mapping from input dtype to accumulator dtype."""

    name: str
    rule: Callable[[np.dtype], np.dtype]

    def accumulator(self, input_dtype) -> np.dtype:
        """The accumulator dtype SATs of ``input_dtype`` matrices use."""
        return self.rule(_check_numeric(np.dtype(input_dtype)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DTypePolicy {self.name}>"


#: Integer-exact accumulation (the default policy).
EXACT = DTypePolicy("exact", _exact_rule)
#: Integer-exact, but all floats accumulate in float64.
WIDEN_FLOAT = DTypePolicy("widen-float", _widen_float_rule)
#: The legacy behavior: everything converted to float64.
LEGACY_FLOAT64 = DTypePolicy("float64", lambda dtype: np.dtype(np.float64))

POLICIES: dict[str, DTypePolicy] = {
    EXACT.name: EXACT,
    WIDEN_FLOAT.name: WIDEN_FLOAT,
    LEGACY_FLOAT64.name: LEGACY_FLOAT64,
}


def fixed_policy(dtype) -> DTypePolicy:
    """A policy that accumulates in one fixed dtype regardless of the input
    (not ``bool``: its sums are ORs, which no rectangle query can invert)."""
    acc = _check_numeric(np.dtype(dtype))
    if acc == np.bool_:
        raise ConfigurationError("a bool accumulator cannot hold a SAT: its "
                                 "sums are logical ORs; use an integer dtype")
    return DTypePolicy(f"fixed:{acc.name}", lambda _d, _acc=acc: _acc)


def resolve_policy(policy=None) -> DTypePolicy:
    """Map a ``dtype_policy=`` argument to a :class:`DTypePolicy`.

    Accepts ``None`` (→ :data:`EXACT`), a policy instance, a policy name
    (``"exact"``, ``"widen-float"``, ``"float64"``), or a dtype-like
    (→ :func:`fixed_policy`, whose refusal of ``bool`` passes through).
    """
    if policy is None:
        return EXACT
    if isinstance(policy, DTypePolicy):
        return policy
    if isinstance(policy, str) and policy in POLICIES:
        return POLICIES[policy]
    try:
        acc = _check_numeric(np.dtype(policy))
    except (TypeError, ConfigurationError):
        raise ConfigurationError(
            f"unknown dtype policy {policy!r}; expected one of "
            f"{sorted(POLICIES)}, a DTypePolicy, or a NumPy dtype") from None
    return fixed_policy(acc)


def accumulator_dtype(input_dtype, policy=None) -> np.dtype:
    """Convenience: the accumulator dtype for ``input_dtype`` under ``policy``."""
    return resolve_policy(policy).accumulator(input_dtype)
