"""In-memory join primitives and result verification.

Every tertiary join method decomposes the join into mini-joins of key
arrays that fit in memory.  The primitives here compute, for each
mini-join, the number of matching pairs and an order-independent checksum
over the matched pairs; partial results add up, so two methods computed the
same join if and only if their accumulated (count, checksum) agree with the
:func:`reference_join` of the inputs.

A mini-join is a build and a probe: :class:`HashBuild` summarizes the
build side once, and :func:`hash_join` probes it with one piece of the
other side.  The methods re-read the same R piece or R bucket once per S
chunk or iteration, so they keep its build and probe every piece against
it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

_MIX = np.uint64(0x9E3779B97F4A7C15)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclasses.dataclass(frozen=True)
class JoinResult:
    """Output cardinality plus an order-independent pair checksum."""

    n_pairs: int
    checksum: int

    def __add__(self, other: "JoinResult") -> "JoinResult":
        return JoinResult(
            self.n_pairs + other.n_pairs,
            (self.checksum + other.checksum) & 0xFFFFFFFFFFFFFFFF,
        )

    @classmethod
    def zero(cls) -> "JoinResult":
        """The identity for accumulation."""
        return cls(0, 0)


class JoinAccumulator:
    """Mutable sum of partial :class:`JoinResult` values."""

    def __init__(self):
        self.n_pairs = 0
        self.checksum = 0
        self.mini_joins = 0

    def add(self, partial: JoinResult) -> None:
        """Fold one mini-join's result into the total."""
        self.n_pairs += partial.n_pairs
        self.checksum = (self.checksum + partial.checksum) & 0xFFFFFFFFFFFFFFFF
        self.mini_joins += 1

    def result(self) -> JoinResult:
        """The accumulated join result."""
        return JoinResult(self.n_pairs, self.checksum)


class HashBuild:
    """The build side of a mini-join, probed by any number of key arrays.

    Holds, per distinct build key ``k`` appearing ``c`` times, the count
    ``c`` and the checksum weight ``c * mix(k)`` (mod 2^64), so a probe
    only gathers and sums: each probe tuple with key ``k`` contributes
    ``c`` pairs and ``c * mix(k)`` to the checksum.

    The input picks the representation.  Keys whose span is at most
    :data:`DENSE_SPAN_FACTOR` times their count go into a direct-address
    table indexed by ``k - lo``; sparser keys keep their sorted distinct
    values, and a probe binary-searches them.
    """

    #: A build is dense when ``max - min + 1 <= DENSE_SPAN_FACTOR * count``.
    DENSE_SPAN_FACTOR = 4

    __slots__ = ("lo", "hi", "distinct", "counts", "weights")

    def __init__(self, keys: np.ndarray):
        keys = np.asarray(keys, dtype=np.int64)
        self.lo, self.hi = (int(keys.min()), int(keys.max())) if len(keys) else (0, -1)
        span = self.hi - self.lo + 1  # a Python int: no int64 overflow
        #: Sorted distinct keys, or None for a dense table over [lo, hi].
        self.distinct = None
        if 0 < span <= self.DENSE_SPAN_FACTOR * len(keys):
            # Every key lies in [lo, hi] and the span is small, so the
            # int64 differences below cannot wrap.
            self.counts = np.bincount(keys - self.lo, minlength=span)
            # Slot i holds key lo + i, as uint64 (mod 2^64, like mix).
            weights = np.arange(span, dtype=np.uint64)
            weights += np.uint64(self.lo % 2**64)
        else:
            self.distinct, self.counts = np.unique(keys, return_counts=True)
            weights = self.distinct.astype(np.uint64)
        # In place, to keep the transient footprint at one table: counts
        # are non-negative, so their uint64 view is exact.
        weights *= _MIX
        weights *= self.counts.view(np.uint64)
        self.weights = weights

    @property
    def dense(self) -> bool:
        """True when the build is a direct-address table."""
        return self.distinct is None

    def probe(self, s_keys: np.ndarray) -> JoinResult:
        """Join the build against ``s_keys``: pair count and checksum."""
        s_keys = np.asarray(s_keys, dtype=np.int64)
        if len(s_keys) == 0 or len(self.counts) == 0:
            return JoinResult.zero()
        if self.distinct is None:
            # A range comparison, not a wrapped ``s - lo``: keys far
            # outside [lo, hi] must never alias into the table.
            inside = (s_keys >= self.lo) & (s_keys <= self.hi)
            slots = s_keys[inside] - self.lo
        else:
            slots = np.searchsorted(self.distinct, s_keys)
            np.minimum(slots, len(self.distinct) - 1, out=slots)
            slots = slots[self.distinct[slots] == s_keys]
        return JoinResult(
            int(self.counts[slots].sum()), int(self.weights[slots].sum(dtype=np.uint64))
        )


def hash_join(build: "HashBuild | np.ndarray", s_keys: np.ndarray) -> JoinResult:
    """One mini-join: equi-join a build side with the probe keys ``s_keys``.

    ``build`` is a :class:`HashBuild` (reused across the pieces it is
    probed with) or a key array, built here for this one probe.  For each
    key ``k`` appearing ``c_r`` times in the build and ``c_s`` times in
    the probe, the join emits ``c_r * c_s`` pairs, each contributing
    ``mix(k)`` to the checksum (mod 2^64).
    """
    if not isinstance(build, HashBuild):
        build = HashBuild(build)
    return build.probe(s_keys)


def nested_loop_join(r_keys: np.ndarray, s_keys: np.ndarray) -> JoinResult:
    """Reference implementation used to validate :func:`hash_join`.

    Semantically the O(|R|·|S|) scan — every R tuple counts its matches in
    S — but computed tuple-at-a-time against a sorted copy of S, so the
    per-tuple probe is two binary searches instead of a full pass.  Unlike
    :func:`hash_join` it never groups by distinct key, which keeps the two
    implementations independent enough to cross-check each other.
    """
    r_keys = np.asarray(r_keys, dtype=np.int64)
    s_keys = np.asarray(s_keys, dtype=np.int64)
    if len(r_keys) == 0 or len(s_keys) == 0:
        return JoinResult.zero()
    s_sorted = np.sort(s_keys)
    lo = np.searchsorted(s_sorted, r_keys, side="left")
    hi = np.searchsorted(s_sorted, r_keys, side="right")
    matches = (hi - lo).astype(np.uint64)
    mixed = (r_keys.astype(np.uint64) * _MIX) & _MASK
    with np.errstate(over="ignore"):
        checksum = int(np.sum(matches * mixed, dtype=np.uint64))
    return JoinResult(int(matches.sum()), checksum)


def reference_join(relation_r, relation_s) -> JoinResult:
    """Ground-truth join of two relations, computed entirely in memory.

    Computed by :func:`nested_loop_join`, never by :func:`hash_join`, so
    a defect in the kernel every join method uses cannot pass its own
    check.
    """
    return nested_loop_join(relation_r.keys, relation_s.keys)
