"""Sorted-int-array extents: the compact data plane's answer sets.

The paper's index nodes carry *extents* — sets of data-node oids.  The
original implementation stored them as ``set[int]``: ~32+ bytes per
member, hash-order iteration (canonical digests needed a sort), and a
full rehash to copy.  :class:`Extent` stores the same values as a
strictly-increasing ``array('i')``:

* ~4 bytes per member, one contiguous allocation;
* iteration order *is* canonical order — digests, tokens, and replay
  traces need no ``sorted()`` pass;
* snapshot pinning is a slice-copy (``memcpy``), and because extents
  are immutable the common case is sharing, which is free;
* membership is a ``bisect`` probe; intersection/union/difference run
  at C speed (hash kernels + sort for balanced operands, a bisect
  gallop when one side is much larger) and always return canonical
  sorted arrays.

Interop with the set-based world is deliberate: binary operators accept
plain ``set``/``frozenset`` operands and *return sets* for mixed
operands (so refinement procedures that accumulate mutable working sets
keep working unchanged), while ``Extent``-``Extent`` operations return
``Extent``.  Everything here is order-preserving and deterministic.

Differential reference mode
---------------------------
The pre-compact implementation defined extent algebra by Python set
semantics.  That reference stays available: under
:func:`differential_checks` every merge helper recomputes its result
through sets and raises :class:`ExtentMismatch` on any divergence.  The
verification campaign (``repro verify``) runs with this armed, so every
compact operation executed during an oracle round is differentially
checked against the set-based path.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from operator import itemgetter

__all__ = [
    "Extent",
    "ExtentMismatch",
    "differential_checks",
    "extent_contains",
    "extent_difference",
    "extent_intersect",
    "extent_union",
    "extent_is_subset",
]

_TYPECODE = "i"

#: When True, every merge helper double-checks its output against the
#: set-based reference semantics (the pre-compact implementation).
_DIFFERENTIAL = False


class ExtentMismatch(AssertionError):
    """A compact extent operation diverged from set-reference semantics."""


@contextmanager
def differential_checks(enabled: bool = True):
    """Context manager arming the set-based reference cross-check."""
    global _DIFFERENTIAL
    previous = _DIFFERENTIAL
    _DIFFERENTIAL = enabled
    try:
        yield
    finally:
        _DIFFERENTIAL = previous


class Extent:
    """An immutable, strictly-increasing array of data-node oids.

    Construct via :meth:`from_iterable` (sorts + dedups) or
    :meth:`from_sorted` (trusts the caller — used on already-canonical
    merge outputs).  Instances are immutable: there are no mutator
    methods and the backing array is never exposed writable, so sharing
    one across snapshots, caches, and index nodes is safe.
    """

    __slots__ = ("_data", "_members")

    def __init__(self, data) -> None:
        # Internal: ``data`` must already be sorted strictly ascending.
        self._data = data
        # Lazily-built frozenset view (see members()); immutability makes
        # caching it safe.
        self._members = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_iterable(cls, values: Iterable[int]) -> "Extent":
        """Canonicalise arbitrary ints into an extent (sort + dedup)."""
        if isinstance(values, Extent):
            return values
        if isinstance(values, (set, frozenset)):
            # Already deduplicated: sorting alone canonicalises, and
            # skipping the extra set() copy matters on the refinement
            # hot path (every split part passes through here).
            return cls(array(_TYPECODE, sorted(values)))
        return cls(array(_TYPECODE, sorted(set(values))))

    @classmethod
    def from_sorted(cls, values) -> "Extent":
        """Wrap an already strictly-ascending sequence without checking."""
        if isinstance(values, array) and values.typecode == _TYPECODE:
            return cls(values)
        return cls(array(_TYPECODE, values))

    @classmethod
    def from_disjoint_runs(cls, runs: Iterable["Extent"],
                           size: int) -> "Extent | None":
        """The union of ``runs``, given the union's ``size`` as witness.

        Extents whose lengths add up to the size of their union are
        pairwise disjoint, so their union is their concatenation put in
        order: a single run is returned itself, runs that do not
        interleave are concatenated by first member, and only runs that
        do are sorted (timsort merges the ascending stretches it finds).
        ``None`` when the lengths add up to anything else — the runs
        overlap, or ``size`` counted a different set.
        """
        runs = [run for run in runs if run]
        if sum(map(len, runs)) != size:
            return None
        if len(runs) == 1:
            return runs[0]
        data = array(_TYPECODE)
        in_order = True
        for part in sorted([run._data for run in runs], key=itemgetter(0)):
            if data and part[0] <= data[-1]:
                in_order = False
            data.extend(part)
        return cls(data if in_order else array(_TYPECODE, sorted(data)))

    def copy(self) -> "Extent":
        """Pin a snapshot of this extent.

        Immutability makes sharing safe, so this is O(1); callers that
        need an independent buffer (e.g. spill-to-disk staging) can use
        ``Extent.from_sorted(extent.tolist())``.
        """
        return self

    def split_by(self, keys: Iterable) -> dict:
        """Group the members by ``keys`` (one per member, in member order).

        Returns ``{key: Extent}`` in order of each key's first member.
        Every group inherits the ascending order of this extent, so no
        group is sorted or deduplicated again; an extent whose members
        all share one key is returned itself, uncopied.
        """
        keys = keys if isinstance(keys, list) else list(keys)
        data = self._data
        if len(keys) != len(data):
            raise ValueError(f"{len(keys)} keys for {len(data)} members")
        if not keys:
            return {}
        if keys.count(keys[0]) == len(keys):
            return {keys[0]: self}
        runs: dict = {}
        for oid, key in zip(data, keys):
            run = runs.get(key)
            if run is None:
                runs[key] = [oid]
            else:
                run.append(oid)
        return {key: Extent(array(_TYPECODE, run))
                for key, run in runs.items()}

    def tolist(self) -> list[int]:
        """The members as a plain ascending ``list[int]``."""
        return self._data.tolist()

    def tobytes(self) -> bytes:
        """The members as little-endian 4-byte words, ascending."""
        if sys.byteorder == "little":
            return self._data.tobytes()
        swapped = array(_TYPECODE, self._data)
        swapped.byteswap()
        return swapped.tobytes()

    def to_set(self) -> set[int]:
        """The members as a plain ``set[int]`` (the reference shape)."""
        cached = self._members
        if cached is not None:
            return set(cached)
        return set(self._data)

    def members(self) -> frozenset:
        """Cached frozenset view, for hash-speed bulk set operations.

        Answer assembly unions many small extents into a working set;
        ``set.update`` from another set runs ~1.7x faster per element
        than from the int array (no per-member boxing).  The view is
        built on first use and shared thereafter — callers must treat it
        as read-only (it is a frozenset precisely so mutation attempts
        fail loudly).  Extents that are never served verbatim pay no
        memory for it.
        """
        cached = self._members
        if cached is None:
            cached = self._members = frozenset(self._data)
        return cached

    # ------------------------------------------------------------------
    # Sequence / container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return len(self._data) > 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [int(v) for v in self._data[index]]
        return int(self._data[index])

    def __contains__(self, oid: object) -> bool:
        if not isinstance(oid, int):
            return False
        data = self._data
        position = bisect_left(data, oid)
        return position < len(data) and data[position] == oid

    def __repr__(self) -> str:
        # Bounded on purpose: reprs run inside debug/trace paths and an
        # extent can hold millions of oids.
        shown = self[:6]
        suffix = ", ..." if len(self) > 6 else ""
        body = ", ".join(str(v) for v in shown)
        return f"Extent([{body}{suffix}], n={len(self)})"

    # ------------------------------------------------------------------
    # Equality / ordering (set semantics)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Extent):
            return self._data == other._data
        if isinstance(other, (set, frozenset)):
            return len(other) == len(self._data) and \
                self.members() == other
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # Extents compare by membership, not identity, and are not meant to
    # key dicts (convert to frozenset for that), so hashing is disabled
    # to catch accidental set-of-extents usage early.
    __hash__ = None  # type: ignore[assignment]

    def __le__(self, other) -> bool:
        """Subset test (``extent <= other``)."""
        if isinstance(other, Extent):
            return extent_is_subset(self, other)
        if isinstance(other, (set, frozenset)):
            return self.members() <= other
        return NotImplemented

    def __ge__(self, other) -> bool:
        if isinstance(other, Extent):
            return extent_is_subset(other, self)
        if isinstance(other, (set, frozenset)):
            return self.members() >= other
        return NotImplemented

    def __lt__(self, other) -> bool:
        le = self.__le__(other)
        if le is NotImplemented:
            return le
        return le and len(self) != len(other)

    def __gt__(self, other) -> bool:
        ge = self.__ge__(other)
        if ge is NotImplemented:
            return ge
        return ge and len(self) != len(other)

    def isdisjoint(self, other) -> bool:
        if isinstance(other, Extent):
            return not extent_intersect(self, other)
        return self.members().isdisjoint(other)

    # ------------------------------------------------------------------
    # Set algebra.  Extent op Extent -> Extent (canonical merge);
    # mixed-operand ops return plain sets so callers that accumulate
    # into mutable working sets keep their idioms.
    # ------------------------------------------------------------------
    def __and__(self, other):
        if isinstance(other, Extent):
            return extent_intersect(self, other)
        if isinstance(other, (set, frozenset)):
            # members() is the cached boxed view: set-vs-frozenset
            # intersection runs fully in C, where iterating the int
            # array re-boxes every member per call.
            return other.intersection(self.members())
        return NotImplemented

    __rand__ = __and__

    def __or__(self, other):
        if isinstance(other, Extent):
            return extent_union(self, other)
        if isinstance(other, (set, frozenset)):
            return other.union(self.members())
        return NotImplemented

    __ror__ = __or__

    def __sub__(self, other):
        if isinstance(other, Extent):
            return extent_difference(self, other)
        if isinstance(other, (set, frozenset)):
            return set(self.members()) - other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (set, frozenset)):
            return other.difference(self.members())
        return NotImplemented


# ----------------------------------------------------------------------
# Set-algebra kernels (the compact data plane's merge helpers)
# ----------------------------------------------------------------------
def _as_extent(value) -> Extent:
    if isinstance(value, Extent):
        return value
    return Extent.from_iterable(value)


def _differential_guard(op: str, a: Extent, b: Extent,
                        result: Extent) -> None:
    reference = getattr(set(a), op)(set(b))
    if set(result) != reference or list(result) != sorted(reference):
        raise ExtentMismatch(
            f"extent_{op} diverged from set reference: "
            f"got {list(result)[:10]}..., want {sorted(reference)[:10]}...")


def extent_intersect(a, b) -> Extent:
    """``a ∩ b`` as a canonical extent (C hash kernel + sort;
    bisect gallop when one side is much smaller)."""
    a, b = _as_extent(a), _as_extent(b)
    if len(a) > len(b):
        a, b = b, a
    da, db = a._data, b._data
    out: list[int] = []
    if not len(da) or not len(db):
        result = Extent.from_sorted(out)
    elif len(db) > 8 * len(da):
        # Gallop: bisect each member of the small side into the large —
        # O(|a| log |b|), beats any whole-operand pass when sizes skew.
        nb = len(db)
        lo = 0
        for value in da:
            lo = bisect_left(db, value, lo)
            if lo >= nb:
                break
            if db[lo] == value:
                out.append(value)
        result = Extent.from_sorted(out)
    else:
        # Balanced sizes: C-level hash intersection + C sort beats an
        # interpreted merge loop at every size CPython reaches; the
        # sorted() is what makes the result canonical again.
        result = Extent.from_sorted(sorted(set(da).intersection(db)))
    if _DIFFERENTIAL:
        _differential_guard("intersection", a, b, result)
    return result


def extent_union(a, b) -> Extent:
    """``a ∪ b`` as a canonical extent (C hash kernel + sort)."""
    a, b = _as_extent(a), _as_extent(b)
    da, db = a._data, b._data
    if not len(da):
        result = b
    elif not len(db):
        result = a
    else:
        # C-level hash union + C sort; see extent_intersect.
        union = set(da)
        union.update(db)
        result = Extent.from_sorted(sorted(union))
    if _DIFFERENTIAL:
        _differential_guard("union", a, b, result)
    return result


def extent_difference(a, b) -> Extent:
    """``a \\ b`` as a canonical extent (C hash kernel + sort)."""
    a, b = _as_extent(a), _as_extent(b)
    da, db = a._data, b._data
    if not len(da) or not len(db):
        result = a
    else:
        # C-level hash difference + C sort; see extent_intersect.
        result = Extent.from_sorted(sorted(set(da).difference(db)))
    if _DIFFERENTIAL:
        _differential_guard("difference", a, b, result)
    return result


def extent_contains(extent, oid: int) -> bool:
    """Membership probe (bisect; O(log n))."""
    extent = _as_extent(extent)
    result = oid in extent
    if _DIFFERENTIAL and result != (oid in set(extent)):
        raise ExtentMismatch(
            f"extent_contains({oid}) diverged from set reference")
    return result


def extent_is_subset(a, b) -> bool:
    """Is every member of ``a`` in ``b``? (merge walk with galloping)."""
    a, b = _as_extent(a), _as_extent(b)
    da, db = a._data, b._data
    na, nb = len(da), len(db)
    if na > nb:
        result = False
    elif na == 0:
        result = True
    elif nb > 8 * na:
        lo = 0
        result = True
        for value in da:
            lo = bisect_left(db, value, lo)
            if lo >= nb or db[lo] != value:
                result = False
                break
    else:
        i = j = 0
        result = True
        while i < na:
            if j >= nb:
                result = False
                break
            va, vb = da[i], db[j]
            if va == vb:
                i += 1
                j += 1
            elif va > vb:
                j += 1
            else:
                result = False
                break
    if _DIFFERENTIAL and result != set(a).issubset(set(b)):
        raise ExtentMismatch("extent_is_subset diverged from set reference")
    return result

