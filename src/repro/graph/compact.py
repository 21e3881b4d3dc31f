"""Compact adjacency storage for frozen data graphs.

:class:`CompactAdjacency` is a CSR (compressed sparse row) encoding of a
list-of-lists adjacency: one flat ``array('i')`` of targets plus an
``array('i')`` of per-node offsets.  Row *order is preserved exactly* —
the paper's DataGuide and rooted-path enumeration depend on insertion
order, and digests over adjacency must not move under ``freeze()``.

Rows are handed out as read-only ``memoryview`` slices (zero-copy).
The public :class:`ReadonlyRow`/:class:`AdjacencyListView` wrappers give
the same protection to the *unfrozen* list-of-lists backing, closing the
old aliasing hole where ``graph.children(oid)`` returned the live
internal list and a caller mutation silently corrupted the graph and
every index fingerprint built over it.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence

__all__ = ["CompactAdjacency", "ReadonlyRow", "AdjacencyListView"]

_MUTATION_ERROR = "adjacency views are read-only; mutate via DataGraph.add_edge"


class CompactAdjacency:
    """Frozen CSR adjacency: ``offsets[oid]..offsets[oid+1]`` slices
    ``targets`` into the (insertion-ordered) row of node ``oid``."""

    __slots__ = ("_offsets", "_targets", "_view")

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        offsets = array("i", [0])
        targets = array("i")
        total = 0
        for row in rows:
            targets.extend(row)
            total += len(row)
            offsets.append(total)
        self._offsets = offsets
        self._targets = targets
        self._view = memoryview(targets).toreadonly()

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, oid: int):
        if oid < 0:
            raise IndexError(oid)
        start, stop = self._offsets[oid], self._offsets[oid + 1]
        return self._view[start:stop]

    def __iter__(self) -> Iterator:
        for oid in range(len(self)):
            yield self[oid]

    def degree(self, oid: int) -> int:
        return int(self._offsets[oid + 1] - self._offsets[oid])

    @property
    def num_edges(self) -> int:
        return len(self._targets)

    def row_list(self, oid: int) -> list[int]:
        """Row as a plain ``list[int]`` (thaw/serialisation path)."""
        return [int(v) for v in self[oid]]

    def csr_arrays(self) -> tuple:
        """The raw ``(offsets, targets)`` CSR pair.

        Offsets has ``len(self) + 1`` entries; ``targets[offsets[i]:
        offsets[i+1]]`` is row ``i``.  Both are ``array('i')``; callers
        must treat them as immutable.  This is the bulk-consumer entry point:
        the vectorized partition refiner gathers ``blocks[targets]``
        straight off these arrays instead of iterating rows.
        """
        return self._offsets, self._targets

    def nbytes(self) -> int:
        """Approximate payload bytes (offsets + targets)."""
        return (len(self._offsets) + len(self._targets)) * self._offsets.itemsize


class ReadonlyRow(Sequence):
    """A read-only view of one adjacency row.

    Compares equal to any same-length int sequence with the same order
    (tests and callers write ``graph.children(0) == [1]``).  Mutation
    attempts raise ``TypeError``.
    """

    __slots__ = ("_row",)

    def __init__(self, row) -> None:
        self._row = row

    def __len__(self) -> int:
        return len(self._row)

    def __iter__(self):
        return iter(self._row)

    def __contains__(self, value: object) -> bool:
        return value in self._row

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [int(v) for v in self._row[index]]
        return int(self._row[index])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReadonlyRow):
            other = other._row
        if isinstance(other, (list, tuple, array, memoryview)) \
                or type(other).__module__ == "numpy":
            if len(other) != len(self._row):
                return False
            return all(int(a) == int(b) for a, b in zip(self._row, other))
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ReadonlyRow({[int(v) for v in self._row]})"

    def __setitem__(self, index, value) -> None:
        raise TypeError(_MUTATION_ERROR)

    def __delitem__(self, index) -> None:
        raise TypeError(_MUTATION_ERROR)

    def append(self, value) -> None:
        raise TypeError(_MUTATION_ERROR)

    def extend(self, values) -> None:
        raise TypeError(_MUTATION_ERROR)

    def insert(self, index, value) -> None:
        raise TypeError(_MUTATION_ERROR)

    def remove(self, value) -> None:
        raise TypeError(_MUTATION_ERROR)

    def pop(self, index=-1) -> None:
        raise TypeError(_MUTATION_ERROR)

    def clear(self) -> None:
        raise TypeError(_MUTATION_ERROR)


class AdjacencyListView:
    """Read-only, always-current view of a graph's full adjacency.

    Delegates to the graph on every access, so one view stays valid
    across ``freeze()``/``thaw()`` transitions.  Indexing yields
    :class:`ReadonlyRow`; mutation attempts raise ``TypeError``.
    """

    __slots__ = ("_graph", "_forward")

    def __init__(self, graph, forward: bool) -> None:
        self._graph = graph
        self._forward = forward

    def _rows(self):
        return (self._graph.child_rows() if self._forward
                else self._graph.parent_rows())

    def __len__(self) -> int:
        return self._graph.num_nodes

    def __getitem__(self, oid: int) -> ReadonlyRow:
        return ReadonlyRow(self._rows()[oid])

    def __iter__(self) -> Iterator[ReadonlyRow]:
        rows = self._rows()
        for oid in range(len(self)):
            yield ReadonlyRow(rows[oid])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AdjacencyListView):
            other = list(other)
        if isinstance(other, (list, tuple)):
            if len(other) != len(self):
                return False
            rows = self._rows()
            return all(ReadonlyRow(rows[oid]) == other[oid]
                       for oid in range(len(self)))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"AdjacencyListView({'children' if self._forward else 'parents'}, "
                f"nodes={len(self)})")

    def __setitem__(self, oid, value) -> None:
        raise TypeError(_MUTATION_ERROR)

    def __delitem__(self, oid) -> None:
        raise TypeError(_MUTATION_ERROR)

    def append(self, value) -> None:
        raise TypeError(_MUTATION_ERROR)
