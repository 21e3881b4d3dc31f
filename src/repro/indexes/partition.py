"""Partition refinement: k-bisimulation and full bisimulation.

Definition 2 of the paper defines k-bisimilarity inductively:

* ``u ~0 v`` iff ``label(u) == label(v)``;
* ``u ~k v`` iff ``u ~(k-1) v`` and their parent sets match up to
  ``~(k-1)`` in both directions.

We compute the partition by iterative signature refinement: the level-k
block of a node is determined by its level-(k-1) block together with the
set of level-(k-1) blocks of its parents.  Property 5 of the A(k)-index
(each level refines the previous one) falls out of including the old block
in the signature.

Three implementations live here:

* :func:`refine_once` / :func:`refine_once_downward` — the one-round
  reference: a full pass over every node, recomputing every signature.
  Kept as the specification (the incremental path is tested against it)
  and as the baseline the construction benchmarks compare against.
* :class:`PartitionRefiner` — the stdlib production path: block ids are
  *stable* across rounds and a dirty worklist tracks which nodes changed
  block last round, so a round only recomputes signatures for changed
  nodes and their dependents (children for parent-signatures).  On
  document-like graphs most blocks stabilise after a round or two,
  making later rounds — and the fixpoint iteration of the 1-index in
  particular — near-free.
* :class:`_VectorRefiner` — the vectorized path the ``kbisimulation_*``
  entry points use when numpy is importable (numpy is not a declared
  dependency).  It is built on the compact data plane:
  interned label ids *are* the dense level-0 assignment, and the frozen
  CSR arrays (or a one-time flattening of the mutable rows) let a whole
  round run as array kernels — gather parent blocks, dedup ``(node,
  parent-block)`` pairs with one ``np.unique``, group padded signature
  rows with another.  Partition equality per round is invariant under
  block renumbering, so the vectorized chain splits exactly the groups
  the reference chain splits; the entry points canonicalise the final
  assignment with :func:`canonical_blocks`, making the returned lists
  byte-identical to the reference's.  Nodes with more distinct adjacent
  blocks than ``_VectorRefiner.MAX_WIDTH`` would need an unboundedly
  wide signature matrix, so such graphs fall back to the worklist path.

Full bisimulation (the 1-index) is the fixpoint of this refinement, which
is reached after at most ``|V|`` rounds (Paige–Tarjan compute it faster
asymptotically; the worklist refiner makes the simple iteration cheap
enough in practice).
"""

from __future__ import annotations

from itertools import chain

from repro.graph.compact import CompactAdjacency
from repro.graph.datagraph import DataGraph
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

try:  # optional vectorized backend; every entry point works without it
    import numpy as _np
except ImportError:  # pragma: no cover - container always ships numpy
    _np = None  # type: ignore[assignment]

_M_ROUNDS = _metrics.REGISTRY.counter(
    "partition_rounds_total", "worklist refinement rounds executed")
_M_SPLITS = _metrics.REGISTRY.counter(
    "partition_block_splits_total",
    "fresh blocks created by signature splits")
_M_MOVED = _metrics.REGISTRY.counter(
    "partition_nodes_moved_total", "nodes that changed block across rounds")


def label_blocks(graph: DataGraph) -> list[int]:
    """Level-0 blocks: nodes share a block iff they share a label.

    The graph interns labels in first-occurrence order, which is exactly
    the dense numbering this function historically produced — so level-0
    block assignment is a straight copy of the interned label ids.
    """
    return list(graph.label_ids())


# Bisimulation refinement runs at index-construction time; its work is
# reported through WorkSink, not the per-query cost metric.
# repro-lint: disable=cost-accounting
def refine_once(graph: DataGraph, blocks: list[int]) -> list[int]:
    """One refinement round: split blocks by parent-block signatures.

    Returns a new block assignment where two nodes share a block iff they
    shared one before *and* their parents cover the same set of old blocks.
    Block ids are renumbered densely from 0.
    """
    parents = graph.parent_rows()
    signature_ids: dict[tuple, int] = {}
    new_blocks: list[int] = []
    for oid, old_block in enumerate(blocks):
        parent_blocks = tuple(sorted({blocks[p] for p in parents[oid]}))
        signature = (old_block, parent_blocks)
        block = signature_ids.setdefault(signature, len(signature_ids))
        new_blocks.append(block)
    return new_blocks


def canonical_blocks(blocks: list[int]) -> list[int]:
    """Renumber a block assignment densely by first occurrence in oid order.

    This is the numbering :func:`refine_once` produces naturally (its
    signature dict is filled in oid order), so incremental assignments
    renumbered this way are *identical* lists to the reference chain's,
    not merely the same partition.
    """
    renumbered: dict[int, int] = {}
    out: list[int] = []
    for block in blocks:
        dense = renumbered.setdefault(block, len(renumbered))
        out.append(dense)
    return out


# Construction-time refinement (array kernels); work is reported through
# WorkSink, not the per-query cost metric.
# repro-lint: disable=cost-accounting
class _VectorRefiner:
    """Worklist signature refinement as numpy array kernels.

    The same stable-id worklist contract as :class:`PartitionRefiner` —
    a round only re-examines blocks holding a node whose signature may
    have changed, a splitting block keeps its id for the group with the
    smallest oid and hands fresh ids to the rest — but every step is an
    array kernel instead of a per-node dict loop.  State is the flat
    edge arrays ``sources``/``targets`` (``sources[i]`` refines by the
    block of ``targets[i]``), taken straight from the frozen CSR pair
    when the graph is frozen or flattened once from the mutable rows.
    A round over the affected member set ``S``:

    1. gather the affected blocks (blocks holding a changed node or a
       node adjacent to one) and expand to their full member list ``S``
       via one boolean gather — recomputing *every* member of an
       affected block sidesteps the per-block settled-signature cache
       the dict worklist needs for partially-affected blocks;
    2. slice the CSR rows of ``S``, encode ``(local row, adjacent
       block)`` pairs into integer codes, then sort + adjacent-diff
       dedup (``np.unique``'s fixed overhead is an order of magnitude
       above the raw sort at document scale) — every member's sorted
       *set* of adjacent blocks, concatenated;
    3. scatter the sets into a sentinel-padded matrix and group
       identical rows by pairwise dense renumbering, one
       ``np.unique(..., return_inverse=True)`` per column, seeded with
       the members' own block ids so grouping never crosses a block;
    4. for each splitting block, keep the id on the group holding the
       smallest oid and assign fresh ids to the others in deterministic
       ``(block, smallest member)`` order.

    Ids are dense-per-path but not byte-identical to the dict
    worklist's; that is sound because signature grouping is invariant
    under any bijective renumbering of the previous round's blocks, so
    every round produces the *partition* the reference chain produces —
    the entry points canonicalise the final assignment with
    :func:`canonical_blocks`, which restores the reference numbering
    exactly.
    """

    #: Widest signature row (distinct adjacent blocks of one node) the
    #: padded matrix will hold; wider graphs fall back to the worklist.
    MAX_WIDTH = 64

    # Construction-time flattening of adjacency into edge arrays; feeds
    # signature kernels, not query traversal.
    # repro-lint: disable=cost-accounting
    def __init__(self, np_mod, graph: DataGraph,
                 downward: bool = False) -> None:
        self._np = np_mod
        n = graph.num_nodes
        self.num_nodes = n
        rows = graph.child_rows() if downward else graph.parent_rows()
        if isinstance(rows, CompactAdjacency):
            raw_offsets, raw_targets = rows.csr_arrays()
            offsets = np_mod.asarray(raw_offsets, dtype=np_mod.int64)
            self._targets = np_mod.asarray(raw_targets,
                                           dtype=np_mod.int64)
            degrees = np_mod.diff(offsets)
        else:
            degrees = np_mod.fromiter(map(len, rows), dtype=np_mod.int64,
                                      count=n)
            offsets = np_mod.zeros(n + 1, dtype=np_mod.int64)
            np_mod.cumsum(degrees, out=offsets[1:])
            self._targets = np_mod.fromiter(
                chain.from_iterable(rows), dtype=np_mod.int64,
                count=int(offsets[n]))
        self._offsets = offsets
        self._degrees = degrees
        self._sources = np_mod.repeat(
            np_mod.arange(n, dtype=np_mod.int64), degrees)
        # Interned label ids are already the dense level-0 assignment.
        self.blocks = np_mod.asarray(graph.label_ids(),
                                     dtype=np_mod.int64)
        self.num_blocks = int(self.blocks.max()) + 1 if n else 0
        self._block_size = np_mod.bincount(self.blocks,
                                           minlength=self.num_blocks)
        # Every node is dirty before the first round.
        self._changed = np_mod.arange(n, dtype=np_mod.int64)

    def _settled(self):
        self._changed = self._np.empty(0, dtype=self._np.int64)
        return 0

    def refine_round(self) -> int | None:
        """One round: nodes moved (0 at the fixpoint), or None when a
        signature row exceeds ``MAX_WIDTH`` (caller must fall back)."""
        np_mod = self._np
        n = self.num_nodes
        changed = self._changed
        if n == 0 or changed.size == 0:
            return 0
        blocks = self.blocks
        # Affected = changed nodes plus nodes adjacent to one; expand to
        # every member of their (splittable) blocks.
        changed_mask = np_mod.zeros(n, dtype=bool)
        changed_mask[changed] = True
        dependents = self._sources[changed_mask[self._targets]]
        affected = np_mod.concatenate((changed, dependents))
        affected_blocks = np_mod.zeros(self.num_blocks, dtype=bool)
        affected_blocks[blocks[affected]] = True
        affected_blocks &= self._block_size > 1
        members = np_mod.nonzero(affected_blocks[blocks])[0]
        if members.size == 0:
            return self._settled()
        # CSR row slices of the members, flattened.  Strides are powers
        # of two so encode/decode are shifts and masks.
        lengths = self._degrees[members]
        total = int(lengths.sum())
        shift = (self.num_blocks + 1).bit_length()
        stride = 1 << shift  # > any block id and > the sentinel
        if total:
            out_starts = np_mod.zeros(members.size, dtype=np_mod.int64)
            np_mod.cumsum(lengths[:-1], out=out_starts[1:])
            flat = (np_mod.arange(total, dtype=np_mod.int64)
                    + np_mod.repeat(self._offsets[members] - out_starts,
                                    lengths))
            local = np_mod.repeat(
                np_mod.arange(members.size, dtype=np_mod.int64), lengths)
            codes = np_mod.sort((local << shift)
                                | blocks[self._targets[flat]])
            keep = np_mod.empty(codes.size, dtype=bool)
            keep[0] = True
            np_mod.not_equal(codes[1:], codes[:-1], out=keep[1:])
            codes = codes[keep]
            rows = codes >> shift
            counts = np_mod.bincount(rows, minlength=members.size)
            width = int(counts.max())
        else:
            width = 0
        if width > self.MAX_WIDTH:
            return None
        if width == 0:
            # No member has any adjacency: signatures are all empty, no
            # block can split.
            return self._settled()
        sentinel = self.num_blocks  # < stride, distinct from any block
        signatures = np_mod.full((members.size, width), sentinel,
                                 dtype=np_mod.int64)
        starts = np_mod.zeros(members.size, dtype=np_mod.int64)
        np_mod.cumsum(counts[:-1], out=starts[1:])
        rank = np_mod.arange(codes.size, dtype=np_mod.int64) - starts[rows]
        signatures[rows, rank] = codes & (stride - 1)
        # Group members with identical (own block, adjacent set) rows by
        # dense renumbering, packing as many columns per ``np.unique``
        # as the 63-bit key budget allows; seeding with the block ids
        # keeps grouping within blocks.
        groups = blocks[members]
        bound = self.num_blocks  # exclusive upper bound on packed keys
        budget = 1 << 62
        pending = False
        for column in range(width):
            if bound > budget >> shift:
                _, groups = np_mod.unique(groups, return_inverse=True)
                groups = groups.reshape(members.size)
                bound = members.size
            groups = (groups << shift) | signatures[:, column]
            bound <<= shift
            pending = True
        if pending:
            _, groups = np_mod.unique(groups, return_inverse=True)
            groups = groups.reshape(members.size)
        group_count = int(groups.max()) + 1
        # ``members`` is ascending, so each group's smallest member is
        # its first occurrence; a reversed scatter (last write wins)
        # finds all of them in one pass.
        first_index = np_mod.empty(group_count, dtype=np_mod.int64)
        first_index[groups[::-1]] = np_mod.arange(
            members.size - 1, -1, -1, dtype=np_mod.int64)
        group_block = blocks[members[first_index]]
        smallest = members[first_index]
        # The group holding each block's smallest member keeps the id;
        # the rest get fresh ids ordered by (block, smallest member).
        order = np_mod.lexsort((smallest, group_block))
        leads = np_mod.empty(group_count, dtype=bool)
        leads[0] = True
        ordered_blocks = group_block[order]
        np_mod.not_equal(ordered_blocks[1:], ordered_blocks[:-1],
                         out=leads[1:])
        fresh_groups = order[~leads]
        if fresh_groups.size == 0:
            return self._settled()
        new_ids = np_mod.empty(group_count, dtype=np_mod.int64)
        new_ids[order[leads]] = ordered_blocks[leads]
        new_ids[fresh_groups] = self.num_blocks + np_mod.arange(
            fresh_groups.size, dtype=np_mod.int64)
        new_member_blocks = new_ids[groups]
        moved_mask = new_member_blocks != blocks[members]
        moved_nodes = members[moved_mask]
        # Book-keeping: sizes of the losing blocks shrink, fresh blocks
        # append in id order.
        losses = np_mod.bincount(blocks[moved_nodes],
                                 minlength=self.num_blocks)
        group_sizes = np_mod.bincount(groups, minlength=group_count)
        self._block_size = np_mod.concatenate(
            (self._block_size - losses, group_sizes[fresh_groups]))
        blocks[moved_nodes] = new_member_blocks[moved_mask]
        self.num_blocks += fresh_groups.size
        self._changed = moved_nodes
        _M_SPLITS.inc(int(fresh_groups.size))
        _M_MOVED.inc(int(moved_nodes.size))
        return int(moved_nodes.size)

    def traced_round(self) -> int | None:
        """``refine_round`` under the same span/metric contract as
        :meth:`PartitionRefiner.refine_round`."""
        tracer = _trace.TRACER
        if tracer.enabled:
            with tracer.span("partition.round",
                             dirty=int(self._changed.size)) as span:
                moved = self.refine_round()
                span.tag(changed=moved or 0, blocks=self.num_blocks)
        else:
            moved = self.refine_round()
        if moved is not None:
            _M_ROUNDS.inc()
        return moved

    def snapshot(self) -> list[int]:
        """The current assignment in the reference numbering.

        Vectorized :func:`canonical_blocks`: order the dense block ids
        by first occurrence and remap — identical output, no per-node
        dict loop.
        """
        np_mod = self._np
        blocks = self.blocks
        if blocks.size == 0:
            return []
        _, first_index = np_mod.unique(blocks, return_index=True)
        remap = np_mod.empty(self.num_blocks, dtype=np_mod.int64)
        remap[np_mod.argsort(first_index)] = np_mod.arange(
            self.num_blocks, dtype=np_mod.int64)
        result: list[int] = remap[blocks].tolist()
        return result


# repro-lint: disable=cost-accounting
def _vectorized_kbisimulation(graph: DataGraph, k: int,
                              downward: bool = False) -> list[int] | None:
    """k rounds of vectorized refinement, or None to request fallback."""
    if _np is None:
        return None
    refiner = _VectorRefiner(_np, graph, downward=downward)
    for _ in range(k):
        moved = refiner.traced_round()
        if moved is None:
            return None
        if not moved:
            break
    return refiner.snapshot()


# repro-lint: disable=cost-accounting
def _vectorized_levels(graph: DataGraph, k: int) -> list[list[int]] | None:
    if _np is None:
        return None
    refiner = _VectorRefiner(_np, graph)
    levels = [refiner.snapshot()]
    stable = False
    for _ in range(k):
        if not stable:
            moved = refiner.traced_round()
            if moved is None:
                return None
            stable = not moved
        levels.append(refiner.snapshot())
    return levels


# repro-lint: disable=cost-accounting
def _vectorized_full(graph: DataGraph,
                     limit: int) -> tuple[list[int], int] | None:
    if _np is None:
        return None
    refiner = _VectorRefiner(_np, graph)
    rounds = 0
    while rounds < limit:
        moved = refiner.traced_round()
        if moved is None:
            return None
        if not moved:
            break
        rounds += 1
    return refiner.snapshot(), rounds


class PartitionRefiner:
    """Worklist-driven signature refinement with stable block ids.

    One round splits blocks by the signature ``(own block, set of
    adjacent blocks)`` exactly like :func:`refine_once`, but only nodes
    whose signature *can* have changed — nodes that changed block last
    round, plus their dependents — are recomputed.  Soundness rests on
    id stability: a block that splits keeps its id for one surviving
    group and hands fresh (never-reused) ids to the others, so a node
    whose own block id and adjacent block ids are all unchanged has a
    byte-identical signature and needs no work.

    ``downward=True`` refines by child-block signatures (the UD(k,l)
    dual); the dependents of a changed node are then its parents.
    """

    # Construction-time refinement state; adjacency here feeds signature
    # building, not query traversal.
    # repro-lint: disable=cost-accounting
    def __init__(self, graph: DataGraph, downward: bool = False) -> None:
        self.graph = graph
        if downward:
            self._adjacency = graph.child_rows()
            self._dependents = graph.parent_rows()
        else:
            self._adjacency = graph.parent_rows()
            self._dependents = graph.child_rows()
        self.blocks: list[int] = label_blocks(graph)
        self._block_size: dict[int, int] = {}
        for block in self.blocks:
            self._block_size[block] = self._block_size.get(block, 0) + 1
        self._next_block = len(self._block_size)
        #: Signature the block's members shared when the block last
        #: settled — what an unaffected member's signature still is, so a
        #: partially-affected block never needs a representative scan.
        self._block_sig: dict[int, tuple[int, ...]] = {}
        # Every node is dirty before the first round (level 0 -> 1 is a
        # full pass by definition).
        self._changed: set[int] = set(range(graph.num_nodes))

    def refine_round(self) -> int:
        """One refinement round; returns how many nodes changed block."""
        if not self._changed:
            return 0
        tracer = _trace.TRACER
        if tracer.enabled:
            with tracer.span("partition.round",
                             dirty=len(self._changed)) as span:
                changed = self._refine_round_impl()
                span.tag(changed=changed, blocks=self.num_blocks)
                return changed
        return self._refine_round_impl()

    def _refine_round_impl(self) -> int:
        blocks = self.blocks
        adjacency = self._adjacency
        block_size = self._block_size
        dependents = self._dependents
        num_nodes = len(blocks)
        if len(self._changed) == num_nodes:
            affected = range(num_nodes)
        else:
            affected_set: set[int] = set(self._changed)
            for oid in self._changed:
                affected_set.update(dependents[oid])
            affected = affected_set  # type: ignore[assignment]
        by_block: dict[int, list[int]] = {}
        for oid in affected:
            if block_size[blocks[oid]] > 1:
                by_block.setdefault(blocks[oid], []).append(oid)
        # Phase 1 — read-only: compute every needed signature against the
        # start-of-round assignment.  Mutating ``blocks`` while grouping
        # would leak this round's fresh ids into later signatures,
        # silently merging two refinement levels into one.
        plans: list[tuple[int, dict[tuple[int, ...], list[int]],
                          tuple[int, ...]]] = []
        block_sig = self._block_sig
        for block, members_affected in by_block.items():
            groups: dict[tuple[int, ...], list[int]] = {}
            for oid in members_affected:
                adjacent = adjacency[oid]
                if len(adjacent) == 1:  # the common XML-tree case
                    signature = (blocks[adjacent[0]],)
                else:
                    signature = tuple(sorted({blocks[other]
                                              for other in adjacent}))
                groups.setdefault(signature, []).append(oid)
            if block_size[block] > len(members_affected):
                # Unaffected members still carry the signature the block
                # settled with, and their group keeps the block id.
                stay = block_sig[block]
            elif len(groups) == 1:
                # Fully affected but unsplit: record the (possibly new)
                # common signature and move on.
                block_sig[block] = next(iter(groups))
                continue
            else:
                # Fully affected and splitting: the group holding the
                # smallest oid keeps the id (deterministic choice).
                stay = min(groups, key=lambda sig: min(groups[sig]))
                block_sig[block] = stay
            if any(signature != stay for signature in groups):
                plans.append((block, groups, stay))
        # Phase 2 — apply the splits.
        changed_now: set[int] = set()
        splits = 0
        for block, groups, stay in plans:
            for signature, oids in groups.items():
                if signature == stay:
                    continue
                fresh = self._next_block
                self._next_block += 1
                splits += 1
                for oid in oids:
                    blocks[oid] = fresh
                block_size[block] -= len(oids)
                block_size[fresh] = len(oids)
                block_sig[fresh] = signature
                changed_now.update(oids)
        self._changed = changed_now
        _M_ROUNDS.inc()
        if splits:
            _M_SPLITS.inc(splits)
            _M_MOVED.inc(len(changed_now))
        return len(changed_now)

    @property
    def num_blocks(self) -> int:
        return len(self._block_size)

    def snapshot(self) -> list[int]:
        """The current assignment in the reference numbering."""
        return canonical_blocks(self.blocks)


def kbisimulation_blocks(graph: DataGraph, k: int) -> list[int]:
    """Block assignment of the k-bisimulation partition (one id per oid)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    vectorized = _vectorized_kbisimulation(graph, k)
    if vectorized is not None:
        return vectorized
    refiner = PartitionRefiner(graph)
    for _ in range(k):
        if not refiner.refine_round():
            break  # fixpoint: further rounds cannot split anything
    return refiner.snapshot()


def kbisimulation_levels(graph: DataGraph, k: int) -> list[list[int]]:
    """Block assignments for every level ``0..k`` (``k+1`` lists).

    Used by the D(k)-index construction, which partitions nodes of label
    ``l`` at the level required for ``l`` specifically.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    vectorized = _vectorized_levels(graph, k)
    if vectorized is not None:
        return vectorized
    refiner = PartitionRefiner(graph)
    levels = [refiner.snapshot()]
    for _ in range(k):
        refiner.refine_round()
        levels.append(refiner.snapshot())
    return levels


# Construction-time dual of refine_once — same WorkSink reporting.
# repro-lint: disable=cost-accounting
def refine_once_downward(graph: DataGraph, blocks: list[int]) -> list[int]:
    """One *down*-refinement round: split blocks by child-block signatures.

    The dual of :func:`refine_once`, used by the UD(k,l)-index: two nodes
    stay together iff they shared a block before and their children cover
    the same set of old blocks.
    """
    children = graph.child_rows()
    signature_ids: dict[tuple, int] = {}
    new_blocks: list[int] = []
    for oid, old_block in enumerate(blocks):
        child_blocks = tuple(sorted({blocks[c] for c in children[oid]}))
        signature = (old_block, child_blocks)
        block = signature_ids.setdefault(signature, len(signature_ids))
        new_blocks.append(block)
    return new_blocks


def down_kbisimulation_blocks(graph: DataGraph, l: int) -> list[int]:
    """Block assignment of the l-down-bisimulation partition.

    Nodes in one block share their *outgoing* label paths of length up to
    ``l`` — the down-bisimulation half of the UD(k,l)-index.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    vectorized = _vectorized_kbisimulation(graph, l, downward=True)
    if vectorized is not None:
        return vectorized
    refiner = PartitionRefiner(graph, downward=True)
    for _ in range(l):
        if not refiner.refine_round():
            break
    return refiner.snapshot()


def full_bisimulation_blocks(graph: DataGraph,
                             max_rounds: int | None = None) -> tuple[list[int], int]:
    """Fixpoint of the refinement: the full-bisimulation partition.

    Returns ``(blocks, rounds)`` where ``rounds`` is the number of
    refinement rounds needed to stabilise — i.e. the smallest ``k`` such
    that k-bisimulation equals full bisimulation on this graph.
    """
    limit = max_rounds if max_rounds is not None else graph.num_nodes + 1
    vectorized = _vectorized_full(graph, limit)
    if vectorized is not None:
        return vectorized
    refiner = PartitionRefiner(graph)
    rounds = 0
    while rounds < limit:
        if not refiner.refine_round():
            break
        rounds += 1
    return refiner.snapshot(), rounds


def blocks_to_extents(blocks: list[int]) -> list[set[int]]:
    """Group oids by block id into extent sets, ordered by block id."""
    extents: dict[int, set[int]] = {}
    for oid, block in enumerate(blocks):
        extents.setdefault(block, set()).add(oid)
    return [extents[block] for block in sorted(extents)]


def are_kbisimilar(graph: DataGraph, u: int, v: int, k: int) -> bool:
    """Direct check ``u ~k v`` (test helper; recomputes the partition)."""
    blocks = kbisimulation_blocks(graph, k)
    return blocks[u] == blocks[v]


def extent_is_kbisimilar(graph: DataGraph, extent: set[int], k: int,
                         blocks: list[int] | None = None) -> bool:
    """Is every pair in ``extent`` k-bisimilar? (Property 1 checker.)

    ``blocks`` may be passed to reuse a precomputed level-k assignment.
    """
    if len(extent) <= 1:
        return True
    if blocks is None:
        blocks = kbisimulation_blocks(graph, k)
    seen = {blocks[oid] for oid in extent}
    return len(seen) == 1
