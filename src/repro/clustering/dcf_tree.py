"""The DCF-tree: LIMBO's Phase-1 summarization structure (Section 5.2).

A height-balanced tree in the style of BIRCH.  Leaf nodes hold DCF entries
that summarize groups of inserted objects; internal nodes hold the merged
DCFs of their children and route insertions.  An object descends to the
closest child at each level (distance = information loss ``delta_I``); at a
leaf it merges into the closest entry if the loss stays within the threshold
``phi * I(V;T) / |V|``, otherwise it becomes a new entry, splitting the leaf
(and, recursively, ancestors) when the branching factor is exceeded.

With ``phi = 0`` only identical objects merge, and LIMBO degenerates to AIB
over the distinct objects -- the equivalence Section 5.2 notes.

**Space-bounded operation** (Section 4's fixed-buffer device): with
``max_leaf_entries`` set, the tree counts its leaf entries and, when an
insert pushes the count past the buffer, escalates the merge threshold
(BIRCH-style doubling, floored at ``threshold_floor``) and rebuilds itself
in place from its own leaves.  Coarser entries absorb more objects, so the
rebuilt tree fits the buffer again; the escalation is a pure function of
the insert stream, so the result is deterministic.  An attached
:class:`repro.budget.MemoryGovernor` makes the buffer *byte*-bounded too:
every new leaf entry books a size estimate, and a booking refused by the
governor triggers the same rebuild path as a count overflow.
"""

from __future__ import annotations

from repro.clustering.dcf import DCF, closest, merge_cost
from repro.errors import MemoryLimitExceeded
from repro.testing.faults import fault_point

#: Numeric slack so that delta_I of *identical* objects (which is zero up to
#: floating-point noise) always passes a phi=0 threshold.
_MERGE_EPSILON = 1e-12

#: Threshold multiplier per space-bounded rebuild (BIRCH-style escalation).
_ESCALATION = 2.0

#: Absolute threshold floor for escalating from ``phi = 0``: matches the
#: loss-quantization grid's absolute term, the smallest loss the backends
#: can distinguish, so the first escalation already merges *something*.
_MIN_THRESHOLD = 2.0 ** -40

#: Hard cap on consecutive escalating rebuilds.  Doubling from the
#: quantization floor crosses any representable loss in far fewer steps;
#: hitting this means the buffer cannot be met and the insert raises.
_MAX_REBUILDS = 64

#: Rough bytes per sparse mapping slot (dict entry + key + float box),
#: used for the governor's cooperative DCF-entry accounting.
_BYTES_PER_SLOT = 56

#: Fixed per-entry overhead (the DCF object, its lists, cached scalars).
_BYTES_PER_ENTRY = 112


def dcf_bytes(dcf: DCF) -> int:
    """Deterministic byte estimate of one leaf entry's resident cost."""
    slots = len(dcf.mass)
    if dcf.support is not None:
        slots += len(dcf.support)
    return _BYTES_PER_ENTRY + _BYTES_PER_SLOT * slots + 8 * len(dcf.members)


class _Node:
    """A tree node: parallel lists of entry DCFs and child nodes (leaves have
    no children)."""

    __slots__ = ("entries", "children")

    def __init__(self, entries=None, children=None):
        self.entries: list[DCF] = entries or []
        self.children: list["_Node"] | None = children

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class DCFTree:
    """Incremental DCF summarization with bounded branching.

    Parameters
    ----------
    threshold:
        Maximum information loss allowed when absorbing an object into an
        existing leaf entry (``phi * I(V;T) / |V|``).
    branching:
        Maximum entries per node (the paper's ``B``; default 4 as in
        Section 8).  A node scan compares at most ``B`` entries, so it is
        always the scalar :func:`repro.clustering.dcf.closest` scan; the
        ``backend`` knob of :class:`repro.clustering.Limbo` does not
        reach the tree.
    max_leaf_entries:
        Optional fixed leaf-entry buffer (the paper's space bound).  An
        insert that pushes the leaf-entry count past this escalates the
        threshold and rebuilds the tree in place; ``rebuilds`` counts the
        escalations and ``threshold`` reflects the escalated value.
    threshold_floor:
        Smallest useful escalated threshold (LIMBO passes
        ``I(V;T) / |V| / 64``, the same floor its ``max_summaries``
        rebuild loop uses); the absolute quantization floor applies
        regardless, so escalating from ``phi = 0`` makes progress.
    governor:
        Optional :class:`repro.budget.MemoryGovernor`.  New leaf entries
        book deterministic byte estimates against it; a refused booking
        triggers the same escalating rebuild as a count overflow, and
        only a rebuild that *still* cannot book raises
        :class:`repro.errors.MemoryLimitExceeded`.
    """

    def __init__(self, threshold: float, branching: int = 4,
                 max_leaf_entries: int | None = None,
                 threshold_floor: float = 0.0, governor=None):
        if threshold < 0.0:
            raise ValueError("threshold must be non-negative")
        if branching < 2:
            raise ValueError("branching factor must be at least 2")
        if max_leaf_entries is not None and max_leaf_entries < 1:
            raise ValueError("max_leaf_entries must be positive (or None)")
        self.threshold = float(threshold)
        self.branching = int(branching)
        self.max_leaf_entries = max_leaf_entries
        self.threshold_floor = float(threshold_floor)
        self.governor = governor
        self._root = _Node()
        self.n_inserted = 0
        self.n_absorbed = 0  # objects merged into an existing entry
        self.n_leaf_entries = 0
        self.rebuilds = 0  # space-bound escalating rebuilds performed
        self._booked = 0  # bytes currently booked with the governor

    # -- public API -------------------------------------------------------------

    def insert(self, dcf: DCF) -> None:
        """Insert one object's singleton DCF."""
        self.n_inserted += 1
        appended = self._insert_root(dcf)
        if not appended:
            return
        over_buffer = (self.max_leaf_entries is not None
                       and self.n_leaf_entries > self.max_leaf_entries)
        if not self._book(dcf_bytes(dcf)) or over_buffer:
            self._rebuild_in_place()

    def _insert_root(self, dcf: DCF) -> bool:
        """One tree descent; returns whether a *new* leaf entry was created."""
        before = self.n_leaf_entries
        overflow = self._insert_into(self._root, dcf)
        if overflow is not None:
            # Root split: grow the tree by one level.
            left, right = overflow
            self._root = _Node(
                entries=[self._summary(left), self._summary(right)],
                children=[left, right],
            )
        return self.n_leaf_entries > before

    def _book(self, n_bytes: int) -> bool:
        """Reserve ``n_bytes`` with the governor; ``False`` means refused."""
        if self.governor is None:
            return True
        try:
            self.governor.reserve(n_bytes, where="limbo.fit")
        except MemoryLimitExceeded:
            return False
        self._booked += n_bytes
        return True

    def _rebuild_in_place(self) -> None:
        """Escalate the threshold and rebuild from the current leaves.

        Repeats (doubling each time) until the leaves fit the buffer *and*
        the governor accepts their byte estimate; raises
        :class:`MemoryLimitExceeded` only when even a fully collapsed tree
        cannot be booked.
        """
        leaves = self.leaves()
        if self.governor is not None and self._booked:
            self.governor.release(self._booked)
            self._booked = 0
        for _attempt in range(_MAX_REBUILDS):
            self.rebuilds += 1
            escalated = max(self.threshold * _ESCALATION,
                            self.threshold_floor, _MIN_THRESHOLD)
            fault_point("limbo.buffer_overflow", (len(leaves), escalated))
            self.threshold = escalated
            self._root = _Node()
            self.n_leaf_entries = 0
            for dcf in leaves:
                self._insert_root(dcf)
            leaves = self.leaves()
            fits_buffer = (self.max_leaf_entries is None
                           or self.n_leaf_entries <= self.max_leaf_entries
                           or self.n_leaf_entries <= 1)
            if not fits_buffer:
                continue
            if self._book(sum(dcf_bytes(dcf) for dcf in leaves)):
                return
            if self.n_leaf_entries <= 1:
                break
        raise MemoryLimitExceeded(
            f"space-bounded DCF-tree cannot meet its buffer after "
            f"{self.rebuilds} escalating rebuilds "
            f"({self.n_leaf_entries} leaf entries)",
            where="limbo.buffer_overflow",
            max_memory_bytes=getattr(self.governor, "max_bytes", None),
        )

    def leaves(self) -> list[DCF]:
        """All leaf entries, left to right -- the Phase-1 summaries."""
        result: list[DCF] = []
        self._collect(self._root, result)
        return result

    def unbook(self) -> None:
        """Return this tree's governor reservation (call before discarding)."""
        if self.governor is not None and self._booked:
            self.governor.release(self._booked)
            self._booked = 0

    @property
    def height(self) -> int:
        """Tree height (a single leaf node has height 1)."""
        node, h = self._root, 1
        while not node.is_leaf:
            node = node.children[0]
            h += 1
        return h

    # -- internals -----------------------------------------------------------------

    @staticmethod
    def _summary(node: _Node) -> DCF:
        """The merged DCF of all entries of a node (always a fresh object)."""
        summary = node.entries[0].copy()
        for entry in node.entries[1:]:
            summary.absorb(entry)
        return summary

    def _insert_into(self, node: _Node, dcf: DCF):
        """Insert recursively; returns a (left, right) pair if ``node`` split."""
        if node.is_leaf:
            if node.entries:
                index, cost = closest(node.entries, dcf)
                if cost <= self.threshold + _MERGE_EPSILON:
                    node.entries[index].absorb(dcf)
                    self.n_absorbed += 1
                    return None
            node.entries.append(dcf)
            self.n_leaf_entries += 1
            if len(node.entries) > self.branching:
                return self._split(node)
            return None

        index, _ = closest(node.entries, dcf)
        overflow = self._insert_into(node.children[index], dcf)
        if overflow is None:
            # The child's insert never mutates dcf (at most it becomes a new
            # leaf entry), so the routing summary can absorb it afterwards.
            node.entries[index].absorb(dcf)
            return None
        left, right = overflow
        node.entries[index] = self._summary(left)
        node.children[index] = left
        node.entries.insert(index + 1, self._summary(right))
        node.children.insert(index + 1, right)
        if len(node.entries) > self.branching:
            return self._split(node)
        return None

    def _split(self, node: _Node):
        """Split an overflowing node around its two farthest entries."""
        entries = node.entries
        seed_a, seed_b, worst = 0, 1, -1.0
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                cost = merge_cost(entries[i], entries[j])
                if cost > worst:
                    seed_a, seed_b, worst = i, j, cost

        group_a, group_b = [seed_a], [seed_b]
        for index in range(len(entries)):
            if index in (seed_a, seed_b):
                continue
            cost_a = merge_cost(entries[index], entries[seed_a])
            cost_b = merge_cost(entries[index], entries[seed_b])
            (group_a if cost_a <= cost_b else group_b).append(index)

        def build(group: list[int]) -> _Node:
            if node.is_leaf:
                return _Node(entries=[entries[i] for i in group])
            return _Node(
                entries=[entries[i] for i in group],
                children=[node.children[i] for i in group],
            )

        return build(group_a), build(group_b)

    def _collect(self, node: _Node, out: list[DCF]) -> None:
        if node.is_leaf:
            out.extend(node.entries)
            return
        for child in node.children:
            self._collect(child, out)
