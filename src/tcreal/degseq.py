"""Degree sequences stored as (value, count) buckets for cheap laying off.

A sequence is kept sorted non-increasingly at all times.  The canonical
storage is a doubly-linked list of buckets ``(value, count)`` with strictly
decreasing values, which makes laying off an entry of value ``d`` an
``O(d)`` operation instead of a re-sort.  Runs of equal steps take O(1)
in all: ``split_max_and_drop_min_run`` for the tight degree-3 steps,
``lay_off_run`` for the lay-offs of a minimum v onto v entries of the
maximum, and ``peel_edge_run`` for edges between two entries of the
maximum.

Every mutation is a few calls of two bucket primitives: ``_put`` adds
entries just below a bucket, merging into the next one when it holds the
same value, and ``_drop`` removes entries, unlinking an emptied bucket.
A lay-off returns the ``(new value, count)`` runs the laid-off entry
joined, which is what a builder needs to replay it on a graph.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Iterable, Iterator, List, Mapping, Tuple

__all__ = [
    "DegreeSequence",
    "debug_asserts_enabled",
    "set_debug_asserts",
    "is_graphical",
    "is_multigraphical",
    "lay_off_graphical",
    "parse_sequence",
]


_DEBUG_ASSERTS: bool | None = None


def debug_asserts_enabled() -> bool:
    """Whether expensive internal consistency assertions are switched on.

    Controlled by the TCREAL_DEBUG_ASSERT environment variable (read
    once, then cached; tests can override with set_debug_asserts).
    """
    global _DEBUG_ASSERTS
    if _DEBUG_ASSERTS is None:
        _DEBUG_ASSERTS = os.environ.get("TCREAL_DEBUG_ASSERT") == "1"
    return _DEBUG_ASSERTS


def set_debug_asserts(value: bool | None) -> None:
    """Force (or with None, re-read) the debug-assertion switch."""
    global _DEBUG_ASSERTS
    _DEBUG_ASSERTS = value


class _Bucket:
    __slots__ = ("value", "count", "prev", "next")

    def __init__(self, value: int, count: int):
        self.value = value
        self.count = count
        self.prev: _Bucket | None = None
        self.next: _Bucket | None = None


class DegreeSequence:
    """A non-increasing sequence of non-negative integer degrees.

    ``entries`` is materialized on demand; the buckets are authoritative.
    Laying off mutates the sequence in place, so chained reductions never
    pay for copies, and returns the runs of entries it decremented.
    """

    __slots__ = ("head", "tail", "n", "total")

    def __init__(self, values: Iterable[int] = ()):
        self.head: _Bucket | None = None
        self.tail: _Bucket | None = None
        self.n = 0
        self.total = 0
        self._splice_counts(Counter(values))

    # -- bucket primitives ----------------------------------------------------

    def _splice_counts(self, counts: Mapping[int, int]) -> None:
        """Fill an empty sequence from ``counts`` (value -> multiplicity),
        one bucket per distinct value, largest first."""
        if counts and min(counts) < 0:
            raise ValueError("degrees must be non-negative")
        for v in sorted(counts, reverse=True):
            self._put(self.tail, v, counts[v])

    def _put(self, after: _Bucket | None, value: int, count: int) -> None:
        """Add ``count`` entries of ``value`` just below bucket ``after``
        (at the head when None), merging into the next bucket when it
        holds ``value``."""
        nxt = self.head if after is None else after.next
        if nxt is not None and nxt.value == value:
            nxt.count += count
        else:
            new = _Bucket(value, count)
            new.prev, new.next = after, nxt
            if after is None:
                self.head = new
            else:
                after.next = new
            if nxt is None:
                self.tail = new
            else:
                nxt.prev = new
        self.n += count
        self.total += value * count

    def _drop(self, node: _Bucket, count: int) -> None:
        """Remove ``count`` entries of bucket ``node``, unlinking it once
        it is empty."""
        node.count -= count
        self.n -= count
        self.total -= node.value * count
        if node.count == 0:
            if node.prev is None:
                self.head = node.next
            else:
                node.prev.next = node.next
            if node.next is None:
                self.tail = node.prev
            else:
                node.next.prev = node.prev

    def _find(self, value: int) -> _Bucket:
        """The bucket holding ``value``."""
        node = self.head
        while node is not None and node.value > value:
            node = node.next
        if node is None or node.value != value:
            raise ValueError(f"no entry of value {value}")
        return node

    # -- read access ----------------------------------------------------------

    def iter_buckets(self) -> Iterator[Tuple[int, int]]:
        node = self.head
        while node is not None:
            yield node.value, node.count
            node = node.next

    @property
    def entries(self) -> List[int]:
        out: List[int] = []
        for v, c in self.iter_buckets():
            out.extend([v] * c)
        return out

    @property
    def max_degree(self) -> int:
        if self.head is None:
            raise IndexError("empty sequence has no maximum degree")
        return self.head.value

    @property
    def min_degree(self) -> int:
        if self.tail is None:
            raise IndexError("empty sequence has no minimum degree")
        return self.tail.value

    def degree_at(self, i: int) -> int:
        """The i-th largest entry, 1-based."""
        if not 1 <= i <= self.n:
            raise IndexError(f"index {i} out of range for sequence of length {self.n}")
        seen = 0
        node = self.head
        while node is not None:
            seen += node.count
            if seen >= i:
                return node.value
            node = node.next
        raise AssertionError("bucket counts inconsistent with n")

    def degree_at_from_end(self, i: int) -> int:
        """The i-th smallest entry, 1-based (i=1 gives the minimum)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"index {i} out of range for sequence of length {self.n}")
        seen = 0
        node = self.tail
        while node is not None:
            seen += node.count
            if seen >= i:
                return node.value
            node = node.prev
        raise AssertionError("bucket counts inconsistent with n")

    def copy(self) -> "DegreeSequence":
        dup = DegreeSequence()
        for v, c in self.iter_buckets():
            dup._put(dup.tail, v, c)
        return dup

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DegreeSequence):
            return NotImplemented
        return list(self.iter_buckets()) == list(other.iter_buckets())

    def __hash__(self) -> int:
        return hash(tuple(self.iter_buckets()))

    def __repr__(self) -> str:
        return f"DegreeSequence({self.entries})"

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.entries)

    # -- mutation -------------------------------------------------------------

    def remove_entry_of_value(self, value: int) -> None:
        """Remove one entry of exactly ``value``."""
        self._drop(self._find(value), 1)

    def remove_min_entry(self) -> int:
        """Remove one entry of the minimum value in O(1); returns it."""
        node = self.tail
        if node is None:
            raise ValueError("cannot remove from an empty sequence")
        self._drop(node, 1)
        return node.value

    def add_entry(self, value: int) -> None:
        """Insert one entry, keeping the sort order."""
        if value < 0:
            raise ValueError("degrees must be non-negative")
        prev: _Bucket | None = None
        node = self.head
        while node is not None and node.value > value:
            prev, node = node, node.next
        self._put(prev, value, 1)

    def decrement_top(self, k: int) -> List[Tuple[int, int]]:
        """Decrement the k largest entries by one each, keeping sort order.

        Returns the ``(new value, count)`` runs moved, largest first.
        O(k) bucket work: only buckets overlapping the top-k prefix
        change.  Raises ``ValueError``, with nothing changed, if k > n
        or a 0 is among the top k.
        """
        if k > self.n:
            raise ValueError(f"cannot decrement top {k} of {self.n} entries")
        nodes: List[_Bucket] = []
        runs: List[Tuple[int, int]] = []
        node = self.head
        while k > 0:
            take = min(node.count, k)
            nodes.append(node)
            runs.append((node.value - 1, take))
            k -= take
            node = node.next
        if runs and runs[-1][0] < 0:
            raise ValueError("cannot decrement a zero entry")
        # Bottom up, so a bucket moving down to v - 1 never merges into a
        # bucket of v - 1 that has still to move: the partial last bucket
        # first, then each whole bucket above it.
        for node, (value, take) in zip(reversed(nodes), reversed(runs)):
            self._put(node, value, take)
            self._drop(node, take)
        return runs

    def decrement_one_of_value(self, value: int) -> None:
        """Decrement a single entry of exactly ``value`` by one."""
        if value <= 0:
            raise ValueError("cannot decrement an entry of value <= 0")
        node = self._find(value)
        self._put(node, value - 1, 1)
        self._drop(node, 1)

    def split_max_and_drop_min_run(self, limit: int) -> Tuple[int, int]:
        """Take k steps at once, in O(1), each decrementing one copy of
        the maximum and then removing one minimum entry
        (``decrement_one_of_value(max_degree)``, ``remove_min_entry()``).

        k is the largest count up to ``limit`` over which every step sees
        the same old maximum and the same minimum value, so a caller that
        would loop while the minimum stays put records one
        ``(old maximum, k)`` run instead of k equal steps.  Returns that
        pair.
        """
        head, tail = self.head, self.tail
        if head is None or tail is None:
            raise ValueError("cannot mutate an empty sequence")
        if limit < 1:
            raise ValueError("a run needs at least one step")
        value = head.value
        if value <= 0:
            raise ValueError("cannot decrement an entry of value <= 0")
        k = min(limit, head.count)
        if head is not tail and tail.value != value - 1:
            # The minimum bucket runs out unless each split entry joins it.
            k = min(k, tail.count)
        self._put(head, value - 1, k)
        self._drop(head, k)
        self._drop(self.tail, k)  # the split entries, if all were equal
        return value, k

    def lay_off_run(self, limit: int) -> Tuple[int, int]:
        """Take k lay-offs of the minimum v >= 2 at once, in O(1), each
        joining one entry of v to v entries of the maximum h > v
        (``lay_off_graphical``).

        Every step sees the same v and h while the maximum bucket holds
        v entries and an entry of v is left to lay off: k is at most
        ``head.count // v``, at most the count of v unless the new
        entries of h - 1 join it (h - 1 = v), and at most ``limit``.
        Returns ``(h - 1, k)``, or ``(0, 0)`` with nothing changed where
        no step applies.
        """
        if limit < 1:
            raise ValueError("a run needs at least one step")
        head, tail = self.head, self.tail
        if head is tail or tail.value < 2 or head.count < tail.value:
            return 0, 0
        v = tail.value
        value = head.value - 1
        k = min(limit, head.count // v)
        if value != v:
            k = min(k, tail.count)
        self._put(head, value, v * k)
        self._drop(head, v * k)
        self._drop(tail, k)
        return value, k

    def peel_edge_run(self, limit: int) -> Tuple[int, int]:
        """Take k steps at once, in O(1), each decrementing two entries of
        the maximum h (``decrement_one_of_value(h)`` twice), the ends of
        one peeled edge.

        k is the most steps up to ``limit`` whose two entries both sit in
        the maximum bucket, ``head.count // 2``.  Returns ``(h - 1, k)``,
        or ``(0, 0)`` with nothing changed where no step applies.
        """
        if limit < 1:
            raise ValueError("a run needs at least one step")
        head = self.head
        if head is None or head.count < 2:
            return 0, 0
        value = head.value - 1
        if value < 0:
            raise ValueError("cannot decrement an entry of value <= 0")
        k = min(limit, head.count // 2)
        self._put(head, value, 2 * k)
        self._drop(head, 2 * k)
        return value, k

    def _check_consistency(self) -> None:
        vals = []
        node = self.head
        prev = None
        total = 0
        count = 0
        while node is not None:
            assert node.count >= 1
            if prev is not None:
                assert prev.value > node.value
            assert node.prev is prev
            total += node.value * node.count
            count += node.count
            vals.append(node.value)
            prev = node
            node = node.next
        assert self.tail is prev
        assert total == self.total, (total, self.total)
        assert count == self.n


def is_graphical(d: DegreeSequence) -> bool:
    """Erdős–Gallai test: even sum plus the prefix inequalities.

    Runs over the (value, count) buckets in O(number of distinct values):
    the prefix inequality only needs checking where the value changes
    (everywhere else it is implied by its neighbors), and only up to the
    largest r with d_r >= r (beyond that it holds automatically).
    """
    if d.n == 0:
        return True
    if d.total % 2 == 1:
        return False
    groups = list(d.iter_buckets())
    if groups[0][0] >= d.n:
        return False
    k = len(groups)
    # Suffix counts / sums over whole buckets, for the min(r, d_i) tail.
    suf_cnt = [0] * (k + 1)
    suf_sum = [0] * (k + 1)
    for j in range(k - 1, -1, -1):
        v, c = groups[j]
        suf_cnt[j] = suf_cnt[j + 1] + c
        suf_sum[j] = suf_sum[j + 1] + v * c
    split = k  # first bucket index whose value is < rc (values descend)
    prefix = 0
    r = 0
    for gi, (v, c) in enumerate(groups):
        if v <= r:
            break  # past the largest r with d_r >= r
        rc = r + c if v >= r + c else v  # checkpoint: bucket end, clipped
        prefix_rc = prefix + (rc - r) * v
        while split > gi + 1 and groups[split - 1][0] < rc:
            split -= 1
        # Entries after position rc: the rest of this bucket contributes
        # min(v, rc) each; later buckets split at value >= rc vs below.
        tail = (r + c - rc) * (v if v < rc else rc)
        tail += rc * (suf_cnt[gi + 1] - suf_cnt[split]) + suf_sum[split]
        if prefix_rc > rc * (rc - 1) + tail:
            return False
        if rc < r + c:
            break
        prefix = prefix_rc
        r = rc
    return True


def is_multigraphical(d: DegreeSequence) -> bool:
    """Even sum and the maximum degree at most the sum of the rest."""
    if d.n == 0:
        return True
    if d.total % 2 == 1:
        return False
    return d.max_degree <= d.total - d.max_degree


def lay_off_graphical(d: DegreeSequence) -> List[Tuple[int, int]]:
    """Remove the last (minimum) entry d_n and decrement the largest d_n
    remaining entries, in place, in O(d_n) bucket work.  Returns the
    ``(new value, count)`` runs the laid-off entry joins, largest first
    (``decrement_top``)."""
    value = d.min_degree
    if value >= d.n:
        raise ValueError(f"entry {value} cannot connect to {value} distinct other vertices")
    d.remove_min_entry()
    runs = d.decrement_top(value)
    if debug_asserts_enabled():
        d._check_consistency()
    return runs


def _shown(token: str) -> str:
    """``token`` quoted for an error message, cut short if it is long."""
    if len(token) <= 40:
        return repr(token)
    return f"{token[:40]!r}... ({len(token)} characters)"


def parse_sequence(text: str) -> DegreeSequence:
    """Parse degrees written in ASCII decimal digits, separated by
    whitespace or commas.

    Counts the tokens first, so each distinct token is checked and
    converted once and the buckets are spliced one run per distinct
    value.  Any other token raises ``ValueError`` naming the first bad
    one: ``-`` and digits as a negative degree, everything else (``+3``,
    ``1_0``, non-ASCII digits, more digits than ``int`` takes) as
    malformed.
    """
    values: Counter = Counter()
    for token, count in Counter(text.replace(",", " ").split()).items():
        if not (token.isascii() and token.isdigit()):
            digits = token[1:]
            if token[0] == "-" and digits.isascii() and digits.isdigit():
                raise ValueError(f"negative degree in sequence: {_shown(token)}")
            raise ValueError(f"malformed degree sequence: bad token {_shown(token)}")
        try:
            values[int(token)] += count
        except ValueError as exc:  # beyond int()'s digit limit
            raise ValueError(
                f"malformed degree sequence: bad token {_shown(token)}") from exc
    d = DegreeSequence()
    d._splice_counts(values)
    return d
