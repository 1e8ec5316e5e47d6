"""Multigraph storage with degree buckets, tree flags, and time labels.

The constructions repeatedly ask "give me a vertex whose current degree is
x"; the store answers this from a per-degree bucket index, a
``defaultdict(list)`` from degree to a plain stack of vertex ids, so a
push is ``buckets[d].append(v)``.  Stacks invalidate lazily (a popped id
is valid only if the vertex still has that degree), which keeps every
attach amortized proportional to the number of requested targets.  Ties
between vertices of equal degree break deterministically (most recently
pushed wins), which is all the constructions need.

The constructions mostly append edges, so the store keeps flat per-edge
lists (endpoints, flags, labels) plus the degrees and buckets.  Deleting
an edge (``remove_edge``, the bulk replays) flags its slot dead, so the
ids a construction holds stay valid, and ``finish()`` then drops the
dead slots, keeping the edge order.  Every graph the library hands out
is finished: readers call ``edge_ids()``, which raises ``GraphError``
otherwise, and index the per-edge lists densely.

Simple mode forbids parallel edges, but only untrusted input is checked
for them as it comes in: ``from_json_dict`` rejects the first repeated
endpoint pair, and ``validate()`` counts them.  The constructions add
only edges that cannot be parallel (to a brand-new vertex, or between
two components), and the golden corpus checks their outputs.
"""

from __future__ import annotations

import io
import json
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, compress, cycle, islice, repeat
from typing import DefaultDict, Dict, Iterator, List, Optional, Sequence, Set, TextIO, Tuple

from .degseq import debug_asserts_enabled

__all__ = [
    "FLAG_NONE",
    "FLAG_T1",
    "FLAG_T2",
    "FLAG_BOTH",
    "LabeledMultigraph",
    "Certificate",
    "GraphError",
]

FLAG_NONE = 0
FLAG_T1 = 1
FLAG_T2 = 2
FLAG_BOTH = 3

_DEAD = 4  # the flag of a dead edge slot, which finish() drops
_FLAG_NAMES = {FLAG_NONE: "none", FLAG_T1: "t1", FLAG_T2: "t2", FLAG_BOTH: "both"}
_FLAG_VALUES = {v: k for k, v in _FLAG_NAMES.items()}
# The layout json.dumps(document, indent=2) gives; see write_json.  The
# record takes its ints by %s, which formats them as %d does, faster.
_HEAD = '{\n  "mode": "%s",\n  "n": %d,\n  "edges": '
_TAIL = ',\n  "central_cycle": %s\n}'
_EDGE_RECORD = (
    '    {\n      "id": %s,\n      "u": %s,\n      "v": %s,\n'
    '      "tree": "%s",\n      "label": %s\n    }'
)
_NULL_FOR_NONE = {None: "null"}
# Records or lines formatted per write (~1 MB of JSON), so an export
# holds one block of text at a time, whatever the edge count.
_BLOCK = 8192
_DOT_COLORS = {FLAG_NONE: "gray", FLAG_T1: "orange", FLAG_T2: "blue", FLAG_BOTH: "purple"}
_DOT_CORE = " [shape=doublecircle, style=filled, fillcolor=lightgray]"
# bytes.translate tables: flag byte -> 1 if the edge is in that tree.
_IN_TREE1 = bytes(1 if f & FLAG_T1 else 0 for f in range(256))
_IN_TREE2 = bytes(1 if f & FLAG_T2 else 0 for f in range(256))
_LIVE = bytes(0 if f == _DEAD else 1 for f in range(256))


def _pair_key(u: int, v: int) -> int:
    """The endpoint pair u-v packed into one int, the same both ways round."""
    return u << 32 | v if u < v else v << 32 | u


class GraphError(ValueError):
    """Raised when a graph operation violates the store's contracts."""


@dataclass
class Certificate:
    """A read-only view, as edge-id sets, of the certificate a graph's
    tree flags and core hold: two spanning trees plus the shared core."""

    tree1: Set[int] = field(default_factory=set)
    tree2: Set[int] = field(default_factory=set)
    shared: Set[int] = field(default_factory=set)
    central_cycle: Optional[Tuple[int, int, int, int]] = None


class LabeledMultigraph:
    """Undirected (multi)graph with per-edge identity, flags, and labels."""

    def __init__(self, mode: str = "simple"):
        if mode not in ("simple", "multi"):
            raise GraphError(f"unknown mode {mode!r}")
        self.mode = mode
        self.eu: List[int] = []
        self.ev: List[int] = []
        self.eflag: List[int] = []
        self.elabel: List[Optional[int]] = []
        self._dead = 0  # slots flagged _DEAD
        self.vdeg: List[int] = []
        self._buckets: DefaultDict[int, List[int]] = defaultdict(list)
        self.central_cycle: Optional[Tuple[int, int, int, int]] = None

    # -- basic accessors ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vdeg)

    @property
    def num_edges(self) -> int:
        return len(self.eu) - self._dead

    def edge_ids(self) -> range:
        """The edge ids 0..m-1; raises ``GraphError`` while dead slots remain."""
        if self._dead:
            raise GraphError(f"{self._dead} dead edge slots; call finish() first")
        return range(len(self.eu))

    def endpoints(self, e: int) -> Tuple[int, int]:
        if not (0 <= e < len(self.eu)) or self.eflag[e] == _DEAD:
            raise GraphError(f"unknown edge id {e}")
        return self.eu[e], self.ev[e]

    def degrees(self) -> List[int]:
        return list(self.vdeg)

    # -- vertex / edge mutation ----------------------------------------------

    def add_vertex(self) -> int:
        v = len(self.vdeg)
        self.vdeg.append(0)
        self._buckets[0].append(v)
        return v

    def add_edge(self, u: int, v: int, flag: int = FLAG_NONE) -> int:
        if u == v:
            raise GraphError("self-loops are not allowed")
        n = len(self.vdeg)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"unknown endpoint in ({u}, {v})")
        e = len(self.eu)
        self.eu.append(u)
        self.ev.append(v)
        self.eflag.append(flag)
        self.elabel.append(None)
        vdeg = self.vdeg
        buckets = self._buckets
        du = vdeg[u] + 1
        vdeg[u] = du
        buckets[du].append(u)
        dv = vdeg[v] + 1
        vdeg[v] = dv
        buckets[dv].append(v)
        return e

    def remove_edge(self, e: int) -> None:
        u, v = self.endpoints(e)
        self.eflag[e] = _DEAD
        self._dead += 1
        for x in (u, v):
            self.vdeg[x] -= 1
            self._buckets[self.vdeg[x]].append(x)

    def replay_degree3_insertions(
        self, runs: Sequence[Tuple[int, int]], t2_pair: Tuple[int, int]
    ) -> Tuple[int, int]:
        """Insert k degree-3 vertices per run (d1, k) of ``runs``.

        Each step pops a vertex u of degree d1 - 1, picks from ``t2_pair``
        (two vertex-disjoint tree-2 edges) one edge avoiding u, deletes
        it, and adds a vertex w joined to u (tree 1) and to both ends of
        that edge (tree 2); of the old vertices only u's degree changes.
        The pair is maintained by replacing the used edge with one of the
        two new tree-2 edges; the updated pair is returned.  This is the
        inner loop of the tight-sum construction: the lists whose new
        entries do not depend on the choices (flags, labels, the new
        vertices' ends and degrees) are extended once up front.

        Each step pushes its w, of degree 3, last onto bucket 3, so a
        step with old maximum 4 pops the previous w as its u.  That u is
        on no edge of the pair, so from the third step of a run of 4s on
        no swap happens: the step kills the (a, w) edge of two steps
        before, a alternates between two vertices, b is w - 2, and the
        killed slots step by 3.  Such a run past its first two steps is
        replayed in bulk, with slices; other steps, whose u comes off an
        older stack, run one at a time.  Both give the same result, so
        where a run is split does not matter.
        """
        k = sum(count for _, count in runs)
        eu, ev = self.eu, self.ev
        eflag, vdeg = self.eflag, self.vdeg
        buckets = self._buckets
        w0 = len(vdeg)
        e0 = len(eu)
        new_vertices = list(range(w0, w0 + k))
        ev += chain.from_iterable(zip(new_vertices, new_vertices, new_vertices))
        eflag += (FLAG_T1, FLAG_T2, FLAG_T2) * k
        self.elabel += (None,) * (3 * k)
        # A new vertex enters a bucket only once inserted, so presetting
        # the degrees of the ones still to come is invisible to lookups.
        vdeg += (3,) * k
        three = buckets[3]
        push3 = three.append
        pop = self._pop_vertex
        add_u = eu.append
        pick, other = t2_pair
        e1 = e0
        i = 0  # steps done
        try:
            for d1, count in runs:
                end = i + count
                x = d1 - 1
                up = buckets[x + 1]
                # A run of 4s takes its first two steps here, the rest below.
                stop = min(end, i + 2) if x == 3 else end
                for w in new_vertices[i:stop]:
                    u = pop(x)
                    a = eu[pick]
                    b = ev[pick]
                    if u == a or u == b:
                        pick, other = other, pick
                        a = eu[pick]
                        b = ev[pick]
                    eflag[pick] = _DEAD
                    add_u(u)
                    add_u(a)
                    add_u(b)
                    vdeg[u] = x + 1
                    up.append(u)
                    push3(w)
                    pick, other = other, e1 + 1
                    e1 += 3
                i = (e1 - e0) // 3
                if i < end:
                    # Steps i..end-1 of a run of 4s: u is the previous w,
                    # a the a of two steps before, b the w of two steps
                    # before, whose (a, w) slot, e1 - 5 for step i, dies.
                    rest = end - i
                    us = new_vertices[i - 1:end - 1]
                    if debug_asserts_enabled():
                        assert (pick, three[-1], vdeg[us[0]]) == (e1 - 5, us[0], 3), i
                    eu += chain.from_iterable(
                        zip(us, cycle((eu[e1 - 5], eu[e1 - 2])), new_vertices[i - 2:end - 2]))
                    eflag[e1 - 5:e1 - 5 + 3 * rest:3] = [_DEAD] * rest
                    vdeg[w0 + i - 1:w0 + end - 1] = [4] * rest
                    up += us
                    three[-1] = new_vertices[end - 1]
                    e1 += 3 * rest
                    pick, other = e1 - 5, e1 - 2
                    i = end
                    if debug_asserts_enabled():
                        assert vdeg[us[-1]] == 4 and three[-1] == new_vertices[end - 1], i
                        assert eflag.count(_DEAD) == self._dead + (e1 - e0) // 3, i
        except BaseException:
            # Keep the steps done so far; drop the slots preset for the rest.
            del ev[e1:], eflag[e1:], self.elabel[e1:]
            del vdeg[w0 + (e1 - e0) // 3:]
            raise
        finally:
            self._dead += (e1 - e0) // 3  # one deleted edge per step done
        return pick, other

    def replay_c4_merges(
        self, k: int, pairs: Tuple[Tuple[int, int], Tuple[int, int]]
    ) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Add ``k`` degree-4 vertices, each merging a cross-tree pair.

        ``pairs`` holds two pairs (tree-1 edge, tree-2 edge), each pair a
        matching, with no edge in both.  Each step deletes the first
        pair's edges p-q and x-y and adds a vertex w joined to p, q
        (tree 1) and to x, y (tree 2), so no old degree changes.  The
        next first pair is the old second pair's tree-1 edge with a new
        tree-2 edge, the next second pair a new tree-1 edge with the old
        second pair's tree-2 edge, each new edge chosen to avoid the
        kept edge's ends.  Returns the final pairs.  This grows the all-3
        central-4-cycle family: the lists whose new entries do not depend
        on the pairs are extended once up front.

        Bucket entries: p, q, x and y go into the buckets of their
        unchanged degrees and w into bucket 4, in the order a merge made
        of ``remove_edge``, ``add_vertex`` and ``add_edge`` calls pushes
        them.  Such a merge also pushes each of them into lower buckets on
        the way; degrees only grow after the merges, so no lookup could
        find those entries valid, and they are skipped.

        From the third step on, the merges on the all-3 base settle into
        a fixed pattern: the first pair is the w-p edge of two steps
        before (slot e - 8, e the step's first new slot) and the w-x edge
        of the step before (e - 2), so p alternates between two vertices,
        x is fixed, q = w - 2 and y = w - 1; the second pair is the
        previous w-p edge and the fixed tree-2 edge.  That holds on as
        long as x is neither p and neither p is an end of the fixed edge,
        and the step then pushes p and x onto bucket 3 and q, y and w
        onto bucket 4 when p and x have degree 3.  After two steps one at
        a time the rest is replayed with slices when that premise holds
        (an O(1) check), and one at a time otherwise.
        """
        (e1, e2), (f1, f2) = pairs
        eu, ev = self.eu, self.ev
        eflag, vdeg = self.eflag, self.vdeg
        buckets = self._buckets
        w0 = len(vdeg)
        e = len(eu)
        new_vertices = list(range(w0, w0 + k))
        ev += chain.from_iterable(
            zip(new_vertices, new_vertices, new_vertices, new_vertices))
        eflag += (FLAG_T1, FLAG_T1, FLAG_T2, FLAG_T2) * k
        self._dead += 2 * k
        self.elabel += (None,) * (4 * k)
        # The merged ends keep their degrees and every new vertex ends at
        # 4, so vdeg already holds the degree each push below needs.
        vdeg += (4,) * k
        add_u = eu.append
        for i, w in enumerate(new_vertices):
            # The warm-up chose f1 = e - 8, then e - 4, so neither p is an
            # end of f2, which no step changes.
            if i == 2 and (e1, e2, f1) == (e - 8, e - 2, e - 4):
                pa, pb, x = eu[e - 8], eu[e - 4], eu[e - 2]
                if x != pa and x != pb and vdeg[pa] == vdeg[pb] == vdeg[x] == 3:
                    # Steps 2..k-1: p alternates pa, pb, q = w - 2,
                    # y = w - 1, and each kills its slots e - 8, e - 2.
                    rest = k - 2
                    qs = new_vertices[:-2]
                    ys = new_vertices[1:-1]
                    eu += chain.from_iterable(zip(cycle((pa, pb)), qs, repeat(x), ys))
                    eflag[e - 8:e - 8 + 4 * rest:4] = [_DEAD] * rest
                    eflag[e - 2:e - 2 + 4 * rest:4] = [_DEAD] * rest
                    buckets[3] += chain.from_iterable(zip(cycle((pa, pb)), repeat(x, rest)))
                    buckets[4] += chain.from_iterable(zip(qs, ys, new_vertices[2:]))
                    e += 4 * rest
                    e1, e2, f1 = e - 8, e - 2, e - 4
                    if debug_asserts_enabled():
                        assert eflag.count(_DEAD) == self._dead, k
                        assert buckets[3][-1] == x and buckets[4][-1] == w0 + k - 1, k
                    break
            p = eu[e1]
            q = ev[e1]
            x = eu[e2]
            y = ev[e2]
            eflag[e1] = eflag[e2] = _DEAD
            add_u(p)
            add_u(q)
            add_u(x)
            add_u(y)
            for v in (p, q, x, y, w):
                buckets[vdeg[v]].append(v)
            # New edges e..e+3 are w-p, w-q, w-x, w-y.
            a = eu[f1]
            b = ev[f1]
            c = eu[f2]
            d = ev[f2]
            e1 = f1
            e2 = e + 3 if x == a or x == b else e + 2
            f1 = e + 1 if p == c or p == d else e
            e += 4
        return (e1, e2), (f1, f2)

    def attach_run(self, targets: Sequence[int], k: int = 1) -> int:
        """Add ``k`` vertices, each joined to one vertex of each degree in
        ``targets``, looked up in order as the degrees change; returns the
        id of the first new edge.

        This replays ``k`` lay-offs of one shape.  A new vertex with two
        or more targets gets tree-1 and tree-2 flags on its first two
        edges.  A new vertex is never its own target.  It can be found
        valid only by a lookup at the degree it has just reached, where
        its own last push left it on top, so that lookup pops from below
        it.  Other repeats are left to the order: a target found at
        degree x moves to x + 1, so targets listed largest first are
        distinct, while an ascending pair may meet one vertex twice
        (multi mode).  Degrees and buckets change per edge as single
        steps change them, target before new vertex; the per-edge lists
        are extended once.  Raises ``GraphError`` when a bucket runs dry,
        keeping the edges added.
        """
        vdeg = self.vdeg
        buckets = self._buckets
        w0 = len(vdeg)
        e0 = len(self.eu)
        # Per edge of a vertex: its target degree, the bucket it pops and
        # from where, and the buckets the target and new vertex go to.
        steps = [(x, -2 if x == dw - 1 else -1, buckets[x], buckets[x + 1], dw, buckets[dw])
                 for dw, x in enumerate(targets, 1)]
        zero = buckets[0]
        ends: List[int] = []
        news: List[int] = []
        try:
            for w in range(w0, w0 + k):
                vdeg.append(0)
                zero.append(w)
                for x, at, bucket, up, dw, mine in steps:
                    u = bucket.pop(at)
                    while vdeg[u] != x:
                        u = bucket.pop(at)
                    vdeg[u] = x + 1
                    up.append(u)
                    vdeg[w] = dw
                    mine.append(w)
                    ends.append(u)
                    news.append(w)
        except IndexError:
            raise GraphError(f"no available vertex of degree {x}") from None
        finally:
            done = len(ends)
            r = len(steps)
            flags = (FLAG_T1, FLAG_T2) + (FLAG_NONE,) * (r - 2) if r > 1 else (FLAG_NONE,) * r
            self.eu += ends
            self.ev += news
            self.eflag += (flags * k)[:done]
            self.elabel += (None,) * done
        return e0

    def edge_run(self, x: int, y: int, k: int = 1) -> int:
        """Add ``k`` edges, each between a vertex of degree ``x`` and then
        one of degree ``y``, both popped before either degree changes;
        returns the id of the first new edge.

        This replays ``k`` peeled edges of one shape, each as
        ``add_edge(_pop_vertex(x), _pop_vertex(y))`` would: the same
        pops, degrees and pushes, with the per-edge lists extended once.
        Raises ``GraphError`` when a bucket runs dry or both pops find one
        vertex, keeping the edges added; the failed step's found vertices
        go back on their buckets, so ``validate()`` holds.
        """
        vdeg = self.vdeg
        buckets = self._buckets
        at_x, at_y = buckets[x], buckets[y]
        up_x, up_y = buckets[x + 1], buckets[y + 1]
        us: List[int] = []
        vs: List[int] = []
        e0 = len(self.eu)
        u = None
        try:
            for _ in range(k):
                u = at_x.pop()
                while vdeg[u] != x:
                    u = at_x.pop()
                v = at_y.pop()
                while vdeg[v] != y:
                    v = at_y.pop()
                if u == v:
                    at_y.append(v)
                    at_x.append(u)
                    raise GraphError("self-loops are not allowed")
                vdeg[u] = x + 1
                up_x.append(u)
                vdeg[v] = y + 1
                up_y.append(v)
                us.append(u)
                vs.append(v)
        except IndexError:
            # u is found at x only when the lookup at y ran dry.
            found = u is not None and vdeg[u] == x
            if found:
                at_x.append(u)
            raise GraphError(f"no available vertex of degree {y if found else x}") from None
        finally:
            done = len(us)
            self.eu += us
            self.ev += vs
            self.eflag += (FLAG_NONE,) * done
            self.elabel += (None,) * done
        return e0

    # -- degree bucket queries -------------------------------------------------

    def _pop_vertex(self, deg: int) -> int:
        """Pop the top valid entry of bucket ``deg``, dropping the stale
        entries above it; raises ``GraphError`` when it runs dry."""
        bucket = self._buckets.get(deg)
        vdeg = self.vdeg
        while bucket:
            v = bucket.pop()
            if vdeg[v] == deg:
                return v
        raise GraphError(f"no available vertex of degree {deg}")

    # -- validation ------------------------------------------------------------

    def validate(self) -> bool:
        """All store invariants: degrees vs live edges, dead slots, mode, labels."""
        live = bytes(self.eflag).translate(_LIVE)
        deg = [0] * self.n
        seen_pairs: Dict[int, int] = {}
        for u, v, lab in compress(zip(self.eu, self.ev, self.elabel), live):
            if u == v:
                return False
            deg[u] += 1
            deg[v] += 1
            key = _pair_key(u, v)
            seen_pairs[key] = seen_pairs.get(key, 0) + 1
            if lab is not None and lab < 1:
                return False
        if deg != self.vdeg or live.count(0) != self._dead:
            return False
        if self.mode == "simple" and any(c > 1 for c in seen_pairs.values()):
            return False
        # Every vertex must have an entry in the bucket of its current degree.
        listed = {(d, v) for d, bucket in self._buckets.items() for v in bucket}
        return all((d, v) in listed for v, d in enumerate(self.vdeg))

    def finish(self) -> "LabeledMultigraph":
        """Drop the dead edge slots in one pass that keeps the live edges'
        order; returns the graph.  Ids taken before are stale; a finished
        graph is left as it is."""
        if self._dead:
            live = bytes(self.eflag).translate(_LIVE)
            self.eu, self.ev, self.eflag, self.elabel = (
                list(compress(col, live)) for col in (self.eu, self.ev, self.eflag, self.elabel))
            self._dead = 0
        return self

    def certificate_from_flags(self) -> Certificate:
        """The ``Certificate`` view of the tree flags and core."""
        ids = self.edge_ids()
        flags = bytes(self.eflag)
        t1 = set(compress(ids, flags.translate(_IN_TREE1)))
        t2 = set(compress(ids, flags.translate(_IN_TREE2)))
        return Certificate(t1, t2, t1 & t2, self.central_cycle)

    # -- serialization ---------------------------------------------------------

    def write_json(self, out: TextIO) -> None:
        """Write the document to ``out`` as ``json.dumps(..., indent=2)``
        lays it out, ``_BLOCK`` edge records at a time.

        The records are filled from the per-edge lists directly: the
        ``json`` encoder runs in pure Python whenever it indents, and
        one dict per edge would be built only to be encoded.  Each block
        is one ``%`` call, of ``_BLOCK`` records' template joined by
        ``",\n"``, on the block's columns flattened record by record.
        """
        m = len(self.edge_ids())
        eu, ev, eflag, elabel = self.eu, self.ev, self.eflag, self.elabel
        template = ",\n".join([_EDGE_RECORD] * min(m, _BLOCK))
        out.write(_HEAD % (self.mode, self.n) + "[")
        for s in range(0, m, _BLOCK):
            t = s + _BLOCK
            if t > m:  # the last, short block
                template = ",\n".join([_EDGE_RECORD] * (m - s))
            labels = elabel[s:t]
            if None in labels:
                labels = map(_NULL_FOR_NONE.get, labels, labels)  # None -> null
            out.write(",\n" if s else "\n")
            out.write(template % tuple(chain.from_iterable(zip(
                range(s, t), eu[s:t], ev[s:t],
                map(_FLAG_NAMES.__getitem__, eflag[s:t]), labels))))
        out.write("\n  ]" if m else "]")
        cyc = self.central_cycle
        out.write(_TAIL % (
            "[\n    %s\n  ]" % ",\n    ".join(map(str, cyc)) if cyc else "null"))

    def to_json(self) -> str:
        """The document ``write_json`` writes, as one string."""
        buf = io.StringIO()
        self.write_json(buf)
        return buf.getvalue()

    @classmethod
    def from_json_dict(cls, data: dict) -> "LabeledMultigraph":
        """Load an untrusted document.  Numbers are taken only as exact
        ints (never ``bool``, float or string) in range; anything else
        raises ``GraphError`` rather than being coerced.  In simple mode
        the first edge repeating an endpoint pair, either way round, is
        rejected."""
        try:
            g = cls(data["mode"])
            n = data["n"]
            if type(n) is not int or n < 0:
                raise GraphError(f"n must be a non-negative integer, got {n!r}")
            for _ in range(n):
                g.add_vertex()
            pairs: Optional[Set[int]] = set() if g.mode == "simple" else None
            for rec in data["edges"]:
                u, v = rec["u"], rec["v"]
                if not (type(u) is int and type(v) is int
                        and 0 <= u < n and 0 <= v < n):
                    raise GraphError(f"edge endpoints must be integers in [0, {n}): {rec}")
                e = g.add_edge(u, v, _FLAG_VALUES[rec["tree"]])
                if pairs is not None:
                    key = _pair_key(u, v)
                    if key in pairs:
                        raise GraphError(f"parallel edge ({u}, {v}) in simple mode")
                    pairs.add(key)
                lab = rec.get("label")
                if lab is not None:
                    if type(lab) is not int or lab < 1:
                        raise GraphError(f"label must be a positive integer: {rec}")
                    g.elabel[e] = lab
            cyc = data.get("central_cycle")
            if cyc is not None:
                if not (type(cyc) is list and len(cyc) == 4
                        and all(type(x) is int and 0 <= x < n for x in cyc)
                        and len(set(cyc)) == 4):
                    raise GraphError(
                        f"central_cycle must be 4 distinct vertices in [0, {n}): {cyc!r}")
                g.central_cycle = tuple(cyc)  # type: ignore[assignment]
            return g
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, GraphError):
                raise
            raise GraphError(f"malformed graph document: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "LabeledMultigraph":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # ValueError: JSONDecodeError, or an integer longer than the
            # interpreter's digit limit; RecursionError: arrays or
            # objects nested too deep to decode.
            raise GraphError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(data)

    def write_dot(self, out: TextIO) -> None:
        """Write the graph to ``out`` in Graphviz DOT, ``_BLOCK`` lines at a
        time: the central cycle's vertices filled, each edge colored by
        its tree flag and tagged with its label."""
        self.edge_ids()  # finished graphs only
        cyc = set(self.central_cycle or ())
        vertices = (f"  {v}{_DOT_CORE if v in cyc else ''};" for v in range(self.n))
        edges = (
            f"  {u} -- {v} [color={_DOT_COLORS[f]}"
            + ("" if lab is None else f', label="{lab}"') + "];"
            for u, v, f, lab in zip(self.eu, self.ev, self.eflag, self.elabel)
        )
        _write_joined(out, chain(("graph G {",), vertices, edges, ("}",)), "\n")

    def to_dot(self) -> str:
        """The graph ``write_dot`` writes, as one string."""
        buf = io.StringIO()
        self.write_dot(buf)
        return buf.getvalue()


def _write_joined(out: TextIO, items: Iterator[str], sep: str) -> None:
    """Write ``sep.join(items)`` to ``out``, joining ``_BLOCK`` items at a
    time.  No item may be the empty string."""
    wrote = False
    for block in iter(lambda: sep.join(islice(items, _BLOCK)), ""):
        if wrote:
            out.write(sep)
        out.write(block)
        wrote = True
