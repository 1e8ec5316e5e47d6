"""Multigraph storage with degree buckets, tree flags, and time labels.

The constructions repeatedly ask "give me a vertex whose current degree is
x"; the store answers this from a per-degree bucket index.  Buckets are
plain stacks of vertex ids with lazy invalidation (a popped id is valid
only if the vertex still has that degree), which keeps every attach
amortized proportional to the number of requested targets.  Ties between
vertices of equal degree break deterministically (most recently pushed
wins), which is all the constructions need.

The constructions mostly append edges, so the store keeps flat per-edge
lists (endpoints, flags, liveness, labels) plus the degrees and buckets.
In simple mode an endpoint-pair index rejects parallel edges; it is
built in one O(n + m) pass by the first ``add_edge`` (which
``from_json`` uses for every edge), and ``add_edge`` and ``remove_edge``
keep it current.  The trusted bulk primitives skip it:
``attach_vertex``, the degree-3 insertions and the central-4-cycle
merges (``replay_c4_merges``) add only edges ending at a brand-new
vertex, which cannot be parallel, so they drop the index and the next
``add_edge`` rebuilds it.  The constructions switch between the two
kinds of addition a bounded number of times, so the rebuilds stay
linear.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, compress, count
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

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

_FLAG_NAMES = {FLAG_NONE: "none", FLAG_T1: "t1", FLAG_T2: "t2", FLAG_BOTH: "both"}
_FLAG_VALUES = {v: k for k, v in _FLAG_NAMES.items()}
# The layout json.dumps(to_json_dict(), indent=2) gives; see to_json.
_HEAD = '{\n  "mode": "%s",\n  "n": %d,\n  "edges": '
_TAIL = ',\n  "central_cycle": %s\n}'
_EDGE_RECORD = (
    '    {\n      "id": %d,\n      "u": %d,\n      "v": %d,\n'
    '      "tree": "%s",\n      "label": %s\n    }'
)
_NULL_FOR_NONE = {None: "null"}
# bytes.translate tables: flag byte -> 1 if the edge is in that tree.
_IN_TREE1 = bytes(1 if f & FLAG_T1 else 0 for f in range(256))
_IN_TREE2 = bytes(1 if f & FLAG_T2 else 0 for f in range(256))


class GraphError(ValueError):
    """Raised when a graph operation violates the store's contracts."""


@dataclass
class Certificate:
    """Structural witness: two spanning trees plus the shared-edge core.

    ``matching_pairs`` is construction-internal bookkeeping for the
    boundary induction; each pair holds one tree-1 edge and one tree-2
    edge, neither on the central cycle, forming a matching.
    """

    tree1: Set[int] = field(default_factory=set)
    tree2: Set[int] = field(default_factory=set)
    shared: Set[int] = field(default_factory=set)
    central_cycle: Optional[Tuple[int, int, int, int]] = None
    matching_pairs: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None


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
        self.ealive: List[bool] = []
        self.vdeg: List[int] = []
        self._buckets: Dict[int, List[int]] = {}
        # Simple mode: packed endpoint pairs, built on first use; None
        # until then or once dropped.
        self._pairs: Optional[Set[int]] = None
        self.central_cycle: Optional[Tuple[int, int, int, int]] = None
        # Set by the all-3 boundary construction; see Certificate.
        self.matching_pairs: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None

    # -- basic accessors ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vdeg)

    @property
    def num_edges(self) -> int:
        return self.ealive.count(True)

    def edge_ids(self) -> Iterator[int]:
        for e, alive in enumerate(self.ealive):
            if alive:
                yield e

    def endpoints(self, e: int) -> Tuple[int, int]:
        if not (0 <= e < len(self.eu)) or not self.ealive[e]:
            raise GraphError(f"unknown edge id {e}")
        return self.eu[e], self.ev[e]

    def degree(self, v: int) -> int:
        return self.vdeg[v]

    def degrees(self) -> List[int]:
        return list(self.vdeg)

    def _pair_key(self, u: int, v: int) -> int:
        a, b = (u, v) if u < v else (v, u)
        return a * (1 << 32) + b

    # -- on-demand pair index ---------------------------------------------------

    def _build_pairs(self) -> Set[int]:
        """Packed endpoint pairs of the live edges, in one pass."""
        return {
            u * 4294967296 + v if u < v else v * 4294967296 + u
            for u, v, alive in zip(self.eu, self.ev, self.ealive)
            if alive
        }

    # -- vertex / edge mutation ----------------------------------------------

    def add_vertex(self) -> int:
        v = len(self.vdeg)
        self.vdeg.append(0)
        self._bucket_push(0, v)
        return v

    def _bucket_push(self, deg: int, v: int) -> None:
        bucket = self._buckets.get(deg)
        if bucket is None:
            self._buckets[deg] = [v]
        else:
            bucket.append(v)

    def add_edge(self, u: int, v: int, flag: int = FLAG_NONE) -> int:
        if u == v:
            raise GraphError("self-loops are not allowed")
        n = len(self.vdeg)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"unknown endpoint in ({u}, {v})")
        if self.mode == "simple":
            pairs = self._pairs
            if pairs is None:
                pairs = self._pairs = self._build_pairs()
            key = u * 4294967296 + v if u < v else v * 4294967296 + u
            if key in pairs:
                raise GraphError(f"parallel edge ({u}, {v}) in simple mode")
            pairs.add(key)
        return self._append_edge(u, v, flag)

    def _append_edge(self, u: int, v: int, flag: int) -> int:
        """Add edge u-v without the parallel-edge check; the caller
        guarantees it, or drops the pair index."""
        e = len(self.eu)
        self.eu.append(u)
        self.ev.append(v)
        self.eflag.append(flag)
        self.elabel.append(None)
        self.ealive.append(True)
        vdeg = self.vdeg
        buckets = self._buckets
        du = vdeg[u] + 1
        vdeg[u] = du
        bucket = buckets.get(du)
        if bucket is None:
            buckets[du] = [u]
        else:
            bucket.append(u)
        dv = vdeg[v] + 1
        vdeg[v] = dv
        bucket = buckets.get(dv)
        if bucket is None:
            buckets[dv] = [v]
        else:
            bucket.append(v)
        return e

    def remove_edge(self, e: int) -> None:
        u, v = self.endpoints(e)
        self.ealive[e] = False
        self.eflag[e] = FLAG_NONE
        if self._pairs is not None:
            self._pairs.discard(self._pair_key(u, v))
        for x in (u, v):
            self.vdeg[x] -= 1
            self._bucket_push(self.vdeg[x], x)

    def replay_degree3_insertions(
        self, old_maxima: Sequence[int], t2_pair: Tuple[int, int]
    ) -> Tuple[int, int]:
        """Insert one degree-3 vertex per entry of ``old_maxima``.

        For each old maximum d1: pick a vertex u of current degree d1 - 1,
        choose from ``t2_pair`` (two vertex-disjoint tree-2 edges) one edge
        avoiding u, delete it, and add a vertex w joined to u (tree 1) and
        to both ends of that edge (tree 2); of the old vertices only u's
        degree changes.  The pair is maintained by replacing the used
        edge with one of the two new tree-2 edges; the updated pair is
        returned.  This is the inner loop of the tight-sum construction:
        the lists whose new entries do not depend on the choices (flags,
        labels, liveness, the new vertices' ends and degrees) are
        extended once up front, and the loop writes only what the
        choices decide.
        """
        k = len(old_maxima)
        eu, ev = self.eu, self.ev
        eflag, ealive, vdeg = self.eflag, self.ealive, self.vdeg
        buckets = self._buckets
        self._pairs = None
        w0 = len(vdeg)
        e0 = len(eu)
        new_vertices = range(w0, w0 + k)
        ev += chain.from_iterable(zip(new_vertices, new_vertices, new_vertices))
        eflag += (FLAG_T1, FLAG_T2, FLAG_T2) * k
        ealive += (True,) * (3 * k)
        self.elabel += (None,) * (3 * k)
        # A new vertex enters a bucket only once inserted, so presetting
        # the degrees of the ones still to come is invisible to lookups.
        vdeg += (3,) * k
        bucket3 = buckets.setdefault(3, [])
        push3 = bucket3.append
        add_u = eu.append
        pick, other = t2_pair
        e1 = e0
        try:
            for w, d1 in zip(new_vertices, old_maxima):
                x = d1 - 1
                bucket = buckets.get(x)
                # Pop u as well as the stale entries above it: degrees only
                # grow during the replay, so its entry would stay stale.
                while bucket:
                    u = bucket.pop()
                    if vdeg[u] == x:
                        break
                else:
                    raise GraphError(f"no vertex of degree {x}")
                a = eu[pick]
                b = ev[pick]
                if u == a or u == b:
                    pick, other = other, pick
                    a = eu[pick]
                    b = ev[pick]
                ealive[pick] = False
                eflag[pick] = FLAG_NONE
                add_u(u)
                add_u(a)
                add_u(b)
                du = x + 1
                vdeg[u] = du
                bkt = buckets.get(du)
                if bkt is None:
                    buckets[du] = [u]
                else:
                    bkt.append(u)
                push3(w)
                pick, other = other, e1 + 1
                e1 += 3
        except BaseException:
            # Keep the steps done so far; drop the slots preset for the rest.
            del ev[e1:], eflag[e1:], ealive[e1:], self.elabel[e1:]
            del vdeg[w0 + (e1 - e0) // 3:]
            raise
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
        on the pairs are extended once up front, and the loop writes only
        the first ends of the new edges and kills the merged pair.

        Bucket entries: p, q, x and y go into the buckets of their
        unchanged degrees and w into bucket 4, in the order a merge made
        of ``remove_edge``, ``add_vertex`` and ``add_edge`` calls pushes
        them.  Such a merge also pushes each of them into lower buckets on
        the way; degrees only grow after the merges, so no lookup could
        find those entries valid, and they are skipped.
        """
        (e1, e2), (f1, f2) = pairs
        eu, ev = self.eu, self.ev
        eflag, ealive, vdeg = self.eflag, self.ealive, self.vdeg
        buckets = self._buckets
        self._pairs = None
        w0 = len(vdeg)
        e = len(eu)
        new_vertices = range(w0, w0 + k)
        ev += chain.from_iterable(
            zip(new_vertices, new_vertices, new_vertices, new_vertices))
        eflag += (FLAG_T1, FLAG_T1, FLAG_T2, FLAG_T2) * k
        ealive += (True,) * (4 * k)
        self.elabel += (None,) * (4 * k)
        # The merged ends keep their degrees and every new vertex ends at
        # 4, so vdeg already holds the degree each push below needs.
        vdeg += (4,) * k
        add_u = eu.append
        for w in new_vertices:
            p = eu[e1]
            q = ev[e1]
            x = eu[e2]
            y = ev[e2]
            ealive[e1] = ealive[e2] = False
            eflag[e1] = eflag[e2] = FLAG_NONE
            add_u(p)
            add_u(q)
            add_u(x)
            add_u(y)
            for v in (p, q, x, y, w):
                dv = vdeg[v]
                bucket = buckets.get(dv)
                if bucket is None:
                    buckets[dv] = [v]
                else:
                    bucket.append(v)
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

    # -- degree bucket queries -------------------------------------------------

    def _bucket_pop_valid(self, deg: int, exclude: Optional[Set[int]] = None) -> int:
        """Pop some vertex currently having degree ``deg``.

        Entries whose vertex degree moved on are discarded; entries merely
        excluded by the caller are stashed and pushed back afterwards.
        """
        bucket = self._buckets.get(deg)
        stash: List[int] = []
        found = -1
        vdeg = self.vdeg
        while bucket:
            v = bucket.pop()
            if vdeg[v] != deg:
                continue  # stale
            if exclude is not None and v in exclude:
                stash.append(v)
                continue
            found = v
            break
        if stash:
            bucket = self._buckets.setdefault(deg, bucket or [])
            bucket.extend(reversed(stash))
        if found < 0:
            raise GraphError(f"no available vertex of degree {deg}")
        return found

    def find_vertex_with_degree(self, x: int) -> int:
        """Some vertex of degree exactly x (read-only)."""
        bucket = self._buckets.get(x)
        vdeg = self.vdeg
        while bucket:
            v = bucket[-1]
            if vdeg[v] == x:
                return v
            bucket.pop()  # stale
        raise GraphError(f"no vertex of degree {x}")

    def attach_vertex(
        self,
        target_degrees: Sequence[int],
        allow_repeat_target: bool = False,
    ) -> Tuple[int, List[int]]:
        """Add one vertex and join it to a vertex of each requested degree.

        Target lookups see the degrees as they evolve: connecting to a
        vertex moves it to the next bucket before the following lookup.
        Every new edge ends at the new vertex and, unless repeats are
        allowed (multi mode only), the targets are distinct, so no edge
        can be parallel to another and the pair index is dropped rather
        than updated.
        """
        self._pairs = None
        w = self.add_vertex()
        chosen: Set[int] = {w}
        new_edges: List[int] = []
        repeat_ok = allow_repeat_target and self.mode == "multi"
        for x in target_degrees:
            target = self._bucket_pop_valid(x, {w} if repeat_ok else chosen)
            chosen.add(target)
            new_edges.append(self._append_edge(target, w, FLAG_NONE))
        return w, new_edges

    # -- validation ------------------------------------------------------------

    def validate(self) -> bool:
        """All store invariants: degrees vs edges, mode, labels."""
        deg = [0] * self.n
        seen_pairs: Dict[int, int] = {}
        for e in self.edge_ids():
            u, v = self.eu[e], self.ev[e]
            if u == v:
                return False
            deg[u] += 1
            deg[v] += 1
            key = self._pair_key(u, v)
            seen_pairs[key] = seen_pairs.get(key, 0) + 1
            lab = self.elabel[e]
            if lab is not None and lab < 1:
                return False
        if deg != self.vdeg:
            return False
        if self.mode == "simple" and any(c > 1 for c in seen_pairs.values()):
            return False
        # Every vertex must have an entry in the bucket of its current degree.
        listed = {(d, v) for d, bucket in self._buckets.items() for v in bucket}
        return all((d, v) in listed for v, d in enumerate(self.vdeg))

    def certificate_from_flags(self) -> Certificate:
        # Dead edges always carry FLAG_NONE, so flags alone decide.
        flags = bytes(self.eflag)
        ids = range(len(flags))
        t1 = set(compress(ids, flags.translate(_IN_TREE1)))
        t2 = set(compress(ids, flags.translate(_IN_TREE2)))
        return Certificate(
            tree1=t1,
            tree2=t2,
            shared=t1 & t2,
            central_cycle=self.central_cycle,
            matching_pairs=self.matching_pairs,
        )

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.n,
            "edges": [
                {
                    "id": e,
                    "u": self.eu[e],
                    "v": self.ev[e],
                    "tree": _FLAG_NAMES[self.eflag[e]],
                    "label": self.elabel[e],
                }
                for e in self.edge_ids()
            ],
            "central_cycle": list(self.central_cycle) if self.central_cycle else None,
        }

    def to_json(self) -> str:
        """``to_json_dict()`` as ``json.dumps(..., indent=2)`` writes it.

        The records are filled from the per-edge lists directly: the
        ``json`` encoder runs in pure Python whenever it indents, and
        one dict per edge would be built only to be encoded.
        """
        live = self.ealive
        labels = list(compress(self.elabel, live))
        records = ",\n".join(map(_EDGE_RECORD.__mod__, zip(
            compress(count(), live),
            compress(self.eu, live),
            compress(self.ev, live),
            map(_FLAG_NAMES.__getitem__, compress(self.eflag, live)),
            map(_NULL_FOR_NONE.get, labels, labels),  # None -> null
        )))
        head = _HEAD % (self.mode, self.n)
        cyc = self.central_cycle
        tail = _TAIL % (
            "[\n    %s\n  ]" % ",\n    ".join(map(str, cyc)) if cyc else "null")
        if not records:
            return head + "[]" + tail
        return "".join((head, "[\n", records, "\n  ]", tail))

    @classmethod
    def from_json_dict(cls, data: dict) -> "LabeledMultigraph":
        """Load an untrusted document.  Numbers are taken only as exact
        ints (never ``bool``, float or string) in range; anything else
        raises ``GraphError`` rather than being coerced."""
        try:
            g = cls(data["mode"])
            n = data["n"]
            if type(n) is not int or n < 0:
                raise GraphError(f"n must be a non-negative integer, got {n!r}")
            for _ in range(n):
                g.add_vertex()
            for rec in data["edges"]:
                u, v = rec["u"], rec["v"]
                if not (type(u) is int and type(v) is int
                        and 0 <= u < n and 0 <= v < n):
                    raise GraphError(f"edge endpoints must be integers in [0, {n}): {rec}")
                e = g.add_edge(u, v, _FLAG_VALUES[rec["tree"]])
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
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays or objects nested too deep to decode.
            raise GraphError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(data)

    def to_dot(self) -> str:
        cyc = set(self.central_cycle or ())
        lines = ["graph G {"]
        for v in range(self.n):
            attrs = ' [shape=doublecircle, style=filled, fillcolor=lightgray]' if v in cyc else ""
            lines.append(f"  {v}{attrs};")
        colors = {FLAG_NONE: "gray", FLAG_T1: "orange", FLAG_T2: "blue", FLAG_BOTH: "purple"}
        for e in self.edge_ids():
            lab = self.elabel[e]
            label = f', label="{lab}"' if lab is not None else ""
            lines.append(
                f"  {self.eu[e]} -- {self.ev[e]} "
                f'[color={colors[self.eflag[e]]}{label}];'
            )
        lines.append("}")
        return "\n".join(lines)

