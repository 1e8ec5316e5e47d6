"""Decision procedure and constructions for temporally connectable
degree sequences.

``check_tc_realizable`` evaluates the characterization: writing m for the
edge count, a (multi)graphical sequence is realizable as a temporally
connected proper labeling exactly when

* m = 2n-4 and the boundary conditions for a central 4-cycle hold
  (d_n >= 2, and in simple mode additionally d_1 < n-1), or
* m >= 2n-3 and either n <= 2 or (d_{n-1} >= 2 and d_n >= 1).

The builders realize each regime with two all-edge-covering spanning
trees sharing 0, 1, or 2 edges.  Every builder, ``realize_nonstrict``
included, follows the same shape: descend the sequence by recording
constant-size reduction steps onto a plan, materialize a small frozen
base (``bases.attach``), then replay the plan in reverse against the
degree-bucketed graph store.  ``_replay`` is the only loop that grows a
graph from a plan.  Each step is a tagged tuple, replayed as:

* ``("attach", targets, k)``, k lay-offs of the minimum: k new vertices,
  each joined to one vertex of each degree in ``targets``, which are
  listed largest first (``attach_run``); a run of 2s is one step with
  ``targets = (x, x)``;
* ``("attach2", x, y)``, a multi-mode double lay-off of a 2: a new
  vertex joined to vertices of degrees x <= y, maybe one vertex twice;
* ``("edge", x, y)``, a peeled edge: an edge between vertices of
  degrees x and y;
* ``("split", d, k)``, k tight-sum splits of the maximum d: k degree-3
  vertices, each inserted astride a tree-2 edge.

A builder that peels a maximum and some minima (``_peel``) builds the
rest this way and regrows the peel on the hub left in their place.  All
passes are linear in n + m (bucket operations amortized).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat, starmap
from typing import Callable, Dict, List, Optional, Tuple

from . import bases
from .degseq import (
    DegreeSequence,
    debug_asserts_enabled,
    is_graphical,
    is_multigraphical,
    lay_off_graphical,
)
from .graphstore import (
    FLAG_BOTH,
    FLAG_NONE,
    FLAG_T1,
    FLAG_T2,
    GraphError,
    LabeledMultigraph,
)
from .labeling import TemporalLabeling, pivot_label

__all__ = [
    "Reason",
    "Decision",
    "RealizeResult",
    "check_tc_realizable",
    "build_two_edst",
    "build_one_shared",
    "build_c4_pivotable",
    "realize_tc",
    "realize_nonstrict",
]

class Reason(Enum):
    """Why a sequence is (or is not) realizable."""

    NOT_GRAPHICAL = "NotGraphical"
    NOT_MULTIGRAPHICAL = "NotMultigraphical"
    TOO_FEW_EDGES = "TooFewEdges"
    BOUNDARY_FAILS_C4 = "BoundaryFailsC4"
    TWO_LEAVES = "TwoLeaves"
    OK_C4_PIVOTABLE = "OkC4Pivotable"
    OK_ONE_SHARED_EDGE = "OkOneSharedEdge"
    OK_TWO_EDGE_DISJOINT = "OkTwoEdgeDisjoint"
    OK_SMALL_N = "OkSmallN"


@dataclass(frozen=True)
class Decision:
    realizable: bool
    mode: str
    reason: Reason


@dataclass
class RealizeResult:
    """Outcome of realize_tc / realize_nonstrict.

    ``graph`` and ``labeling`` are populated only when the decision is
    positive.  The labels live in ``graph.elabel``; ``labeling`` carries
    the largest one.  In strict mode the graph's tree flags and
    ``central_cycle`` are its certificate (see ``certificate_violation``);
    non-strict mode needs no two-tree witness.
    """

    decision: Decision
    graph: Optional[LabeledMultigraph] = None
    labeling: Optional[TemporalLabeling] = None

    @property
    def realizable(self) -> bool:
        return self.decision.realizable


_NOT_GRAPHICAL_FOR = {
    "simple": Reason.NOT_GRAPHICAL,
    "multi": Reason.NOT_MULTIGRAPHICAL,
}
_SEQUENCE_RULE = (
    "sequence must be graphical (simple mode) or multigraphical (multi mode)"
)


def _is_graphical_for(d: DegreeSequence, mode: str) -> bool:
    """``is_graphical`` in simple mode, ``is_multigraphical`` in multi mode."""
    if mode == "simple":
        return is_graphical(d)
    if mode == "multi":
        return is_multigraphical(d)
    raise ValueError(f"unknown mode {mode!r}")


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise ValueError(f"precondition violated: {what}")


def check_tc_realizable(d: DegreeSequence, mode: str = "simple") -> Decision:
    """Decide realizability in O(n) without building anything."""
    if not _is_graphical_for(d, mode):
        return Decision(False, mode, _NOT_GRAPHICAL_FOR[mode])
    n = d.n
    m = d.total // 2
    if m < 2 * n - 4:
        return Decision(False, mode, Reason.TOO_FEW_EDGES)
    if m == 2 * n - 4:
        ok = d.min_degree >= 2 and (mode == "multi" or d.max_degree < n - 1)
        if ok:
            return Decision(True, mode, Reason.OK_C4_PIVOTABLE)
        return Decision(False, mode, Reason.BOUNDARY_FAILS_C4)
    # m >= 2n-3
    if n <= 2:
        return Decision(True, mode, Reason.OK_SMALL_N)
    if d.degree_at_from_end(2) >= 2 and d.min_degree >= 1:
        if d.total >= 4 * (n - 1) and d.min_degree >= 2:
            return Decision(True, mode, Reason.OK_TWO_EDGE_DISJOINT)
        return Decision(True, mode, Reason.OK_ONE_SHARED_EDGE)
    return Decision(False, mode, Reason.TWO_LEAVES)


# --------------------------------------------------------------------------
# Shared descend/replay helpers
# --------------------------------------------------------------------------


def _lay_off_min(cur: DegreeSequence, limit: int) -> tuple:
    """Lay off the minimum entry of ``cur``, or a run of up to ``limit``
    2s in one ``lay_off_two_run``; returns the "attach" step."""
    x, k = cur.lay_off_two_run(limit)
    if k:
        return ("attach", (x, x), k)
    return ("attach", tuple(chain.from_iterable(starmap(repeat, lay_off_graphical(cur)))), 1)


def _lay_off_twos(cur: DegreeSequence, plan: List[tuple], floor: int) -> None:
    """Lay off the 2s of ``cur`` onto ``plan`` until none is left or
    ``floor`` entries remain."""
    while cur.min_degree == 2 and cur.n > floor:
        plan.append(_lay_off_min(cur, cur.n - floor))
        _debug_seq(cur, "simple")


def _replay(g: LabeledMultigraph, plan: List[tuple]) -> LabeledMultigraph:
    """Grow ``g`` by the steps of ``plan``, the last recorded first; the
    only loop that replays a plan.  Returns ``g``.

    Consecutive "split" runs go to one ``replay_degree3_insertions``
    call.  They come only from the two-tree descent, on the K4_EDST base.
    The insertions keep a pair of vertex-disjoint tree-2 edges, so each
    finds one avoiding its tree-1 neighbor; the pair starts as the base
    edges (0, 2) and (1, 3), ids 3 and 5.  A run of splits of the
    maximum 4 is replayed in bulk past its first two steps, since each
    such step takes the previous step's new vertex and kills a slot at
    a fixed stride (see ``replay_degree3_insertions``).

    Each "attach" step's targets do not increase, so no vertex is found
    twice (see ``attach_run``); debug asserts check it.
    """
    dbg = debug_asserts_enabled()
    t2_pair = (3, 5)
    run: List[int] = []
    for step in reversed(plan):
        tag = step[0]
        if tag == "split":
            run += [step[1]] * step[2]
            continue
        if run:
            t2_pair = g.replay_degree3_insertions(run, t2_pair)
            run.clear()
        if tag == "attach":
            targets = step[1]
            if dbg:
                assert all(a >= b for a, b in zip(targets, targets[1:])), step
            g.attach_run(targets, step[2])
        elif tag == "edge":
            u = g._bucket_pop_valid(step[1])
            g.add_edge(u, g._bucket_pop_valid(step[2], exclude={u}))
        else:  # "attach2", which may hit one target twice, a parallel edge
            e = g.attach_run(step[1:])
            g.eflag[e] = FLAG_T2
            g.eflag[e + 1] = FLAG_T1
    if run:
        g.replay_degree3_insertions(run, t2_pair)
    return g


def _peel(
    d: DegreeSequence, k: int, hub_degree: int,
    build: Callable[[DegreeSequence, str], LabeledMultigraph], mode: str, check_mode: str,
) -> Tuple[LabeledMultigraph, int]:
    """Drop ``k`` minima of ``d``, all of one value, and cut its maximum
    down to ``hub_degree``; build the rest with ``build(rest, mode)``
    after checking it in ``check_mode``.  Returns the graph and a vertex
    of degree ``hub_degree``, the hub the caller regrows the peel on."""
    red = d.copy()
    low = red.min_degree
    for _ in range(k):
        if debug_asserts_enabled():
            assert red.min_degree == low, red
        red.remove_min_entry()
    red.remove_entry_of_value(d.max_degree)
    red.add_entry(hub_degree)
    _debug_seq(red, check_mode)
    g = build(red, mode)
    return g, g.find_vertex_with_degree(hub_degree)


def _debug_seq(cur: DegreeSequence, mode: str) -> None:
    if debug_asserts_enabled():
        cur._check_consistency()
        assert _is_graphical_for(cur, mode), cur


# --------------------------------------------------------------------------
# Two edge-disjoint spanning trees
# --------------------------------------------------------------------------


def build_two_edst(d: DegreeSequence, mode: str = "simple") -> LabeledMultigraph:
    """Realize a sequence with two edge-disjoint spanning trees.

    Returns the finished graph with its tree flags set.  Requires, in
    both modes, sum >= 4(n-1) and minimum degree >= 2.  Simple mode:
    graphical (which forces n >= 4).  Multi mode: multigraphical, n >= 2.
    """
    return _build_two_edst(d, mode).finish()


def _build_two_edst(d: DegreeSequence, mode: str) -> LabeledMultigraph:
    """:func:`build_two_edst` without the closing ``finish()``."""
    n = d.n
    _require(_is_graphical_for(d, mode), _SEQUENCE_RULE)
    _require(d.total >= 4 * (n - 1), "sum must be at least 4(n-1)")
    _require(n >= 2 and d.min_degree >= 2, "need n >= 2 and min degree >= 2")
    cur = d.copy()
    plan: List[tuple] = []
    # Multi mode first peels surplus edges and double lay-offs of a 2,
    # down to (2, 2) or to a tight sum with minimum 3, which is graphical
    # and takes the graphical descent below.
    while mode == "multi" and (cur.n > 2 or cur.total > 4 * (cur.n - 1)):
        d1 = cur.max_degree
        d2 = cur.degree_at(2)
        if cur.total > 4 * (cur.n - 1):
            # Surplus edge between the two largest entries.
            plan.append(("edge", d1 - 1, d2 - 1))
            cur.decrement_one_of_value(d1)
            cur.decrement_one_of_value(d2)
        elif cur.min_degree == 2:
            # Double lay-off of the minimum.
            plan.append(("attach2", max(d1 - 1, d2) - 1, d1 - 1))
            cur.remove_min_entry()
            cur.decrement_one_of_value(d1)
            cur.decrement_one_of_value(cur.max_degree)
        else:
            break
        _debug_seq(cur, "multi")
        if debug_asserts_enabled():
            assert cur.total >= 4 * (cur.n - 1) and cur.min_degree >= 2, cur
    if cur.n == 2:
        if debug_asserts_enabled():
            assert cur.entries == [2, 2], cur
        base = bases.MULTI_22
    else:
        _debug_seq(cur, "simple")
        _two_edst_descent(cur, plan)
        base = bases.K4_EDST
    return _replay(bases.attach(LabeledMultigraph(mode), base), plan)


def _two_edst_descent(cur: DegreeSequence, plan: List[tuple]) -> None:
    """Record onto ``plan`` the graphical part of :func:`build_two_edst`,
    consuming ``cur`` down to the all-3 sequence of the K4_EDST base.

    ``cur`` is graphical with sum >= 4(n-1) and minimum degree >= 2.
    The steps are ("split", old maximum, count) runs of degree-3
    insertions and the lay-off steps of _lay_off_min.
    """
    plan_append = plan.append
    dbg = debug_asserts_enabled()
    total = cur.total
    nn = cur.n
    while nn > 4:
        if total == 4 * nn - 4 and cur.tail.value == 3:
            # Tight sum with a degree-3 minimum: split one unit off the
            # maximum and drop a 3; the replay re-inserts a degree-3
            # vertex astride a tree-2 edge avoiding its tree-1 neighbor.
            # The sum stays tight, so the steps run on while the maximum
            # and the 3s last.
            d1, k = cur.split_max_and_drop_min_run(nn - 4)
            plan_append(("split", d1, k))
            total -= 4 * k
            nn -= k
        else:
            plan_append(_lay_off_min(cur, nn - 4))
            total = cur.total
            nn = cur.n
        if dbg:
            assert total == cur.total and nn == cur.n
            _debug_seq(cur, "simple")
            assert cur.total >= 4 * (cur.n - 1) and cur.min_degree >= 2, cur
    assert cur.max_degree == 3, "n=4 base must be the all-3 sequence"


# --------------------------------------------------------------------------
# Two spanning trees sharing at most one edge
# --------------------------------------------------------------------------


def _attach_wheel(g: LabeledMultigraph, hub: int, k: int) -> None:
    """Add a k-cycle fully joined to ``hub`` (k >= 3), splitting the 2k
    new edges into two trees that each span the k new vertices from the
    hub and share nothing."""
    assert k >= 3
    xs = [g.add_vertex() for _ in range(k)]
    spokes = [g.add_edge(hub, x) for x in xs]
    ring = [g.add_edge(xs[i], xs[(i + 1) % k]) for i in range(k)]
    for i in range(k - 1):
        g.eflag[spokes[i]] = FLAG_T1
    g.eflag[spokes[k - 1]] = FLAG_T2
    for i in range(k):
        g.eflag[ring[i]] = FLAG_T1 if i == k - 2 else FLAG_T2


def _one_shared_deg3(cur: DegreeSequence, mode: str) -> LabeledMultigraph:
    """Base builder for sum = 4(n-1)-2 with minimum degree exactly 3."""
    n = cur.n
    d1 = cur.max_degree
    if cur.degree_at(2) == 3:
        # Unique family (n-3, 3, ..., 3); frozen bases up to n = 8, then
        # a wheel on the hub of the n = 6 base.
        if debug_asserts_enabled():
            assert d1 == n - 3 and n >= 6, cur
        if n <= 8:
            return bases.attach(LabeledMultigraph(mode), bases.ONE_SHARED_DEG3[n])
        g = bases.attach(LabeledMultigraph(mode), bases.ONE_SHARED_DEG3[6])
        _attach_wheel(g, hub=0, k=n - 6)
        return g
    # Second-largest entry >= 4: peel the maximum plus d1-1 threes down
    # to a pendant instance, then re-grow the maximum as a wheel hub.
    g, hub = _peel(cur, d1 - 1, 1, build_one_shared, mode, "simple")
    _attach_wheel(g, hub, k=d1 - 1)
    return g


def build_one_shared(d: DegreeSequence, mode: str = "simple") -> LabeledMultigraph:
    """Realize a sequence with two spanning trees sharing at most one edge.

    Returns the finished graph with its tree flags set.  Requires, in
    both modes, sum >= 4(n-1)-2 and, for n > 2, d_{n-1} >= 2 and d_n >= 1.
    Simple mode: graphical.  Multi mode: multigraphical.
    """
    n = d.n
    _require(_is_graphical_for(d, mode), _SEQUENCE_RULE)
    _require(d.total >= 4 * (n - 1) - 2, "sum must be at least 4(n-1)-2")
    _require(
        n <= 2 or (d.degree_at_from_end(2) >= 2 and d.min_degree >= 1),
        "at most one vertex may have degree below 2",
    )
    if n <= 2:
        g = LabeledMultigraph(mode)
        for _ in range(n):
            g.add_vertex()
        if n == 2:  # (k, k), and k = 1 in simple mode; k parallel edges
            k = d.max_degree
            eids = [g.add_edge(0, 1) for _ in range(k)]
            if k == 1:
                g.eflag[eids[0]] = FLAG_BOTH
            else:
                g.eflag[eids[0]] = FLAG_T1
                g.eflag[eids[1]] = FLAG_T2
        return g
    if d.min_degree == 1:
        # Pendant route: the rest has two edge-disjoint trees; the
        # pendant edge is the single shared edge.
        g, u = _peel(d, 1, d.max_degree - 1, build_two_edst, mode, mode)
        w = g.add_vertex()
        g.add_edge(u, w, FLAG_BOTH)
        return g
    if d.total >= 4 * (n - 1):
        return build_two_edst(d, mode)
    # sum == 4(n-1)-2 with min degree in {2, 3}.
    if mode == "multi" and d.min_degree == 2:
        # Drop the single 2, realize with edge-disjoint trees, then split
        # a tree-1 edge at the re-inserted degree-2 vertex; one half
        # joins both trees.
        cur = d.copy()
        cur.remove_min_entry()
        _debug_seq(cur, "multi")
        # Unfinished, so the one finish() below compacts both the
        # descent's dead slots and the split edge.
        g = _build_two_edst(cur, "multi")
        split = g.eflag.index(FLAG_T1)  # dead slots hold _DEAD, not FLAG_T1
        u, v = g.endpoints(split)
        g.remove_edge(split)
        w = g.add_vertex()
        g.add_edge(u, w, FLAG_BOTH)
        g.add_edge(w, v, FLAG_T1)
        return g.finish()
    # Lay off the 2s (simple mode only; the multi boundary left here has
    # minimum 3 and is graphical), then build a degree-3 base.
    cur = d.copy()
    plan: List[tuple] = []
    _lay_off_twos(cur, plan, 3)
    if cur.n == 3:
        g = bases.attach(LabeledMultigraph(mode), bases.TRIANGLE_ONE_SHARED)
    else:
        g = _one_shared_deg3(cur, mode)
    return _replay(g, plan)


# --------------------------------------------------------------------------
# Central 4-cycle realizations (the m = 2n-4 boundary)
# --------------------------------------------------------------------------


def build_c4_pivotable(d: DegreeSequence, mode: str = "simple") -> LabeledMultigraph:
    """Realize a boundary sequence (sum = 4(n-1)-4) with an induced
    central 4-cycle and two spanning trees sharing exactly two of its
    edges.

    Returns the finished graph with its tree flags and ``central_cycle``
    set.  The all-3 route (eight 3s and the rest 4s once the 2s are laid
    off) grows the frozen n = 8 base in one ``replay_c4_merges`` pass.
    Requires, in both modes,
    sum = 4(n-1)-4 and d_n >= 2.  Simple mode: graphical and
    d_1 < n-1.  Multi mode: multigraphical.
    """
    n = d.n
    _require(_is_graphical_for(d, mode), _SEQUENCE_RULE)
    _require(d.total == 4 * (n - 1) - 4, "sum must equal 4(n-1)-4")
    _require(
        mode == "multi" or d.max_degree < n - 1,
        "maximum degree must be below n-1",
    )
    _require(n >= 4 and d.min_degree >= 2, "minimum degree must be at least 2")
    if mode == "multi" and d.degree_at_from_end(3) == 2 and d.max_degree >= 4:
        # The three smallest entries are 2 and the maximum is >= 4: peel
        # them, build edge-disjoint trees, attach a fresh central cycle
        # through the maximum-degree vertex.  Every other multi boundary
        # sequence is graphical with maximum below n-1 and takes the
        # graphical route below.
        g, hub = _peel(d, 3, d.max_degree - 2, build_two_edst, mode, "multi")
        return bases.attach(g, bases.MULTI_C4_GADGET, hub)
    cur = d.copy()
    plan: List[tuple] = []
    _lay_off_twos(cur, plan, 4)
    # A lay-off lowers n by one and the maximum by at most one, so this
    # holds after every step if it holds at the end.
    if debug_asserts_enabled():
        assert cur.max_degree < cur.n - 1, cur
    if cur.n == 4:
        g = bases.attach(LabeledMultigraph(mode), bases.C4_BASE)
    elif cur.max_degree <= 4:
        # Unique family (4, ..., 4, 3 x 8); grow from the frozen n=8 base
        # one merged cross-tree pair per new degree-4 vertex.
        g = bases.attach(LabeledMultigraph(mode), bases.C4_ALL3_8)
        g.replay_c4_merges(cur.n - 8, bases.C4_ALL3_8["pairs"])
    else:
        # Large maximum: peel six 3s and two units of the maximum, build
        # edge-disjoint trees, then attach the hub gadget, whose central
        # 4-cycle becomes the graph's.
        g, hub = _peel(cur, 6, cur.max_degree - 2, build_two_edst, mode, "simple")
        bases.attach(g, bases.C4_GADGET, hub)
    return _replay(g, plan).finish()


# --------------------------------------------------------------------------
# Full pipelines
# --------------------------------------------------------------------------


def realize_tc(
    d: DegreeSequence, mode: str = "simple"
) -> RealizeResult:
    """Decide, construct, and label in one pass; O(n + m) overall."""
    decision = check_tc_realizable(d, mode)
    if not decision.realizable:
        return RealizeResult(decision)
    # No realizable sequence with n <= 2 has m = 2n-4; build_one_shared
    # realizes those directly.
    if d.total // 2 == 2 * d.n - 4:
        g = build_c4_pivotable(d, mode)
    else:
        g = build_one_shared(d, mode)
    labeling = pivot_label(g)
    if debug_asserts_enabled():
        assert g.validate()
        assert sorted(g.degrees(), reverse=True) == d.entries
    return RealizeResult(decision, g, labeling)


def _nonstrict_decision(d: DegreeSequence, mode: str) -> Decision:
    if not _is_graphical_for(d, mode):
        return Decision(False, mode, _NOT_GRAPHICAL_FOR[mode])
    n = d.n
    if n <= 1:
        return Decision(True, mode, Reason.OK_SMALL_N)
    if d.total // 2 < n - 1:
        return Decision(False, mode, Reason.TOO_FEW_EDGES)
    if d.min_degree < 1:
        return Decision(False, mode, Reason.TWO_LEAVES)
    return Decision(True, mode, Reason.OK_SMALL_N)


def _connect_components(g: LabeledMultigraph) -> None:
    """Merge connected components by 2-swaps that preserve all degrees.

    One union-find pass over the edges sorts each into a spanning-forest
    edge or a spare, which closes a cycle.  Removing a spare leaves its
    component connected, so trading a spare (a, b) and a forest edge
    (c, d) of another component for (a, c) and (b, d) joins the two
    without changing any degree.  The components with spares are merged
    first, so the merged part holds every spare left when the trees
    follow; m >= n-1 leaves one spare per merge.  Ends with ``finish()``.
    """
    eu, ev = g.eu, g.ev
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    link: Dict[int, int] = {}  # root -> a forest edge of its component
    spares: List[int] = []
    for e, u, v in zip(g.edge_ids(), eu, ev):
        ru, rv = find(u), find(v)
        if ru == rv:
            spares.append(e)
        else:
            parent[ru] = rv
            link[rv] = e
    roots = [v for v, p in enumerate(parent) if v == p]
    if len(roots) <= 1:
        return
    by_root: Dict[int, List[int]] = {}
    for e in spares:
        by_root.setdefault(find(eu[e]), []).append(e)
    order = list(by_root) + [r for r in roots if r not in by_root]
    pool = by_root.get(order[0], [])
    for r in order[1:]:
        if not pool:
            raise GraphError("cannot connect: every component is a tree")
        forest_edge = link.get(r)
        if forest_edge is None:
            # Only possible with isolated vertices, which the minimum
            # degree condition rules out.
            raise GraphError("cannot connect an edgeless component")
        spare = pool.pop()
        a, b = eu[spare], ev[spare]
        c, d = eu[forest_edge], ev[forest_edge]
        g.remove_edge(spare)
        g.remove_edge(forest_edge)
        g.add_edge(a, c)
        g.add_edge(b, d)
        pool += by_root.get(r, ())
    g.finish()


def realize_nonstrict(d: DegreeSequence, mode: str = "simple") -> RealizeResult:
    """Realize under non-decreasing journey semantics.

    Realizable iff (multi)graphical with m >= n-1 and min degree >= 1
    (or n <= 1); the output is a connected realization with every edge
    labeled 1.
    """
    decision = _nonstrict_decision(d, mode)
    if not decision.realizable:
        return RealizeResult(decision)
    cur = d.copy()
    plan: List[tuple] = []
    if mode == "simple":
        # Lay off the minimum entry (a run of 2s at once) down to
        # isolated vertices, replayed as vertex attachments onto them.
        while cur.total > 0:
            plan.append(_lay_off_min(cur, cur.n))
    else:
        # Peel single edges between the largest and the smallest
        # positive entries.  Zeros collect in the tail bucket, so the
        # smallest positive entry is the tail or the bucket before it.
        while cur.total > 0:
            d1 = cur.max_degree
            last = cur.tail
            idx = cur.n
            if last.value == 0:
                idx -= last.count
                last = last.prev
            vj = last.value
            if idx < 2:
                raise GraphError("multigraph residual degenerated")
            plan.append(("edge", d1 - 1, vj - 1))
            cur.decrement_one_of_value(d1)
            cur.decrement_one_of_value(vj)
    g = LabeledMultigraph(mode)
    for _ in range(cur.n):
        g.add_vertex()
    _replay(g, plan)
    if d.n >= 2:
        _connect_components(g)
    # The lay-offs flag tree edges, but non-strict outputs carry no trees.
    g.eflag[:] = [FLAG_NONE] * g.num_edges
    g.elabel[:] = [1] * g.num_edges
    labeling = TemporalLabeling(1 if g.num_edges else 0)
    if debug_asserts_enabled():
        assert g.validate()
        assert sorted(g.degrees(), reverse=True) == d.entries
    return RealizeResult(decision, g, labeling)
