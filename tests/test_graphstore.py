"""Graph store: mutation primitives, degree buckets, serialization."""

import io
import json
import os
import tracemalloc
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcreal import bases
from tcreal.graphstore import (
    _BLOCK,
    _DEAD,
    FLAG_BOTH,
    FLAG_NONE,
    FLAG_T1,
    FLAG_T2,
    GraphError,
    LabeledMultigraph,
)
from tcreal.degseq import DegreeSequence
from tcreal.labeling import pivot_label
from tcreal.realize import _connect_components, realize_tc
from tcreal.verify import (
    certificate_violation,
    enumerate_sequences,
    properness_violation,
    simplicity_violation,
    tc_violation,
)

from conftest import LARGE_FAMILIES, build_fixed, live_incidence, to_json_dict


def triangle(mode="simple"):
    g = LabeledMultigraph(mode)
    for _ in range(3):
        g.add_vertex()
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(2, 0)
    return g


# -- basic mutation -----------------------------------------------------------


def test_add_edge_degrees():
    g = LabeledMultigraph("simple")
    g.add_vertex()
    g.add_vertex()
    e = g.add_edge(0, 1)
    assert g.degrees() == [1, 1]
    assert g.endpoints(e) == (0, 1)
    assert g.num_edges == 1
    assert g.validate()


def test_self_loop_rejected():
    g = LabeledMultigraph("multi")
    g.add_vertex()
    with pytest.raises(GraphError):
        g.add_edge(0, 0)


def test_unknown_endpoint_rejected():
    g = LabeledMultigraph("simple")
    g.add_vertex()
    with pytest.raises(GraphError):
        g.add_edge(0, 3)


def test_parallel_edges_by_mode():
    # Only untrusted input is checked as it comes in (see the loader
    # tests); validate() still counts parallel edges in simple mode.
    g = triangle()
    g.add_edge(1, 0)
    assert not g.validate()
    m = LabeledMultigraph("multi")
    m.add_vertex()
    m.add_vertex()
    m.add_edge(0, 1)
    m.add_edge(0, 1)
    assert m.degrees() == [2, 2]
    assert m.validate()


def test_remove_edge_then_re_add():
    g = triangle()
    e = live_incidence(g)[0][0]
    g.remove_edge(e)
    assert sorted(g.degrees()) == [1, 1, 2]
    with pytest.raises(GraphError):
        g.endpoints(e)
    with pytest.raises(GraphError):
        g.remove_edge(e)
    f = g.add_edge(0, 1)
    assert g.validate()
    g.remove_edge(f)
    g.attach_run([1])
    g.add_edge(0, 1)
    assert g.validate()


def test_unknown_mode_rejected():
    with pytest.raises(GraphError):
        LabeledMultigraph("directed")


# -- bucket queries -----------------------------------------------------------


def test_find_vertex_with_degree():
    g = triangle()
    assert g.degree(g.find_vertex_with_degree(2)) == 2
    with pytest.raises(GraphError):
        g.find_vertex_with_degree(5)


def test_validate_needs_a_bucket_entry_at_the_current_degree():
    g = triangle()
    assert g.validate()
    # Vertex 1 keeps its stale entries at degrees 0 and 1.
    g._buckets[2].remove(1)
    assert not g.validate()


def test_attach_run_on_triangle():
    g = triangle()
    e = g.attach_run([2, 2])
    w = 3
    assert g.degree(w) == 2 and g.num_edges == 5
    assert [g.eflag[e], g.eflag[e + 1]] == [FLAG_T1, FLAG_T2]
    targets = {v for f in (e, e + 1) for v in g.endpoints(f)} - {w}
    assert len(targets) == 2  # two distinct previously-degree-2 vertices
    assert g.validate()


def test_attach_run_on_k2():
    g = build_fixed("simple", 2, [(0, 1, FLAG_NONE)])
    e = g.attach_run([1])
    assert sorted(g.degrees()) == [1, 1, 2]
    assert g.degree(2) == 1 and g.eflag[e] == FLAG_NONE


def test_attach_run_ascending_targets_repeat_in_multi():
    # The "attach2" shape: the target found at degree 1 has degree 2 at
    # the next lookup, so it is met twice, a parallel edge.
    g = build_fixed("multi", 2, [(0, 1, FLAG_NONE)])
    e = g.attach_run([1, 2])
    assert g.endpoints(e) == g.endpoints(e + 1)
    assert sorted(g.degrees()) == [1, 2, 3]
    assert g.degree(2) == 2
    assert g.validate()


def test_attach_run_never_targets_itself():
    g = triangle("multi")
    # The new vertex reaches the requested degree 2 while edges are
    # added; it must still never be chosen as its own target.
    e = g.attach_run([2, 2, 2], k=1)
    for f in range(e, e + 3):
        u, v = g.endpoints(f)
        assert v == 3 and u != v
    assert g.degree(3) == 3


def test_attach_run_missing_degree():
    g = triangle()
    with pytest.raises(GraphError):
        g.attach_run([7])
    assert g.n == 4 and g.num_edges == 3 and g.validate()


def replace_edge_with_degree3_vertex(g, u, pick):
    """Reference step for ``replay_degree3_insertions``: add a vertex w
    joined to u (tree 1) and to both endpoints of edge ``pick`` (tree 2),
    deleting ``pick``.

    Equivalent to remove_edge + add_vertex + three add_edge calls, but
    skips bucket updates for the two endpoints of ``pick`` whose degrees
    are unchanged overall.  Returns (w, first tree-2 edge).
    """
    eu, ev = g.eu, g.ev
    a, b = g.endpoints(pick)
    if u == a or u == b:
        raise GraphError("replacement edge must avoid the tree-1 anchor")
    g.eflag[pick] = _DEAD
    g._dead += 1
    vdeg = g.vdeg
    w = len(vdeg)
    e1 = len(eu)
    eu += (u, a, b)
    ev += (w, w, w)
    g.eflag += (FLAG_T1, FLAG_T2, FLAG_T2)
    g.elabel += (None, None, None)
    vdeg.append(3)
    vdeg[u] += 1
    g._buckets[vdeg[u]].append(u)
    g._buckets[3].append(w)
    return w, e1 + 1


def test_replace_edge_with_degree3_vertex_matches_primitives():
    g = build_fixed("simple", 4,
                    [(0, 1, FLAG_T1), (1, 2, FLAG_T1), (2, 3, FLAG_T1),
                     (0, 2, FLAG_T2), (0, 3, FLAG_T2), (1, 3, FLAG_T2)])
    ref = build_fixed("simple", 4,
                      [(0, 1, FLAG_T1), (1, 2, FLAG_T1), (2, 3, FLAG_T1),
                       (0, 2, FLAG_T2), (0, 3, FLAG_T2), (1, 3, FLAG_T2)])
    w, e_aw = replace_edge_with_degree3_vertex(g, 1, 3)  # edge (0, 2)
    ref.remove_edge(3)
    rw = ref.add_vertex()
    ref.add_edge(1, rw, FLAG_T1)
    ref.add_edge(0, rw, FLAG_T2)
    ref.add_edge(2, rw, FLAG_T2)
    assert w == rw == 4
    assert g.degrees() == ref.degrees()
    assert g.endpoints(e_aw) == (0, 4)
    assert g.validate() and ref.validate()
    live = lambda h: sorted(
        (min(h.endpoints(e)), max(h.endpoints(e)), h.eflag[e])
        for e in h.finish().edge_ids()
    )
    assert live(g) == live(ref)


def test_replace_edge_rejects_incident_anchor():
    g = build_fixed("simple", 3,
                    [(0, 1, FLAG_T2), (1, 2, FLAG_NONE), (2, 0, FLAG_NONE)])
    with pytest.raises(GraphError):
        replace_edge_with_degree3_vertex(g, 0, 0)


def degree3_steps(g, old_maxima, t2_pair):
    """Reference for ``replay_degree3_insertions``: one
    ``replace_edge_with_degree3_vertex`` per old maximum d1, at a vertex
    of degree d1 - 1, on the pair edge avoiding it.  Returns the pair."""
    for d1 in old_maxima:
        u = g.find_vertex_with_degree(d1 - 1)
        pick, other = t2_pair
        if u in g.endpoints(pick):
            pick, other = other, pick
        _, new_edge = replace_edge_with_degree3_vertex(g, u, pick)
        t2_pair = (other, new_edge)
    return t2_pair


def test_replay_degree3_insertions_matches_single_steps():
    # Runs of 4s past their first two steps take the bulk path, also
    # after steps with another old maximum, and before a failing step.
    mixed = [
        [4, 4, 5, 4, 4, 4, 4],
        [4] * 4 + [5] * 2 + [4] * 7 + [6] + [4] * 3 + [5] * 3 + [4] * 2,
        [4, 5, 4, 5, 4, 4, 4, 5, 5, 5, 4, 4, 4, 4, 4, 4, 5],
        [4] * 6 + [9],
    ]
    for old_maxima in [[4] * k for k in range(301)] + mixed:
        batched = _k4_two_trees()
        stepped = _k4_two_trees()
        try:
            pair = batched.replay_degree3_insertions(old_maxima, (3, 5))
        except GraphError:
            pair = None
        try:
            step_pair = degree3_steps(stepped, old_maxima, (3, 5))
        except GraphError:
            step_pair = None
        assert pair == step_pair, old_maxima
        for name in ("eu", "ev", "eflag", "elabel", "vdeg", "_dead"):
            assert getattr(batched, name) == getattr(stepped, name), (old_maxima, name)
        assert batched.validate() and stepped.validate(), old_maxima
        for deg in set(stepped.vdeg):
            assert _valid_pop_order(batched, deg) == _valid_pop_order(stepped, deg), (old_maxima, deg)


def c4_merge_step(g, pairs):
    """Reference step for ``replay_c4_merges``: grow the all-3 family by
    one degree-4 vertex through the general mutation API.  Removes the
    first cross-tree pair, adds a vertex adjacent to its four endpoints,
    and rebuilds two endpoint-disjoint cross-tree pairs in ``pairs``."""
    (e1, e2), (f1, f2) = pairs
    p, q = g.endpoints(e1)
    x, y = g.endpoints(e2)
    f1_ends = set(g.endpoints(f1))
    f2_ends = set(g.endpoints(f2))
    g.remove_edge(e1)
    g.remove_edge(e2)
    w = g.add_vertex()
    ep = g.add_edge(p, w, FLAG_T1)
    eq = g.add_edge(q, w, FLAG_T1)
    ex = g.add_edge(x, w, FLAG_T2)
    ey = g.add_edge(y, w, FLAG_T2)
    pairs[0] = [f1, ex if x not in f1_ends else ey]
    pairs[1] = [ep if p not in f2_ends else eq, f2]


def _valid_pop_order(g, deg):
    """Every vertex ``_bucket_pop_valid(deg)`` yields until it runs dry."""
    out = []
    while True:
        try:
            out.append(g._bucket_pop_valid(deg))
        except GraphError:
            return out


@pytest.mark.parametrize("mode", ["simple", "multi"])
def test_replay_c4_merges_matches_single_steps(mode):
    start = bases.C4_ALL3_8["pairs"]
    for k in range(301):
        batched = bases.attach(LabeledMultigraph(mode), bases.C4_ALL3_8)
        stepped = bases.attach(LabeledMultigraph(mode), bases.C4_ALL3_8)
        pairs = batched.replay_c4_merges(k, start)
        step_pairs = [list(p) for p in start]
        for _ in range(k):
            c4_merge_step(stepped, step_pairs)
        assert pairs == (tuple(step_pairs[0]), tuple(step_pairs[1])), k
        for name in ("eu", "ev", "eflag", "elabel", "vdeg", "_dead"):
            assert getattr(batched, name) == getattr(stepped, name), (k, name)
        assert batched.validate() and stepped.validate(), k
        for deg in set(stepped.vdeg):
            assert _valid_pop_order(batched, deg) == _valid_pop_order(stepped, deg), (k, deg)


@pytest.mark.parametrize("start,pendant_at", [
    (((5, 6), (2, 3)), None),
    (((10, 6), (7, 8)), None),
    (bases.C4_ALL3_8["pairs"], 0),
])
def test_replay_c4_merges_from_other_starts_match_single_steps(start, pendant_at):
    # From the first start the merges leave the fixed pattern, so all
    # steps run one at a time; from the second they settle into it.  The
    # third settles too, but a pendant vertex lifts one p to degree 4, so
    # the steps run one at a time again.
    def fresh():
        g = bases.attach(LabeledMultigraph("multi"), bases.C4_ALL3_8)
        if pendant_at is not None:
            g.add_edge(pendant_at, g.add_vertex())
        return g

    for k in range(41):
        batched = fresh()
        stepped = fresh()
        pairs = batched.replay_c4_merges(k, start)
        step_pairs = [list(p) for p in start]
        for _ in range(k):
            c4_merge_step(stepped, step_pairs)
        assert pairs == (tuple(step_pairs[0]), tuple(step_pairs[1])), k
        for name in ("eu", "ev", "eflag", "elabel", "vdeg", "_dead"):
            assert getattr(batched, name) == getattr(stepped, name), (k, name)
        assert batched.validate() and stepped.validate(), k
        for deg in set(stepped.vdeg):
            assert _valid_pop_order(batched, deg) == _valid_pop_order(stepped, deg), (k, deg)


def attach_step(g, targets, allow_repeat_target=False):
    """Reference step for ``attach_run``: one vertex joined to a vertex of
    each degree in ``targets``, looked up in order, by a tree-1 and a
    tree-2 edge first when there are two or more.  The new vertex is
    never its own target; unless repeats are allowed, neither is an
    earlier target."""
    w = g.add_vertex()
    chosen = {w}
    flags = (FLAG_T1, FLAG_T2) if len(targets) > 1 else ()
    for x, flag in zip_longest(targets, flags, fillvalue=FLAG_NONE):
        u = g._bucket_pop_valid(x, chosen)
        if not allow_repeat_target:
            chosen.add(u)
        g.add_edge(u, w, flag)


def _with_repeated_bucket_entries():
    """A built graph whose degree-4 bucket lists some vertices twice
    while they still have degree 4, over stale entries."""
    g = realize_tc(DegreeSequence(LARGE_FAMILIES["gate"](60)), "simple").graph
    for e in (0, 5, 9):
        u, v = g.endpoints(e)
        g.remove_edge(e)
        g.add_edge(u, v, FLAG_NONE)
    return g


ATTACH_RUN_STARTS = {
    "gate": lambda: realize_tc(DegreeSequence(LARGE_FAMILIES["gate"](60)), "simple").graph,
    "many-distinct": lambda: realize_tc(
        DegreeSequence(LARGE_FAMILIES["many-distinct"](200)), "simple").graph,
    "c4-multi": lambda: realize_tc(DegreeSequence(LARGE_FAMILIES["c4"](40)), "multi").graph,
    "repeated-entries": _with_repeated_bucket_entries,
}


def assert_attach_run_matches_steps(make, targets, k, multi=False):
    """``attach_run(targets, k)`` against k reference steps on two copies
    of ``make()``: the same lists and buckets, and a ``GraphError`` from
    both or from neither.  ``multi`` allows a repeated target, as the
    multi-mode "attach2" steps do.  Returns whether both raised."""
    batched, stepped = make(), make()
    if multi:
        batched.mode = stepped.mode = "multi"
    raised = []
    try:
        batched.attach_run(targets, k)
    except GraphError:
        raised.append("batched")
    try:
        for _ in range(k):
            attach_step(stepped, targets, allow_repeat_target=multi)
    except GraphError:
        raised.append("stepped")
    where = (targets, k)
    assert raised in ([], ["batched", "stepped"]), (where, raised)
    for name in ("eu", "ev", "eflag", "elabel", "vdeg", "_dead"):
        assert getattr(batched, name) == getattr(stepped, name), (where, name)
    assert batched.validate() and stepped.validate(), where
    for deg in set(stepped.vdeg):
        assert _valid_pop_order(batched, deg) == _valid_pop_order(stepped, deg), (where, deg)
    return bool(raised)


@pytest.mark.parametrize("start", sorted(ATTACH_RUN_STARTS))
def test_attach_run_matches_single_steps(start):
    make = ATTACH_RUN_STARTS[start]
    degrees = make().vdeg
    top = sorted(degrees, reverse=True)
    for x in sorted(set(degrees)):
        for k in range(degrees.count(x) // 2 + 1):  # runs of lay-offs of a 2
            assert not assert_attach_run_matches_steps(make, (x, x), k)
        # The "attach2" shape: the first target is met again at x + 1.
        for k in range(3):
            assert_attach_run_matches_steps(make, (x, x + 1), k, multi=True)
    # Single lay-offs onto the largest degrees, several distinct ones.
    for r in (3, 5, 8, 13):
        assert not assert_attach_run_matches_steps(make, tuple(top[:r]), 1)
        assert_attach_run_matches_steps(make, tuple(top[r:2 * r]), 3)
    # The new vertex reaches degree 2 before its third lookup at 2.
    for k in range(4):
        assert_attach_run_matches_steps(make, (2, 2, 2), k)


def test_attach_run_failure_keeps_the_edges_added():
    # Five vertices of degree 4 make two whole steps; the third step's
    # new vertex keeps the one edge it found before bucket 4 ran dry.
    edges = [(0, 1, FLAG_T1), (1, 2, FLAG_T2), (2, 3, FLAG_NONE),
             (3, 4, FLAG_NONE), (4, 0, FLAG_NONE)] * 2
    assert assert_attach_run_matches_steps(lambda: build_fixed("multi", 5, edges), (4, 4), 3)
    g = build_fixed("multi", 5, edges)
    with pytest.raises(GraphError):
        g.attach_run((4, 4), 3)
    assert g.n == 8 and g.num_edges == 15 and g.validate()
    # Two 2s only: the third lookup at 2 finds only the new vertex, which
    # stays in its bucket.
    g = build_fixed("simple", 4, [(0, 1, FLAG_NONE), (1, 2, FLAG_NONE), (2, 3, FLAG_NONE)])
    with pytest.raises(GraphError):
        g.attach_run((2, 2, 2))
    assert g.degrees() == [1, 3, 3, 1, 2] and g.validate()
    assert g._bucket_pop_valid(2) == 4


def _k4_two_trees():
    return build_fixed("simple", 4,
                       [(0, 1, FLAG_T1), (1, 2, FLAG_T1), (2, 3, FLAG_T1),
                        (0, 2, FLAG_T2), (0, 3, FLAG_T2), (1, 3, FLAG_T2)])


def test_replay_failure_keeps_the_steps_done():
    g = _k4_two_trees()
    with pytest.raises(GraphError):
        g.replay_degree3_insertions([4, 4, 9], (3, 5))  # no vertex of degree 8
    assert g.n == 6
    assert len(g.eu) == len(g.ev) == len(g.eflag) == len(g.elabel) == 12
    assert g.num_edges == 10
    assert g.validate()
    assert sorted(g.degrees()) == [3, 3, 3, 3, 4, 4]


# -- finishing ----------------------------------------------------------------


def test_finish_keeps_edge_order_and_flags():
    g = build_fixed("multi", 5, [(e % 5, (e + 1 + e % 3) % 5, e % 4) for e in range(40)])
    for e in range(40):
        g.elabel[e] = None if e % 7 == 0 else e + 1
    for e in (0, 3, 4, 17, 38):
        g.remove_edge(e)
    kept = [(g.eu[e], g.ev[e], g.eflag[e], g.elabel[e])
            for e in range(40) if e not in (0, 3, 4, 17, 38)]
    degrees = g.degrees()
    assert g.num_edges == 35
    assert g.finish() is g
    assert list(zip(g.eu, g.ev, g.eflag, g.elabel)) == kept
    assert g.edge_ids() == range(35) and g.num_edges == 35
    assert g.degrees() == degrees and g.validate()
    # The store keeps building after a finish.
    g.add_edge(0, 1, FLAG_T1)
    assert g.endpoints(35) == (0, 1) and g.validate()


def test_finish_twice_changes_nothing():
    for family in ("gate", "c4", "c4-all-3", "many-distinct"):
        g = realize_tc(DegreeSequence(LARGE_FAMILIES[family](200)), "simple").graph
        lists = [g.eu, g.ev, g.eflag, g.elabel]
        before = to_json_dict(g)
        g.finish()
        assert all(a is b for a, b in zip([g.eu, g.ev, g.eflag, g.elabel], lists))
        assert to_json_dict(g) == before


def _unfinished():
    g = build_fixed("simple", 4, [(0, 1, FLAG_BOTH), (1, 3, FLAG_NONE), (1, 2, FLAG_T1),
                                  (2, 3, FLAG_T1), (3, 0, FLAG_T2), (0, 2, FLAG_T2)])
    g.elabel[:] = [3, 6, 1, 2, 4, 5]
    g.remove_edge(1)
    return g


@pytest.mark.parametrize("read", [
    lambda g: g.edge_ids(),
    lambda g: g.certificate_from_flags(),
    lambda g: pivot_label(g),
    lambda g: g.write_json(io.StringIO()),
    lambda g: g.write_dot(io.StringIO()),
    lambda g: g.to_json(),
    lambda g: g.to_dot(),
    _connect_components,
    simplicity_violation,
    properness_violation,
    tc_violation,
    lambda g: certificate_violation(g),
])
def test_readers_reject_unfinished_graphs(read):
    g = _unfinished()
    with pytest.raises(GraphError, match="dead edge slots"):
        read(g)
    read(g.finish())


# -- certificates -------------------------------------------------------------


def test_certificate_from_flags():
    g = build_fixed("simple", 3,
                    [(0, 1, FLAG_BOTH), (1, 2, FLAG_T1), (2, 0, FLAG_T2)])
    cert = g.certificate_from_flags()
    assert cert.tree1 == {0, 1}
    assert cert.tree2 == {0, 2}
    assert cert.shared == {0}
    assert cert.central_cycle is None


def test_certificate_ignores_removed_edges():
    g = build_fixed("multi", 2, [(0, 1, FLAG_T1), (0, 1, FLAG_T1),
                                 (0, 1, FLAG_T2)])
    g.remove_edge(0)
    with pytest.raises(GraphError):
        g.certificate_from_flags()
    cert = g.finish().certificate_from_flags()
    assert cert.tree1 == {0} and cert.tree2 == {1}


# -- serialization ------------------------------------------------------------


def test_json_roundtrip():
    g = build_fixed("simple", 4,
                    [(0, 1, FLAG_BOTH), (1, 2, FLAG_T1), (2, 3, FLAG_T2),
                     (3, 0, FLAG_NONE)],
                    central_cycle=(0, 1, 2, 3))
    g.elabel[0] = 2
    g.elabel[1] = 1
    back = LabeledMultigraph.from_json(g.to_json())
    assert to_json_dict(back) == to_json_dict(g)


def indented(g):
    """The reference layout that ``to_json`` writes without the encoder."""
    return json.dumps(to_json_dict(g), indent=2)


def written(write):
    """What a ``write_json`` or ``write_dot`` method writes to a text sink."""
    buf = io.StringIO()
    write(buf)
    return buf.getvalue()


def dot_reference(g):
    """The DOT text as one join of every line."""
    cyc = set(g.central_cycle or ())
    colors = {FLAG_NONE: "gray", FLAG_T1: "orange", FLAG_T2: "blue", FLAG_BOTH: "purple"}
    lines = ["graph G {"]
    for v in range(g.n):
        attrs = " [shape=doublecircle, style=filled, fillcolor=lightgray]" if v in cyc else ""
        lines.append(f"  {v}{attrs};")
    for e in g.edge_ids():
        lab = g.elabel[e]
        label = f', label="{lab}"' if lab is not None else ""
        lines.append(f"  {g.eu[e]} -- {g.ev[e]} [color={colors[g.eflag[e]]}{label}];")
    lines.append("}")
    return "\n".join(lines)


# Edge counts around the writers' block size; the DOT text has m + 7
# lines here, so m = _BLOCK - 7 fills one block of lines exactly.
@pytest.mark.parametrize("m", [0, 1, _BLOCK - 7, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                               2 * _BLOCK + 1])
def test_writers_match_the_references_at_block_boundaries(m):
    # m live edges with a dead slot after each, all labeled, then with a
    # few of them unlabeled.
    for unlabeled in (False, True):
        g = build_fixed("multi", 5, [(e % 4, (e + 1) % 4 + (e % 3 == 0), e % 4)
                                     for e in range(2 * m)],
                        central_cycle=(0, 1, 2, 3))
        for e in range(2 * m):
            g.elabel[e] = None if unlabeled and e % 10 == 0 else e // 2 + 1
        for e in range(1, 2 * m, 2):
            g.remove_edge(e)
        assert g.finish().num_edges == m
        assert (None in g.elabel) == (unlabeled and m > 0)
        assert written(g.write_json) == g.to_json() == indented(g), unlabeled
        assert written(g.write_dot) == g.to_dot() == dot_reference(g), unlabeled


def test_writers_hold_one_block_at_a_time():
    # The whole document is ~15 MB of text here; to_json, which returns
    # it as one string, peaks at ~20 MB.
    g = realize_tc(DegreeSequence(LARGE_FAMILIES["gate"](50_000)), "simple").graph
    with open(os.devnull, "w", encoding="utf-8") as out:
        for write in (g.write_json, g.write_dot):
            tracemalloc.start()
            try:
                write(out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, write


def test_to_json_matches_the_indented_encoder_on_small_realizations():
    checked = 0
    for mode in ("simple", "multi"):
        for n in range(8):
            for d in enumerate_sequences(n, mode):
                g = realize_tc(d, mode).graph
                if g is not None:
                    assert g.to_json() == indented(g), (d, mode)
                    checked += 1
    assert checked > 40_000


def test_to_json_matches_the_indented_encoder_on_edge_cases():
    dead = build_fixed("multi", 4, [(0, 1, FLAG_T1), (1, 2, FLAG_T2),
                                    (0, 1, FLAG_BOTH), (2, 3, FLAG_NONE),
                                    (3, 0, FLAG_T1)],
                       central_cycle=(0, 1, 2, 3))
    for e, lab in enumerate((3, 1, 2, 5, 4)):
        dead.elabel[e] = lab
    dead.remove_edge(0)
    dead.remove_edge(3)
    dead.finish()
    unlabeled = triangle()
    unlabeled.elabel[1] = 4
    no_cycle = build_fixed("simple", 2, [(0, 1, FLAG_T1)])
    no_cycle.elabel[0] = 1
    all_dead = build_fixed("simple", 2, [(0, 1, FLAG_T1)])
    all_dead.remove_edge(0)
    all_dead.finish()
    cases = [dead, unlabeled, no_cycle, all_dead,
             LabeledMultigraph("simple"), build_fixed("multi", 3, [])]
    for g in cases:
        assert written(g.write_json) == g.to_json() == indented(g)
    assert to_json_dict(dead)["edges"][:2] == [
        {"id": 0, "u": 1, "v": 2, "tree": "t2", "label": 1},
        {"id": 1, "u": 0, "v": 1, "tree": "both", "label": 2}]
    assert '"label": null' in unlabeled.to_json()
    assert '"edges": [],' in all_dead.to_json()
    assert no_cycle.to_json().endswith('"central_cycle": null\n}')


def test_from_json_rejects_bad_documents():
    with pytest.raises(GraphError):
        LabeledMultigraph.from_json("{not json")
    with pytest.raises(GraphError):
        LabeledMultigraph.from_json(json.dumps({"mode": "simple"}))
    with pytest.raises(GraphError):
        LabeledMultigraph.from_json(json.dumps({
            "mode": "simple", "n": 2,
            "edges": [{"id": 0, "u": 0, "v": 9, "tree": "none", "label": None}],
            "central_cycle": None,
        }))
    with pytest.raises(GraphError):
        LabeledMultigraph.from_json(json.dumps({
            "mode": "simple", "n": 2,
            "edges": [{"id": 0, "u": 0, "v": 1, "tree": "none", "label": 0}],
            "central_cycle": None,
        }))


def path_document(mode, endpoints):
    return {
        "mode": mode, "n": 3,
        "edges": [{"id": i, "u": u, "v": v, "tree": "none", "label": i + 1}
                  for i, (u, v) in enumerate(endpoints)],
        "central_cycle": None,
    }


def test_from_json_rejects_the_first_parallel_edge_in_simple_mode():
    for endpoints, repeat in ([((0, 1), (1, 2), (1, 0)), "(1, 0)"],
                              [((0, 1), (1, 2), (1, 2), (1, 0)), "(1, 2)"]):
        with pytest.raises(GraphError) as info:
            LabeledMultigraph.from_json_dict(path_document("simple", endpoints))
        assert str(info.value) == f"parallel edge {repeat} in simple mode"
        g = LabeledMultigraph.from_json_dict(path_document("multi", endpoints))
        assert (g.eu, g.ev) == tuple(map(list, zip(*endpoints)))
        assert g.validate()


def square_document(**changes):
    doc = {
        "mode": "simple", "n": 4,
        "edges": [{"id": i, "u": i, "v": (i + 1) % 4, "tree": "both", "label": i + 1}
                  for i in range(4)],
        "central_cycle": [0, 1, 2, 3],
    }
    doc.update(changes)
    return doc


def test_from_json_takes_only_exact_integers():
    assert LabeledMultigraph.from_json_dict(square_document()).central_cycle == (0, 1, 2, 3)
    bad_edges = [
        {"u": 0, "v": 1, "label": True},
        {"u": 0, "v": 1, "label": 2.0},
        {"u": 0, "v": 1, "label": "2"},
        {"u": 0, "v": 1, "label": -1},
        {"u": 0.0, "v": 1, "label": 1},
        {"u": False, "v": 1, "label": 1},
        {"u": "0", "v": 1, "label": 1},
        {"u": 0, "v": -1, "label": 1},
        {"u": 0, "v": 4, "label": 1},
    ]
    for rec in bad_edges:
        doc = square_document()
        doc["edges"][0].update(rec)
        with pytest.raises(GraphError):
            LabeledMultigraph.from_json_dict(doc)
    for n in (-1, 4.0, 4.5, "4", True, None):
        with pytest.raises(GraphError):
            LabeledMultigraph.from_json_dict(square_document(n=n))
        with pytest.raises(GraphError):
            LabeledMultigraph.from_json_dict(
                square_document(n=n, edges=[], central_cycle=None))
    for cyc in ([0, 1, 2], [0, 1, 2, 3, 0], [0, 1, 2, 2], [0, 1, 2, 4],
                [0, 1, 2, -1], [0, 1, 2, 3.0], [0, True, 2, 3], "0123",
                [[0], 1, 2, 3], {"0": 1}):
        with pytest.raises(GraphError):
            LabeledMultigraph.from_json_dict(square_document(central_cycle=cyc))


def test_to_dot_mentions_edges_and_labels():
    g = build_fixed("simple", 2, [(0, 1, FLAG_T1)])
    g.elabel[0] = 7
    dot = g.to_dot()
    assert "0 -- 1" in dot
    assert 'label="7"' in dot
    assert dot == dot_reference(g)


# -- randomized consistency ----------------------------------------------------


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20))
def test_random_multi_graphs_stay_consistent(pairs):
    g = LabeledMultigraph("multi")
    for _ in range(8):
        g.add_vertex()
    added = []
    for u, v in pairs:
        if u == v:
            continue
        added.append(g.add_edge(u, v))
    assert g.validate()
    for e in added[::2]:
        g.remove_edge(e)
    assert g.validate()
    assert g.finish().validate()
    degs = [0] * 8
    for e in g.edge_ids():
        u, v = g.endpoints(e)
        degs[u] += 1
        degs[v] += 1
    assert degs == g.degrees()
