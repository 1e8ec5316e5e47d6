"""Graph store: mutation primitives, degree buckets, serialization."""

import io
import json
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcreal import bases
from tcreal.graphstore import (
    _BLOCK,
    FLAG_BOTH,
    FLAG_NONE,
    FLAG_T1,
    FLAG_T2,
    Certificate,
    GraphError,
    LabeledMultigraph,
)
from tcreal.degseq import DegreeSequence
from tcreal.realize import realize_tc
from tcreal.verify import enumerate_sequences

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
    g = LabeledMultigraph("simple")
    g.add_vertex()
    g.add_vertex()
    g.add_edge(0, 1)
    with pytest.raises(GraphError):
        g.add_edge(1, 0)
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
    g.add_edge(0, 1)  # the slot is free again in the pair index
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


def test_attach_vertex_on_triangle():
    g = triangle()
    w, edges = g.attach_vertex([2, 2])
    assert g.degree(w) == 2
    assert len(edges) == 2
    targets = {v for e in edges for v in g.endpoints(e)} - {w}
    assert len(targets) == 2  # two distinct previously-degree-2 vertices
    assert g.validate()


def test_attach_vertex_on_k2():
    g = LabeledMultigraph("simple")
    g.add_vertex()
    g.add_vertex()
    g.add_edge(0, 1)
    w, _ = g.attach_vertex([1])
    assert sorted(g.degrees()) == [1, 1, 2]
    assert g.degree(w) == 1


def test_attach_vertex_repeat_target_multi():
    g = LabeledMultigraph("multi")
    g.add_vertex()
    g.add_vertex()
    g.add_edge(0, 1)
    w, edges = g.attach_vertex([1, 1], allow_repeat_target=True)
    assert g.degree(w) == 2
    assert sorted(g.degrees()) == [2, 2, 2]
    for e in edges:
        assert w in g.endpoints(e)
    assert g.validate()


def test_attach_vertex_never_targets_itself():
    g = triangle("multi")
    # The new vertex reaches the requested degree 2 while edges are
    # added; it must still never be chosen as its own target.
    w, edges = g.attach_vertex([2, 2, 2], allow_repeat_target=True)
    for e in edges:
        u, v = g.endpoints(e)
        assert u != v
        assert w in (u, v)
    assert g.degree(w) == 3


def test_attach_vertex_missing_degree():
    g = triangle()
    with pytest.raises(GraphError):
        g.attach_vertex([7])


def replace_edge_with_degree3_vertex(g, u, pick):
    """Reference step for ``replay_degree3_insertions``: add a vertex w
    joined to u (tree 1) and to both endpoints of edge ``pick`` (tree 2),
    deleting ``pick``.

    Equivalent to remove_edge + add_vertex + three add_edge calls, but
    skips bucket updates for the two endpoints of ``pick`` whose degrees
    are unchanged overall.  Returns (w, first tree-2 edge).
    """
    eu, ev = g.eu, g.ev
    if not g.ealive[pick]:
        raise GraphError(f"unknown edge id {pick}")
    a, b = eu[pick], ev[pick]
    if u == a or u == b:
        raise GraphError("replacement edge must avoid the tree-1 anchor")
    g._pairs = None
    g.ealive[pick] = False
    g.eflag[pick] = FLAG_NONE
    vdeg = g.vdeg
    w = len(vdeg)
    e1 = len(eu)
    eu += (u, a, b)
    ev += (w, w, w)
    g.eflag += (FLAG_T1, FLAG_T2, FLAG_T2)
    g.elabel += (None, None, None)
    g.ealive += (True, True, True)
    vdeg.append(3)
    vdeg[u] += 1
    g._bucket_push(vdeg[u], u)
    g._bucket_push(3, w)
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
        for e in h.edge_ids()
    )
    assert live(g) == live(ref)


def test_replace_edge_rejects_incident_anchor():
    g = build_fixed("simple", 3,
                    [(0, 1, FLAG_T2), (1, 2, FLAG_NONE), (2, 0, FLAG_NONE)])
    with pytest.raises(GraphError):
        replace_edge_with_degree3_vertex(g, 0, 0)


def test_replay_degree3_insertions_matches_single_steps():
    def fresh():
        return build_fixed("simple", 4,
                           [(0, 1, FLAG_T1), (1, 2, FLAG_T1), (2, 3, FLAG_T1),
                            (0, 2, FLAG_T2), (0, 3, FLAG_T2), (1, 3, FLAG_T2)])

    batched = fresh()
    stepped = fresh()
    pair = batched.replay_degree3_insertions([4, 4, 4], (3, 5))
    t2_pair = (3, 5)
    for _ in range(3):
        u = stepped.find_vertex_with_degree(3)
        pick, other = t2_pair
        if u in stepped.endpoints(pick):
            pick, other = other, pick
        _, new_edge = replace_edge_with_degree3_vertex(stepped, u, pick)
        t2_pair = (other, new_edge)
    assert pair == t2_pair
    assert batched.degrees() == stepped.degrees()
    assert to_json_dict(batched) == to_json_dict(stepped)


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
        batched = bases.instantiate(bases.C4_ALL3_8, mode)
        stepped = bases.instantiate(bases.C4_ALL3_8, mode)
        pairs = batched.replay_c4_merges(k, start)
        step_pairs = [list(p) for p in start]
        for _ in range(k):
            c4_merge_step(stepped, step_pairs)
        assert pairs == (tuple(step_pairs[0]), tuple(step_pairs[1])), k
        for name in ("eu", "ev", "eflag", "ealive", "elabel", "vdeg"):
            assert getattr(batched, name) == getattr(stepped, name), (k, name)
        assert batched.validate() and stepped.validate(), k
        for deg in set(stepped.vdeg):
            assert _valid_pop_order(batched, deg) == _valid_pop_order(stepped, deg), (k, deg)


def _k4_two_trees():
    return build_fixed("simple", 4,
                       [(0, 1, FLAG_T1), (1, 2, FLAG_T1), (2, 3, FLAG_T1),
                        (0, 2, FLAG_T2), (0, 3, FLAG_T2), (1, 3, FLAG_T2)])


def test_replay_failure_keeps_the_steps_done():
    g = _k4_two_trees()
    with pytest.raises(GraphError):
        g.replay_degree3_insertions([4, 4, 9], (3, 5))  # no vertex of degree 8
    assert g.n == 6
    assert len(g.eu) == len(g.ev) == len(g.eflag) == len(g.elabel) == len(g.ealive) == 12
    assert g.validate()
    assert sorted(g.degrees()) == [3, 3, 3, 3, 4, 4]


def _assert_pair_index_complete(g):
    for e in list(g.edge_ids()):
        u, v = g.endpoints(e)
        for a, b in ((u, v), (v, u)):
            with pytest.raises(GraphError):
                g.add_edge(a, b)


def test_indexes_built_on_first_use_after_realize():
    # The construction does not fill the pair index; it is built when
    # first used and must then be complete.
    for seq in ([4] * 30 + [2, 2], [4] * 26 + [2] * 4, [5, 4, 4, 4, 3, 2],
                [6, 5, 4, 4, 3, 3, 3, 2]):
        g = realize_tc(DegreeSequence(seq), "simple").graph
        _assert_pair_index_complete(g)
        e = next(g.edge_ids())
        u, v = g.endpoints(e)
        g.remove_edge(e)
        g.add_edge(u, v)  # the removed pair is free again
        assert g.validate()


def test_indexes_built_before_trusted_insertions_are_rebuilt():
    g = _k4_two_trees()
    g.remove_edge(0)
    g.add_edge(0, 1, FLAG_T1)  # the pair index now exists
    g.replay_degree3_insertions([4, 4, 4], (3, 5))
    g.attach_vertex([3, 3])
    replace_edge_with_degree3_vertex(g, g.n - 1, next(
        e for e in g.edge_ids() if g.n - 1 not in g.endpoints(e)))
    _assert_pair_index_complete(g)
    assert g.validate()


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
    g = build_fixed("multi", 2, [(0, 1, FLAG_T1), (0, 1, FLAG_T2),
                                 (0, 1, FLAG_T1)])
    g.remove_edge(2)
    cert = g.certificate_from_flags()
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
    # m live edges with a dead slot after each, a few of them unlabeled.
    g = build_fixed("multi", 5, [(e % 4, (e + 1) % 4 + (e % 3 == 0), e % 4)
                                 for e in range(2 * m)],
                    central_cycle=(0, 1, 2, 3))
    for e in range(2 * m):
        g.elabel[e] = None if e % 10 == 0 else e // 2 + 1
    for e in range(1, 2 * m, 2):
        g.remove_edge(e)
    assert g.num_edges == m
    assert written(g.write_json) == g.to_json() == indented(g)
    assert written(g.write_dot) == g.to_dot() == dot_reference(g)


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
    unlabeled = triangle()
    unlabeled.elabel[1] = 4
    no_cycle = build_fixed("simple", 2, [(0, 1, FLAG_T1)])
    no_cycle.elabel[0] = 1
    all_dead = build_fixed("simple", 2, [(0, 1, FLAG_T1)])
    all_dead.remove_edge(0)
    cases = [dead, unlabeled, no_cycle, all_dead,
             LabeledMultigraph("simple"), build_fixed("multi", 3, [])]
    for g in cases:
        assert written(g.write_json) == g.to_json() == indented(g)
    assert to_json_dict(dead)["edges"][0]["id"] == 1
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
    degs = [0] * 8
    for e in g.edge_ids():
        u, v = g.endpoints(e)
        degs[u] += 1
        degs[v] += 1
    assert degs == g.degrees()
