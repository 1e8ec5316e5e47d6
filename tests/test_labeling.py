"""Pivot labeling: properness, journey coverage, and the label bound."""

import tracemalloc

import pytest

from tcreal import bases
from tcreal.degseq import DegreeSequence
from tcreal.graphstore import (
    FLAG_BOTH,
    FLAG_T1,
    FLAG_T2,
    GraphError,
    LabeledMultigraph,
)
from tcreal.labeling import pivot_label
from tcreal.realize import realize_tc
from tcreal.verify import is_proper, is_simple, is_tc

from conftest import build_fixed, to_json_dict


def test_empty_graph():
    g = build_fixed("simple", 0, [])
    lab = pivot_label(g)
    assert g.elabel == [] and lab.max_label == 0


def test_single_shared_edge_k2():
    g = build_fixed("simple", 2, [(0, 1, FLAG_BOTH)])
    lab = pivot_label(g)
    assert g.elabel == [1] and lab.max_label == 1
    assert is_tc(g)


def test_k4_edge_disjoint_trees():
    g = bases.attach(LabeledMultigraph("simple"), bases.K4_EDST)
    lab = pivot_label(g)
    assert is_simple(g) and is_proper(g) and is_tc(g)
    assert lab.max_label <= 2 * g.n + 2


def test_central_cycle_gets_two_consecutive_labels():
    g = bases.attach(LabeledMultigraph("simple"), bases.C4_BASE)
    pivot_label(g)
    ring_labels = sorted({g.elabel[e] for e in range(4)})
    # Four ring edges share exactly two labels, one per opposite pair.
    assert len(ring_labels) == 2
    assert ring_labels[1] == ring_labels[0] + 1
    assert is_proper(g) and is_tc(g)


def test_collection_phase_increases_toward_core():
    # Tree 1 is the path 0-1-2 plus the shared edge 2-3 plus 3-4; labels
    # must strictly increase from the leaf 0 toward the shared core.
    g = build_fixed(
        "simple",
        5,
        [
            (0, 1, FLAG_T1),
            (1, 2, FLAG_T1),
            (2, 3, FLAG_BOTH),
            (3, 4, FLAG_T1),
            (0, 3, FLAG_T2),
            (1, 3, FLAG_T2),
            (2, 4, FLAG_T2),
        ],
    )
    pivot_label(g)
    lab = g.elabel
    assert lab[0] < lab[1] < lab[2]
    # The shared core fires after the whole collection phase.
    up_edges = [0, 1, 3]
    assert lab[2] == max(lab[e] for e in up_edges) + 1
    # Distribution-phase edges all fire after the core.
    for e in (4, 5, 6):
        assert lab[e] > lab[2]
    assert is_proper(g) and is_tc(g)


def test_extra_edges_get_fresh_top_labels():
    res = realize_tc(DegreeSequence([5, 4, 4, 4, 3, 2]), "simple")
    g = res.graph
    flagged_max = max(g.elabel[e] for e in g.edge_ids() if g.eflag[e] != 0)
    for e in g.edge_ids():
        if g.eflag[e] == 0:
            assert g.elabel[e] > flagged_max


def test_rejects_non_spanning_tree_edges():
    g = build_fixed(
        "simple",
        4,
        [(0, 1, FLAG_BOTH), (1, 2, FLAG_T1), (2, 3, FLAG_T2), (3, 0, 0)],
    )
    # tree1 misses vertex 3, tree2 misses vertex 0.
    with pytest.raises(GraphError, match="^certificate tree does not span the graph$"):
        pivot_label(g)


def test_rejects_cyclic_tree_edges():
    cases = [
        ("simple", 3, [(0, 1, FLAG_T1), (1, 2, FLAG_T1), (2, 0, FLAG_T1)]),
        # A spanning tree 1 with more half-edges than 2n + 3.
        ("multi", 4, [(0, 1, FLAG_T1)] * 6 + [(1, 2, FLAG_T1), (2, 3, FLAG_T1)]),
    ]
    for mode, n, edges in cases:
        g = build_fixed(mode, n, edges)
        with pytest.raises(GraphError, match="^certificate tree contains a cycle$"):
            pivot_label(g)


def test_rejects_two_shared_edges_without_cycle():
    g = build_fixed(
        "simple",
        3,
        [(0, 1, FLAG_BOTH), (1, 2, FLAG_BOTH), (2, 0, 0)],
    )
    with pytest.raises(GraphError):
        pivot_label(g)


def test_label_bound_across_realizations():
    cases = [
        (3, 3, 3, 3),
        (3, 3, 3, 3, 3, 3),
        tuple([3] * 8),
        (2, 2, 2, 2),
        (4, 4, 3, 3, 3, 3),
        (5, 3, 3, 3, 3, 3, 3, 3),
    ]
    for tup in cases:
        res = realize_tc(DegreeSequence(tup), "simple")
        g, lab = res.graph, res.labeling
        if all(g.eflag[e] != 0 for e in g.edge_ids()):
            assert lab.max_label <= 2 * len(tup) + 2, tup


def test_label_plain_tree_nonstrict():
    g = build_fixed(
        "simple",
        4,
        [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)],
    )
    # A spanning path labeled all 1, the closing edge above it.
    g.elabel[:] = [1, 1, 1, 2]
    assert is_tc(g, strict=False)
    assert not is_tc(g, strict=True)  # equal labels break strict journeys



def test_stale_labels_do_not_leak():
    # pivot_label writes into g.elabel; labels already there, scrambled
    # or loaded from a document, must neither survive nor change the
    # result.  The cases cover edges outside both trees (the sweep), builds
    # that delete edges on their way, and the central cycle.
    cases = [((5, 4, 4, 4, 3, 2), "simple"), ((6,) * 8, "simple"),
             ((4,) * 10 + (2, 2), "simple"), ((2, 2, 2, 2), "simple"),
             ((4, 2, 2, 2, 2), "multi"), ((6, 5, 4, 4, 3, 3, 3, 2), "multi")]
    for tup, mode in cases:
        fresh = realize_tc(DegreeSequence(tup), mode)
        g, top = fresh.graph, fresh.labeling.max_label
        expected = list(g.elabel)

        # A realization with every label scrambled.
        g.elabel[:] = [1 + (7 * e) % 3 for e in range(len(g.elabel))]
        assert pivot_label(g).max_label == top
        assert g.elabel == expected, (tup, mode)

        # A reloaded document: its labels, scrambled, give way to the
        # ones a reload without labels gets.
        doc = to_json_dict(g)
        for rec in doc["edges"]:
            rec["label"] = None
        bare = LabeledMultigraph.from_json_dict(doc)
        for i, rec in enumerate(doc["edges"]):
            rec["label"] = 1 + (7 * i) % 3
        loaded = LabeledMultigraph.from_json_dict(doc)
        for h in (bare, loaded):
            assert pivot_label(h).max_label == top
        assert loaded.elabel == bare.elabel, (tup, mode)
        assert sorted(bare.elabel) == sorted(filter(None, expected))


def test_reloaded_graph_relabels_identically():
    # The labels must not depend on the id values, only on their order,
    # so renumbering the edges without reordering them keeps them.
    # Python set order does depend on the values: walking sets of tree
    # edge ids unsorted gave other labels here for simple
    # all-6 at n = 13, 50 and 1,000, when built graphs still numbered
    # their edges with gaps.
    families = {
        "gate": lambda n: [4] * (n - 2) + [2, 2],
        "c4": lambda n: [4] * (n - 4) + [2] * 4,
        "all-6": lambda n: [6] * n,
    }
    for name, family in families.items():
        for n in (12, 13, 50, 1000):
            for mode in ("simple", "multi"):
                g = realize_tc(DegreeSequence(family(n)), mode).graph
                h = LabeledMultigraph.from_json(g.to_json())
                pivot_label(h)
                built = [(g.eu[e], g.ev[e], g.elabel[e]) for e in g.edge_ids()]
                reloaded = [(h.eu[e], h.ev[e], h.elabel[e]) for e in h.edge_ids()]
                assert reloaded == built, (name, n, mode)


@pytest.mark.parametrize("mode", ["simple", "multi"])
@pytest.mark.parametrize("family", [
    lambda n: [4] * (n - 2) + [2, 2],   # gate: edge-disjoint trees
    lambda n: [4] * (n - 4) + [2] * 4,  # C4: central cycle
    lambda n: [4] * (n - 3) + [2] * 3,  # one shared edge
], ids=["gate", "c4", "one-shared"])
def test_relabel_peak_memory_per_edge(family, mode):
    # Edge ids, half-edge indices and labels come from one int table, so
    # no int object is allocated per edge: the peak, the labels included,
    # reads about 75 B per edge.  A fresh int for each would read 131.
    g = realize_tc(DegreeSequence(family(5_000)), mode).graph
    expected = list(g.elabel)
    tracemalloc.start()
    try:
        pivot_label(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.elabel == expected
    assert peak <= 100 * g.num_edges, peak / g.num_edges
