"""Frozen base realizations: structural validity plus re-derivation.

The searched fixtures were produced once by deterministic exhaustive
search; these tests re-run the same searches and require byte-identical
results, so any drift in the enumeration order or the fixtures is caught.
"""

import itertools

from tcreal import bases
from tcreal.graphstore import LabeledMultigraph
from tcreal.verify import (
    _DSU,
    _enumerate_realizations,
    _is_connected,
    validate_certificate,
)


def is_spanning_tree(n, edge_list, ids):
    if len(ids) != n - 1:
        return False
    dsu = _DSU(n)
    for i in ids:
        u, v = edge_list[i]
        if not dsu.union(u, v):
            return False
    return True


def find_one_shared(degrees):
    """First realization with two all-edge-covering spanning trees
    sharing exactly one edge, in deterministic enumeration order."""
    n = len(degrees)
    m = sum(degrees) // 2
    half = n - 2
    for edges in _enumerate_realizations(degrees, False):
        if not _is_connected(n, edges):
            continue
        eids = list(range(m))
        for s in eids:
            rest = [i for i in eids if i != s]
            fixed = rest[0]  # kill the tree-swap symmetry
            for combo in itertools.combinations(rest[1:], half - 1):
                t1 = {s, fixed, *combo}
                t2 = {s} | (set(rest) - t1)
                if is_spanning_tree(n, edges, t1) and is_spanning_tree(
                    n, edges, t2
                ):
                    return edges, sorted(t1), sorted(t2), s
    return None


def induced_c4s(n, edges):
    eset = {frozenset(e) for e in edges}
    out = []
    for quad in itertools.combinations(range(n), 4):
        for perm in itertools.permutations(quad[1:]):
            cyc = (quad[0],) + perm
            if cyc[1] > cyc[3]:
                continue  # skip the reflected copy
            ring = [frozenset((cyc[i], cyc[(i + 1) % 4])) for i in range(4)]
            chords = [
                frozenset((cyc[0], cyc[2])),
                frozenset((cyc[1], cyc[3])),
            ]
            if all(r in eset for r in ring) and not any(
                c in eset for c in chords
            ):
                out.append(cyc)
    return out


def find_c4_base(degrees):
    """First realization with an induced 4-cycle, two spanning trees
    covering all edges sharing exactly two cycle edges, and two
    endpoint-disjoint cross-tree off-cycle edge pairs."""
    n = len(degrees)
    m = sum(degrees) // 2
    for edges in _enumerate_realizations(degrees, False):
        if not _is_connected(n, edges):
            continue
        pair_of = {frozenset(e): i for i, e in enumerate(edges)}
        for cyc in induced_c4s(n, edges):
            ring_ids = [
                pair_of[frozenset((cyc[i], cyc[(i + 1) % 4]))]
                for i in range(4)
            ]
            for shared in itertools.combinations(ring_ids, 2):
                rest = [i for i in range(m) if i not in shared]
                k = n - 3
                fixed = rest[0]
                for combo in itertools.combinations(rest[1:], k - 1):
                    t1 = set(shared) | {fixed, *combo}
                    t2 = set(shared) | (set(rest) - t1)
                    if not (
                        is_spanning_tree(n, edges, t1)
                        and is_spanning_tree(n, edges, t2)
                    ):
                        continue
                    ring = set(ring_ids)
                    off1 = sorted(t1 - ring)
                    off2 = sorted(t2 - ring)
                    for e1, f1 in itertools.permutations(off1, 2):
                        for e2, f2 in itertools.permutations(off2, 2):
                            if set(edges[e1]) & set(edges[e2]):
                                continue
                            if set(edges[f1]) & set(edges[f2]):
                                continue
                            return (
                                edges,
                                sorted(t1),
                                sorted(t2),
                                list(shared),
                                cyc,
                                ((e1, e2), (f1, f2)),
                            )
    return None


def find_c4_gadget_split():
    """Split of the 10 hub-gadget edges into two 6-edge trees sharing
    exactly two central-cycle edges."""
    edges = bases.C4_GADGET["edges"]
    n = 7
    ring = [0, 1, 2, 3]
    for shared in itertools.combinations(ring, 2):
        rest = [i for i in range(10) if i not in shared]
        fixed = rest[0]
        for combo in itertools.combinations(rest[1:], 3):
            s1 = set(shared) | {fixed, *combo}
            s2 = set(shared) | (set(rest) - s1)
            if is_spanning_tree(n, edges, s1) and is_spanning_tree(
                n, edges, s2
            ):
                return sorted(s1), sorted(s2), list(shared)
    return None


# -- re-derivation ---------------------------------------------------------


def test_one_shared_fixtures_rederive():
    for n, degrees in [
        (6, [3] * 6),
        (7, [4] + [3] * 6),
        (8, [5] + [3] * 7),
    ]:
        edges, t1, t2, s = find_one_shared(degrees)
        frozen = bases.ONE_SHARED_DEG3[n]
        assert list(edges) == frozen["edges"]
        assert t1 == frozen["tree1"]
        assert t2 == frozen["tree2"]
        assert [s] == frozen["shared"]


def test_c4_all3_fixture_rederives():
    edges, t1, t2, shared, cyc, pairs = find_c4_base([3] * 8)
    assert list(edges) == bases.C4_ALL3_8["edges"]
    assert t1 == bases.C4_ALL3_8["tree1"]
    assert t2 == bases.C4_ALL3_8["tree2"]
    assert shared == bases.C4_ALL3_8["shared"]
    assert tuple(cyc) == bases.C4_ALL3_8["cycle"]
    assert pairs == bases.C4_ALL3_8["pairs"]


def test_c4_gadget_split_rederives():
    s1, s2, shared = find_c4_gadget_split()
    assert s1 == bases.C4_GADGET["tree1"]
    assert s2 == bases.C4_GADGET["tree2"]
    assert shared == bases.C4_GADGET["shared"]


# -- structural validity -----------------------------------------------------


def fixture_graphs():
    yield "k4", bases.K4_EDST, "simple"
    yield "c4", bases.C4_BASE, "simple"
    yield "triangle", bases.TRIANGLE_ONE_SHARED, "simple"
    yield "multi22", bases.MULTI_22, "multi"
    for n, fx in bases.ONE_SHARED_DEG3.items():
        yield f"one_shared_{n}", fx, "simple"
    yield "c4_all3_8", bases.C4_ALL3_8, "simple"
    yield "c4_gadget", bases.C4_GADGET, "simple"
    yield "multi_c4_gadget", bases.MULTI_C4_GADGET, "multi"
    yield "pendant", bases.PENDANT, "simple"
    for k in range(3, 11):
        yield f"wheel_{k}", bases.wheel(k), "simple"


def test_every_fixture_instantiates_validly():
    for name, fx, mode in fixture_graphs():
        g = bases.attach(LabeledMultigraph(mode), fx)
        assert g.validate(), name
        cert = g.certificate_from_flags()
        assert cert.tree1 == set(fx["tree1"]), name
        assert cert.tree2 == set(fx["tree2"]), name
        assert cert.shared == set(fx["shared"]), name
        assert validate_certificate(g, cert), name


def test_fixture_degree_multisets():
    expected = {
        "k4": [3, 3, 3, 3],
        "c4": [2, 2, 2, 2],
        "triangle": [2, 2, 2],
        "multi22": [2, 2],
        "one_shared_6": [3, 3, 3, 3, 3, 3],
        "one_shared_7": [4, 3, 3, 3, 3, 3, 3],
        "one_shared_8": [5, 3, 3, 3, 3, 3, 3, 3],
        "c4_all3_8": [3] * 8,
        "c4_gadget": [3] * 6 + [2],
        "multi_c4_gadget": [2] * 4,
        "pendant": [1, 1],
        **{f"wheel_{k}": [k] + [3] * k for k in range(3, 11)},
    }
    for name, fx, mode in fixture_graphs():
        g = bases.attach(LabeledMultigraph(mode), fx)
        assert sorted(g.degrees(), reverse=True) == expected[name], name


def test_gadget_trees_span_from_hub():
    g = LabeledMultigraph("simple")
    for _ in range(7):
        g.add_vertex()
    for u, v in bases.C4_GADGET["edges"]:
        g.add_edge(u, v)
    for key in ("tree1", "tree2"):
        ids = bases.C4_GADGET[key]
        assert is_spanning_tree(7, bases.C4_GADGET["edges"], ids)
    shared = set(bases.C4_GADGET["tree1"]) & set(
        bases.C4_GADGET["tree2"]
    )
    assert shared == set(bases.C4_GADGET["shared"])
    covered = set(bases.C4_GADGET["tree1"]) | set(
        bases.C4_GADGET["tree2"]
    )
    assert covered == set(range(10))


def test_pendant_and_wheel_trees_span_from_hub():
    # Hub gadgets: each tree spans every gadget vertex, the hub (vertex
    # 0) included, and the two share the pendant edge or nothing.
    for fx in [bases.PENDANT] + [bases.wheel(k) for k in range(3, 11)]:
        n, edges = fx["n"], fx["edges"]
        assert is_spanning_tree(n, edges, fx["tree1"]), fx
        assert is_spanning_tree(n, edges, fx["tree2"]), fx
        shared = set(fx["tree1"]) & set(fx["tree2"])
        assert shared == set(fx["shared"]) and len(shared) == (n == 2), fx
        assert set(fx["tree1"]) | set(fx["tree2"]) == set(range(len(edges))), fx


def test_k4_pairs_are_vertex_disjoint_tree2_edges():
    a, b = bases.K4_EDST["pairs"]
    edges = bases.K4_EDST["edges"]
    assert {a, b} <= set(bases.K4_EDST["tree2"])
    assert not set(edges[a]) & set(edges[b])
