"""Verification primitives and the exhaustive brute-force oracle."""

import itertools
import random
import re
import tracemalloc
from collections import Counter

import pytest

from tcreal.degseq import DegreeSequence
from tcreal.graphstore import (
    FLAG_BOTH,
    FLAG_NONE,
    FLAG_T1,
    FLAG_T2,
    Certificate,
    GraphError,
    LabeledMultigraph,
)
from tcreal.realize import realize_tc
from tcreal import verify
from tcreal.verify import (
    OracleCapError,
    _by_label,
    certificate_violation,
    enumerate_sequences,
    is_proper,
    is_simple,
    is_tc,
    oracle_tc_realizable_sequence,
    properness_violation,
    simplicity_violation,
    tc_violation,
    validate_certificate,
)

from conftest import LARGE_FAMILIES, build_fixed, live_incidence

INF = float("inf")


def earliest_arrival(g, src, strict=True):
    """Earliest arrival time at every vertex for journeys starting at src:
    the per-source reference for ``tc_violation``.

    Edges are relaxed in increasing label order.  Under ``strict`` a label-t
    edge extends only journeys that arrived before t, read from the class's
    endpoints as they were before it fired; otherwise arrival at exactly t
    may continue, which needs a fixpoint within each label batch.
    """
    eu, ev = g.eu, g.ev
    arrival = [INF] * g.n
    arrival[src] = 0
    for t, group in itertools.groupby(_by_label(g), key=g.elabel.__getitem__):
        batch = [(eu[e], ev[e]) for e in group]
        if strict:
            before = {x: arrival[x] for pair in batch for x in pair}
            for u, v in batch:
                if before[u] < t and arrival[v] > t:
                    arrival[v] = t
                if before[v] < t and arrival[u] > t:
                    arrival[u] = t
        else:
            changed = True
            while changed:
                changed = False
                for u, v in batch:
                    if arrival[u] <= t and arrival[v] > t:
                        arrival[v] = t
                        changed = True
                    if arrival[v] <= t and arrival[u] > t:
                        arrival[u] = t
                        changed = True
    return arrival


def labeled_cycle(labels):
    g = build_fixed(
        "simple", 4, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]
    )
    for e, lab in enumerate(labels):
        g.elabel[e] = lab
    return g


# -- labeling predicates --------------------------------------------------


def test_is_simple_requires_total_positive_labels():
    g = labeled_cycle([1, 2, 3, 4])
    assert is_simple(g)
    g.elabel[2] = None
    assert not is_simple(g)
    assert simplicity_violation(g) == "edge 2 has no label"


def test_is_simple_rejects_bool_and_float_labels():
    assert not is_simple(labeled_cycle([True, 2, 3, 4]))
    assert not is_simple(labeled_cycle([1, 1.5, 3, 4]))
    assert simplicity_violation(labeled_cycle([1, 1.5, 3, 4])) == (
        "edge 1 has label 1.5, not a positive integer"
    )


def test_is_proper_detects_adjacent_equal_labels():
    assert is_proper(labeled_cycle([1, 2, 1, 2]))
    assert not is_proper(labeled_cycle([1, 1, 2, 2]))
    assert properness_violation(labeled_cycle([1, 1, 2, 2])) == (
        "edges 0 and 1 at vertex 1 share label 1"
    )


def test_external_label_map_overrides_stored():
    # The checkers read the labels stored on the graph at call time.
    g = labeled_cycle([1, 1, 2, 2])
    assert not is_proper(g)
    g.elabel[:] = [1, 2, 1, 2]
    assert is_proper(g)


def test_unlabeled_edge_is_named():
    g = labeled_cycle([1, 2, None, 4])
    for check in (properness_violation, tc_violation):
        with pytest.raises(GraphError, match="^edge 2 has no label$"):
            check(g)
    with pytest.raises(GraphError, match="^edge 2 has no label$"):
        earliest_arrival(g, 0)


def per_vertex_properness_violation(g):
    """Reference for ``properness_violation``'s witness: scan vertices in
    increasing order, each vertex's edges in edge-id order."""
    incidence = live_incidence(g)
    for v in range(g.n):
        seen = {}
        for e in incidence[v]:
            t = g.elabel[e]
            if t in seen:
                return f"edges {seen[t]} and {e} at vertex {v} share label {t}"
            seen[t] = e
    return None


def test_properness_witness_with_parallel_edges():
    # Edges 0 and 1 are parallel with one label (a clash at vertex 1, seen
    # first); vertex 0 clashes later in id order and is the smaller vertex.
    g = build_fixed(
        "multi", 7,
        [(1, 2, 0), (2, 1, 0), (0, 3, 0), (0, 4, 0), (0, 5, 0), (0, 6, 0)],
    )
    g.elabel[:] = [5, 5, 7, 7, 9, 9]
    expected = "edges 2 and 3 at vertex 0 share label 7"
    assert properness_violation(g) == per_vertex_properness_violation(g) == expected
    g.elabel[2] = 8
    expected = "edges 4 and 5 at vertex 0 share label 9"
    assert properness_violation(g) == per_vertex_properness_violation(g) == expected
    g.elabel[4] = 10
    expected = "edges 0 and 1 at vertex 1 share label 5"
    assert properness_violation(g) == per_vertex_properness_violation(g) == expected


def test_earliest_arrival_strict():
    # Path 0-1-2 labeled (2, 1): under strict journeys 2 is unreachable
    # from 0 because the second edge fires before the first.
    g = build_fixed("simple", 3, [(0, 1, 0), (1, 2, 0)])
    g.elabel[0] = 2
    g.elabel[1] = 1
    assert earliest_arrival(g, 0) == [0, 2, INF]
    assert earliest_arrival(g, 2) == [2, 1, 0]


def test_earliest_arrival_nonstrict_allows_equal_times():
    g = build_fixed("simple", 3, [(0, 1, 0), (1, 2, 0)])
    g.elabel[0] = 1
    g.elabel[1] = 1
    assert earliest_arrival(g, 0, strict=True) == [0, 1, INF]
    assert earliest_arrival(g, 0, strict=False) == [0, 1, 1]


def test_is_tc_cycle():
    assert is_tc(labeled_cycle([1, 2, 1, 2]))
    assert not is_tc(labeled_cycle([1, 2, 3, 4]))  # one direction dies
    assert is_tc(labeled_cycle([1, 2, 3, 4]), strict=False) is False
    assert is_tc(labeled_cycle([1, 1, 1, 1]), strict=False)


def test_strict_journeys_use_one_edge_per_label_class():
    # A label class that is not a matching: under strict journeys none of
    # its edges extends a journey that arrived by another of them.
    assert tc_violation(labeled_cycle([1, 1, 1, 1])) == "no journey from 0 to 2"
    assert tc_violation(labeled_cycle([1, 1, 1, 1]), strict=False) is None
    path = build_fixed("simple", 3, [(0, 1, 0), (1, 2, 0)])
    path.elabel[:] = [1, 1]
    assert tc_violation(path) == "no journey from 0 to 2"
    assert tc_violation(path, strict=False) is None


def test_is_tc_trivial_sizes():
    assert is_tc(build_fixed("simple", 0, []))
    assert is_tc(build_fixed("simple", 1, []))
    assert not is_tc(build_fixed("simple", 2, []))
    assert tc_violation(build_fixed("simple", 2, [])) == "no journey from 0 to 1"


def mutated_realizations():
    """Every realization of a sequence with n <= 6, in both modes, each
    with one label changed at random (seeded)."""
    rng = random.Random(2025)
    for mode, n in itertools.product(("simple", "multi"), range(7)):
        for d in enumerate_sequences(n, mode):
            res = realize_tc(d, mode)
            if not res.realizable or res.graph.num_edges == 0:
                continue
            g = res.graph
            e = rng.choice(list(g.edge_ids()))
            g.elabel[e] = rng.randint(1, res.labeling.max_label + 1)
            yield g


def first_unreached_pair(g, strict):
    """Reference for ``tc_violation``: one ``earliest_arrival`` per source."""
    for src in range(g.n):
        arrival = earliest_arrival(g, src, strict=strict)
        if INF in arrival:
            return f"no journey from {src} to {arrival.index(INF)}"
    return None


def test_tc_violation_names_the_first_unreached_pair():
    cases = 0
    for g in mutated_realizations():
        for strict in (True, False):
            expected = first_unreached_pair(g, strict)
            assert tc_violation(g, strict=strict) == expected
            cases += expected is not None
    assert cases > 0


def random_realization(rng, n, mode, total):
    """A realization of all-2s plus randomly spread degree summing to total."""
    while True:
        vals = [2] * n
        for _ in range(total - 2 * n):
            vals[rng.randrange(n)] += 1
        res = realize_tc(DegreeSequence(vals), mode)
        if res.realizable:
            return res


def test_tc_violation_matches_arrival_sweeps_on_multiword_bitsets():
    # n above 64, so every reach set spans several machine words; the
    # degree sums are the C4 boundary, the one-shared boundary and above.
    rng = random.Random(5)
    cases = 0
    for n, mode, above in itertools.product(
        (70, 130, 260), ("simple", "multi"), (-4, -2, 2)
    ):
        extra = above * (n // 4) if above > 0 else above
        res = random_realization(rng, n, mode, 4 * (n - 1) + extra)
        g, top = res.graph, res.labeling.max_label
        assert tc_violation(g) is tc_violation(g, strict=False) is None
        kind = rng.choice(("one label", "one vertex"))
        if kind == "one label":
            g.elabel[rng.choice(list(g.edge_ids()))] = rng.randint(1, top + 1)
        else:
            for e in live_incidence(g)[rng.randrange(n)]:
                g.elabel[e] = rng.randint(1, top + 1)
        for strict in (True, False):
            expected = first_unreached_pair(g, strict)
            assert tc_violation(g, strict=strict) == expected, (n, mode, kind)
            cases += expected is not None
    assert cases > 0


def earliest_arrival_by_full_snapshots(g, src, strict):
    """The earlier ``earliest_arrival``: it copies the whole arrival list
    for each strict label class."""
    order = sorted(g.edge_ids(), key=g.elabel.__getitem__)
    arrival = [INF] * g.n
    arrival[src] = 0
    for t, group in itertools.groupby(order, key=g.elabel.__getitem__):
        batch = list(group)
        if strict:
            snapshot = list(arrival)
            for e in batch:
                u, v = g.endpoints(e)
                if snapshot[u] < t and arrival[v] > t:
                    arrival[v] = t
                if snapshot[v] < t and arrival[u] > t:
                    arrival[u] = t
        else:
            changed = True
            while changed:
                changed = False
                for e in batch:
                    u, v = g.endpoints(e)
                    if arrival[u] <= t and arrival[v] > t:
                        arrival[v] = t
                        changed = True
                    if arrival[v] <= t and arrival[u] > t:
                        arrival[u] = t
                        changed = True
    return arrival


def test_earliest_arrival_matches_full_snapshots():
    for g in mutated_realizations():
        for strict, src in itertools.product((True, False), range(g.n)):
            assert earliest_arrival(g, src, strict) == (
                earliest_arrival_by_full_snapshots(g, src, strict))


def our_outputs():
    """Every realization of a sequence with n <= 8 (simple) or n <= 6
    (multi), and of the large families at n = 1,000 in both modes."""
    for mode, top in (("simple", 8), ("multi", 6)):
        for n in range(top + 1):
            for d in enumerate_sequences(n, mode):
                res = realize_tc(d, mode)
                if res.realizable:
                    yield res.graph
    for family in LARGE_FAMILIES.values():
        for mode in ("simple", "multi"):
            res = realize_tc(DegreeSequence(family(1000)), mode)
            assert res.realizable
            yield res.graph


def test_pivot_window_certifies_our_outputs(monkeypatch):
    def exact_pass(*args):
        raise AssertionError("the exact pass ran")

    monkeypatch.setattr(verify, "_reach_violation", exact_pass)
    for g in our_outputs():
        assert tc_violation(g) is None
        assert tc_violation(LabeledMultigraph.from_json(g.to_json())) is None


def test_tc_violation_memory_is_linear():
    # The exact pass's bitsets alone would take n²/8 = 312 MB.
    g = realize_tc(DegreeSequence(LARGE_FAMILIES["gate"](50_000)), "simple").graph
    tracemalloc.start()
    try:
        assert tc_violation(g) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def mutate_document(g, kind, rng, top):
    ids = list(g.edge_ids())
    if kind == "one label":
        g.elabel[rng.choice(ids)] = rng.randint(1, top + 1)
    elif kind == "label copied to an adjacent edge":
        a = rng.choice(ids)
        ends = g.endpoints(a)
        b = rng.choice([e for e in ids if e != a and set(g.endpoints(e)) & set(ends)])
        g.elabel[b] = g.elabel[a]
    elif kind == "two labels swapped":
        a, b = rng.sample(ids, 2)
        g.elabel[a], g.elabel[b] = g.elabel[b], g.elabel[a]
    elif kind == "labels reversed":
        for e in ids:
            g.elabel[e] = top + 1 - g.elabel[e]
    elif kind == "cycle dropped":
        g.central_cycle = None
    elif kind == "cycle moved":
        g.central_cycle = tuple(rng.sample(range(g.n), 4))
    else:  # tree flags flipped
        for e in rng.sample(ids, 2):
            flags = [FLAG_NONE, FLAG_T1, FLAG_T2, FLAG_BOTH]
            flags.remove(g.eflag[e])
            g.eflag[e] = rng.choice(flags)


LABEL_CHANGES = ("one label", "label copied to an adjacent edge",
                 "two labels swapped")
MUTATIONS = LABEL_CHANGES + ("labels reversed", "cycle dropped", "cycle moved",
                             "tree flags flipped")


def test_pivot_window_accepts_only_what_the_exact_pass_accepts():
    rng = random.Random(2026)
    outcomes = Counter()
    for mode, n in itertools.product(("simple", "multi"), range(4, 6)):
        for d in enumerate_sequences(n, mode):
            res = realize_tc(d, mode)
            if not res.realizable:
                continue
            text = res.graph.to_json()
            for kind in MUTATIONS:
                g = LabeledMultigraph.from_json(text)
                mutate_document(g, kind, rng, res.labeling.max_label)
                order = verify._by_label(g)
                exact = verify._reach_violation(g, order, True)
                if verify._pivot_window_holds(g, order):
                    assert exact is None, (kind, mode, d.entries)
                    outcomes[kind, "accepted"] += 1
                else:
                    outcomes[kind, "exact" if exact is None else "not tc"] += 1
    for kind in MUTATIONS:
        assert outcomes[kind, "accepted"] > 0, kind
        assert outcomes[kind, "exact"] > 0, kind
    # Reversing every label reverses every journey, so it keeps the
    # document temporally connected; the other label changes can break it.
    for kind in LABEL_CHANGES:
        assert outcomes[kind, "not tc"] > 0, kind


def test_properness_violation_names_a_real_clash():
    clashes = 0
    for g in mutated_realizations():
        at = [[] for _ in range(g.n)]
        for e in g.edge_ids():
            u, v = g.endpoints(e)
            at[u].append(g.elabel[e])
            at[v].append(g.elabel[e])
        proper = all(len(set(labs)) == len(labs) for labs in at)
        reason = properness_violation(g)
        assert (reason is None) == proper
        assert reason == per_vertex_properness_violation(g)
        if reason is not None:
            m = re.fullmatch(r"edges (\d+) and (\d+) at vertex (\d+) share label (\d+)",
                             reason)
            e, f, v, t = map(int, m.groups())
            assert e != f
            assert v in g.endpoints(e) and v in g.endpoints(f)
            assert g.elabel[e] == g.elabel[f] == t
            clashes += 1
    assert clashes > 0


# -- certificates -----------------------------------------------------------


def test_validate_certificate_one_shared():
    g = build_fixed(
        "simple", 3, [(0, 1, FLAG_BOTH), (1, 2, FLAG_T1), (2, 0, FLAG_T2)]
    )
    assert certificate_violation(g) is None
    assert validate_certificate(g, g.certificate_from_flags())


def test_validate_certificate_rejects_non_spanning():
    g = build_fixed(
        "simple", 3, [(0, 1, FLAG_T2), (1, 2, FLAG_T1), (2, 0, FLAG_T2)]
    )
    assert not validate_certificate(g, g.certificate_from_flags())
    assert certificate_violation(g) == (
        "tree 1 has 1 edges, a spanning tree needs 2"
    )
    doubled = build_fixed(
        "multi", 3, [(0, 1, FLAG_T1), (0, 1, FLAG_BOTH), (1, 2, FLAG_T2)]
    )
    assert certificate_violation(doubled) == (
        "tree 1 edge 1 (0, 1) closes a cycle"
    )


def test_validate_certificate_rejects_wrong_shared_record():
    g = build_fixed(
        "simple", 3, [(0, 1, FLAG_BOTH), (1, 2, FLAG_T1), (2, 0, FLAG_T2)]
    )
    # The graph's own certificate is valid; a view that records no
    # shared edge is not the graph's, so it does not validate.
    assert certificate_violation(g) is None
    cert = Certificate(tree1={0, 1}, tree2={0, 2}, shared=set())
    assert not validate_certificate(g, cert)


def test_validate_certificate_two_shared_needs_induced_cycle():
    edges = [(0, 1, FLAG_BOTH), (1, 2, FLAG_T1), (2, 3, FLAG_BOTH),
             (3, 0, FLAG_T2)]
    g = build_fixed("simple", 4, edges, central_cycle=(0, 1, 2, 3))
    assert validate_certificate(g, g.certificate_from_flags())
    # A view without the recorded cycle is not the graph's own.
    bad = g.certificate_from_flags()
    bad = Certificate(bad.tree1, bad.tree2, bad.shared, central_cycle=None)
    assert not validate_certificate(g, bad)
    # Without the recorded cycle the two shared edges are rejected.
    g.central_cycle = None
    assert not validate_certificate(g, g.certificate_from_flags())
    assert certificate_violation(g) == "two shared edges need a central cycle"
    # A chord breaks the induced condition.
    chorded = build_fixed(
        "simple", 4, edges + [(0, 2, 0)], central_cycle=(0, 1, 2, 3)
    )
    assert not validate_certificate(chorded, chorded.certificate_from_flags())
    assert certificate_violation(chorded) == (
        "edge 4 (0, 2) is a chord of the central cycle"
    )


def test_certificate_rejects_dead_and_unknown_tree_edges():
    g = build_fixed(
        "simple", 4,
        [(0, 1, FLAG_BOTH), (1, 2, FLAG_T1), (2, 0, FLAG_T2), (3, 0, FLAG_BOTH)],
    )
    g.remove_edge(3)
    with pytest.raises(GraphError):
        certificate_violation(g)
    g.finish()
    # The flags name only live edge ids; a view naming others is not
    # the graph's own certificate.
    assert certificate_violation(g) == "tree 1 has 2 edges, a spanning tree needs 3"
    for bad in (3, 4, -1):
        cert = Certificate(tree1={0, 1, bad}, tree2={0, 2}, shared={0})
        assert not validate_certificate(g, cert)


def test_certificate_rejects_a_doubled_ring_pair():
    g = build_fixed(
        "multi", 4,
        [(0, 1, FLAG_BOTH), (1, 2, FLAG_T1), (2, 3, FLAG_BOTH),
         (3, 0, FLAG_T2), (2, 1, 0)],
        central_cycle=(0, 1, 2, 3),
    )
    assert certificate_violation(g) == (
        "central cycle pair (1, 2) has 2 edges, not 1"
    )
    g.remove_edge(4)  # a removed edge on the ring pair does not count
    assert certificate_violation(g.finish()) is None


def test_certificate_rejects_a_shared_edge_off_the_cycle():
    # Both trees span the 4-cycle 0-1-2-3 plus vertex 4 and share edges
    # 0-1 (on the cycle) and 3-4 (off it).
    g = build_fixed(
        "simple", 5,
        [(0, 1, FLAG_BOTH), (1, 2, FLAG_T1), (2, 3, FLAG_T2),
         (3, 0, FLAG_T1), (3, 4, FLAG_BOTH), (1, 4, FLAG_T2)],
        central_cycle=(0, 1, 2, 3),
    )
    assert certificate_violation(g) == (
        "shared edge 4 is not on the central cycle"
    )


# -- brute-force oracle -------------------------------------------------------


def test_oracle_known_values():
    assert oracle_tc_realizable_sequence([2, 2, 2, 2], "simple")
    assert oracle_tc_realizable_sequence([3, 3, 3, 3], "simple")
    assert not oracle_tc_realizable_sequence([4, 2, 2, 2, 2], "simple")
    assert oracle_tc_realizable_sequence([4, 2, 2, 2, 2], "multi")
    assert not oracle_tc_realizable_sequence([0, 0], "simple")
    assert not oracle_tc_realizable_sequence([2, 2, 2, 2, 2], "simple")
    assert oracle_tc_realizable_sequence([3, 3, 2], "multi")
    assert oracle_tc_realizable_sequence([2, 2], "multi")
    assert not oracle_tc_realizable_sequence([2, 2], "simple")


def test_oracle_caps():
    with pytest.raises(OracleCapError):
        oracle_tc_realizable_sequence([3] * 8, "simple")
    with pytest.raises(OracleCapError):
        oracle_tc_realizable_sequence([6, 6, 6, 4, 4], "simple", cap_n=6)


def test_enumerate_sequences():
    simple4 = [tuple(d.entries) for d in enumerate_sequences(4, "simple")]
    assert (3, 3, 3, 3) in simple4
    assert (2, 2, 2, 2) in simple4
    assert all(sum(t) % 2 == 0 for t in simple4)
    assert all(max(t, default=0) <= 3 for t in simple4)
    multi2 = [tuple(d.entries) for d in enumerate_sequences(2, "multi")]
    assert (4, 4) in multi2
    with pytest.raises(ValueError):
        list(enumerate_sequences(13, "simple"))
