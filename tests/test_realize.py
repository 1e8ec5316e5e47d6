"""Decision procedure and the constructive realization routes."""

import gc
import random
import time

import pytest

from tcreal import realize
from tcreal.degseq import DegreeSequence, set_debug_asserts
from tcreal.realize import (
    Reason,
    build_c4_pivotable,
    build_one_shared,
    build_two_edst,
    check_tc_realizable,
    realize_nonstrict,
    realize_tc,
)
from tcreal.verify import (
    certificate_violation,
    is_proper,
    is_simple,
    is_tc,
    validate_certificate,
)

from conftest import LARGE_FAMILIES, live_incidence, to_json_dict


def seq(*values):
    return DegreeSequence(values)


def full_check(tup, mode, expect_reason=None):
    d = DegreeSequence(tup)
    res = realize_tc(d, mode)
    assert res.realizable, (tup, mode, res.decision)
    if expect_reason is not None:
        assert res.decision.reason == expect_reason, (tup, res.decision)
    g, lab = res.graph, res.labeling
    assert sorted(g.degrees(), reverse=True) == list(d.entries)
    assert g.validate()
    assert is_proper(g)
    if mode == "simple":
        assert is_simple(g)
    assert certificate_violation(g) is None, (tup, mode)
    assert is_tc(g), (tup, mode)
    if all(g.eflag[e] != 0 for e in g.edge_ids()):
        assert lab.max_label <= 2 * d.n + 2, (tup, mode, lab.max_label)
    return res


@pytest.fixture
def debug_asserts():
    set_debug_asserts(True)
    try:
        yield
    finally:
        set_debug_asserts(None)


# -- decision procedure -------------------------------------------------------


def test_decision_examples_simple():
    cases = [
        ((2, 2, 2, 2), True, Reason.OK_C4_PIVOTABLE),
        ((3, 3, 3, 3), True, Reason.OK_TWO_EDGE_DISJOINT),
        ((3, 3, 3, 3, 3, 3), True, Reason.OK_ONE_SHARED_EDGE),
        ((4, 2, 2, 2, 2), False, Reason.BOUNDARY_FAILS_C4),
        ((0, 0), False, Reason.BOUNDARY_FAILS_C4),
        ((1, 1), True, Reason.OK_SMALL_N),
        ((2, 2, 2), True, Reason.OK_ONE_SHARED_EDGE),
        ((2, 2, 1, 1, 1, 1), False, Reason.TOO_FEW_EDGES),
        ((1, 1, 1), False, Reason.NOT_GRAPHICAL),
        ((4, 4, 4, 4, 4, 1, 1), False, Reason.TWO_LEAVES),
        ((), True, Reason.OK_SMALL_N),
        ((0,), True, Reason.OK_SMALL_N),
    ]
    for tup, realizable, reason in cases:
        dec = check_tc_realizable(seq(*tup), "simple")
        assert dec.realizable == realizable, tup
        assert dec.reason == reason, tup
        assert dec.mode == "simple"


def test_decision_examples_multi():
    cases = [
        ((4, 2, 2, 2, 2), True, Reason.OK_C4_PIVOTABLE),
        ((2, 2), True, Reason.OK_SMALL_N),
        ((3, 3, 2), True, Reason.OK_TWO_EDGE_DISJOINT),
        ((6, 2), False, Reason.NOT_MULTIGRAPHICAL),
        ((1, 1), True, Reason.OK_SMALL_N),
        ((2, 2, 1, 1, 1, 1), False, Reason.TOO_FEW_EDGES),
        ((8, 4, 2, 2, 1, 1), False, Reason.TWO_LEAVES),
        ((3, 3), True, Reason.OK_SMALL_N),
        ((5, 3, 3, 2, 1), True, Reason.OK_ONE_SHARED_EDGE),
    ]
    for tup, realizable, reason in cases:
        dec = check_tc_realizable(seq(*tup), "multi")
        assert dec.realizable == realizable, tup
        assert dec.reason == reason, tup


def test_simple_no_multi_yes_boundary_pair():
    d = seq(4, 2, 2, 2, 2)
    assert not check_tc_realizable(d, "simple").realizable
    assert check_tc_realizable(d, "multi").realizable


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        check_tc_realizable(seq(2, 2, 2, 2), "digraph")


def test_decision_never_builds():
    # A decision on a large input must be effectively instant and
    # allocation-free; spot-check it returns without error.
    n = 50_000
    d = DegreeSequence([4] * (n - 2) + [2, 2])
    assert check_tc_realizable(d, "simple").realizable


# -- builder preconditions ----------------------------------------------------


def test_builder_preconditions():
    with pytest.raises(ValueError):
        build_two_edst(seq(2, 2, 2, 2))  # sum below 4(n-1)
    with pytest.raises(ValueError):
        build_two_edst(seq(3, 3, 2, 1, 1))  # minimum degree below 2
    with pytest.raises(ValueError):
        build_two_edst(seq(3, 1), "multi")  # minimum degree below 2
    with pytest.raises(ValueError):
        build_one_shared(seq(3, 2, 2, 2, 1))  # sum below 4(n-1) - 2
    with pytest.raises(ValueError):
        build_c4_pivotable(seq(3, 3, 3, 3))  # not on the m = 2n-4 boundary
    with pytest.raises(ValueError):
        build_c4_pivotable(seq(4, 2, 2, 2, 2))  # maximum degree too large
    with pytest.raises(ValueError):
        build_c4_pivotable(seq(3, 3, 2), "multi")
    with pytest.raises(ValueError):
        build_one_shared(seq(2, 1, 1), "multi")  # sum below 4(n-1) - 2


# -- construction routes ------------------------------------------------------


SIMPLE_CASES = [
    # two edge-disjoint trees, loose sum (lay-off descent)
    (4, 4, 4, 4, 4),
    (5, 4, 4, 4, 3, 2),
    (4, 4, 4, 4, 2, 2),
    # two edge-disjoint trees, tight sum with minimum 3 (vertex insertion)
    (4, 4, 3, 3, 3, 3),
    (6, 4, 4, 4, 3, 3, 3, 3, 3, 3),
    # one shared edge via a pendant vertex
    (4, 4, 4, 4, 3, 1),
    # one shared edge, all-degree-3 family with the fan gadget
    (3, 3, 3, 3, 3, 3),
    (4, 3, 3, 3, 3, 3, 3),
    (5, 3, 3, 3, 3, 3, 3, 3),
    (6, 3, 3, 3, 3, 3, 3, 3, 3),
    (9, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3),
    # one shared edge, second entry at least 4
    (4, 4, 4, 4, 3, 3, 3, 3, 3, 3),
    (5, 5, 4, 3, 3, 3, 3, 3, 3, 3, 3),
    # central 4-cycle: plain cycle, descent over 2s, all-3 family
    (2, 2, 2, 2),
    (3, 3, 3, 3, 2, 2),
    (3, 3, 2, 2, 2),
    tuple([3] * 8),
    tuple([4] + [3] * 8),
    tuple([4, 4] + [3] * 8),
    tuple([4, 4, 4, 4] + [3] * 8),
    # central 4-cycle with a high-degree hub
    (5, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3),
    (6, 5, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3),
    (4, 4, 3, 3, 3, 3, 3, 3, 2),
    (6, 5, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2),
    # tiny
    (),
    (0,),
    (1, 1),
]

MULTI_CASES = [
    (2, 2),
    (3, 3),
    (7, 7),
    (3, 3, 2),
    (4, 2, 2),
    (9, 9, 2),
    (3, 3, 2, 2),
    (6, 4, 2, 2, 2),
    (5, 3, 3, 2, 1),
    (2, 2, 2, 2),
    (4, 2, 2, 2, 2),
    (6, 2, 2, 2, 2, 2),
    (8, 4, 2, 2, 2, 2, 2, 2),
    (3, 3, 2, 2, 2),
]


def test_simple_routes(debug_asserts):
    for tup in SIMPLE_CASES:
        full_check(tup, "simple")


def test_multi_routes(debug_asserts):
    for tup in MULTI_CASES:
        full_check(tup, "multi")


def test_two_edst_has_no_shared_edges():
    for tup in [(3, 3, 3, 3), (4, 4, 4, 4, 4), (4, 4, 3, 3, 3, 3),
                (5, 4, 4, 4, 3, 2)]:
        g = build_two_edst(DegreeSequence(tup))
        cert = g.certificate_from_flags()
        assert cert.shared == set()
        assert validate_certificate(g, cert)
    for tup in [(2, 2), (3, 3, 2), (4, 2, 2), (7, 7)]:
        g = build_two_edst(DegreeSequence(tup), "multi")
        cert = g.certificate_from_flags()
        assert cert.shared == set()
        assert validate_certificate(g, cert)


def test_one_shared_has_at_most_one():
    for tup in [(3, 3, 3, 3, 3, 3), (4, 3, 3, 3, 3, 3, 3),
                (4, 4, 4, 4, 3, 1)]:
        g = build_one_shared(DegreeSequence(tup))
        cert = g.certificate_from_flags()
        assert len(cert.shared) <= 1
        assert validate_certificate(g, cert)


def test_c4_certificates_have_induced_cycle():
    for tup in [(2, 2, 2, 2), tuple([3] * 8), (3, 3, 2, 2, 2)]:
        g = build_c4_pivotable(DegreeSequence(tup))
        cert = g.certificate_from_flags()
        assert len(cert.shared) == 2
        assert cert.central_cycle is not None
        assert validate_certificate(g, cert)


def test_construction_is_deterministic():
    for tup, mode in [((4, 4, 3, 3, 3, 3), "simple"),
                      ((4, 2, 2, 2, 2), "multi")]:
        a = realize_tc(DegreeSequence(tup), mode)
        b = realize_tc(DegreeSequence(tup), mode)
        assert to_json_dict(a.graph) == to_json_dict(b.graph)
        assert a.labeling.max_label == b.labeling.max_label


def test_realize_not_realizable_has_no_graph():
    res = realize_tc(seq(2, 2, 1, 1, 1, 1), "simple")
    assert not res.realizable
    assert res.graph is None
    assert res.labeling is None


# -- non-strict mode ----------------------------------------------------------


def test_nonstrict_small_equivalence():
    import itertools

    from tcreal.degseq import is_graphical, is_multigraphical

    for n in range(0, 8):
        top = max(n - 1, 0)
        for tup in itertools.combinations_with_replacement(
            range(top, -1, -1), n
        ):
            for mode in ("simple", "multi"):
                d = DegreeSequence(tup)
                res = realize_nonstrict(d, mode)
                graphical = (
                    is_graphical(d) if mode == "simple"
                    else is_multigraphical(d)
                )
                expect = graphical and (
                    n <= 1 or (sum(tup) // 2 >= n - 1 and min(tup) >= 1)
                )
                assert res.realizable == bool(expect), (tup, mode)
                if res.realizable:
                    g = res.graph
                    assert sorted(g.degrees(), reverse=True) == list(d.entries)
                    assert g.validate(), (tup, mode)
                    assert is_tc(g, strict=False), (tup, mode)


def test_nonstrict_multi_parallel_heavy():
    for tup in [(4, 4), (4, 2, 2), (5, 3, 2, 2), (2, 2, 2), (3, 3)]:
        res = realize_nonstrict(DegreeSequence(tup), "multi")
        assert res.realizable
        assert is_tc(res.graph, strict=False), tup


def test_nonstrict_multi_peel_scales_linearly():
    # Same gate as test_6 (min of 3, at most 2.6x per doubling).  The
    # peel once rescanned the accumulated zeros for every edge, ~4x per
    # doubling on this family.  Each round times every size, so a slow
    # phase of the host hits all sizes alike.
    sizes = (20_000, 40_000, 80_000)
    times = dict.fromkeys(sizes, float("inf"))
    for _ in range(3):
        for n in sizes:
            d = DegreeSequence([4] * n)
            gc.collect()
            t0 = time.perf_counter()
            res = realize_nonstrict(d, "multi")
            times[n] = min(times[n], time.perf_counter() - t0)
            assert res.realizable
    assert times[40_000] / times[20_000] <= 2.6, times
    assert times[80_000] / times[40_000] <= 2.6, times


# The sums of the three routes the random inputs take: the central
# 4-cycle boundary, the one-shared-edge boundary, and above 4(n-1).
SPREAD_SUMS = {
    "c4-boundary": lambda n: 4 * (n - 1) - 4,
    "one-shared-boundary": lambda n: 4 * (n - 1) - 2,
    "above": lambda n: 4 * (n - 1) + 2 * (n // 4),
}


def _spread_degrees(route, n, mode):
    """All 2s plus extra degree spread at random, seeded by n, summing to
    the route's total; redrawn until realizable."""
    rng = random.Random(n)
    while True:
        entries = [2] * n
        for i in rng.choices(range(n), k=SPREAD_SUMS[route](n) - 2 * n):
            entries[i] += 1
        if check_tc_realizable(DegreeSequence(entries), mode).realizable:
            return entries


PLAN_INPUTS = {
    "all-6": LARGE_FAMILIES["all-6"],
    "many-distinct": LARGE_FAMILIES["many-distinct"],
    **{route: (lambda n, mode, route=route: _spread_degrees(route, n, mode))
       for route in SPREAD_SUMS},
}


@pytest.mark.parametrize("mode", ["simple", "multi"])
@pytest.mark.parametrize("family", sorted(PLAN_INPUTS))
def test_descent_plans_grow_with_distinct_degrees(monkeypatch, family, mode):
    # A count gate, not a timing gate: every descent records one plan
    # step per run of equal lay-offs, peeled edges or splits, so its
    # plans grow with the distinct degrees, not with n.  The steps are
    # counted where every plan is replayed.
    steps = []
    replay = realize._replay

    def counted(g, plan):
        steps.append(len(plan))
        return replay(g, plan)

    monkeypatch.setattr(realize, "_replay", counted)
    make = PLAN_INPUTS[family]
    for n in (4_000, 64_000):
        entries = make(n) if family in LARGE_FAMILIES else make(n, mode)
        d = DegreeSequence(entries)
        steps.clear()
        if d.total == 4 * (n - 1) - 4:
            build_c4_pivotable(d, mode)
        else:
            build_one_shared(d, mode)
        distinct = len(set(entries))
        assert sum(steps) <= 2 * distinct + 10, (n, distinct, steps)


def _connected(g):
    incidence = live_incidence(g)
    seen, stack = {0}, [0]
    while stack:
        for e in incidence[stack.pop()]:
            for x in g.endpoints(e):
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
    return len(seen) == g.n


def _nonstrict_connectivity_inputs():
    """Paths, stars, cycles and three-legged spiders at n = 4..298, then
    400 seeded random trees' degrees plus 0-2 extra edges (n <= 200), so
    m runs from n-1 to n+1."""
    yield [1, 1]
    for n in range(4, 300, 7):
        yield [2] * (n - 2) + [1, 1]
        yield [n - 1] + [1] * (n - 1)
        yield [2] * n
        yield [3] + [2] * (n - 4) + [1] * 3
    rng = random.Random(27)
    for _ in range(400):
        n = rng.randint(2, 200)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        extra = rng.randint(0, 2)
        while extra and len(edges) < n * (n - 1) // 2:
            u, v = sorted(rng.sample(range(n), 2))
            if (u, v) not in edges:
                edges.add((u, v))
                extra -= 1
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        yield degrees


@pytest.mark.parametrize("mode", ["simple", "multi"])
def test_nonstrict_output_is_connected_by_construction(mode):
    # The sparse end, m = n-1 to n+1, is where a replay that left its
    # components apart would show.
    for entries in _nonstrict_connectivity_inputs():
        res = realize_nonstrict(DegreeSequence(entries), mode)
        assert res.realizable, (mode, entries)
        assert _connected(res.graph), (mode, entries)
