"""Acceptance gate: the eight headline guarantees of the package.

1. Simple-mode decisions agree with the exhaustive oracle for n <= 6.
2. Multigraph decisions agree with the oracle for n <= 5, m <= 8,
   including the boundary witness (4,2,2,2,2): simple NO, multi YES.
3. End-to-end soundness: every graphical sequence with n <= 9 plus
   10,000 random realizable sequences with n <= 200 (both modes) pass
   degree-match, properness, simplicity, temporal connectivity, and
   certificate validation.
4. Certificate shape: exactly 2 shared edges on an induced central
   4-cycle at m = 2n-4; at most 1 at m >= 2n-3; exactly 0 from the
   edge-disjoint construction.
5. Flagship instances yield the advertised certificate kinds and bases.
6. Construction plus labeling scales linearly: doubling n from 1e5 to
   4e5 scales wall time by <= 2.6x per step and stays under 2 s at 4e5.
7. Every output satisfies max_label <= m + 2, and tree-covered
   outputs max_label <= 2n.
8. Non-strict mode succeeds exactly when a connected realization with
   minimum degree >= 1 exists, and its output is temporally connected
   under non-decreasing journeys.
"""

import itertools
import random
import time

from tcreal.degseq import DegreeSequence, is_graphical, set_debug_asserts
from tcreal.realize import (
    build_two_edst,
    check_tc_realizable,
    realize_nonstrict,
    realize_tc,
)
from tcreal.verify import (
    enumerate_sequences,
    is_proper,
    is_simple,
    is_tc,
    oracle_tc_realizable_sequence,
    validate_certificate,
)


def full_check(d: DegreeSequence, mode: str):
    """The criterion-3 battery; returns the result for further shape checks."""
    res = realize_tc(d, mode)
    assert res.realizable, (d, mode)
    g, lab = res.graph, res.labeling
    cert = g.certificate_from_flags()
    assert sorted(g.degrees(), reverse=True) == list(d.entries), (d, mode)
    assert g.validate(), (d, mode)
    assert is_proper(g), (d, mode)
    assert is_simple(g), (d, mode)
    if mode == "simple":
        # No parallel edges in simple mode.
        seen = set()
        for e in g.edge_ids():
            u, v = g.endpoints(e)
            key = (min(u, v), max(u, v))
            assert key not in seen, (d, mode)
            seen.add(key)
    assert is_tc(g), (d, mode)
    assert validate_certificate(g, cert), (d, mode)
    # Criterion 7: the label bounds, the tighter on tree-covered outputs.
    n, m = d.n, d.total // 2
    assert lab.max_label <= m + 2, (d, mode, lab.max_label)
    if all(g.eflag[e] != 0 for e in g.edge_ids()):
        assert lab.max_label <= 2 * n, (d, mode, lab.max_label)
    # Criterion 4: certificate shape by edge count.
    if n > 2:
        if m == 2 * n - 4:
            assert len(cert.shared) == 2, (d, mode)
            assert cert.central_cycle is not None, (d, mode)
        else:
            assert len(cert.shared) <= 1, (d, mode)
    return res


def test_1_simple_decisions_match_oracle_up_to_n6():
    checked = 0
    for n in range(0, 7):
        for d in enumerate_sequences(n, "simple"):
            claimed = check_tc_realizable(d, "simple").realizable
            truth = oracle_tc_realizable_sequence(
                d, "simple", cap_n=6, cap_m=15
            )
            assert claimed == truth, d
            checked += 1
    assert checked > 100


def test_2_multi_decisions_match_oracle_up_to_n5_m8():
    checked = 0
    for n in range(0, 6):
        for d in enumerate_sequences(n, "multi"):
            if d.total // 2 > 8:
                continue
            claimed = check_tc_realizable(d, "multi").realizable
            truth = oracle_tc_realizable_sequence(d, "multi", cap_n=5, cap_m=8)
            assert claimed == truth, d
            checked += 1
    assert checked > 100
    # The boundary witness pair.
    w = DegreeSequence([4, 2, 2, 2, 2])
    assert not check_tc_realizable(w, "simple").realizable
    assert check_tc_realizable(w, "multi").realizable
    assert not oracle_tc_realizable_sequence(w, "simple")
    assert oracle_tc_realizable_sequence(w, "multi", cap_n=5, cap_m=8)


def test_3_exhaustive_soundness_up_to_n9():
    for n in range(0, 10):
        for tup in itertools.combinations_with_replacement(
            range(max(n - 1, 0), -1, -1), n
        ):
            d = DegreeSequence(tup)
            if not is_graphical(d):
                continue
            if check_tc_realizable(d, "simple").realizable:
                full_check(d, "simple")


def test_3_exhaustive_soundness_with_debug_asserts():
    """Criterion 3 with the builders' internal assertions switched on:
    every realizable simple sequence with n <= 8, and every multigraph
    sequence with n <= 5, entries <= 8 and m <= 10, whose decision for
    m <= 8 also agrees with the oracle."""
    set_debug_asserts(True)
    try:
        for n in range(0, 9):
            for tup in itertools.combinations_with_replacement(
                range(max(n - 1, 0), -1, -1), n
            ):
                d = DegreeSequence(tup)
                if check_tc_realizable(d, "simple").realizable:
                    full_check(d, "simple")
        for n in range(0, 6):
            for tup in itertools.combinations_with_replacement(range(8, -1, -1), n):
                if sum(tup) > 20:
                    continue
                d = DegreeSequence(tup)
                claimed = check_tc_realizable(d, "multi").realizable
                if sum(tup) <= 16:
                    truth = oracle_tc_realizable_sequence(d, "multi", cap_n=5, cap_m=8)
                    assert claimed == truth, d
                if claimed:
                    full_check(d, "multi")
    finally:
        set_debug_asserts(None)


def random_realizable(rng, n, mode):
    """Rejection-sample a realizable sequence of length n."""
    while True:
        kind = rng.randrange(4)
        if kind == 0:
            target = 4 * (n - 1) - 4  # central-cycle boundary
        elif kind == 1:
            target = 4 * (n - 1) - 2  # one-shared boundary
        else:
            target = 4 * (n - 1) + 2 * rng.randrange(0, n)
        vals = [2] * n
        rem = target - 2 * n
        if rem < 0:
            continue
        for _ in range(rem):
            vals[rng.randrange(n)] += 1
        if mode == "simple" and max(vals) >= n:
            continue
        d = DegreeSequence(vals)
        if check_tc_realizable(d, mode).realizable:
            return d


def test_3_random_realizable_up_to_n200():
    rng = random.Random(20240817)
    for trial in range(10_000):
        n = rng.randrange(3, 201)
        mode = "simple" if trial % 2 == 0 else "multi"
        full_check(random_realizable(rng, n, mode), mode)


def test_4_certificate_shapes():
    boundary = [(2, 2, 2, 2), (3, 3, 2, 2, 2), tuple([3] * 8),
                (4, 4, 3, 3, 3, 3, 3, 3, 2)]
    for tup in boundary:
        res = realize_tc(DegreeSequence(tup), "simple")
        cert = res.graph.certificate_from_flags()
        assert len(cert.shared) == 2
        assert cert.central_cycle is not None
        assert validate_certificate(res.graph, cert)
    above = [(2, 2, 2), (3, 3, 3, 3, 3, 3), (4, 3, 3, 3, 3, 3, 3),
             (4, 4, 4, 4, 3, 1)]
    for tup in above:
        res = realize_tc(DegreeSequence(tup), "simple")
        assert len(res.graph.certificate_from_flags().shared) <= 1, tup
    zero = [(3, 3, 3, 3), (4, 4, 4, 4, 4), (4, 4, 3, 3, 3, 3)]
    for tup in zero:
        g = build_two_edst(DegreeSequence(tup))
        cert = g.certificate_from_flags()
        assert len(cert.shared) == 0, tup
        assert validate_certificate(g, cert)
    for tup in [(2, 2), (3, 3, 2), (7, 7)]:
        g = build_two_edst(DegreeSequence(tup), "multi")
        cert = g.certificate_from_flags()
        assert len(cert.shared) == 0, tup
        assert validate_certificate(g, cert)


def test_5_flagship_instances():
    for tup in [(3, 3, 3, 3, 3, 3), (4, 3, 3, 3, 3, 3, 3),
                (5, 3, 3, 3, 3, 3, 3, 3)]:
        res = full_check(DegreeSequence(tup), "simple")
        assert len(res.graph.certificate_from_flags().shared) == 1, tup
    for tup in [tuple([3] * 8), (2, 2, 2, 2)]:
        res = full_check(DegreeSequence(tup), "simple")
        assert len(res.graph.certificate_from_flags().shared) == 2
        assert res.graph.central_cycle is not None
    # Multigraph bases: two parallel edges, and a double edge plus a
    # two-edge path, each split into edge-disjoint spanning trees.
    g = build_two_edst(DegreeSequence([2, 2]), "multi")
    cert = g.certificate_from_flags()
    assert sorted(g.degrees()) == [2, 2]
    assert g.num_edges == 2 and len(cert.shared) == 0
    assert validate_certificate(g, cert)
    g = build_two_edst(DegreeSequence([3, 3, 2]), "multi")
    cert = g.certificate_from_flags()
    assert sorted(g.degrees(), reverse=True) == [3, 3, 2]
    pair_counts = {}
    for e in g.edge_ids():
        u, v = g.endpoints(e)
        pair_counts[(min(u, v), max(u, v))] = (
            pair_counts.get((min(u, v), max(u, v)), 0) + 1
        )
    assert sorted(pair_counts.values()) == [1, 1, 2]  # one doubled pair
    assert len(cert.shared) == 0
    assert validate_certificate(g, cert)


def test_6_linear_scaling():
    times = {}
    for n in (100_000, 200_000, 400_000):
        entries = [4] * (n - 2) + [2, 2]
        best = float("inf")
        for _ in range(3):
            d = DegreeSequence(entries)
            t0 = time.perf_counter()
            res = realize_tc(d, "simple")
            best = min(best, time.perf_counter() - t0)
            assert res.realizable
        times[n] = best
    assert times[200_000] / times[100_000] <= 2.6, times
    assert times[400_000] / times[200_000] <= 2.6, times
    assert times[400_000] <= 2.0, times


def test_7_label_bound_on_tree_covered_outputs():
    rng = random.Random(99)
    cases = [
        (3, 3, 3, 3), tuple([3] * 8), (2, 2, 2, 2),
        (3, 3, 3, 3, 3, 3), (4, 4, 3, 3, 3, 3),
    ]
    for tup in cases:
        d = DegreeSequence(tup)
        res = realize_tc(d, "simple")
        g = res.graph
        assert all(g.eflag[e] != 0 for e in g.edge_ids())
        assert res.labeling.max_label <= 2 * d.n
    for _ in range(300):
        n = rng.randrange(3, 80)
        mode = "simple" if rng.random() < 0.5 else "multi"
        d = random_realizable(rng, n, mode)
        res = realize_tc(d, mode)
        g = res.graph
        if all(g.eflag[e] != 0 for e in g.edge_ids()):
            assert res.labeling.max_label <= 2 * d.n, (d, mode)


def test_8_nonstrict_mode_up_to_n7():
    for n in range(0, 8):
        for tup in itertools.combinations_with_replacement(
            range(max(n - 1, 0), -1, -1), n
        ):
            d = DegreeSequence(tup)
            if not is_graphical(d):
                continue
            res = realize_nonstrict(d, "simple")
            expect = n <= 1 or (d.total // 2 >= n - 1 and d.min_degree >= 1)
            assert res.realizable == expect, tup
            if res.realizable:
                g = res.graph
                assert sorted(g.degrees(), reverse=True) == list(d.entries)
                assert is_tc(g, strict=False), tup
