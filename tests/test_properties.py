"""Property-based tests across the whole pipeline."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tcreal.degseq import DegreeSequence, is_graphical, is_multigraphical
from tcreal.graphstore import LabeledMultigraph
from tcreal.realize import check_tc_realizable, realize_nonstrict, realize_tc
from tcreal.verify import (
    certificate_violation,
    is_proper,
    is_simple,
    is_tc,
)

from conftest import to_json_dict

modes = st.sampled_from(["simple", "multi"])


def degrees_from_graph(n, pairs):
    """A degree sequence realized by construction (hence graphical)."""
    degs = [0] * n
    seen = set()
    for u, v in pairs:
        u, v = u % n, v % n
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        degs[u] += 1
        degs[v] += 1
    return degs


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=160),
    modes,
)
def test_realize_full_verification(n, pairs, mode):
    d = DegreeSequence(degrees_from_graph(n, pairs))
    res = realize_tc(d, mode)
    assert res.realizable == check_tc_realizable(d, mode).realizable
    if not res.realizable:
        return
    g, lab = res.graph, res.labeling
    assert sorted(g.degrees(), reverse=True) == list(d.entries)
    assert g.validate()
    assert is_proper(g)
    assert is_simple(g)
    assert certificate_violation(g) is None
    assert is_tc(g)
    assert lab.max_label <= g.num_edges + 2
    if all(g.eflag[e] != 0 for e in g.edge_ids()):
        assert lab.max_label <= 2 * d.n


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10), min_size=1,
                max_size=14), modes)
def test_decision_matches_realization_on_random_sequences(values, mode):
    d = DegreeSequence(values)
    graphical = is_graphical(d) if mode == "simple" else is_multigraphical(d)
    dec = check_tc_realizable(d, mode)
    if not graphical:
        assert not dec.realizable
        return
    res = realize_tc(d, mode)
    assert res.realizable == dec.realizable
    if res.realizable:
        assert is_tc(res.graph)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=25),
    st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=80),
    modes,
)
def test_json_roundtrip_of_realizations(n, pairs, mode):
    d = DegreeSequence(degrees_from_graph(n, pairs))
    res = realize_tc(d, mode)
    if not res.realizable:
        return
    g = res.graph
    back = LabeledMultigraph.from_json(g.to_json())

    def shape(doc):
        # Edge ids may be renumbered densely on reload; compare content.
        edges = sorted(
            (min(e["u"], e["v"]), max(e["u"], e["v"]), e["tree"], e["label"])
            for e in doc["edges"]
        )
        return doc["mode"], doc["n"], edges, doc["central_cycle"]

    assert shape(to_json_dict(back)) == shape(to_json_dict(g))
    assert back.validate()
    assert is_tc(back)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=8), min_size=1,
                max_size=12), modes)
def test_nonstrict_condition_and_soundness(values, mode):
    d = DegreeSequence(values)
    res = realize_nonstrict(d, mode)
    graphical = is_graphical(d) if mode == "simple" else is_multigraphical(d)
    n = d.n
    expect = graphical and (
        n <= 1 or (d.total // 2 >= n - 1 and d.min_degree >= 1)
    )
    assert res.realizable == expect
    if res.realizable:
        assert sorted(res.graph.degrees(), reverse=True) == list(d.entries)
        assert is_tc(res.graph, strict=False)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=12), min_size=1,
                max_size=12))
def test_strict_realizability_implies_nonstrict(values):
    d = DegreeSequence(values)
    if check_tc_realizable(d, "simple").realizable and d.n > 1:
        assert realize_nonstrict(d, "simple").realizable
