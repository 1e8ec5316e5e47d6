"""Degree-sequence storage, graphicality tests, and laying-off steps."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcreal.degseq import (
    DegreeSequence,
    is_graphical,
    is_multigraphical,
    lay_off_graphical,
    parse_sequence,
)


def brute_is_graphical(seq):
    """Reference check: even sum plus every prefix inequality."""
    n = len(seq)
    if n == 0:
        return True
    if sum(seq) % 2:
        return False
    s = sorted(seq, reverse=True)
    if s[0] >= n:
        return False
    for r in range(1, n + 1):
        lhs = sum(s[:r])
        rhs = r * (r - 1) + sum(min(r, x) for x in s[r:])
        if lhs > rhs:
            return False
    return True


def brute_is_multigraphical(seq):
    if not seq:
        return True
    if sum(seq) % 2:
        return False
    return max(seq) <= sum(seq) - max(seq)


def all_sequences(n, max_value):
    return itertools.combinations_with_replacement(
        range(max_value, -1, -1), n
    )


# -- storage ------------------------------------------------------------------


def test_normalize_sorts():
    assert DegreeSequence([2, 3, 2, 3]).entries == [3, 3, 2, 2]
    assert DegreeSequence([]).entries == []


def test_bucket_invariants():
    d = DegreeSequence([5, 5, 3, 3, 3, 1, 0])
    buckets = list(d.iter_buckets())
    assert buckets == [(5, 2), (3, 3), (1, 1), (0, 1)]
    values = [v for v, _ in buckets]
    assert values == sorted(values, reverse=True)
    assert all(c >= 1 for _, c in buckets)
    assert d.n == 7
    assert d.total == 20


def test_accessors():
    d = DegreeSequence([4, 3, 3, 2])
    assert d.max_degree == 4
    assert d.min_degree == 2
    assert d.degree_at(1) == 4
    assert d.degree_at(3) == 3
    assert d.degree_at_from_end(1) == 2
    assert d.degree_at_from_end(4) == 4
    assert len(d) == 4
    with pytest.raises(IndexError):
        d.degree_at(0)
    with pytest.raises(IndexError):
        d.degree_at(5)
    with pytest.raises(IndexError):
        DegreeSequence([]).max_degree


def test_negative_rejected():
    with pytest.raises(ValueError):
        DegreeSequence([3, -1])


def test_copy_is_independent():
    d = DegreeSequence([3, 2, 1])
    dup = d.copy()
    dup.remove_min_entry()
    assert d.entries == [3, 2, 1]
    assert dup.entries == [3, 2]


def test_equality_and_hash():
    assert DegreeSequence([2, 1, 2]) == DegreeSequence([2, 2, 1])
    assert hash(DegreeSequence([2, 1])) == hash(DegreeSequence([1, 2]))
    assert DegreeSequence([2]) != DegreeSequence([2, 0])


# -- mutations ----------------------------------------------------------------


def test_remove_entry_of_value():
    d = DegreeSequence([3, 3, 2])
    d.remove_entry_of_value(3)
    assert d.entries == [3, 2]
    with pytest.raises(ValueError):
        d.remove_entry_of_value(5)


def test_remove_min_entry():
    d = DegreeSequence([3, 2, 2])
    assert d.remove_min_entry() == 2
    assert d.entries == [3, 2]
    assert d.total == 5


def test_add_entry_keeps_order():
    d = DegreeSequence([4, 2])
    d.add_entry(3)
    d.add_entry(4)
    d.add_entry(0)
    assert d.entries == [4, 4, 3, 2, 0]


def test_decrement_top():
    d = DegreeSequence([4, 4, 3, 2])
    assert d.decrement_top(3) == [(3, 2), (2, 1)]
    assert d.entries == [3, 3, 2, 2]
    assert d.decrement_top(0) == []
    assert d.entries == [3, 3, 2, 2]
    with pytest.raises(ValueError):
        DegreeSequence([1, 0]).decrement_top(2)


@given(st.lists(st.integers(min_value=0, max_value=6), max_size=14))
def test_decrement_top_matches_a_sorted_list(values):
    s = sorted(values, reverse=True)
    for k in range(len(s) + 2):
        d = DegreeSequence(values)
        if k > len(s) or (k and s[k - 1] == 0):
            before = list(d.iter_buckets())
            with pytest.raises(ValueError):
                d.decrement_top(k)
            assert list(d.iter_buckets()) == before
            assert (d.n, d.total) == (len(s), sum(s))
            d._check_consistency()
            continue
        top = [x - 1 for x in s[:k]]
        runs = d.decrement_top(k)
        assert runs == [(v, len(list(g))) for v, g in itertools.groupby(top)]
        expect = sorted(top + s[k:], reverse=True)
        assert d.entries == expect
        assert (d.n, d.total) == (len(expect), sum(expect))
        d._check_consistency()


def test_decrement_one_of_value():
    d = DegreeSequence([4, 3, 3])
    d.decrement_one_of_value(3)
    assert d.entries == [4, 3, 2]
    with pytest.raises(ValueError):
        d.decrement_one_of_value(7)


def test_split_max_and_drop_min_matches_two_step():
    for tup in [(5, 3, 3, 2), (4, 4, 4), (3, 2), (6, 6, 1)]:
        fused = DegreeSequence(tup)
        two_step = DegreeSequence(tup)
        old_max, k = fused.split_max_and_drop_min_run(1)
        assert (old_max, k) == (max(tup), 1)
        two_step.decrement_one_of_value(max(tup))
        two_step.remove_min_entry()
        assert fused == two_step
        fused._check_consistency()


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=14),
    st.integers(min_value=1, max_value=16),
)
def test_split_max_and_drop_min_run_matches_single_steps(values, limit):
    run = DegreeSequence(values)
    steps = DegreeSequence(values)
    low = steps.min_degree
    old_max, k = run.split_max_and_drop_min_run(limit)
    run._check_consistency()
    assert 1 <= k <= limit
    for _ in range(k):
        assert (steps.max_degree, steps.min_degree) == (old_max, low)
        steps.decrement_one_of_value(old_max)
        steps.remove_min_entry()
    assert run == steps
    # The run is maximal: one more step would see another maximum or
    # minimum, or the limit was reached.
    assert k == limit or steps.n == 0 or (
        (steps.max_degree, steps.min_degree) != (old_max, low)
    )


def run_step_applies(d, v, h=None):
    """Whether the next lay-off of ``d`` joins a minimum v >= 2 to v
    entries of one maximum above v (of h, when given)."""
    top = d.max_degree if d.n else 0
    return (v >= 2 and d.n > v and d.min_degree == v and top > v
            and d.degree_at(v) == top and h in (None, top))


def check_lay_off_run_against_single_steps(values, limit):
    """``lay_off_run(limit)`` equals its k ``lay_off_graphical`` steps,
    each joining the minimum v to v entries of the run's maximum, and is
    maximal; returns k."""
    run = DegreeSequence(values)
    steps = DegreeSequence(values)
    v = steps.min_degree if steps.n else 0
    target, k = run.lay_off_run(limit)
    run._check_consistency()
    assert 0 <= k <= limit
    for _ in range(k):
        assert steps.min_degree == v >= 2
        # The step's shape: all v targets in the bucket of target + 1.
        assert lay_off_graphical(steps) == [(target, v)]
    assert list(run.iter_buckets()) == list(steps.iter_buckets())
    assert (run.n, run.total) == (steps.n, steps.total)
    # The run is maximal: one more step would lay off another value or
    # onto another maximum, or the limit was reached.
    assert k == limit or not run_step_applies(steps, v, target + 1 if k else None)
    return k


@pytest.mark.parametrize("values, limit, k", [
    ([6] * 5 + [4] + [2] * 6, 10, 2),  # odd head count; 5 opens a bucket
    ([6] * 4 + [5] * 3 + [2] * 5, 10, 2),  # 5 merges into the next bucket
    ([5] * 8 + [2] * 2, 10, 2),  # fewer 2s than head pairs
    ([5] * 8 + [2] * 6, 3, 3),  # the limit binds
    ([4] * 4 + [2] * 3, 10, 2),  # the head empties into a new bucket of 3s
    ([5] * 6 + [3] + [2] * 2, 10, 2),  # the 2s run out; 3 becomes the minimum
    ([4] * 6 + [3] * 2 + [2] * 4, 10, 3),  # head empties, 3s merge
    ([5] + [4] * 3 + [2] * 3, 10, 0),  # one maximum: no run
    ([3] * 6 + [2] * 3, 10, 3),  # maximum 3: the 2s it makes join the 2s
    ([4] * 4 + [3] * 2, 10, 1),  # no 2: one lay-off of a 3, whose 3s join the 3s
    ([2] * 4, 10, 0),
    ([], 10, 0),
])
def test_lay_off_two_run_matches_single_steps(values, limit, k):
    assert check_lay_off_run_against_single_steps(values, limit) == k


@pytest.mark.parametrize("values, limit, k", [
    ([5] * 6 + [3] * 4, 10, 2),  # two lay-offs of a 3 empty the head
    ([5] * 7 + [3], 10, 1),  # the one 3 runs out; 4 becomes the minimum
    ([4] * 9 + [3] * 2, 10, 3),  # the 3s the head makes join the 3s
    ([4] * 9 + [3] * 2, 2, 2),  # the limit binds
    ([7] * 12 + [4] * 2, 10, 2),  # v = 4; the 4s run out first
    ([6] * 11 + [5] * 2, 10, 2),  # v = 5; the head empties to 5s but 1
    ([6] * 4 + [5] * 2 + [3] * 4, 10, 1),  # the head holds one run of 3
    ([4] * 2 + [3] * 3, 10, 0),  # two maxima, three needed
    ([3] * 5, 10, 0),  # one bucket: the minimum is the maximum
    ([3] * 4 + [1] * 2, 10, 0),  # minimum 1: lay-offs of 1s are single steps
    ([2] * 2 + [0], 10, 0),  # minimum 0
])
def test_lay_off_run_matches_single_steps_for_any_minimum(values, limit, k):
    assert check_lay_off_run_against_single_steps(values, limit) == k


@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=24),
    st.integers(min_value=1, max_value=12),
)
def test_lay_off_two_run_matches_single_steps_on_random_sequences(values, limit):
    check_lay_off_run_against_single_steps(values, limit)


def check_double_lay_off_run_against_single_steps(values, limit):
    """On a minimum of 2, ``lay_off_run(limit)`` equals k double lay-offs
    of the multi-mode loop (``remove_min_entry``, then
    ``decrement_one_of_value`` of the maximum twice), each with the step
    shape ``(target, target)``; returns k."""
    run = DegreeSequence(values)
    steps = DegreeSequence(values)
    target, k = run.lay_off_run(limit)
    run._check_consistency()
    for _ in range(k):
        assert steps.min_degree == 2
        d1, d2 = steps.max_degree, steps.degree_at(2)
        assert (max(d1 - 1, d2) - 1, d1 - 1) == (target, target)
        steps.remove_min_entry()
        steps.decrement_one_of_value(d1)
        steps.decrement_one_of_value(steps.max_degree)
    assert list(run.iter_buckets()) == list(steps.iter_buckets())
    assert (run.n, run.total) == (steps.n, steps.total)
    assert k == limit or not run_step_applies(steps, 2, target + 1 if k else None)
    return k


@pytest.mark.parametrize("values, limit, k", [
    ([9] * 7 + [2] * 10, 10, 3),  # odd head count
    ([9] * 8 + [2] * 3, 10, 3),  # the 2s run out
    ([5] * 4 + [4] * 2 + [2] * 6, 1, 1),  # the limit binds
    ([3] * 2 + [2], 10, 1),  # the 2s the head makes join the 2s
    ([6] + [5] * 4 + [2] * 4, 10, 0),  # one maximum: a single step
])
def test_lay_off_run_matches_the_multi_double_lay_offs(values, limit, k):
    assert check_double_lay_off_run_against_single_steps(values, limit) == k


@given(
    st.lists(st.integers(min_value=3, max_value=12), min_size=1, max_size=16),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
)
def test_lay_off_run_matches_the_multi_double_lay_offs_on_random_sequences(values, twos, limit):
    check_double_lay_off_run_against_single_steps(values + [2] * twos, limit)


def check_peel_edge_run_against_single_steps(values, limit):
    """``peel_edge_run(limit)`` equals k peeled edges of the multi-mode
    loop (``decrement_one_of_value`` of the two largest entries), each
    with the step shape ``(target, target)``, and is maximal; returns k."""
    run = DegreeSequence(values)
    steps = DegreeSequence(values)
    target, k = run.peel_edge_run(limit)
    run._check_consistency()
    assert 0 <= k <= limit
    for _ in range(k):
        d1, d2 = steps.max_degree, steps.degree_at(2)
        assert (d1 - 1, d2 - 1) == (target, target)
        steps.decrement_one_of_value(d1)
        steps.decrement_one_of_value(d2)
    assert list(run.iter_buckets()) == list(steps.iter_buckets())
    assert (run.n, run.total) == (steps.n, steps.total)
    # The run is maximal: the two largest entries now differ, or no
    # longer hold the run's maximum, or the limit was reached.
    assert k == limit or steps.n < 2 or not (
        steps.max_degree == steps.degree_at(2)
        and (k == 0 or steps.max_degree == target + 1))
    return k


@pytest.mark.parametrize("values, limit, k", [
    ([6] * 5 + [2], 10, 2),  # odd head count; 5 opens a bucket
    ([6] * 4 + [5] * 3, 10, 2),  # 5 merges into the next bucket
    ([6] * 8, 3, 3),  # the limit binds
    ([6] * 4, 10, 2),  # the head empties; all 5s
    ([6] + [5] * 3, 10, 0),  # one maximum: a single step
    ([1, 1], 10, 1),  # down to zeros
    ([3], 10, 0),
    ([], 10, 0),
])
def test_peel_edge_run_matches_single_steps(values, limit, k):
    assert check_peel_edge_run_against_single_steps(values, limit) == k


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=20),
    st.integers(min_value=1, max_value=12),
)
def test_peel_edge_run_matches_single_steps_on_random_sequences(values, limit):
    check_peel_edge_run_against_single_steps(values, limit)


def test_lay_off_two_run_rejects_an_empty_limit():
    with pytest.raises(ValueError):
        DegreeSequence([4, 4, 2]).lay_off_run(0)
    with pytest.raises(ValueError):
        DegreeSequence([4, 4, 2]).peel_edge_run(0)
    with pytest.raises(ValueError):  # an edge between two 0s
        DegreeSequence([0, 0]).peel_edge_run(1)


@given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=12))
def test_mutations_keep_consistency(values):
    d = DegreeSequence(values)
    d._check_consistency()
    d.add_entry(5)
    d._check_consistency()
    d.remove_min_entry()
    d._check_consistency()
    if d.n and d.max_degree > 0:
        d.decrement_one_of_value(d.max_degree)
        d._check_consistency()


# -- graphicality -------------------------------------------------------------


def test_is_graphical_exhaustive_small():
    for n in range(0, 8):
        for tup in all_sequences(n, max(n - 1, 0)):
            assert is_graphical(DegreeSequence(tup)) == brute_is_graphical(tup), tup


def test_is_multigraphical_exhaustive_small():
    for n in range(0, 6):
        for tup in all_sequences(n, 2 * n):
            got = is_multigraphical(DegreeSequence(tup))
            assert got == brute_is_multigraphical(tup), tup


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=30))
def test_is_graphical_random(values):
    assert is_graphical(DegreeSequence(values)) == brute_is_graphical(values)


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=30))
def test_is_multigraphical_random(values):
    got = is_multigraphical(DegreeSequence(values))
    assert got == brute_is_multigraphical(values)


# -- laying off ---------------------------------------------------------------


def lay_off_at(d, i):
    """Reference lay-off of any entry: remove the i-th entry (from 1) and
    decrement the largest d_i remaining entries, in place."""
    if not 1 <= i <= d.n:
        raise IndexError(f"index {i} out of range for sequence of length {d.n}")
    value = d.degree_at(i)
    if value >= d.n:
        raise ValueError(f"entry {value} cannot connect to {value} distinct other vertices")
    d.remove_entry_of_value(value)
    d.decrement_top(value)
    return d


def test_lay_off_graphical_examples():
    d = DegreeSequence([3, 2, 2, 2, 1])
    lay_off_graphical(d)  # remove the trailing 1, decrement the top entry
    assert d.entries == [2, 2, 2, 2]
    d = DegreeSequence([3, 3, 2, 2])
    lay_off_graphical(d)
    assert d.entries == [2, 2, 2]


def test_lay_off_graphical_preserves_graphicality():
    # Laying off any entry keeps a graphical sequence graphical; the
    # library lays off the last one.
    for n in range(2, 8):
        for tup in all_sequences(n, n - 1):
            d = DegreeSequence(tup)
            if not is_graphical(d) or d.min_degree == 0:
                continue
            for i in range(1, n + 1):
                red = lay_off_at(DegreeSequence(tup), i)
                assert red.n == n - 1
                assert is_graphical(red), (tup, i)
            lay_off_graphical(d)
            assert d == red, tup


def test_lay_off_errors():
    with pytest.raises(IndexError):
        lay_off_graphical(DegreeSequence([]))
    with pytest.raises(ValueError):
        lay_off_graphical(DegreeSequence([1]))


@st.composite
def graphical_sequences(draw):
    """The degrees of a random simple graph on 1 to 14 vertices."""
    n = draw(st.integers(min_value=1, max_value=14))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] < p[1]), max_size=3 * n))
    degrees = [0] * n
    for u, v in pairs:
        degrees[u] += 1
        degrees[v] += 1
    return degrees


def top_after_min_removal(d, k):
    """Reference runs of a lay-off: the compressed (value - 1, count) list
    of the k largest entries after dropping one entry of the minimum."""
    out = []
    rem = k
    minv = d.min_degree
    for v, c in d.iter_buckets():
        if v == minv:
            c -= 1
        if c <= 0:
            continue
        take = min(c, rem)
        out.append((v - 1, take))
        rem -= take
        if rem == 0:
            break
    assert rem == 0, "not enough entries to connect the laid-off vertex"
    return out


@given(graphical_sequences())
def test_tail_lay_off_matches_the_generic_path(values):
    d = DegreeSequence(values)
    generic = lay_off_at(d.copy(), d.n)
    low = d.min_degree
    expected_runs = top_after_min_removal(d, low)
    runs = lay_off_graphical(d)
    d._check_consistency()
    assert d == generic
    if low >= 1:
        assert runs == expected_runs


# -- parsing ------------------------------------------------------------------


def test_parse_sequence():
    assert parse_sequence("3 3, 2,2").entries == [3, 3, 2, 2]
    assert parse_sequence("").entries == []
    assert parse_sequence(" 02 2,002 , 10 ").entries == [10, 2, 2, 2]
    with pytest.raises(ValueError):
        parse_sequence("2 x 2")
    with pytest.raises(ValueError, match="negative degree"):
        parse_sequence("3 -1")
    with pytest.raises(ValueError, match="negative degree in sequence: '-0'"):
        parse_sequence("2 -0 2")
    # Only ASCII decimal digits; int() alone takes the first four.
    for bad in ("+3", "1_0", "\u0663", "\uff13", "3.0", "0x3", "-", "3-"):
        with pytest.raises(ValueError, match=re.escape(
                f"malformed degree sequence: bad token {bad!r}")):
            parse_sequence(f"2 2 {bad} 2")
    # Beyond int()'s digit limit: malformed, and the token is cut short.
    with pytest.raises(ValueError, match=r"\(5000 characters\)$"):
        parse_sequence("2 " + "9" * 5000)


def test_parse_error_names_the_first_bad_token_only():
    text = " ".join(["4"] * 100_000 + ["x7", "y"])
    with pytest.raises(ValueError) as info:
        parse_sequence(text)
    assert str(info.value) == "malformed degree sequence: bad token 'x7'"


@st.composite
def spelled_sequences(draw):
    """Random degrees written with leading zeros and any mix of spaces
    and commas between and around them."""
    values = draw(st.lists(st.integers(min_value=0, max_value=3000), max_size=40))
    seps = st.text(alphabet=" ,", min_size=1, max_size=3)
    text = draw(st.text(alphabet=" ,", max_size=2))
    for v in values:
        text += "0" * draw(st.integers(min_value=0, max_value=3)) + str(v)
        text += draw(seps)
    return values, text


@given(spelled_sequences())
def test_parse_sequence_matches_the_values(case):
    values, text = case
    d = parse_sequence(text)
    d._check_consistency()
    assert d.entries == sorted(values, reverse=True)
    assert d == DegreeSequence(values)


@given(st.text())
def test_parse_sequence_accepts_exactly_ascii_digit_tokens(text):
    tokens = text.replace(",", " ").split()
    valid = all(t.isascii() and t.isdigit() for t in tokens)
    try:
        d = parse_sequence(text)
    except ValueError:
        assert not valid
    else:
        assert valid
        assert d.entries == sorted(map(int, tokens), reverse=True)
