"""Golden-output corpus: every realization the pipeline builds for a
fixed set of sequences, reduced to one sha256 digest.

A change that must not alter outputs (a refactor, a store compaction)
keeps the digest; a change that alters them on purpose updates
``GOLDEN_DIGEST`` and says how many cases changed.  Each case hashes
``(mode, entries, reason, max_label, central_cycle, edges)`` where
``edges`` lists ``(u, v, tree flag, label)`` for each edge of the
finished graph in id order.  Edge ids themselves are left out, so
renumbering the edges without reordering them (as ``finish()`` does
when it drops the builder's dead slots) keeps the digest.

The builders add edges without a parallel-edge check, so each
simple-mode case is also checked here for a repeated endpoint pair.

``realize_nonstrict`` is pinned the same way, by its own digest over a
smaller corpus: its outputs carry no central cycle, and each case hashes
``(mode, entries, reason, max_label, edges)``.

A third digest pins two builder routes that neither corpus takes more
than once, over two sequence families of their own (``route_cases``):
``_one_shared_deg3``'s wheel on the n = 6 base and
``build_c4_pivotable``'s C4_GADGET peel.  They stay out of ``corpus()``
so that ``GOLDEN_DIGEST`` keeps its cases.

Every corpus runs twice, with the debug asserts off and on, so every
lay-off over the corpus also checks its buckets' consistency.
"""

import hashlib

from tcreal import bases
from tcreal.degseq import DegreeSequence, debug_asserts_enabled, set_debug_asserts
from tcreal.realize import realize_nonstrict, realize_tc
from tcreal.verify import (
    certificate_violation,
    enumerate_sequences,
    properness_violation,
    simplicity_violation,
    tc_violation,
)

from conftest import LARGE_FAMILIES

GOLDEN_CASES = 16_853
GOLDEN_DIGEST = "cf88fcdb3100741e33bd24941ef549d15ebe2648e608ec53307f2d0c18f17a59"
NONSTRICT_CASES = 12_492
NONSTRICT_DIGEST = "adc4065ea294d543a254869ddcf78531ad3cf6ed458139b2a22ca1b830852996"
ROUTES_CASES = 526
ROUTES_DIGEST = "b74e87f6dbdb37d408bdeb39e2f44c79083f49da8288cd4c9bab4e0f6225e35f"


def corpus(simple_below=10, multi_below=7):
    """(mode, DegreeSequence) for every case, in a fixed order."""
    for n in range(simple_below):
        for d in enumerate_sequences(n, "simple"):
            yield "simple", d
    for n in range(multi_below):
        for d in enumerate_sequences(n, "multi"):
            yield "multi", d
    for family in LARGE_FAMILIES.values():
        for mode in ("simple", "multi"):
            yield mode, DegreeSequence(family(1000))


def case_record(mode, d):
    res = realize_tc(d, mode)
    g = res.graph
    if g is None:
        return (mode, d.entries, res.decision.reason.value)
    edges = [(g.eu[e], g.ev[e], g.eflag[e], g.elabel[e]) for e in g.edge_ids()]
    if mode == "simple":
        pairs = {(min(u, v), max(u, v)) for u, v, _, _ in edges}
        assert len(pairs) == len(edges), f"parallel edge in {d.entries}"
    return (mode, d.entries, res.decision.reason.value,
            res.labeling.max_label, g.central_cycle, edges)


def corpus_digest(record, source=corpus, **limits):
    """(number of cases, sha256 hex digest) of ``record`` over the cases
    of ``source(**limits)``."""
    digest = hashlib.sha256()
    cases = 0
    for mode, d in source(**limits):
        digest.update(repr(record(mode, d)).encode())
        cases += 1
    return cases, digest.hexdigest()


def digest_with_and_without_debug_asserts(record, source=corpus, **limits):
    """``corpus_digest`` with the debug asserts off, then on (each
    lay-off checks its buckets); the switch is restored after each run."""
    runs = []
    for debug in (False, True):
        saved = debug_asserts_enabled()
        set_debug_asserts(debug)
        try:
            runs.append(corpus_digest(record, source, **limits))
        finally:
            set_debug_asserts(saved)
    return runs


def test_golden_corpus_digest():
    for cases, digest in digest_with_and_without_debug_asserts(case_record):
        assert cases == GOLDEN_CASES
        assert digest == GOLDEN_DIGEST


def nonstrict_record(mode, d):
    res = realize_nonstrict(d, mode)
    g = res.graph
    if g is None:
        return (mode, d.entries, res.decision.reason.value)
    edges = [(g.eu[e], g.ev[e], g.eflag[e], g.elabel[e]) for e in g.edge_ids()]
    return (mode, d.entries, res.decision.reason.value,
            res.labeling.max_label, edges)


def test_nonstrict_corpus_digest():
    for cases, digest in digest_with_and_without_debug_asserts(
            nonstrict_record, simple_below=9, multi_below=7):
        assert cases == NONSTRICT_CASES
        assert digest == NONSTRICT_DIGEST


def route_cases():
    """(mode, DegreeSequence) for 263 sequences in each mode:

    * (n-3, 3, ..., 3) for n = 9..40, sum 4(n-1)-2, which
      ``_one_shared_deg3`` builds as a wheel on the hub of the n = 6 base;
    * (k, 4, ..., 4, 3 x (k+4)) for n = 10..30 and 5 <= k <= n-5, sum
      4(n-1)-4, which ``build_c4_pivotable`` builds by peeling six 3s
      and regrowing them as the C4_GADGET.
    """
    for mode in ("simple", "multi"):
        for n in range(9, 41):
            yield mode, DegreeSequence([n - 3] + [3] * (n - 1))
        for n in range(10, 31):
            for k in range(5, n - 4):
                yield mode, DegreeSequence([k] + [4] * (n - 5 - k) + [3] * (k + 4))


def test_route_corpus_digest(monkeypatch):
    attached = []
    attach = bases.attach

    def counted(g, fixture, hub=None):
        attached.append(fixture)
        return attach(g, fixture, hub)

    monkeypatch.setattr(bases, "attach", counted)

    def route_record(mode, d):
        attached.clear()
        record = case_record(mode, d)
        if d.total == 4 * d.n - 8:
            assert any(f is bases.C4_GADGET for f in attached), (mode, d.entries)
        else:
            assert attached == [bases.ONE_SHARED_DEG3[6], bases.wheel(d.n - 6)], (mode, d.entries)
        return record

    for cases, digest in digest_with_and_without_debug_asserts(route_record, route_cases):
        assert cases == ROUTES_CASES
        assert digest == ROUTES_DIGEST
    for mode, d in route_cases():
        g = realize_tc(d, mode).graph
        if mode == "simple":
            assert simplicity_violation(g) is None, d.entries
        assert properness_violation(g) is None, (mode, d.entries)
        assert certificate_violation(g) is None, (mode, d.entries)
        assert tc_violation(g) is None, (mode, d.entries)
