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
"""

import hashlib

from tcreal.degseq import DegreeSequence
from tcreal.realize import realize_nonstrict, realize_tc
from tcreal.verify import enumerate_sequences

from conftest import LARGE_FAMILIES

GOLDEN_CASES = 16_853
GOLDEN_DIGEST = "cf88fcdb3100741e33bd24941ef549d15ebe2648e608ec53307f2d0c18f17a59"
NONSTRICT_CASES = 12_492
NONSTRICT_DIGEST = "adc4065ea294d543a254869ddcf78531ad3cf6ed458139b2a22ca1b830852996"


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


def test_golden_corpus_digest():
    digest = hashlib.sha256()
    cases = 0
    for mode, d in corpus():
        digest.update(repr(case_record(mode, d)).encode())
        cases += 1
    assert cases == GOLDEN_CASES
    assert digest.hexdigest() == GOLDEN_DIGEST


def nonstrict_record(mode, d):
    res = realize_nonstrict(d, mode)
    g = res.graph
    if g is None:
        return (mode, d.entries, res.decision.reason.value)
    edges = [(g.eu[e], g.ev[e], g.eflag[e], g.elabel[e]) for e in g.edge_ids()]
    return (mode, d.entries, res.decision.reason.value,
            res.labeling.max_label, edges)


def test_nonstrict_corpus_digest():
    digest = hashlib.sha256()
    cases = 0
    for mode, d in corpus(simple_below=9, multi_below=7):
        digest.update(repr(nonstrict_record(mode, d)).encode())
        cases += 1
    assert cases == NONSTRICT_CASES
    assert digest.hexdigest() == NONSTRICT_DIGEST
