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

Both corpora run twice, with the debug asserts off and on, so every
lay-off over the corpus also checks its buckets' consistency.
"""

import hashlib

from tcreal.degseq import DegreeSequence, debug_asserts_enabled, set_debug_asserts
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


def corpus_digest(record, **limits):
    """(number of cases, sha256 hex digest) of ``record`` over the corpus."""
    digest = hashlib.sha256()
    cases = 0
    for mode, d in corpus(**limits):
        digest.update(repr(record(mode, d)).encode())
        cases += 1
    return cases, digest.hexdigest()


def digest_with_and_without_debug_asserts(record, **limits):
    """``corpus_digest`` with the debug asserts off, then on (each
    lay-off checks its buckets); the switch is restored after each run."""
    runs = []
    for debug in (False, True):
        saved = debug_asserts_enabled()
        set_debug_asserts(debug)
        try:
            runs.append(corpus_digest(record, **limits))
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
