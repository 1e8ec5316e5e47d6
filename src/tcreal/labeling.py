"""Time-label assignment over a two-spanning-tree certificate.

``pivot_label`` turns a graph whose tree flags and ``central_cycle`` form
a certificate (two all-edge-covering spanning trees sharing at most two
edges) into a proper labeling whose strictly increasing journeys connect
every ordered vertex pair:

* collection phase: the first tree, minus the central shared core, is
  labeled so labels strictly increase from the leaves toward the core;
* the core (one shared edge, or the central 4-cycle) gets the next one
  or two labels;
* distribution phase: the second tree, minus the core, is labeled so
  labels strictly increase from the core out to the leaves.

Edges outside both trees receive fresh labels above everything else, so
they can never break an existing journey.

Each edge takes one label and the labels skip at most the two core
values, so the largest label is at most m + 2.  When the trees cover
every edge, each tree labels at most n - 1 edges and the largest label
is at most 2n.

The labels are written straight into the graph's ``elabel`` list; the
returned ``TemporalLabeling`` carries only the largest label used.

An int table sets this layer's memory.  CPython allocates a 32-byte
object for each int above 256 that ``range`` or ``+=`` makes, so
``pivot_label`` takes every edge id, half-edge index and label it stores
from one table, ``list(range(max(2n, m) + 3))``; its objects become the
labels themselves.
"""

from __future__ import annotations

from itertools import chain, compress
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .graphstore import _IN_TREE1, _IN_TREE2, FLAG_BOTH, FLAG_NONE, GraphError, LabeledMultigraph

__all__ = ["TemporalLabeling", "pivot_label"]


@dataclass
class TemporalLabeling:
    """The maximum label used; the labels themselves live in ``g.elabel``."""

    max_label: int


def _label_tree(
    g: LabeledMultigraph, mask: bytes, roots: Sequence[int],
    elabel: List[Optional[int]], ints: List[int], first: int, step: int,
) -> int:
    """BFS the tree whose edges ``mask`` selects from the root set, labeling it.

    The discovery edge of each newly reached vertex, in BFS
    (shallowest-first) order, gets the next label of first,
    first + step, ...  Returns the number of tree edges.  Raises if the
    edges do not reach every vertex or contain a cycle.  Edge ids,
    half-edge indices and labels all come from the ``ints`` table.
    """
    n = g.n
    # Compact linked adjacency (avoids allocating n per-vertex lists).
    # Half-edge 2j leads from u to v and half-edge 2j + 1 from v to u,
    # where (u, v) are the ends of the j-th tree edge; each vertex chains
    # its half-edges newest first.
    ids = list(compress(ints, mask))
    to = list(chain.from_iterable(zip(compress(g.ev, mask), compress(g.eu, mask))))
    h = len(to)
    if h > len(ints):
        # More than n + 1 edges hold a cycle, reported after the BFS like
        # any other; the shared table only covers valid trees.
        ints = list(range(h))
    head = [-1] * n
    nxt = [0] * h
    for u, v, i, j in zip(compress(g.eu, mask), compress(g.ev, mask),
                          ints[0:h:2], ints[1:h:2]):
        nxt[i] = head[u]
        head[u] = i
        nxt[j] = head[v]
        head[v] = j
    seen = [False] * n
    # The queue only grows: iterating a list while appending to it
    # visits every vertex in FIFO order.
    queue: List[int] = []
    for r in roots:
        if not seen[r]:
            seen[r] = True
            queue.append(r)
    push = queue.append
    lab = first
    for x in queue:
        i = head[x]
        while i >= 0:
            v = to[i]
            if not seen[v]:
                seen[v] = True
                elabel[ids[i >> 1]] = ints[lab]
                lab += step
                push(v)
            i = nxt[i]
    if False in seen:
        raise GraphError("certificate tree does not span the graph")
    if 2 * abs(lab - first) != h:
        raise GraphError("certificate tree contains a cycle")
    return h >> 1


def _cycle_edge_ids(
    g: LabeledMultigraph, cycle: Tuple[int, int, int, int]
) -> List[int]:
    """Edge ids of the four ring edges of the central cycle, in ring order.

    Where parallel edges join two ring vertices, the lowest id is
    taken.  One scan of the endpoint list finds them without building
    the per-vertex adjacency.
    """
    want = {}
    for i in range(4):
        a, b = cycle[i], cycle[(i + 1) % 4]
        want[(min(a, b), max(a, b))] = i
    found: List[Optional[int]] = [None] * 4
    eu, ev = g.eu, g.ev
    on_ring = set(cycle).__contains__
    for e in compress(g.edge_ids(), map(on_ring, eu)):
        u, w = eu[e], ev[e]
        i = want.get((min(u, w), max(u, w)))
        if i is not None and found[i] is None:
            found[i] = e
    if any(x is None for x in found):
        raise GraphError("central cycle edges missing from the graph")
    return [x for x in found if x is not None]


def pivot_label(g: LabeledMultigraph) -> TemporalLabeling:
    """Label the graph so it is temporally connected under strict journeys.

    Writes every edge's label into ``g.elabel``, after clearing the list
    so no earlier label survives.  Requires a finished graph whose tree
    flags form a valid certificate: two spanning trees sharing at most
    two edges, where two shared edges must lie on the recorded central
    4-cycle.  Edges outside both trees are allowed; they get fresh labels
    above the trees' ones.
    """
    m = len(g.edge_ids())
    elabel = g.elabel
    elabel[:] = [None] * m
    if g.n == 0:
        return TemporalLabeling(0)
    # Every edge id, half-edge index and label stored below is one of
    # these objects: no int above 256 is allocated per edge.
    ints = list(range(max(2 * g.n, m) + 3))

    flags = bytearray(g.eflag)
    cycle = g.central_cycle
    if cycle is not None:
        roots: List[int] = list(cycle)
        central = _cycle_edge_ids(g, cycle)
    elif flags.count(FLAG_BOTH) == 1:
        s = flags.index(FLAG_BOTH)
        roots = list(g.endpoints(s))
        central = [s]
    elif FLAG_BOTH not in flags:
        roots = [0]
        central = []
    else:
        raise GraphError("more than one shared edge requires a central cycle")

    # Each tree's edges in id order, without the core: the labels then
    # depend on the edge order alone, not on the id values.
    for e in central:
        flags[e] = FLAG_NONE
    up_mask = flags.translate(_IN_TREE1)

    # Collection phase: labels t_r, t_r - 1, ..., 1 in BFS order, so they
    # strictly increase along every path toward the root set.
    t_r = _label_tree(g, up_mask, roots, elabel, ints, up_mask.count(1), -1)
    top = t_r

    # Central core.
    if cycle is not None:
        # Opposite ring pairs; the pair holding the smallest edge id fires first.
        pair_a, pair_b = (central[0], central[2]), (central[1], central[3])
        if min(pair_b) < min(pair_a):
            pair_a, pair_b = pair_b, pair_a
        for e in pair_a:
            elabel[e] = ints[t_r + 1]
        for e in pair_b:
            elabel[e] = ints[t_r + 2]
        top = t_r + 2
    elif central:
        (s,) = central
        elabel[s] = ints[t_r + 1]
        top = t_r + 1

    # Distribution phase: shallowest first, strictly increasing outward.
    t_d = _label_tree(g, flags.translate(_IN_TREE2), roots, elabel, ints, t_r + 3, 1)
    if t_d:
        top = t_r + 2 + t_d

    # Anything outside both trees gets fresh labels on top.  When the
    # trees labeled every edge, the sweep over the edges is skipped.
    if None not in elabel:
        return TemporalLabeling(top)
    extra = [e for e, lab in zip(ints, elabel) if lab is None]
    for e, lab in zip(extra, ints[top + 1:]):
        elabel[e] = lab
    return TemporalLabeling(top + len(extra))
