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
"""

from __future__ import annotations

from collections import deque
from itertools import chain, compress, count
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .graphstore import _IN_TREE1, _IN_TREE2, FLAG_BOTH, FLAG_NONE, GraphError, LabeledMultigraph

__all__ = ["TemporalLabeling", "pivot_label"]


@dataclass
class TemporalLabeling:
    """The maximum label used; the labels themselves live in ``g.elabel``."""

    max_label: int


def _write_labels(
    elabel: List[Optional[int]], edges: Iterable[int], first: int
) -> None:
    """Give ``edges`` the consecutive labels first, first + 1, ..."""
    deque(map(elabel.__setitem__, edges, count(first)), maxlen=0)


def _layered_order(
    g: LabeledMultigraph,
    edge_ids: Sequence[int],
    roots: Sequence[int],
) -> List[int]:
    """BFS the subgraph made of ``edge_ids`` from the root set.

    Returns, in BFS (shallowest-first) order, the discovery edge of each
    newly reached vertex.  Raises if the edges do not reach every vertex.
    """
    n = g.n
    # Compact linked adjacency (avoids allocating n per-vertex lists).
    # Half-edge 2j leads from u to v and half-edge 2j + 1 from v to u,
    # where (u, v) are the ends of edge_ids[j]; each vertex chains its
    # half-edges newest first.
    us = list(map(g.eu.__getitem__, edge_ids))
    vs = list(map(g.ev.__getitem__, edge_ids))
    to = list(chain.from_iterable(zip(vs, us)))
    head = [-1] * n
    nxt = [0] * len(to)
    i = 0
    for u, v in zip(us, vs):
        nxt[i] = head[u]
        head[u] = i
        i += 1
        nxt[i] = head[v]
        head[v] = i
        i += 1
    seen = [False] * n
    order: List[int] = []
    # The queue only grows: iterating a list while appending to it
    # visits every vertex in FIFO order.
    queue: List[int] = []
    for r in roots:
        if not seen[r]:
            seen[r] = True
            queue.append(r)
    append = order.append
    push = queue.append
    for x in queue:
        i = head[x]
        while i >= 0:
            v = to[i]
            if not seen[v]:
                seen[v] = True
                append(edge_ids[i >> 1])
                push(v)
            i = nxt[i]
    if False in seen:
        raise GraphError("certificate tree does not span the graph")
    if 2 * len(order) != len(to):
        raise GraphError("certificate tree contains a cycle")
    return order


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
    flags form a valid certificate: two spanning trees covering every
    edge, sharing at most two edges; two shared edges must lie on the
    recorded central 4-cycle.
    """
    ids = g.edge_ids()
    elabel = g.elabel
    elabel[:] = [None] * len(ids)
    if g.n == 0:
        return TemporalLabeling(0)

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
    up_edges = list(compress(ids, flags.translate(_IN_TREE1)))
    down_edges = list(compress(ids, flags.translate(_IN_TREE2)))

    # Collection phase: deepest discovery edges first, so labels strictly
    # increase along every path toward the root set.
    up_order = _layered_order(g, up_edges, roots)
    t_r = len(up_order)
    _write_labels(elabel, reversed(up_order), 1)
    top = t_r

    # Central core.
    if cycle is not None:
        ring = central
        # Opposite ring pairs; the pair holding the smallest edge id fires first.
        pair_a, pair_b = (ring[0], ring[2]), (ring[1], ring[3])
        if min(pair_b) < min(pair_a):
            pair_a, pair_b = pair_b, pair_a
        for e in pair_a:
            elabel[e] = t_r + 1
        for e in pair_b:
            elabel[e] = t_r + 2
        top = t_r + 2
    elif central:
        (s,) = central
        elabel[s] = t_r + 1
        top = t_r + 1

    # Distribution phase: shallowest first, strictly increasing outward.
    down_order = _layered_order(g, down_edges, roots)
    _write_labels(elabel, down_order, t_r + 3)
    if down_order:
        top = t_r + 2 + len(down_order)

    # Anything outside both trees gets fresh labels on top.  When the
    # trees labeled every edge, the sweep over the edges is skipped.
    if None not in elabel:
        return TemporalLabeling(top)
    extra = [e for e in ids if elabel[e] is None]
    _write_labels(elabel, extra, top + 1)
    return TemporalLabeling(top + len(extra))
