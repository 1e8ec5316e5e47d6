"""Base realizations and hub gadgets used by the constructions.

The small figure-style bases were derived once by exhaustive search over
realizations and tree splits (the search lives in the test suite and can
regenerate them); everything here is a plain edge list with tree flags.

Fixture format: n, edges as (u, v) pairs, tree edge-id lists, and where
relevant the central 4-cycle and the ``"pairs"`` a bulk replay starts
from (K4_EDST, C4_ALL3_8).  ``wheel(k)`` generates a fixture per k.
``attach`` adds a fixture to a graph, either as a whole base or as a hub
gadget whose vertex 0 lands on an existing vertex.
"""

from __future__ import annotations

from typing import Dict, Optional

from .graphstore import (
    FLAG_NONE,
    FLAG_T1,
    FLAG_T2,
    LabeledMultigraph,
)

__all__ = [
    "attach",
    "wheel",
    "K4_EDST",
    "C4_BASE",
    "TRIANGLE_ONE_SHARED",
    "MULTI_22",
    "ONE_SHARED_DEG3",
    "C4_ALL3_8",
    "C4_GADGET",
    "MULTI_C4_GADGET",
    "PENDANT",
]

# Complete graph on 4 vertices: two edge-disjoint spanning trees (path
# 0-1-2-3 and the star-ish tree {02, 03, 13}, with 02, 13 disjoint).
K4_EDST = {
    "n": 4,
    "edges": [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3), (1, 3)],
    "tree1": [0, 1, 2],
    "tree2": [3, 4, 5],
    "shared": [],
    "pairs": (3, 5),
}

# The 4-cycle: two spanning paths sharing the two opposite edges 01 and 23.
C4_BASE = {
    "n": 4,
    "edges": [(0, 1), (1, 2), (2, 3), (3, 0)],
    "tree1": [0, 1, 2],
    "tree2": [2, 3, 0],
    "shared": [0, 2],
    "cycle": (0, 1, 2, 3),
}

# Triangle: two spanning paths sharing one edge.
TRIANGLE_ONE_SHARED = {
    "n": 3,
    "edges": [(0, 1), (1, 2), (2, 0)],
    "tree1": [0, 1],
    "tree2": [0, 2],
    "shared": [0],
}

# Two parallel edges: one tree each.
MULTI_22 = {
    "n": 2,
    "edges": [(0, 1), (0, 1)],
    "tree1": [0],
    "tree2": [1],
    "shared": [],
}

# One-shared-edge realizations for the boundary family whose sequence is
# (n-3, 3, 3, ..., 3), for n in {6, 7, 8} (derived by exhaustive search).
ONE_SHARED_DEG3: Dict[int, dict] = {
    6: {
        "n": 6,
        "edges": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)],
        "tree1": [0, 1, 2, 4, 7],
        "tree2": [0, 3, 5, 6, 8],
        "shared": [0],
    },
    7: {
        "n": 7,
        "edges": [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 5), (3, 6), (4, 5), (4, 6), (5, 6)],
        "tree1": [0, 1, 2, 3, 6, 9],
        "tree2": [0, 4, 5, 7, 8, 10],
        "shared": [0],
    },
    8: {
        "n": 8,
        "edges": [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)],
        "tree1": [0, 1, 3, 4, 6, 8, 11],
        "tree2": [2, 3, 5, 7, 9, 10, 12],
        "shared": [3],
    },
}

# 8-vertex all-degree-3 realization with an induced central 4-cycle, two
# spanning trees sharing exactly the two cycle edges 01 and 14, and two
# endpoint-disjoint cross-tree off-cycle pairs (derived by search).
C4_ALL3_8 = {
    "n": 8,
    "edges": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 6), (4, 7), (5, 6), (5, 7), (6, 7)],
    "tree1": [0, 1, 2, 4, 5, 7, 10],
    "tree2": [0, 3, 4, 6, 8, 9, 11],
    "shared": [0, 4],
    "cycle": (0, 1, 4, 3),
    "pairs": ((1, 8), (5, 11)),
}

# Hub gadget: a hub vertex 0 plus a 6-cycle x, y, z, z2, y2, x2 on
# vertices 1..6, with extra edges hub-x, hub-z, y-y2, x2-z2.  Its two
# 6-edge trees span the 6 added vertices from the hub and share exactly
# the cycle edges hub-x and x-y; the central cycle is (hub, x, y, z).
C4_GADGET = {
    "n": 7,
    "edges": [
        (0, 1), (1, 2), (2, 3), (3, 0),   # central cycle
        (3, 4), (4, 5), (5, 6), (6, 1),   # rest of the 6-cycle
        (2, 5), (6, 4),
    ],
    "tree1": [0, 1, 2, 4, 5, 6],
    "tree2": [0, 1, 3, 7, 8, 9],
    "shared": [0, 1],
    "cycle": (0, 1, 2, 3),
}

# Multi-mode hub gadget: a fresh central 4-cycle (hub, x, y, z) whose
# two paths from the hub share the edges x-y and y-z.
MULTI_C4_GADGET = {
    "n": 4,
    "edges": [(0, 1), (1, 2), (2, 3), (0, 3)],
    "tree1": [0, 1, 2],
    "tree2": [1, 2, 3],
    "shared": [1, 2],
    "cycle": (0, 1, 2, 3),
}

# One edge in both trees: the pendant hub gadget, or the whole (1, 1) base.
PENDANT = {
    "n": 2,
    "edges": [(0, 1)],
    "tree1": [0],
    "tree2": [0],
    "shared": [0],
}


def wheel(k: int) -> dict:
    """Hub gadget: a k-cycle (k >= 3) fully joined to the hub, as the k
    spokes (0, i) and then the ring (i, i % k + 1).  Tree 1 holds spokes
    0..k-2 and ring edge k-2, tree 2 the rest; they share nothing."""
    assert k >= 3
    return {
        "n": k + 1,
        "edges": [(0, i) for i in range(1, k + 1)] + [(i, i % k + 1) for i in range(1, k + 1)],
        "tree1": [*range(k - 1), 2 * k - 2],
        "tree2": [k - 1, *range(k, 2 * k - 2), 2 * k - 1],
        "shared": [],
    }


def attach(
    g: LabeledMultigraph, fixture: dict, hub: Optional[int] = None
) -> LabeledMultigraph:
    """Add a fixture to ``g`` with its tree flags, as new vertices, or
    with fixture vertex 0 on the existing vertex ``hub``; a shared edge
    gets FLAG_T1 | FLAG_T2, which is FLAG_BOTH.  The fixture's central
    cycle becomes the graph's.  Returns ``g``."""
    verts = [] if hub is None else [hub]
    verts += [g.add_vertex() for _ in range(fixture["n"] - len(verts))]
    edges = fixture["edges"]
    flags = [FLAG_NONE] * len(edges)
    for i in fixture["tree1"]:
        flags[i] |= FLAG_T1
    for i in fixture["tree2"]:
        flags[i] |= FLAG_T2
    for (u, v), flag in zip(edges, flags):
        g.add_edge(verts[u], verts[v], flag)
    if "cycle" in fixture:
        g.central_cycle = tuple(verts[v] for v in fixture["cycle"])  # type: ignore[assignment]
    return g
