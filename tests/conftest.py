"""Helpers shared by the test modules."""

import math
from typing import Dict, Iterable, List, Optional, Tuple

from tcreal.graphstore import FLAG_BOTH, FLAG_NONE, FLAG_T1, FLAG_T2, LabeledMultigraph

TREE_NAMES = {FLAG_NONE: "none", FLAG_T1: "t1", FLAG_T2: "t2", FLAG_BOTH: "both"}


def build_fixed(
    mode: str,
    n: int,
    edges: Iterable[Tuple[int, int, int]],
    central_cycle: Optional[Tuple[int, int, int, int]] = None,
) -> LabeledMultigraph:
    """Construct a graph from an explicit (u, v, flag) edge list."""
    g = LabeledMultigraph(mode)
    for _ in range(n):
        g.add_vertex()
    for u, v, flag in edges:
        g.add_edge(u, v, flag)
    g.central_cycle = central_cycle
    return g


def to_json_dict(g: LabeledMultigraph) -> dict:
    """The graph document as plain data: the reference whose
    ``json.dumps(..., indent=2)`` layout ``write_json`` writes."""
    return {
        "mode": g.mode,
        "n": g.n,
        "edges": [
            {"id": e, "u": g.eu[e], "v": g.ev[e],
             "tree": TREE_NAMES[g.eflag[e]], "label": g.elabel[e]}
            for e in g.edge_ids()
        ],
        "central_cycle": list(g.central_cycle) if g.central_cycle else None,
    }


def live_incidence(g: LabeledMultigraph) -> Dict[int, List[int]]:
    """Each vertex's edge ids, in edge-id order."""
    out: Dict[int, List[int]] = {v: [] for v in range(g.n)}
    for e in g.edge_ids():
        u, v = g.endpoints(e)
        out[u].append(e)
        out[v].append(e)
    return out


def _many_distinct(n):
    # Half 2s, ~0.7*sqrt(n) distinct values from 7 up, 5s and 6s filling
    # the rest, with sum 4(n-1)+2.
    k = round(0.7 * math.sqrt(n))
    vals = [2] * (n // 2) + list(range(7 + k - 1, 6, -1))
    rest = n - len(vals)
    fives = 6 * rest - (4 * (n - 1) + 2 - sum(vals))
    return vals + [5] * fives + [6] * (rest - fives)


LARGE_FAMILIES = {
    "gate": lambda n: [4] * (n - 2) + [2, 2],
    "c4": lambda n: [4] * (n - 4) + [2] * 4,
    "c4-all-3": lambda n: [4] * (n - 8) + [3] * 8,
    "one-shared": lambda n: [4] * (n - 3) + [2] * 3,
    "many-distinct": _many_distinct,
    "all-6": lambda n: [6] * n,
}
