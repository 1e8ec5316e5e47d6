"""Helpers shared by the test modules."""

from typing import Dict, Iterable, List, Optional, Tuple

from tcreal.graphstore import LabeledMultigraph


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


def live_incidence(g: LabeledMultigraph) -> Dict[int, List[int]]:
    """Each vertex's live edge ids, in edge-id order."""
    out: Dict[int, List[int]] = {v: [] for v in range(g.n)}
    for e in g.edge_ids():
        u, v = g.endpoints(e)
        out[u].append(e)
        out[v].append(e)
    return out
