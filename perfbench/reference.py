"""Independent reference checks used by the benchmark.

Nothing here imports ``tcreal``: the decision rule, the Erdős–Gallai
test and the journey sweeps are restated from the definitions so that a
bug in the package cannot hide behind the same bug in its checker.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

REASONS = (
    "NotGraphical",
    "NotMultigraphical",
    "TooFewEdges",
    "BoundaryFailsC4",
    "TwoLeaves",
    "OkC4Pivotable",
    "OkOneSharedEdge",
    "OkTwoEdgeDisjoint",
    "OkSmallN",
)


def erdos_gallai(d: Sequence[int]) -> bool:
    """Whether the non-increasing list ``d`` is the degree list of a simple graph.

    Checks the even sum and, for every k, that the k largest degrees sum
    to at most k(k-1) + sum_{i>k} min(d_i, k).  ``p`` tracks how many
    entries are at least k, so the whole test is O(n).
    """
    n = len(d)
    if sum(d) % 2:
        return False
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + d[i]
    lhs = 0
    p = n  # number of entries >= k, non-increasing in k
    for k in range(1, n + 1):
        lhs += d[k - 1]
        while p > 0 and d[p - 1] < k:
            p -= 1
        # Entries after position k: those >= k contribute k, the rest d_i.
        if p > k:
            rhs = k * (k - 1) + k * (p - k) + suffix[p]
        else:
            rhs = k * (k - 1) + suffix[k]
        if lhs > rhs:
            return False
    return True


def decide(d: Sequence[int], mode: str) -> Tuple[bool, str]:
    """The closed-form realizability rule, restated.

    With m = sum/2: a (multi)graphical sequence has a proper temporally
    connected realization iff m = 2n-4 with every degree >= 2 (and, for
    simple graphs, maximum degree < n-1), or m >= 2n-3 with n <= 2 or at
    most one degree below 2 and no degree 0.
    """
    d = sorted(d, reverse=True)
    n = len(d)
    total = sum(d)
    if mode == "simple":
        if not erdos_gallai(d):
            return False, "NotGraphical"
    elif total % 2 or (n and d[0] > total - d[0]):
        return False, "NotMultigraphical"
    m = total // 2
    if m < 2 * n - 4:
        return False, "TooFewEdges"
    if m == 2 * n - 4:
        if d[-1] >= 2 and (mode == "multi" or d[0] < n - 1):
            return True, "OkC4Pivotable"
        return False, "BoundaryFailsC4"
    if n <= 2:
        return True, "OkSmallN"
    if d[-2] >= 2 and d[-1] >= 1:
        if total >= 4 * (n - 1) and d[-1] >= 2:
            return True, "OkTwoEdgeDisjoint"
        return True, "OkOneSharedEdge"
    return False, "TwoLeaves"


def is_proper_edges(n: int, edges: Sequence[Tuple[int, int, int]]) -> bool:
    """No two edges at one vertex share a label; edges are (label, u, v)."""
    seen = set()
    add = seen.add
    for t, u, v in edges:
        ku = u * 4294967296 + t
        kv = v * 4294967296 + t
        if ku in seen or kv in seen:
            return False
        add(ku)
        add(kv)
    return True


def reached_from(n: int, by_label: List[Tuple[int, int, int]], src: int) -> int:
    """How many vertices a strict journey from ``src`` reaches.

    ``by_label`` holds (label, u, v) sorted by label.  One pass suffices
    because a proper labeling makes every label class a matching: an edge
    of label t can never extend a journey that arrived at time t.
    """
    inf = 1 << 62
    arrival = [inf] * n
    arrival[src] = 0
    count = 1
    for t, u, v in by_label:
        au = arrival[u]
        av = arrival[v]
        if au < t and av > t:
            if av == inf:
                count += 1
            arrival[v] = t
        elif av < t and au > t:
            if au == inf:
                count += 1
            arrival[u] = t
    return count


def reaching_to(n: int, by_label: List[Tuple[int, int, int]], dst: int) -> int:
    """How many vertices have a strict journey to ``dst`` (reverse sweep)."""
    inf = 1 << 62
    departure = [-inf] * n
    departure[dst] = inf
    count = 1
    for i in range(len(by_label) - 1, -1, -1):
        t, u, v = by_label[i]
        du = departure[u]
        dv = departure[v]
        if dv > t and du < t:
            if du == -inf:
                count += 1
            departure[u] = t
        elif du > t and dv < t:
            if dv == -inf:
                count += 1
            departure[v] = t
    return count


def labeled_edges(doc: Dict) -> List[Tuple[int, int, int]]:
    """(label, u, v) triples of a graph document, sorted by label."""
    out = [(rec["label"], rec["u"], rec["v"]) for rec in doc["edges"]]
    out.sort()
    return out
