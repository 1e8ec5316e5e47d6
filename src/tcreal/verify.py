"""Independent checks: labeling properties, temporal reachability,
certificate validation, and a brute-force realizability oracle.

Each property has one checker, shared by the library and the CLI:
``simplicity_violation``, ``properness_violation``, ``tc_violation`` and
``certificate_violation`` return ``None`` when the property holds and
otherwise a one-line reason naming the failed condition and a witness
(an edge, a vertex pair, a cycle).  The certificate is the graph's own
tree flags and core.  ``is_simple``, ``is_proper``, ``is_tc`` and
``validate_certificate`` are their boolean forms.

Everything here deliberately avoids the construction code paths: the
reachability routines work from the flat edge lists, and the oracle decides
realizability by exhaustive search over realizations and edge orderings,
so it can serve as ground truth for the fast recognizer.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import Counter
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .degseq import DegreeSequence, is_graphical, is_multigraphical
from .graphstore import _IN_TREE1, _IN_TREE2, FLAG_BOTH, Certificate, GraphError, LabeledMultigraph

__all__ = [
    "simplicity_violation",
    "properness_violation",
    "tc_violation",
    "certificate_violation",
    "is_proper",
    "is_simple",
    "is_tc",
    "validate_certificate",
    "oracle_tc_realizable_sequence",
    "enumerate_sequences",
    "OracleCapError",
]

INF = float("inf")


class OracleCapError(ValueError):
    """Raised when an oracle query exceeds its exhaustive-search caps."""


def _by_label(g: LabeledMultigraph) -> List[int]:
    """Edge ids sorted by label, ties in id order; raise on a gap."""
    ids = g.edge_ids()
    elabel = g.elabel
    if None in elabel:
        raise GraphError(f"edge {elabel.index(None)} has no label")
    return sorted(ids, key=elabel.__getitem__)


def simplicity_violation(g: LabeledMultigraph) -> Optional[str]:
    """The first edge without exactly one positive integer label.

    ``bool`` is not accepted as an integer label.
    """
    for e, t in zip(g.edge_ids(), g.elabel):
        if t is None:
            return f"edge {e} has no label"
        if type(t) is not int or t < 1:
            return f"edge {e} has label {t!r}, not a positive integer"
    return None


def is_simple(g: LabeledMultigraph) -> bool:
    """Every edge carries exactly one positive integer label."""
    return simplicity_violation(g) is None


def properness_violation(g: LabeledMultigraph) -> Optional[str]:
    """The first two edges at a vertex that carry the same label.

    The witness is at the smallest vertex with a clash, and is that
    vertex's first clash in edge-id order: the first edge whose label an
    earlier edge there already carries, and that earlier edge.  Only
    edges whose label occurs more than once can clash, so a count of the
    labels picks the edges to walk.
    """
    ids = g.edge_ids()
    elabel = g.elabel
    counts = Counter(elabel)
    if None in counts:
        raise GraphError(f"edge {elabel.index(None)} has no label")
    repeated = {t for t, c in counts.items() if c > 1}
    if not repeated:
        return None
    eu, ev = g.eu, g.ev
    first: Dict[Tuple[int, int], int] = {}  # (label, vertex) -> first edge
    witness: Optional[Tuple[int, int, int, int]] = None  # (vertex, edge, edge, label)
    for e in itertools.compress(ids, map(repeated.__contains__, elabel)):
        t = elabel[e]
        for x in (eu[e], ev[e]):
            f = first.setdefault((t, x), e)
            if f != e and (witness is None or x < witness[0]):
                witness = (x, f, e, t)
    if witness is None:
        return None
    v, f, e, t = witness
    return f"edges {f} and {e} at vertex {v} share label {t}"


def is_proper(g: LabeledMultigraph) -> bool:
    """No two edges sharing an endpoint carry the same label."""
    return properness_violation(g) is None


def _pivot_core(g: LabeledMultigraph) -> Set[int]:
    """The core the document records: its central cycle, else the ends
    of its first edge in both trees, else vertex 0 (``pivot_label``'s
    root when the trees share nothing)."""
    if g.central_cycle is not None:
        return set(g.central_cycle)
    if FLAG_BOTH in g.eflag:
        e = g.eflag.index(FLAG_BOTH)
        return {g.eu[e], g.ev[e]}
    return {0}


def _pivot_window_holds(g: LabeledMultigraph, order: List[int]) -> bool:
    """Whether three sweeps over the label-sorted edges ``order`` show
    that strict journeys join every ordered vertex pair.

    With R the core (``_pivot_core``) and t_lo the largest label on a
    tree-1 edge with an end outside R:

    (a) a reverse latest-departure sweep over labels <= t_lo shows that
        every vertex reaches R;
    (b) a forward sweep from each r in R over labels > t_lo reaches all
        of R; t_hi is the label by which every sweep has;
    (c) a forward sweep from R over labels > t_hi reaches every vertex.

    Then every vertex reaches all of R by t_hi and every vertex from
    there.  That holds for any R and t_lo, so a document whose core or
    tree flags are wrong can make the check fail, never pass wrongly;
    on ``pivot_label``'s outputs it passes.  A strict journey is also a
    non-strict one, so passing certifies both modes.  A vertex first
    reached in class t holds the value t, which passes neither ``< t``
    nor ``> t``: no journey takes two edges of one class, without a
    per-class snapshot.  O(n + m) steps and memory.
    """
    n = g.n
    labels = list(map(g.elabel.__getitem__, order))
    us = list(map(g.eu.__getitem__, order))
    vs = list(map(g.ev.__getitem__, order))
    core = _pivot_core(g)
    # The last tree-1 edges in label order are the core's on our
    # outputs, so the search back from the end stops within a few steps.
    in_tree1 = bytes(map(g.eflag.__getitem__, order)).translate(_IN_TREE1)
    i = in_tree1.rfind(1)
    while i >= 0 and us[i] in core and vs[i] in core:
        i = in_tree1.rfind(1, 0, i)
    t_lo = labels[i] if i >= 0 else -INF
    k = bisect_right(labels, t_lo)

    # (a) depart[x]: the latest label x can leave on and still reach R
    # by t_lo; INF on R, -INF while x has no such journey.
    depart = [-INF] * n
    for r in core:
        depart[r] = INF
    left = n - len(core)
    for t, u, v in zip(reversed(labels[:k]), reversed(us[:k]), reversed(vs[:k])):
        if depart[v] > t:
            if depart[u] < t:
                depart[u] = t
                left -= 1
        elif depart[u] > t and depart[v] < t:
            depart[v] = t
            left -= 1
    if left:
        return False

    # (b) The window holds only the core's few edges on our outputs, so
    # each sweep keeps its arrivals in a dict.
    t_hi = t_lo
    for r in core:
        reached = {r: t_lo}
        missing = len(core) - 1
        i = k
        while missing:
            if i == len(labels):
                return False
            t, u, v = labels[i], us[i], vs[i]
            i += 1
            if reached.get(u, INF) < t:
                x = v
            elif reached.get(v, INF) < t:
                x = u
            else:
                continue
            if x not in reached:
                reached[x] = t
                if x in core:
                    missing -= 1
                    t_hi = max(t_hi, t)

    # (c) arrival[x]: the first label a journey from R reaches x on.
    arrival: List[float] = [INF] * n
    for r in core:
        arrival[r] = t_hi
    left = n - len(core)
    k = bisect_right(labels, t_hi)
    for t, u, v in zip(labels[k:], us[k:], vs[k:]):
        if arrival[u] < t:
            if arrival[v] > t:
                arrival[v] = t
                left -= 1
        elif arrival[v] < t and arrival[u] > t:
            arrival[u] = t
            left -= 1
    return not left


def tc_violation(g: LabeledMultigraph, strict: bool = True) -> Optional[str]:
    """The lexicographically first ordered pair (source, target) that no
    journey joins, or ``None`` when the labeling is temporally connected.

    The pivot-window check (``_pivot_window_holds``) runs first, in O(m)
    steps after the sort and O(n) memory; only when it fails does the
    exact pass (``_reach_violation``) run, which finds the witness.
    """
    if g.n <= 1:
        return None
    order = _by_label(g)
    if _pivot_window_holds(g, order):
        return None
    return _reach_violation(g, order, strict)


def _reach_violation(g: LabeledMultigraph, order: List[int], strict: bool) -> Optional[str]:
    """``tc_violation``'s exact pass over the label-sorted edges ``order``.

    Propagates per-vertex bitsets of sources that can reach each vertex
    so far, n²/8 bytes in all.  Each label class touches only its own
    endpoints, and a count of the vertices every source reaches ends
    the pass once it reaches n.
    """
    n = g.n
    eu, ev = g.eu, g.ev
    full = (1 << n) - 1
    reach = [1 << v for v in range(n)]  # reach[v] = sources with a journey to v
    done = 0  # vertices v with reach[v] == full
    for _, group in itertools.groupby(order, key=g.elabel.__getitem__):
        batch = [(eu[e], ev[e]) for e in group]
        # The class's endpoints before it fires: strict journeys may not
        # chain two of its edges (it need not be a matching).
        before: Dict[int, int] = {}
        for u, v in batch:
            before[u] = reach[u]
            before[v] = reach[v]
        if strict:
            for u, v in batch:
                reach[u] |= before[v]
                reach[v] |= before[u]
        else:
            changed = True
            while changed:
                changed = False
                for u, v in batch:
                    nu = reach[u] | reach[v]
                    if nu != reach[u]:
                        reach[u] = nu
                        changed = True
                    if nu != reach[v]:
                        reach[v] = nu
                        changed = True
        for x, r in before.items():
            if r != full and reach[x] == full:
                done += 1
        if done == n:
            return None
    # The smallest source missing from some target's set (x & -x keeps
    # the lowest set bit), then the first target that source misses.
    missing = [full ^ r for r in reach]
    src = min(x & -x for x in missing if x).bit_length() - 1
    dst = next(v for v, x in enumerate(missing) if x >> src & 1)
    return f"no journey from {src} to {dst}"


def is_tc(g: LabeledMultigraph, strict: bool = True) -> bool:
    """Whether journeys exist between all ordered vertex pairs."""
    return tc_violation(g, strict) is None


# -- certificate validation ----------------------------------------------------


class _DSU:
    def __init__(self, n: int):
        self.p = list(range(n))

    def find(self, x: int) -> int:
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.p[ra] = rb
        return True


def _spanning_tree_violation(
    g: LabeledMultigraph, edges: List[int], name: str
) -> Optional[str]:
    """How the id-ordered ``edges`` fail to form a spanning tree, or ``None``."""
    want = max(g.n - 1, 0)
    if len(edges) != want:
        return f"{name} has {len(edges)} edges, a spanning tree needs {want}"
    eu, ev = g.eu, g.ev
    # Union-find with path halving, inline: the first edge whose ends
    # are already joined is the same whatever the find does.
    parent = list(range(g.n))
    for e in edges:
        u = ru = eu[e]
        v = rv = ev[e]
        while parent[ru] != ru:
            parent[ru] = ru = parent[parent[ru]]
        while parent[rv] != rv:
            parent[rv] = rv = parent[parent[rv]]
        if ru == rv:
            return f"{name} edge {e} ({u}, {v}) closes a cycle"
        parent[ru] = rv
    return None  # n-1 acyclic edges on n vertices must span


def certificate_violation(g: LabeledMultigraph) -> Optional[str]:
    """The first way the graph's certificate (its tree flags and
    ``central_cycle``) fails, or ``None``.

    The edges flagged into each tree must form a spanning tree.  With
    two shared edges, the central 4-cycle must be present, induced (all
    four cycle edges of multiplicity one, no chord), and carry both
    shared edges.
    """
    ids = g.edge_ids()
    flags = bytes(g.eflag)
    in1, in2 = flags.translate(_IN_TREE1), flags.translate(_IN_TREE2)
    reason = (_spanning_tree_violation(g, list(itertools.compress(ids, in1)), "tree 1")
              or _spanning_tree_violation(g, list(itertools.compress(ids, in2)), "tree 2"))
    if reason is not None:
        return reason
    shared = flags.count(FLAG_BOTH)
    if shared > 2:
        return f"the trees share {shared} edges, at most 2 are allowed"
    if shared == 2:
        cyc = g.central_cycle
        if cyc is None:
            return "two shared edges need a central cycle"
        if len(set(cyc)) != 4 or any(not 0 <= x < g.n for x in cyc):
            return f"central cycle {tuple(cyc)} is not 4 distinct vertices"
        cyc_pairs = [frozenset((cyc[i], cyc[(i + 1) % 4])) for i in range(4)]
        chord_pairs = {frozenset((cyc[0], cyc[2])), frozenset((cyc[1], cyc[3]))}
        pair_to_edges: Dict[frozenset, List[int]] = {p: [] for p in cyc_pairs}
        on_cycle = set(cyc)
        for e, u, v in zip(ids, g.eu, g.ev):
            if not (u in on_cycle and v in on_cycle):
                continue
            key = frozenset((u, v))
            if key in pair_to_edges:
                pair_to_edges[key].append(e)
            if key in chord_pairs:
                return f"edge {e} ({u}, {v}) is a chord of the central cycle"
        for p in cyc_pairs:
            found = pair_to_edges[p]
            if len(found) != 1:
                a, b = sorted(p)
                return f"central cycle pair ({a}, {b}) has {len(found)} edges, not 1"
        cycle_edges = {found[0] for found in pair_to_edges.values()}
        off = [e for e in (flags.index(FLAG_BOTH), flags.rindex(FLAG_BOTH))
               if e not in cycle_edges]
        if off:
            return f"shared edge {off[0]} is not on the central cycle"
    elif g.central_cycle is not None:
        return f"a central cycle is recorded with {shared} shared edges"
    return None


def validate_certificate(g: LabeledMultigraph, cert: Certificate) -> bool:
    """Whether ``cert`` is the graph's own certificate and that is valid;
    see ``certificate_violation``."""
    return cert == g.certificate_from_flags() and certificate_violation(g) is None


# -- exhaustive realizability oracle -------------------------------------------


def _enumerate_realizations(
    degrees: Sequence[int], multi: bool
) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """All multisets of edges realizing the degree list on labeled vertices.

    Backtracks over vertex pairs in lexicographic order with residual
    degrees; multigraph multiplicities are bounded by the smaller residual
    endpoint degree.
    """
    n = len(degrees)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    residual = list(degrees)
    out: List[Tuple[int, int]] = []

    def rest_capacity(idx: int, v: int) -> int:
        cap = 0
        for k in range(idx, len(pairs)):
            i, j = pairs[k]
            if v == i or v == j:
                other = j if v == i else i
                cap += min(residual[v], residual[other]) if multi else 1
        return cap

    def dfs(idx: int) -> Iterator[Tuple[Tuple[int, int], ...]]:
        if idx == len(pairs):
            if all(r == 0 for r in residual):
                yield tuple(out)
            return
        i, j = pairs[idx]
        # Once the scan moves past vertex i's last pair, i must be settled.
        if j == i + 1 and i > 0 and residual[i - 1] != 0:
            return
        hi = min(residual[i], residual[j]) if multi else min(residual[i], residual[j], 1)
        for mult in range(hi, -1, -1):
            residual[i] -= mult
            residual[j] -= mult
            out.extend([(i, j)] * mult)
            # Vertex i only has pairs with larger j left; check feasibility.
            if residual[i] <= rest_capacity(idx + 1, i):
                yield from dfs(idx + 1)
            for _ in range(mult):
                out.pop()
            residual[i] += mult
            residual[j] += mult

    yield from dfs(0)


def _degree_preserving_perms(degrees: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """All vertex permutations that map each vertex to one of equal degree."""
    n = len(degrees)
    groups: Dict[int, List[int]] = {}
    for v, d in enumerate(degrees):
        groups.setdefault(d, []).append(v)
    blocks = list(groups.values())
    for combo in itertools.product(*(itertools.permutations(b) for b in blocks)):
        perm = [0] * n
        for block, images in zip(blocks, combo):
            for src, dst in zip(block, images):
                perm[src] = dst
        yield tuple(perm)


def _canonical_signature(
    edges: Tuple[Tuple[int, int], ...], degrees: Sequence[int]
) -> Tuple[Tuple[int, int], ...]:
    best = None
    for perm in _degree_preserving_perms(degrees):
        sig = tuple(
            sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
        )
        if best is None or sig < best:
            best = sig
    assert best is not None
    return best


def _is_connected(n: int, edges: Sequence[Tuple[int, int]]) -> bool:
    if n <= 1:
        return True
    dsu = _DSU(n)
    comps = n
    for u, v in edges:
        if dsu.union(u, v):
            comps -= 1
    return comps == 1


def _tc_orderable(n: int, edges: Tuple[Tuple[int, int], ...]) -> bool:
    """Whether some ordering of the edges yields journeys for all pairs.

    Distinct per-edge times are enough to consider: any labeling with ties
    between non-adjacent edges refines to an order with the same journeys.
    Search is a memoized DFS over (placed-edge set, reach bitsets).
    """
    if n <= 1:
        return True
    if not _is_connected(n, edges):
        return False
    m = len(edges)
    full = (1 << n) - 1
    inc = [0] * n
    for idx, (u, v) in enumerate(edges):
        inc[u] |= 1 << idx
        inc[v] |= 1 << idx
    memo: Dict[Tuple[int, Tuple[int, ...]], bool] = {}

    def dfs(remaining: int, reach: Tuple[int, ...]) -> bool:
        if all(r == full for r in reach):
            return True
        if remaining == 0:
            return False
        key = (remaining, reach)
        cached = memo.get(key)
        if cached is not None:
            return cached
        # A vertex nobody new can ever enter again is a dead end.
        for v in range(n):
            if reach[v] != full and not (remaining & inc[v]):
                memo[key] = False
                return False
        tried: Set[Tuple[int, int]] = set()
        rem = remaining
        ok = False
        while rem:
            bit = rem & -rem
            rem ^= bit
            idx = bit.bit_length() - 1
            uv = edges[idx]
            if uv in tried:
                continue  # a parallel copy behaves identically here
            tried.add(uv)
            u, v = uv
            nxt = list(reach)
            nxt[u] |= reach[v]
            nxt[v] |= reach[u]
            if dfs(remaining ^ bit, tuple(nxt)):
                ok = True
                break
        memo[key] = ok
        return ok

    return dfs((1 << m) - 1, tuple(1 << v for v in range(n)))


def oracle_tc_realizable_sequence(
    d: DegreeSequence | Sequence[int],
    mode: str = "simple",
    cap_n: int = 6,
    cap_m: int = 9,
) -> bool:
    """Ground-truth realizability by exhaustive search at tiny scale.

    Enumerates realizations (up to degree-preserving relabeling) and, for
    each connected one, searches for an edge ordering whose journeys cover
    all ordered vertex pairs.
    """
    if mode not in ("simple", "multi"):
        raise ValueError(f"unknown mode {mode!r}")
    degrees = list(d.entries) if isinstance(d, DegreeSequence) else sorted(d, reverse=True)
    n = len(degrees)
    total = sum(degrees)
    if n > cap_n or total // 2 > cap_m:
        raise OracleCapError(
            f"oracle caps exceeded (n={n} > {cap_n} or m={total // 2} > {cap_m})"
        )
    ds = DegreeSequence(degrees)
    if mode == "simple" and not is_graphical(ds):
        return False
    if mode == "multi" and not is_multigraphical(ds):
        return False
    if n <= 1:
        return True
    if degrees[-1] == 0:
        return False  # an isolated vertex is unreachable
    seen: Set[Tuple[Tuple[int, int], ...]] = set()
    for edges in _enumerate_realizations(degrees, mode == "multi"):
        if not _is_connected(n, edges):
            continue
        sig = _canonical_signature(edges, degrees)
        if sig in seen:
            continue
        seen.add(sig)
        if _tc_orderable(n, sig):
            return True
    return False


def enumerate_sequences(n: int, mode: str = "simple") -> Iterator[DegreeSequence]:
    """Every realizable-as-a-graph degree sequence of length n, sorted.

    Simple mode caps entries at n-1; multigraph mode caps entries at 2n to
    keep the stream finite.
    """
    if n > 12:
        raise ValueError("sequence enumeration is capped at n <= 12")
    if mode not in ("simple", "multi"):
        raise ValueError(f"unknown mode {mode!r}")
    if n == 0:
        yield DegreeSequence([])
        return
    max_deg = n - 1 if mode == "simple" else 2 * n
    test = is_graphical if mode == "simple" else is_multigraphical
    for combo in itertools.combinations_with_replacement(range(max_deg, -1, -1), n):
        ds = DegreeSequence(combo)
        if test(ds):
            yield ds
