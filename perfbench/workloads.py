"""The benchmark's workloads: seeded inputs, CLI calls and output checks.

Each workload builds one *period*: a list of ops (CLI calls) made from
the seed.  A run replays the period in order until its time is up.  The
period fixes the mix: sizes on a grid of strata, families, modes,
decision reasons and corruption kinds.  The seed moves each size by at
most 1% and draws the random parts of the inputs.  Checks run outside
the timed region.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import reference


@dataclass
class Op:
    index: int  # position in the period; repeats of an op share it
    group: str  # family, route or corruption kind, for the shares line
    argv: List[str]  # "{out}" is replaced by the op's output file
    stdin: str
    n: int
    items: int  # edges built or verified, or sequences decided
    timed: bool = True  # counted in the call-time percentiles
    data: Dict = field(default_factory=dict)  # what the check needs


@dataclass
class Workload:
    name: str
    why: str
    rate: str  # the workload's own name for items_per_s
    make: Callable[[random.Random, "Context"], List[Op]]
    check: Callable[[Op, "Outcome", "Context"], Optional[str]]


@dataclass
class Context:
    work: str  # scratch directory inside the checkout
    tc_cap: int  # largest n for which is_tc's bitsets are allowed
    rng: random.Random  # for sampled checks
    run_cli: Callable  # (argv, stdin) -> Outcome


@dataclass
class Outcome:
    rc: int
    stdout: str
    stderr: str
    wall: float
    path: str


def _spread(rng: random.Random, vals: List[int], extra: int, lo: int = 0) -> List[int]:
    """Add ``extra`` units to random entries of ``vals[lo:]``."""
    for i, c in Counter(rng.choices(range(lo, len(vals)), k=extra)).items():
        vals[i] += c
    return vals


def _text(vals: List[int]) -> str:
    return " ".join(map(str, vals)) + "\n"


def grid_n(lo: int, hi: int, strata: int, s: int, rng: random.Random) -> int:
    """The centre of stratum ``s`` of [lo, hi), moved by up to 1% by the seed.

    Fixed centres keep the size mix, and so the timings, alike across
    seeds; the seed changes the inputs, not their cost.
    """
    centre = lo + (s + 0.5) * (hi - lo) / strata
    return int(centre * (1 + 0.01 * (2 * rng.random() - 1)))


def _report(stdout: str) -> Dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Builds
# ---------------------------------------------------------------------------

LARGE_FAMILIES = (
    ("gate", "simple"),
    ("c4", "simple"),
    ("c4", "multi"),
    ("many-distinct", "simple"),
    ("one-shared", "multi"),
)


def family_sequence(family: str, n: int) -> List[int]:
    if family == "gate":
        return [4] * (n - 2) + [2, 2]
    if family == "c4":
        return [4] * (n - 4) + [2] * 4
    if family == "one-shared":
        return [4] * (n - 3) + [2] * 3
    # Half 2s, ~0.7*sqrt(n) distinct values from 7 up, 5s and 6s filling
    # the rest, with sum 4(n-1)+2.
    k = round(0.7 * math.sqrt(n))
    vals = [2] * (n // 2) + list(range(7 + k - 1, 6, -1))
    rest = n - len(vals)
    need = 4 * (n - 1) + 2 - sum(vals)
    fives = 6 * rest - need
    assert 0 <= fives <= rest, (n, fives, rest)
    return sorted(vals + [5] * fives + [6] * (rest - fives), reverse=True)


def make_large(rng: random.Random, ctx: Context) -> List[Op]:
    ops = []
    for j, (family, mode) in enumerate(LARGE_FAMILIES):
        n = grid_n(50_000, 100_000, 5, (2 * j) % 5, rng)
        seq = family_sequence(family, n)
        ops.append(Op(
            j, f"{family}/{mode}",
            ["build", "--mode", mode, "--no-verify", "--out", "{out}"],
            _text(seq), n, sum(seq) // 2, data={"seq": seq, "mode": mode, "tc": "sweep"},
        ))
    return ops


ROUTES = ("c4-boundary", "one-shared-boundary", "above")


def random_realizable(rng: random.Random, n: int, mode: str, route: str) -> List[int]:
    """All-2s plus randomly spread extra degree, on the chosen route."""
    while True:
        if route == "c4-boundary":
            total = 4 * (n - 1) - 4
        elif route == "one-shared-boundary":
            total = 4 * (n - 1) - 2
        else:
            total = 4 * (n - 1) + 2 * (n // 4)
        vals = _spread(rng, [2] * n, total - 2 * n)
        vals.sort(reverse=True)
        if reference.decide(vals, mode)[0]:
            return vals


def verified_builds(rng: random.Random) -> List[Op]:
    """Six self-verified builds, one per (mode, route), n on a grid over [2k, 6k)."""
    ops = []
    for j in range(6):
        mode = ("simple", "multi")[j % 2]
        route = ROUTES[j % 3]
        n = grid_n(2_000, 6_000, 6, (5 * j) % 6, rng)
        seq = random_realizable(rng, n, mode, route)
        ops.append(Op(
            j, f"{route}/{mode}", ["build", "--mode", mode, "--out", "{out}"],
            _text(seq), n, sum(seq) // 2, data={"seq": seq, "mode": mode, "tc": "is_tc"},
        ))
    return ops


def check_build(op: Op, out: Outcome, ctx: Context) -> Optional[str]:
    """Independent checks of one build's report and document."""
    from tcreal.graphstore import Certificate, LabeledMultigraph
    from tcreal.verify import is_proper, is_simple, is_tc, validate_certificate

    seq, mode = op.data["seq"], op.data["mode"]
    n, m = len(seq), sum(seq) // 2
    if out.rc != 0:
        return f"exit code {out.rc}: {out.stderr.strip()[:200]}"
    report = _report(out.stdout)
    realizable, reason = reference.decide(seq, mode)
    op.data["reason"] = reason
    if (report["realizable"], report["reason"], report["n"], report["m"]) != (
            realizable, reason, n, m):
        return f"report {report['reason']} n={report['n']} disagrees with {reason}"
    with open(out.path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edges = doc["edges"]
    if doc["mode"] != mode or doc["n"] != n or len(edges) != m:
        return "document header does not match the sequence"
    if any(type(rec["label"]) is not int or rec["label"] < 1 for rec in edges):
        return "an edge lacks a positive integer label"
    deg = [0] * n
    for rec in edges:
        deg[rec["u"]] += 1
        deg[rec["v"]] += 1
    if sorted(deg, reverse=True) != seq:
        return "degree multiset differs from the sequence"
    g = LabeledMultigraph.from_json_dict(doc)
    flags = [rec["tree"] for rec in edges]
    cert = Certificate(
        tree1={e for e, f in enumerate(flags) if f in ("t1", "both")},
        tree2={e for e, f in enumerate(flags) if f in ("t2", "both")},
        shared={e for e, f in enumerate(flags) if f == "both"},
        central_cycle=tuple(doc["central_cycle"]) if doc["central_cycle"] else None,
    )
    if not (is_simple(g) and is_proper(g)):
        return "labeling is not simple and proper"
    if not validate_certificate(g, cert):
        return "certificate does not validate"
    top = max(rec["label"] for rec in edges)
    if report["max_label"] != top:
        return "reported max_label differs from the document"
    if "none" not in flags and top > 2 * n + 2:
        return f"max label {top} exceeds 2n+2 on a tree-covered output"
    if op.data["tc"] == "is_tc":
        if n > ctx.tc_cap:
            return f"n={n} exceeds the is_tc memory cap {ctx.tc_cap}"
        return None if is_tc(g) else "not temporally connected"
    # Too large for is_tc's n^2/8-byte bitsets: foremost-journey sweeps
    # from and to a seeded sample, exact because the labeling is proper.
    by_label = reference.labeled_edges(doc)
    for v in ctx.rng.sample(range(n), 2):
        if reference.reached_from(n, by_label, v) != n:
            return f"some vertex is unreachable from {v}"
        if reference.reaching_to(n, by_label, v) != n:
            return f"some vertex cannot reach {v}"
    return None


# ---------------------------------------------------------------------------
# Verify calls
# ---------------------------------------------------------------------------


def verify_docs(rng: random.Random, ctx: Context) -> List[Op]:
    """Eight documents with n in [150, 400); every fourth is corrupted."""
    ops = []
    for j in range(8):
        kind = {3: "corrupt-label", 7: "corrupt-isolate"}.get(j, "valid")
        v = j - j // 4  # the valid documents' stratum counter
        mode = ("simple", "multi")[v % 2]
        route = ROUTES[v % 3]
        stratum = (5 * v) % 6 if kind == "valid" else 2 + j // 4
        n = grid_n(150, 400, 6, stratum, rng)
        path = os.path.join(ctx.work, f"doc-{j}.json")
        out = ctx.run_cli(["build", "--mode", mode, "--no-verify", "--out", path],
                          _text(random_realizable(rng, n, mode, route)))
        if out.rc != 0:
            raise RuntimeError(f"building verify document {j} failed: {out.stderr}")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if kind == "corrupt-label":
            # Two edges at one vertex get the same label.
            v = rng.randrange(n)
            inc = [rec for rec in doc["edges"] if v in (rec["u"], rec["v"])]
            a, b = rng.sample(inc, 2)
            b["label"] = a["label"]
        elif kind == "corrupt-isolate":
            v = rng.randrange(n)
            doc["edges"] = [rec for rec in doc["edges"] if v not in (rec["u"], rec["v"])]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        ops.append(Op(
            j, kind, ["verify", path], "", n, len(doc["edges"]),
            timed=kind == "valid", data={"path": path, "kind": kind, "mode": mode},
        ))
    return ops


def make_roundtrip(rng: random.Random, ctx: Context) -> List[Op]:
    """Self-verified builds interleaved with verify calls."""
    builds, docs = verified_builds(rng), verify_docs(rng, ctx)
    ops = [op for pair in zip(builds + [None, None], docs) for op in pair if op]
    for i, op in enumerate(ops):
        op.index = i
    return ops


def check_roundtrip(op: Op, out: Outcome, ctx: Context) -> Optional[str]:
    if op.argv[0] == "build":
        return check_build(op, out, ctx)
    return check_verify(op, out, ctx)


def check_verify(op: Op, out: Outcome, ctx: Context) -> Optional[str]:
    with open(op.data["path"], encoding="utf-8") as fh:
        doc = json.load(fh)
    n = doc["n"]
    edges = reference.labeled_edges(doc)
    tc = reference.is_proper_edges(n, edges) and all(
        reference.reached_from(n, edges, s) == n for s in range(n))
    if op.data["kind"] != "valid" and tc:
        return "corrupted document still passes the reference check"
    expected = 0 if tc else 1
    if out.rc != expected:
        return f"verify exit code {out.rc}, expected {expected}"
    if not out.stdout.startswith("OK" if tc else "FAIL"):
        return "verdict text disagrees with the exit code"
    return None


# ---------------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------------

# One batch cycles through this pattern; each slot names the reason the
# generated sequence must get.  "NotGraphical" means the mode's own
# graphicality failure.
REASON_PATTERN = (
    ["OkTwoEdgeDisjoint"] * 3 + ["OkOneSharedEdge"] * 3 + ["OkC4Pivotable"] * 3
    + ["BoundaryFailsC4"] * 2 + ["TooFewEdges"] * 2
    + ["TwoLeaves", "NotGraphical", "OkSmallN"]
)
BATCH = 64


def decide_sequence(rng: random.Random, n: int, mode: str, reason: str) -> Tuple[List[int], str]:
    """A sequence near the 4(n-1) boundary that gets ``reason`` (renamed
    to the mode's own graphicality failure where needed)."""
    if reason == "NotGraphical" and mode == "multi":
        reason = "NotMultigraphical"
    for _ in range(100):
        base, total = [2] * n, 4 * (n - 1)
        if reason == "OkSmallN":
            vals = [[0], [1, 1]][rng.randrange(2)] if mode == "simple" else [rng.randint(1, 3)] * 2
        else:
            if reason == "OkTwoEdgeDisjoint":
                total += 2 * rng.randrange(4)
            elif reason == "OkOneSharedEdge":
                if rng.randrange(2):
                    total -= 2
                else:
                    base[0] = 1
            elif reason == "OkC4Pivotable":
                total -= 4
            elif reason == "BoundaryFailsC4":
                base[0], total = 1, total - 4
            elif reason == "TooFewEdges":
                total -= 6
            elif reason == "TwoLeaves":
                base[0] = base[1] = 1
            else:  # odd sum: not (multi)graphical
                total -= 1
            lo = sum(1 for v in base if v == 1)
            vals = _spread(rng, base, total - sum(base), lo)
        if reference.decide(vals, mode)[1] == reason:
            return vals, reason
    raise RuntimeError(f"could not generate a {reason} sequence with n={n}")


def make_decide(rng: random.Random, ctx: Context) -> List[Op]:
    ops = []
    for j in range(8):
        mode = ("simple", "multi")[j % 2]
        seqs, reasons = [], []
        for i in range(BATCH):
            n = 10 + int((i + rng.random()) * 1990 / BATCH)
            seq, reason = decide_sequence(rng, n, mode, REASON_PATTERN[i % len(REASON_PATTERN)])
            seqs.append(seq)
            reasons.append(reason)
        ops.append(Op(
            j, mode, ["check", "--mode", mode, "--format", "json"],
            "".join(_text(s) for s in seqs), max(len(s) for s in seqs), len(seqs),
            data={"seqs": seqs, "mode": mode, "reasons": reasons},
        ))
    return ops


def check_decide(op: Op, out: Outcome, ctx: Context) -> Optional[str]:
    seqs, mode = op.data["seqs"], op.data["mode"]
    lines = out.stdout.splitlines()
    if len(lines) != len(seqs):
        return f"{len(lines)} report lines for {len(seqs)} sequences"
    all_ok = True
    for seq, line in zip(seqs, lines):
        report = json.loads(line)
        realizable, reason = reference.decide(seq, mode)
        all_ok &= realizable
        got = (report["realizable"], report["reason"], report["n"], report["m"],
               report["sequence"])
        if got != (realizable, reason, len(seq), sum(seq) // 2, sorted(seq, reverse=True)):
            return f"decision {report['reason']} disagrees with {reason} for n={len(seq)}"
    if out.rc != (0 if all_ok else 1):
        return f"exit code {out.rc} for a batch with realizable={all_ok}"
    return None


def shares(ops: List[Op]) -> Dict[str, Dict[str, float]]:
    """Share of the executed ops per family, route or corruption kind
    ("group"), per mode and per decision reason; for batches of
    sequences, the reasons are counted per sequence."""
    def norm(counter: Counter) -> Dict[str, float]:
        total = sum(counter.values())
        return {k: round(v / total, 4) for k, v in sorted(counter.items())}

    reasons = Counter()
    for op in ops:
        reasons.update(op.data.get("reasons", [op.data.get("reason")]))
    reasons.pop(None, None)
    return {
        "group": norm(Counter(op.group for op in ops)),
        "mode": norm(Counter(op.data["mode"] for op in ops if "mode" in op.data)),
        "reason": norm(reasons),
    }


WORKLOADS = {
    "large-build": Workload(
        "large-build",
        "construction and export dominate at n in [50k, 100k) on five routes; "
        "verify is bypassed by --no-verify",
        "build_edges_per_s", make_large, check_build,
    ),
    "verified-roundtrip": Workload(
        "verified-roundtrip",
        "self-verified builds at n in [2k, 6k) and verify calls at n in "
        "[150, 400), a quarter corrupted; is_tc and earliest_arrival dominate",
        "edges_built_or_verified_per_s", make_roundtrip, check_roundtrip,
    ),
    "decide-batch": Workload(
        "decide-batch",
        "tcreal check over a stream of sequences near the 4(n-1) boundary, n "
        "in [10, 2000), every Reason; nothing is built",
        "check_seqs_per_s", make_decide, check_decide,
    ),
}
