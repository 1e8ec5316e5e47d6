"""Command-line front end.

Subcommands:

* ``check``  — decide realizability of one or more degree sequences;
* ``build``  — construct, label, self-verify, and export a realization;
* ``verify`` — re-check an exported graph document independently;
* ``oracle`` — exhaustively cross-check the decision procedure against
  the brute-force oracle at tiny scale;
* ``bench``  — wall-time scaling measurements on a realizable family.

Exit codes: 0 realizable / all checks pass, 1 not realizable / a check
fails, 2 malformed input or an unwritable ``--out``, 3 internal invariant
failure, 141 (128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, TextIO

from .degseq import DegreeSequence, _shown, parse_sequence
from .graphstore import GraphError, LabeledMultigraph
from .realize import Reason, check_tc_realizable, realize_tc
from .verify import (
    certificate_violation,
    enumerate_sequences,
    oracle_tc_realizable_sequence,
    properness_violation,
    simplicity_violation,
    tc_violation,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141

_CERT_KIND = {
    Reason.OK_C4_PIVOTABLE: "c4-pivotable",
    Reason.OK_ONE_SHARED_EDGE: "one-shared-edge",
    Reason.OK_TWO_EDGE_DISJOINT: "two-edge-disjoint",
    Reason.OK_SMALL_N: "small-n",
}


def _read_sequences(args: argparse.Namespace) -> List[DegreeSequence]:
    """Positional tokens form one sequence; otherwise one per stdin line."""
    if args.sequence:
        return [parse_sequence(" ".join(args.sequence))]
    out = []
    for line in sys.stdin:
        line = line.strip()
        if line:
            out.append(parse_sequence(line))
    return out


def _joined(d: DegreeSequence, sep: str) -> str:
    """The entries of ``d`` joined by ``sep``, written one run of equal
    degrees at a time."""
    return "".join([(str(v) + sep) * c for v, c in d.iter_buckets()])[:-len(sep)]


def _print_report(d: DegreeSequence, report: Dict, fmt: str, out: TextIO) -> None:
    """One report line for ``d``: its ``sequence`` field first, then the
    other fields of ``report``.  The line equals ``json.dumps`` of the
    whole report (or the text layout), but the sequence is written from
    the buckets instead of one entry at a time."""
    if fmt == "json":
        out.write(f'{{"sequence": [{_joined(d, ", ")}], {json.dumps(report)[1:]}\n')
        return
    parts = [
        f"sequence={_joined(d, ' ')}",
        f"mode={report['mode']}",
        f"realizable={'yes' if report['realizable'] else 'no'}",
        f"reason={report['reason']}",
    ]
    for key in ("n", "m", "max_label", "shared_edges", "certificate", "ms"):
        if key in report:
            parts.append(f"{key}={report[key]}")
    out.write("  ".join(str(p) for p in parts) + "\n")


def _base_report(d: DegreeSequence, mode: str) -> Dict:
    decision = check_tc_realizable(d, mode)
    return {
        "mode": mode,
        "realizable": decision.realizable,
        "reason": decision.reason.value,
        "n": d.n,
        "m": d.total // 2,
    }


def cmd_check(args: argparse.Namespace) -> int:
    seqs = _read_sequences(args)
    worst = EXIT_OK
    for d in seqs:
        t0 = time.perf_counter()
        report = _base_report(d, args.mode)
        report["ms"] = round(1000 * (time.perf_counter() - t0), 3)
        _print_report(d, report, args.format, sys.stdout)
        if not report["realizable"]:
            worst = EXIT_NO
    return worst


def cmd_build(args: argparse.Namespace) -> int:
    seqs = _read_sequences(args)
    if len(seqs) != 1:
        print("build expects exactly one sequence", file=sys.stderr)
        return EXIT_INPUT
    d = seqs[0]
    t0 = time.perf_counter()
    result = realize_tc(d, args.mode)
    elapsed = round(1000 * (time.perf_counter() - t0), 3)
    report = {
        "mode": args.mode,
        "realizable": result.realizable,
        "reason": result.decision.reason.value,
        "n": d.n,
        "m": d.total // 2,
        "ms": elapsed,
    }
    if not result.realizable:
        _print_report(d, report, "text" if args.format == "dot" else args.format,
                      sys.stdout)
        return EXIT_NO
    g, cert, labeling = result.graph, result.certificate, result.labeling
    assert g is not None and cert is not None and labeling is not None
    if not args.no_verify:
        reason = (
            simplicity_violation(g)
            or properness_violation(g)
            or tc_violation(g)
            or certificate_violation(g, cert)
        )
        if reason is not None:
            print(f"internal error: self-verification failed: {reason}",
                  file=sys.stderr)
            return EXIT_INTERNAL
    report.update(
        max_label=labeling.max_label,
        shared_edges=len(cert.shared),
        certificate=_CERT_KIND[result.decision.reason],
    )
    write = g.write_dot if args.format == "dot" else g.write_json
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                write(fh)
                fh.write("\n")
        except OSError as exc:
            print(f"cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_INPUT
        _print_report(d, report, "text" if args.format == "dot" else args.format,
                      sys.stdout)
    else:
        write(sys.stdout)
        sys.stdout.write("\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.graph_file, "r", encoding="utf-8") as fh:
            g = LabeledMultigraph.from_json(fh.read())
    except (OSError, GraphError) as exc:
        print(f"cannot load graph: {exc}", file=sys.stderr)
        return EXIT_INPUT
    for prefix, check in (
        ("FAIL: ", simplicity_violation),
        ("FAIL properness: ", properness_violation),
        ("FAIL temporal connectivity: ", tc_violation),
    ):
        reason = check(g)
        if reason is not None:
            print(prefix + reason)
            return EXIT_NO
    print("OK: labeling is simple, proper, and temporally connected")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    cap = 6 if args.mode == "simple" else 5
    if args.n > cap:
        print(
            f"--n {args.n} exceeds the exhaustive-oracle cap of {cap} "
            f"for {args.mode} mode",
            file=sys.stderr,
        )
        return EXIT_INPUT
    cap_m = 15 if args.mode == "simple" else 8
    disagreements = []
    checked = 0
    for n in range(args.n + 1):
        for d in enumerate_sequences(n, args.mode):
            if d.total // 2 > cap_m:
                continue
            claimed = check_tc_realizable(d, args.mode).realizable
            truth = oracle_tc_realizable_sequence(
                d, args.mode, cap_n=cap, cap_m=cap_m
            )
            checked += 1
            if claimed != truth:
                disagreements.append((d.entries, claimed, truth))
    report = {
        "mode": args.mode,
        "n_cap": args.n,
        "sequences_checked": checked,
        "disagreements": [
            {"sequence": s, "claimed": c, "oracle": t}
            for s, c, t in sorted(disagreements)
        ],
    }
    if args.format == "json":
        print(json.dumps(report))
    else:
        for s, c, t in sorted(disagreements):
            print(f"DISAGREE {s}: claimed={c} oracle={t}")
        print(
            f"{checked} sequences checked, "
            f"{len(disagreements)} disagreements"
            + ("" if disagreements else " — all sequences agree")
        )
    return EXIT_OK if not disagreements else EXIT_NO


# Smallest n at which the bench family [4]*(n-2)+[2,2] is realizable.
_BENCH_MIN_N = {"simple": 6, "multi": 4}


def cmd_bench(args: argparse.Namespace) -> int:
    # The token rule of parse_sequence: ASCII decimal digits, separated
    # by commas or whitespace.
    tokens = args.sizes.replace(",", " ").split()
    bad = [tok for tok in tokens if not (tok.isascii() and tok.isdigit())]
    if bad:
        print(f"malformed --sizes: bad token {_shown(bad[0])}",
              file=sys.stderr)
        return EXIT_INPUT
    if not tokens:
        print("--sizes must list at least one size", file=sys.stderr)
        return EXIT_INPUT
    sizes = [int(tok) for tok in tokens]
    low = _BENCH_MIN_N[args.mode]
    if any(n < low for n in sizes):
        print(f"bench sizes must be at least {low} in {args.mode} mode",
              file=sys.stderr)
        return EXIT_INPUT
    # The family's list of n - 2 fours needs n to fit an index.
    if any(n > sys.maxsize for n in sizes):
        print(f"bench sizes must be at most {sys.maxsize}", file=sys.stderr)
        return EXIT_INPUT
    rows = []
    prev = None
    for n in sizes:
        d = DegreeSequence([4] * (n - 2) + [2, 2])
        t0 = time.perf_counter()
        result = realize_tc(d, args.mode)
        elapsed = time.perf_counter() - t0
        if not result.realizable:
            print("internal error: bench family not realizable",
                  file=sys.stderr)
            return EXIT_INTERNAL
        ratio = round(elapsed / prev, 3) if prev else None
        rows.append({"n": n, "seconds": round(elapsed, 4), "ratio": ratio})
        prev = elapsed
    if args.format == "json":
        print(json.dumps({"mode": args.mode, "runs": rows}))
    else:
        for row in rows:
            ratio = f"  x{row['ratio']}" if row["ratio"] else ""
            print(f"n={row['n']:>8}  {row['seconds']:.4f} s{ratio}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcreal",
        description=(
            "Temporally connected realizations of degree sequences: "
            "decide, construct, label, and verify."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: Sequence[str]) -> None:
        p.add_argument("--mode", choices=("simple", "multi"),
                       default="simple")
        p.add_argument("--format", choices=tuple(formats), default=formats[0])

    p = sub.add_parser("check", help="decide realizability")
    p.add_argument("sequence", nargs="*",
                   help="degrees (space/comma separated); stdin if omitted")
    add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("build", help="construct and label a realization")
    p.add_argument("sequence", nargs="*",
                   help="degrees (space/comma separated); stdin if omitted")
    add_common(p, ("json", "text", "dot"))
    p.add_argument("--out", metavar="PATH",
                   help="write the graph document here instead of stdout")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the self-verification pass")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="re-check an exported graph document")
    p.add_argument("graph_file", help="graph JSON file produced by build")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle",
                       help="cross-check decisions against the brute oracle")
    p.add_argument("--n", type=int, required=True,
                   help="sweep all sequences of length up to this cap")
    add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="wall-time scaling measurements")
    p.add_argument("--sizes", default="100000,200000,400000",
                   help="comma-separated vertex counts")
    add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must show here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone (``| head``).  Point stdout at devnull so the
        # flush at exit cannot fail again, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ValueError as exc:  # malformed sequences and similar input issues
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GraphError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
