#!/usr/bin/env python3
"""Walkthrough: decide realizability, build a labeled graph, verify it.

A degree sequence is "temporally realizable" here if some graph with
those degrees admits an edge labeling that is simple (one label per
edge), proper (no two adjacent edges share a label), and temporally
connected (every ordered vertex pair is linked by a journey with
strictly increasing labels).

Run:  python3 demos/01_decide_and_build.py
"""

from tcreal import (
    DegreeSequence,
    check_tc_realizable,
    is_proper,
    is_simple,
    is_tc,
    realize_tc,
    validate_certificate,
)

EXAMPLES = [
    ([3, 3, 3, 3], "simple"),        # K4: two edge-disjoint spanning trees
    ([3, 3, 3, 3, 3, 3], "simple"),  # one shared edge between the trees
    ([2, 2, 2, 2], "simple"),        # boundary case: central 4-cycle
    ([4, 2, 2, 2, 2], "simple"),     # NOT realizable with simple graphs...
    ([4, 2, 2, 2, 2], "multi"),      # ...but realizable with multigraphs
    ([2, 2, 1, 1, 1, 1], "simple"),  # too few edges: never realizable
]


def main() -> None:
    for values, mode in EXAMPLES:
        d = DegreeSequence(values)
        decision = check_tc_realizable(d, mode)
        print(f"{values!r} [{mode}]: realizable={decision.realizable} "
              f"({decision.reason.value})")
        if not decision.realizable:
            continue

        result = realize_tc(d, mode)
        g, lab = result.graph, result.labeling
        cert = g.certificate_from_flags()
        print(f"  built {g.n} vertices, {g.num_edges} edges, "
              f"max label {lab.max_label} (bound m+2 = {g.num_edges + 2})")
        print(f"  certificate: |T1|={len(cert.tree1)} |T2|={len(cert.tree2)} "
              f"shared={sorted(cert.shared)}")
        for e in sorted(g.edge_ids()):
            u, v = g.endpoints(e)
            print(f"    edge {e}: {u}-{v}  label={g.elabel[e]}")

        assert is_simple(g) and is_proper(g) and is_tc(g)
        assert validate_certificate(g, cert)
        print("  verified: simple, proper, temporally connected\n")


if __name__ == "__main__":
    main()
