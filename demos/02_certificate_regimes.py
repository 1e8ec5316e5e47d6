#!/usr/bin/env python3
"""Walkthrough: how the certificate shape tracks the edge count.

For a realizable sequence on n >= 3 vertices with m edges:

* m == 2n - 4  -> the two spanning trees must share exactly 2 edges,
                  and those edges sit on an induced central 4-cycle;
* m >= 2n - 3  -> one shared edge suffices;
* m >= 2(n-1) with min degree >= 2 -> the trees can be fully
                  edge-disjoint (0 shared edges).

Run:  python3 demos/02_certificate_regimes.py
"""

from tcreal import DegreeSequence, build_two_edst, realize_tc

REGIMES = [
    ("boundary m = 2n-4", [(2, 2, 2, 2), (3, 3, 2, 2, 2), tuple([3] * 8)]),
    ("one shared, m >= 2n-3",
     [(3, 3, 3, 3, 3, 3), (4, 3, 3, 3, 3, 3, 3), (5, 3, 3, 3, 3, 3, 3, 3)]),
    ("edge-disjoint, m >= 2(n-1)",
     [(3, 3, 3, 3), (4, 4, 4, 4, 4), (4, 4, 3, 3, 3, 3)]),
]


def main() -> None:
    for title, sequences in REGIMES:
        print(f"== {title} ==")
        for tup in sequences:
            d = DegreeSequence(tup)
            n, m = d.n, d.total // 2
            res = realize_tc(d, "simple")
            cert = res.graph.certificate_from_flags()
            line = (f"  {tuple(tup)!r}: n={n} m={m} "
                    f"shared={len(cert.shared)}")
            if cert.central_cycle is not None:
                line += f" central_cycle={cert.central_cycle}"
            print(line)
        print()

    # The edge-disjoint builder can be called directly when the surplus
    # condition holds; it guarantees zero shared edges.
    g = build_two_edst(DegreeSequence([4, 4, 3, 3, 3, 3]), "simple")
    cert = g.certificate_from_flags()
    assert len(cert.shared) == 0
    print("direct edge-disjoint build on (4,4,3,3,3,3): "
          f"{g.num_edges} edges, shared={len(cert.shared)}")


if __name__ == "__main__":
    main()
