"""tcreal: temporally connected realizations of degree sequences.

Decide whether a degree sequence admits a temporally connected
realization (simple graph or multigraph), construct one together with a
structural certificate (two spanning trees sharing at most one edge, or
a central-4-cycle pivotable structure), label it properly, and verify
everything against independent brute-force oracles.
"""

from .degseq import (
    DegreeSequence,
    debug_asserts_enabled,
    set_debug_asserts,
    is_graphical,
    is_multigraphical,
    lay_off_graphical,
    parse_sequence,
)
from .graphstore import (
    FLAG_NONE,
    FLAG_T1,
    FLAG_T2,
    FLAG_BOTH,
    Certificate,
    GraphError,
    LabeledMultigraph,
)
from .labeling import TemporalLabeling, pivot_label
from .realize import (
    Decision,
    RealizeResult,
    Reason,
    build_c4_pivotable,
    build_one_shared,
    build_two_edst,
    check_tc_realizable,
    realize_nonstrict,
    realize_tc,
)
from .verify import (
    OracleCapError,
    certificate_violation,
    earliest_arrival,
    enumerate_sequences,
    is_proper,
    is_simple,
    is_tc,
    oracle_tc_realizable_sequence,
    properness_violation,
    simplicity_violation,
    tc_violation,
    validate_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # degseq
    "DegreeSequence",
    "debug_asserts_enabled",
    "set_debug_asserts",
    "is_graphical",
    "is_multigraphical",
    "lay_off_graphical",
    "parse_sequence",
    # graphstore
    "FLAG_NONE",
    "FLAG_T1",
    "FLAG_T2",
    "FLAG_BOTH",
    "Certificate",
    "GraphError",
    "LabeledMultigraph",
    # labeling
    "TemporalLabeling",
    "pivot_label",
    # realize
    "Decision",
    "RealizeResult",
    "Reason",
    "build_c4_pivotable",
    "build_one_shared",
    "build_two_edst",
    "check_tc_realizable",
    "realize_nonstrict",
    "realize_tc",
    # verify
    "OracleCapError",
    "certificate_violation",
    "earliest_arrival",
    "enumerate_sequences",
    "is_proper",
    "is_simple",
    "is_tc",
    "oracle_tc_realizable_sequence",
    "properness_violation",
    "simplicity_violation",
    "tc_violation",
    "validate_certificate",
]
