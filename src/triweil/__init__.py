"""Exact binomial character sums over GF(3^n) and their verification toolkit."""

from .ff import FieldCtx, FieldError, build_field
from .weil import (
    CharSumValue,
    Spectrum,
    check_family,
    is_degenerate,
    power_moment,
    spectrum,
    weil_sum,
)
from .kernel_curve import (
    kernel_count_charsum,
    kernel_count_direct,
    kernel_report,
)
from .digits import (
    family_params,
    family_witness,
    stickelberger_bound,
    verify_divisibility,
)
from .motif_graph import bellman_ford, build_graph, graph_report, strong_components, trace_cycle
from .proof_lab import (
    check_minimizer_structure,
    derive_motifs,
    enumerate_sequences,
)

__version__ = "0.1.0"
