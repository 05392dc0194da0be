"""Exact-arithmetic toolkit for sign-sum tail inequalities.

For a coefficient vector a and independent uniform signs, every statement
handled here (tail probabilities against ||a||, the dominance order on
sign vectors, the subset-count reformulation, extremal searches) is
decided in exact integer or rational arithmetic; no floating point is
used anywhere.
"""

from .core import (
    CoeffVec,
    DyadicProb,
    SignAssignment,
    canonicalize,
    parse_vector,
    sign_sum,
)
from .counting import (
    ONE_SIDED,
    TWO_SIDED,
    SumDistribution,
    TailCounts,
    distribution,
    tail_count_engine,
    tail_counts,
    tail_counts_gf,
    tail_counts_mitm,
    tail_counts_threshold,
)
from .dominance import (
    case_lemma_7,
    dominates,
    pair_lemma_select,
    upward_closure,
    verify_order_rules,
    vsd_count_lower_bound,
    vsd_membership_quadratic,
)
from .conjectures import (
    CheckReport,
    check_delta_alt,
    check_delta_inequality,
    check_gprime,
    check_hk_bound,
    check_pairing,
    check_symmetric_tails,
    check_tomaszewski,
    classify_A_or_B,
    combinatorial_fraction,
    combinatorial_fraction_gray,
    delta_sweep,
)
from .search import (
    SearchRecord,
    SearchTarget,
    exhaustive_integer_search,
    hunt,
    local_descent,
    random_search,
)
from .verify import verify_paper
from . import errors

__all__ = [
    "CoeffVec", "DyadicProb", "SignAssignment", "canonicalize",
    "parse_vector", "sign_sum",
    "ONE_SIDED", "TWO_SIDED", "SumDistribution", "TailCounts",
    "distribution", "tail_count_engine", "tail_counts", "tail_counts_gf",
    "tail_counts_mitm", "tail_counts_threshold",
    "case_lemma_7", "dominates", "pair_lemma_select", "upward_closure",
    "verify_order_rules", "vsd_count_lower_bound", "vsd_membership_quadratic",
    "CheckReport", "check_delta_alt", "check_delta_inequality",
    "check_gprime", "check_hk_bound", "check_pairing",
    "check_symmetric_tails", "check_tomaszewski", "classify_A_or_B",
    "combinatorial_fraction", "combinatorial_fraction_gray", "delta_sweep",
    "SearchRecord", "SearchTarget", "exhaustive_integer_search", "hunt",
    "local_descent", "random_search",
    "verify_paper",
    "errors",
]
