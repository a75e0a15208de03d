"""Three-term arithmetic progressions in Lucas sequences.

Exact enumeration, completeness certification for the dominant-root case,
symbolic small-index case analysis, trinomial factor classification, and
the classification tables, all in integer/surd arithmetic.
"""

__version__ = "0.1.0"

from .core import (
    Classification,
    DegenerateError,
    Kind,
    SeqParams,
    Surd,
    ZeroCoefficientError,
    alpha_beta,
    classify,
    closed_form_check,
    new_params,
    surd_cmp_abs,
    term,
    terms,
)
from .apsearch import (
    APFamily,
    APTriple,
    CertificateFailureError,
    detect_families,
    find_aps,
    is_ap,
    verify_family,
)
from .certify import (
    CompletenessCertificate,
    EnumerationResult,
    GapPattern,
    certified_enumerate,
    check_certificate,
    growth_exception,
    pattern_bound,
)
from .smallcase import DomainFilter, SolutionSet, solve_all
from .special import sunit_constant
from .tables import infinite_family_pairs, verify_tables

__all__ = [
    "__version__",
    "APFamily",
    "APTriple",
    "CertificateFailureError",
    "Classification",
    "CompletenessCertificate",
    "DegenerateError",
    "DomainFilter",
    "EnumerationResult",
    "GapPattern",
    "Kind",
    "SeqParams",
    "SolutionSet",
    "Surd",
    "ZeroCoefficientError",
    "alpha_beta",
    "certified_enumerate",
    "check_certificate",
    "classify",
    "closed_form_check",
    "detect_families",
    "find_aps",
    "growth_exception",
    "infinite_family_pairs",
    "is_ap",
    "new_params",
    "pattern_bound",
    "solve_all",
    "sunit_constant",
    "surd_cmp_abs",
    "term",
    "terms",
    "verify_family",
    "verify_tables",
]
