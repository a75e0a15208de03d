"""Three-term arithmetic progressions in Lucas sequences.

Exact enumeration, completeness certification for the dominant-root case,
symbolic small-index case analysis, trinomial factor classification, and
the classification tables, all in integer/surd arithmetic.
"""

import importlib

__version__ = "0.1.0"

# Each public name under the submodule that defines it.  `import lucasaps`
# loads none of them: a name imports its module on first use (PEP 562).
_EXPORTS = {
    "core": (
        "CertificateFailureError", "Classification", "DegenerateError", "Kind", "SeqParams",
        "Surd", "ZeroCoefficientError", "classify", "new_params", "terms",
    ),
    "apsearch": ("APFamily", "APTriple", "detect_families", "find_aps", "is_ap", "verify_family"),
    "certify": (
        "CompletenessCertificate", "EnumerationResult", "GapPattern",
        "certified_enumerate", "check_certificate", "growth_exception", "pattern_bound",
    ),
    "smallcase": ("DomainFilter", "SolutionSet", "solve_all"),
    "special": ("sunit_constant",),
    "tables": ("infinite_family_pairs", "verify_tables"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
