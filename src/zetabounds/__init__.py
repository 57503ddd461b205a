"""Explicit bounds for prime sums from finite zeta-zero data, with
brute-force sieve verification of every claim that can be checked at desk
scale.

Names resolve lazily (PEP 562): `import zetabounds` imports no submodule.
The first use of an exported name, as `zetabounds.find_zeros` or
`from zetabounds import find_zeros`, imports the one submodule that
defines it (`_EXPORTS`), and later uses read it directly.  So a process
pays only for the modules it uses: `from zetabounds import zeros` loads
`zeros`, `special` and `util`, and never the sieve or the verify suites.
"""

import importlib

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("ApproximantParams", "beurling_majorant", "glued_contour_weight",
         "l1_gap", "phi_hat", "phi_hat_lerch", "phi_weight",
         "truncated_exp"), "extremal"),
    **dict.fromkeys(
        ("BoundContext", "BoundReport", "CounterexampleSpec",
         "counterexample_mean", "explicit_formula_bound",
         "nontrivial_zero_sum", "perron_identity_check",
         "psi_concrete_bound", "trivial_zero_terms", "zero_sum_bound"),
        "formula"),
    **dict.fromkeys(
        ("ExtremaRecord", "SieveCheckpoint", "extrema_scan",
         "lambda_segment", "psi_checkpoints"), "sieve"),
    **dict.fromkeys(
        ("EvalWithError", "LaurentCoeffs", "badabook_f", "cot_stable",
         "coth_stable", "digamma", "ei_and_bound", "fejer",
         "laurent_coeffs_A", "lerch", "log_deriv_zeta", "zeta_em"),
        "special"),
    **dict.fromkeys(("PoleError", "PrecisionError"), "util"),
    **dict.fromkeys(
        ("WeightContext", "F_and_A", "constants_C", "omega_plus", "theta",
         "tremic_check", "weight_split_error", "weighted_inv_integral",
         "weighted_log_integral"), "weights"),
    **dict.fromkeys(
        ("MissedZeroError", "ZeroCountStats", "ZeroFileError", "ZeroList",
         "box_count_bound", "bundled_zeros", "count_and_Q", "find_zeros",
         "inverse_square_tail", "lehman_sum", "load_zeros",
         "local_log_deriv", "save_zeros"), "zeros"),
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())
