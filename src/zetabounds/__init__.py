"""Explicit bounds for prime sums from finite zeta-zero data, with
brute-force sieve verification of every claim that can be checked at desk
scale."""

from .extremal import (ApproximantParams, beurling_majorant,
                       glued_contour_weight, l1_gap, phi_hat, phi_hat_lerch,
                       phi_weight, truncated_exp)
from .formula import (BoundContext, BoundReport, CounterexampleSpec,
                      counterexample_mean, explicit_formula_bound,
                      nontrivial_zero_sum, perron_identity_check,
                      psi_concrete_bound, trivial_zero_terms, zero_sum_bound)
from .sieve import (ExtremaRecord, SieveCheckpoint, extrema_scan,
                    lambda_segment, psi_checkpoints)
from .special import (EvalWithError, LaurentCoeffs, badabook_f, cot_stable,
                      coth_stable, digamma, ei_and_bound, fejer,
                      laurent_coeffs_A, lerch, log_deriv_zeta, zeta_em)
from .util import PoleError, PrecisionError
from .weights import (WeightContext, F_and_A, constants_C, omega_plus,
                      theta, tremic_check, weight_split_error,
                      weighted_inv_integral, weighted_log_integral)
from .zeros import (MissedZeroError, ZeroCountStats, ZeroFileError,
                    ZeroList, box_count_bound, bundled_zeros, count_and_Q,
                    find_zeros, inverse_square_tail, lehman_sum,
                    load_zeros, local_log_deriv, save_zeros)

__version__ = "0.1.0"
