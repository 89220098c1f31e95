"""Truncated dilation models on noncommutative polynomial domains.

Layers:

* :mod:`ncdomains.words`   -- free-semigroup words, graded-lex order
* :mod:`ncdomains.domain`  -- positive regular polynomials, inverse-series
  weights, the weighted left creation operators as weighted shifts
  (:func:`weighted_creation`), domain membership and purity
* :mod:`ncdomains.poisson` -- defect operators and Poisson kernels
* :mod:`ncdomains.colligation` -- structural isometries and their unitary
  completions
* :mod:`ncdomains.transfer` -- transfer functions as coefficient tables,
  their closed-form realization, dilation identities
* :mod:`ncdomains.variety` -- constrained (polynomially cut) model spaces
* :mod:`ncdomains.harness` -- commuting pairs, two-tuple dilations, and the
  inequality battery (one k x k polynomial type, one norm / lambda_max check)
* :mod:`ncdomains.parallel` -- the battery's pairs in forked worker processes
  (imported by ``run_battery`` only)
"""

from .domain import (OperatorTuple, RegularPolynomial, WeightedShift,
                     apply_phi, b_coefficients, domain_membership,
                     phi_identity_power, shift_word, weighted_creation)
from .colligation import (Colligation, IntertwiningTriple, PartialIsometry,
                          build_isometry, complete_to_unitary, series_oracle)
from .harness import (BiPolynomial, CommutingPair, PairDilation, ando_dilation,
                      builtin_bipolynomials, builtin_hermitian,
                      builtin_matrix_polys, builtin_polys, grid_sup_norm,
                      random_commuting_pair, run_battery, verify_inequality)
from .poisson import DefectData, PoissonKernel, defect, poisson_kernel, \
    verify_kernel_identities
from .report import CheckRecord, VerificationReport, parse_report
from .transfer import (TransferFunction, dilation_identity_report, eval_transfer,
                       fourier_roundtrip_residual, realization)
from .variety import (VarietyModel, build_variety, commutator_generators,
                      constrained_poisson, minpoly_generator,
                      verify_constrained_kernel)
from .words import EMPTY, Word, WordTable, enumerate_words, words_of_lengths

__version__ = "0.1.0"
