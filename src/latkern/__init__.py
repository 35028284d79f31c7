"""latkern: exact causal factorization and feedback realization.

Transfer matrices over the rational subfield of K((z^-1)), K = Q, with
exact decision procedures for causality, latency kernels, causal and
static factorization, compensation equivalence, and (v, g) feedback
realizations of bicausal precompensators.
"""

from .rational import ORD_INF, Poly, RatFun, poly_gcd, poly_lcm
from .transfer import (CausalityReport, InternalCheckError,
                       SingularMatrixError, TransferMatrix)
from .properbasis import (OrderChain, ProperBasis, SmithAtInfinity,
                          column_reduce_at_infinity, order_chain,
                          smith_at_infinity)
from .latency import (ContainmentResult, EquivalenceResult,
                      KernelNotFinitelyGenerated, LatencyKernel,
                      compensation_equivalence, latency_kernel,
                      module_contains, strictly_polynomial_basis)
from .factor import FactorOutcome, causal_factor, constant_matrix, static_factor
from .polymatrix import (CoprimeFraction, hermite_gcrd, reachability_indices,
                         right_coprime_fraction)
from .feedback import (FeedbackRealization, PreconditionError, StateSpace,
                       StaticFeedbackResult, StaticStateFeedbackResult,
                       closed_loop, from_state_space, is_nonlatency_check,
                       static_feedback_realizable, static_state_feedback_test,
                       vg_representation, worst_case_precompensator)
from .simulate import SeriesMatrix, simulate_response
from .matrixio import (InputFormatError, dump_matrix, load_matrix,
                       matrix_from_json, matrix_to_json)

__version__ = "0.1.0"
