"""Exact difference-algebraic cohomology: H^1_sigma(A/k, G) and torsors.

The package computes with concrete difference fields, sigma-algebras in
three computable kinds, cocycles of the classified group families, and
both directions of the torsor <-> cocycle bijection, entirely in exact
arithmetic.  See the README for the CLI and the module map.
"""

from .fields import (FieldElement, FieldError, SigmaField, field_arith,
                     in_sigma_image, is_square, make_field, sigma_apply)
from .sigma_poly import (MultiplicativeFunction, SigmaPolynomial, mult_eval,
                         parse_multiplicative, parse_sigma_polynomial,
                         poly_arith, poly_eval, poly_shift)
from .algebras import (AlgebraError, AlgebraMorphism, AlgElement, DescentDatum,
                       FreePolyAlgebra, LaurentAlgebra, SigmaAlgebra,
                       TableAlgebra, TensorAlgebra, TensorContext,
                       amitsur_audit, canonical_descent_datum, change_basis,
                       descend_invariants, direct_sum, make_cyclic_group_algebra,
                       make_findim, make_mu_algebra, make_split_algebra,
                       make_truncated_algebra, mu_twisted_datum, scalar_algebra)
from .operators import (DifferenceOperator, OperatorError, classify_additive_h1,
                        op_apply, solve_additive, solve_additive_full,
                        solve_sigma_quotient)
from .groups import (AdditiveKernel, BudgetExceeded, DiagonalMult,
                     FrobeniusTwist, GroupError, GroupPresentation,
                     MatrixGroup, ProductGroup, ScalarTorus, contains,
                     enumerate_points, group_identity, group_inv, group_mul,
                     kernel_of_sigma_power, mu2sigma_group)
from .cocycles import (Cocycle, CocycleError, additive_invariant, coboundary,
                       enumerate_cocycles, equivalent, invariant, is_cocycle,
                       make_cocycle, mu_invariant, product_merge, product_split,
                       pushforward_algebra, pushforward_group)
from .torsors import (AdditiveTorsor, DiagonalTorsor, FrobeniusTwistTorsor,
                      MuTorsor, TorsorError, TorsorPresentation, TwistedForm,
                      additive_torsor_algebra, classify_h1, cocycle_from_point,
                      connecting_delta, exactness_audit, isomorphic, is_point,
                      mu_pair_space, normalize, torsor_from_cocycle,
                      torsor_points)
from .outcome import Outcome

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
