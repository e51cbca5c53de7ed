"""Exact computations in quiver Hecke algebras: PBW rewriting, nil Hecke
divided powers, adjoint-functor complexes with graded cohomology, and a
quantum-group bilinear-form oracle."""

from .qring import (DegreeWindow, LaurentPoly, RatFunc, quantum_factorial,
                    quantum_integer, series_window, sigma, zeta)
from .rootdata import (CartanDatum, CartanValidationError, RootVector,
                       height, pairing, reflect, sequences)
from .polycalc import (Perm, Poly, act, canonical_word, demazure,
                       demazure_seq, longest_word, perm_of_word)
from .nilhecke import nh_act
from .klr import (KLRContext, KLRElement, diamond, graded_basis,
                  idempotent_e_klr, klr_generator, klr_multiply,
                  klr_multiply_many, relation_residues, rev, tau_word_degree)
from .adjoint import (CyclicProjective, DimTable, GradedDimTable, ProjComplex,
                      build_ad_complex, build_divided_complex,
                      cohomology_dims, dims_E_word, grk_ad_divided_Ej,
                      induced_graded_dim, is_quotient_zero,
                      mackey_shadow_check, nderivation_check, product_dims,
                      serre_exactness_check, ses_identity_check,
                      underlying_degree)
from .uplus import (GramCache, WordVector, ad_e, ad_e_divided,
                    higher_serre_check, is_zero_mod_serre,
                    k0_isometry_calibrate, pair, uplusi_member)

__all__ = [name for name in dir() if not name.startswith("_")]
