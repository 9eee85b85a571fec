"""Exact fusion rules and diamond-lemma checks for universal cosovereign
Hopf algebras."""

from .scalars import ParseError, Poly, RatFunc, format_scalar, parse_scalar, q
from .matrices import (ExactMatrix, NonSquareError, SingularMatrixError,
                       determinant, format_matrix, hopf_isomorphic,
                       hopf_isomorphism_witness, invariant_factors, inverse,
                       is_generic, is_normalizable, is_normalized, load_matrix,
                       parse_matrix, similar, trace)
from .words import (FusionElement, bar, dim, dim_element, dual, fuse,
                    fusion_table, odot, parse_word, summands, word_str,
                    words_up_to)
from .repring import (RepElement, alt_dim, check_alt_word, clebsch_gordan,
                      multiply, parse_alt_word, psi, psi_word,
                      render_alt_word, so3_fuse)
from .rewriting import (Alphabet, Ambiguity, EnumerationBound, NCPolynomial,
                        RewriteSystem, Rule, RuleOrderError, check_morphism,
                        confluent, find_ambiguities, is_free_family, orient,
                        parse_presentation, reduce, reduced_monomials,
                        resolve)
from .presentations import (AAUT_MAX_N, AautRelations, build_aaut,
                            build_freeprod, build_hef, build_hplusq, build_hq,
                            build_slq2, matrix_fq, standard_pi_images,
                            trace_conditions, verify_pi)

__version__ = "0.1.0"
