"""Exact square/zero distance-pair statistics over finite fields.

The library computes the ordered-pair statistics SQ(A) (square distances)
and ZR(A) (zero distances) of point sets A in F_q^d two independent ways:
brute-force pair counting and exact spectral identities built from Gauss
sums and the Fourier transforms of the zero sphere and the cone.  Every
closed-form identity and inequality the pipeline relies on is checkable at
desk scale through the verification entry points and the CLI.
"""

__version__ = "0.1.0"

from .bounds import (BoundReport, CaseTag, bound_sq_even_dim,
                     bound_sq_even_generic, bound_sq_odd_dim,
                     bound_sq_plus_zr, case_tag, check_all,
                     is_square_distance_set, parity_case,
                     square_set_size_bound)
from .characters import (GaussSignPair, chi, gauss_closed, gauss_direct,
                         gauss_signs)
from .errors import FqdistError
from .field import FieldCtx, make_field
from .generators import (GenSpec, SearchResult,
                         exhaustive_square_distance_max, generate,
                         greedy_square_distance_search, product_lift)
from .geometry import (PointSet, distance_set, enumerate_cone,
                       enumerate_sphere_zero, norm, space_coords)
from .pairs import (PairCounts, cone_lift_check, count_pairs,
                    predict_from_spectrum, sq_zr_fourier_residual)
from .setfiles import read_pointset, write_pointset
from .spectral import (SpectralMass, cone_fourier_formula, dft_indicator,
                       kernels_for, spectral_masses_exact,
                       sphere0_fourier_formula, verify_counting_lemma,
                       zero_mass_bounds_check)

__all__ = [
    "BoundReport", "CaseTag", "FieldCtx", "FqdistError", "GaussSignPair",
    "GenSpec", "PairCounts", "PointSet", "SearchResult", "SpectralMass",
    "__version__", "bound_sq_even_dim", "bound_sq_even_generic",
    "bound_sq_odd_dim", "bound_sq_plus_zr", "case_tag", "check_all", "chi",
    "cone_fourier_formula", "cone_lift_check", "count_pairs",
    "dft_indicator", "distance_set", "enumerate_cone",
    "enumerate_sphere_zero", "exhaustive_square_distance_max",
    "gauss_closed", "gauss_direct", "gauss_signs", "generate",
    "greedy_square_distance_search", "is_square_distance_set",
    "kernels_for", "make_field", "norm", "parity_case",
    "predict_from_spectrum", "product_lift", "read_pointset",
    "space_coords", "spectral_masses_exact", "sphere0_fourier_formula",
    "sq_zr_fourier_residual", "square_set_size_bound",
    "verify_counting_lemma", "write_pointset", "zero_mass_bounds_check",
]
