"""Ihara zeta and xi functions of finite connected regular multigraphs,
with Ramanujan-property certification by three cross-validated h_k routes."""

__version__ = "0.1.0"

from .analysis import (EstimatorNotApplicable, EstimatorSignMismatch,
                       estimate_max_eigenvalue, even_k_bound, even_k_bounds,
                       hasse_weil_check, hk_upper_check, multiset_bound,
                       ramanujan_hk, ramanujan_spectral)
from .census import (CycleCensus, build_census, characteristic_polynomial,
                     closed_walk_counts, geodesic_cycles_bruteforce,
                     geodesic_cycles_operator, nk_from_ck,
                     nonbacktracking_matrix)
from .graphs import (GraphProfile, Multigraph, OrientedEdge, adjacency_matrix,
                     build_graph, generate, parse_generator, profile,
                     read_edge_list, write_edge_list)
from .hk import (chebyshev_T, hk_excess, hk_from_ck, hk_spectral,
                 hk_spectral_budget)
from .report import analyze, report_to_json
from .spectral import (NontrivialSpectrum, eigenvalues_symmetric,
                       nontrivial_spectrum, scaled_spectrum)
from .zetaxi import (Factors, PoleHit, RationalFunction, bass_determinant,
                     functional_equation_residual, hk_series,
                     log_series_zeta_check, relative_gap, xi_rational,
                     zeta_inverse)

__all__ = [name for name in dir() if not name.startswith("_")]
