"""Ihara zeta and xi functions of finite connected regular multigraphs,
with Ramanujan-property certification by three cross-validated h_k routes."""

__version__ = "0.1.0"

from .analysis import (EigenvalueEstimate, EstimatorNotApplicable,
                       EstimatorSignMismatch, HasseWeilReport,
                       RamanujanVerdict, estimate_max_eigenvalue,
                       even_k_bound, hasse_weil_check, hk_upper_check,
                       multiset_bound, ramanujan_hk, ramanujan_spectral)
from .census import (CycleCensus, build_census, closed_walk_counts,
                     geodesic_cycles_bruteforce, geodesic_cycles_operator,
                     nk_from_ck, nk_from_spectrum, nonbacktracking_matrix)
from .graphs import (GraphProfile, Multigraph, OrientedEdge, adjacency_matrix,
                     build_graph, generate, parse_generator, profile,
                     read_edge_list, write_edge_list)
from .hk import HkSequence, chebyshev_T, hk_from_ck, hk_nonneg, hk_spectral
from .report import AnalysisConfig, analyze, report_to_json
from .spectral import (NontrivialSpectrum, Spectrum, eigenvalues_symmetric,
                       nontrivial_spectrum, scaled_spectrum)
from .zetaxi import (RationalFunction, RealPolynomial,
                     functional_equation_residual, hk_series, log_series,
                     log_series_zeta_check, xi_from_zeta, xi_rational,
                     zeta_inverse)

__all__ = [name for name in dir() if not name.startswith("_")]
