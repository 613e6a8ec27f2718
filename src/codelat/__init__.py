"""Multilevel constellations and lattices from binary codes."""

from .gf2 import (
    BinaryCode,
    BitWord,
    EnumerationCapError,
    LengthMismatchError,
    enumerate_from_generator,
    is_nested,
    min_hamming_distance,
)
from .constructions import (
    CarryRecord,
    MainCode,
    PeriodicConstellation,
    antiprojection,
    associated_construction_c,
    construction_a,
    construction_c,
    construction_cstar,
    construction_d,
    product_main_code,
    projection_codes,
)
from .latticeness import (
    LatticenessReport,
    brute_closure_oracle,
    carry_terms,
    thm1_check,
    thm4_check,
    thm4_check_leech,
    thm5_check,
)
from .geometry import (
    DistanceSpectrum,
    distance_spectrum,
    dmin_formula_c,
    dmin_oracle,
    dmin_to_zero,
    dmin_to_zero_structured,
    dmin_upper_bound_antiprojection,
    eds_check,
    equi_min_distance_check,
    isometry_orbit_check,
)
from .packing import (
    PackingReport,
    log_unit_ball_volume,
    packing_report,
    packing_report_from_counts,
)
from .ensembles import (
    EnsembleConfig,
    binary_entropy,
    condition_checks,
    gvb_maximize,
    gvb_packing_efficiency,
    sample_main_code,
    scaled_point_density,
)
from . import catalog

__version__ = "0.1.0"
