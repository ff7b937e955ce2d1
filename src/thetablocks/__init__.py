"""Exact conformal-block dimensions, Verlinde-type formulas, conformal
embedding branching data, and symbolic free-fermion computations for the
affine odd orthogonal algebras."""

from .branching import (
    BranchingError,
    BranchTriple,
    EmbeddingParams,
    RankLevelReport,
    branch_pairs,
    is_conformal,
    ranklevel_example,
    ranklevel_report,
    sewing_exponent,
    trace_anomaly,
)
from .fusion import (
    FusionRing,
    FusionTable,
    LevelOneTable,
    fusion_multiplicity,
    tensor_multiplicity,
)
from .rootsys import (
    RankError,
    RootSystemB,
    Weight,
    dominant_conjugate_shifted,
    killing_form,
    orbit_size,
    root_system,
    weight_multiplicities,
    weyl_dim,
)
from .verlinde import (
    OxburyReport,
    PrecisionError,
    SMatrix,
    char_sign,
    dim_trig,
    n0_oxbury,
    oxbury_check,
    s_matrix,
    theta_counts,
    twisted_total,
)
from .weights import (
    SO,
    SO_PAIR,
    SPIN,
    SPIN_FIXED,
    SPIN_PAIR,
    LevelError,
    LevelWeight,
    YoungDiagram,
    complement,
    count_sigma_fixed,
    enumerate_level,
    sigma,
    sigma_orbit_class,
    star,
    transpose,
    weight_of_young,
    young_diagrams,
    young_of_weight,
)

__version__ = "0.1.0"
