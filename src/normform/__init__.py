"""Order arithmetic, constraint lattices, local densities and desk-scale
prime-count experiments for incomplete norm forms."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BadPrime,
    BudgetExceeded,
    DegenerateDegree,
    DegeneratePair,
    DependentRows,
    FactorizationBudget,
    NonMonic,
    NormformError,
    NotSquarefree,
    RankTooLarge,
    ReducibleDetected,
    ZeroVector,
    ZeroWedge,
)
from .fields import (  # noqa: F401
    FieldSpec,
    constraint_rows,
    diamond,
    make_context,
    mul_matrix,
    norm,
    norm_form,
    norm_form_polynomial,
)
from .lattices import (  # noqa: F401
    IntLattice,
    WedgeVec,
    det_squared_formula,
    lambda_pair,
    lambda_v,
    lattice_det_sq,
    reduced_basis,
    wedge,
    wedge_pair,
)
from .intlinalg import gram_det, kernel_oracle  # noqa: F401
from .geometry import AxisBox, LinearRegion, points_in_region  # noqa: F401
from .census import CensusReport, fp_wedge_census, fp_wedge_census_report, skew_census  # noqa: F401
from .localdata import (  # noqa: F401
    IdealSym,
    PrimeIdeal,
    gamma_estimate,
    ideal_count,
    nu_brute,
    nu_fast,
    prime_ideals_above,
    rho,
)
from .series import (  # noqa: F401
    SeriesEstimate,
    sieve_sum,
    singular_series,
    singular_series_tilde,
)
from .buchstab import buchstab_residual, buchstab_report  # noqa: F401
from .integrals import PolytopeSpec, polytope_integral  # noqa: F401
from .experiments import (  # noqa: F401
    ExperimentConfig,
    RunReport,
    divisor_sum_check,
    observed_prime_count,
    predicted_main_term,
    theorem_check,
    typei_discrepancy,
    typeii_density_check,
)
