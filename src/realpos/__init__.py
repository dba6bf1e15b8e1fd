"""realpos: order theory for finite-dimensional operator algebras.

Cone membership with certificates, Cayley/F-transforms, principal fractional
powers of accretive matrices, support and peak projections, and closed-form
solvers for the Urysohn / peak-interpolation / domination / Tietze
theorems, plus a seeded verification harness.
"""
from .matrices import (
    DEFAULT_TOL,
    SingularMatrixError,
    Tolerances,
    herm_eig,
    matrix_from_json,
    matrix_to_json,
    min_real_eig,
    op_norm,
    solve,
)
from .algebra import (
    MatrixAlgebra,
    a_h,
    amplify,
    contains,
    cstar,
    generate_algebra,
    identity_of,
    unitize,
)
from .cones import (
    ConeReport,
    NumericalRange,
    c_certificate,
    cone_report,
    f_membership,
    is_accretive,
    is_strictly_real_positive,
    numerical_range,
    sector_angle,
)
from .transforms import cayley, f_inverse, f_transform
from .powers import (
    DefectiveMatrixError,
    NotAccretiveError,
    PowerResult,
    disk_order_check,
    power,
    power_all,
    power_balakrishnan,
    power_spectral,
    rescaled_root_check,
    root_monotonicity_report,
    root_series,
)
from .projections import (
    ProjectionResult,
    hsa_and_ideal,
    is_peak_for,
    join,
    join_all,
    meet,
    peak_projection,
    support_projection,
    vav_identity_check,
)
from .interp import (
    ConvexRegion,
    VerificationFailedError,
    decompose,
    dominate,
    interp_np,
    peak_interpolate,
    strict_urysohn,
    tietze_lift,
    urysohn_interpolate,
)
from .generators import (
    gen_accretive,
    gen_algebra,
    gen_half_f,
    gen_peaked_half_f,
    gen_sectorial,
    gen_unitary,
)
from .suites import SuiteReport, run_suite, suite_names

__version__ = "0.1.0"
