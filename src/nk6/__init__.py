"""Computational geometry engine for Lagrangian submanifolds of the nearly
Kahler unit six-sphere: octonionic structure tensors, submanifold invariants
for explicit immersions, and numerical certification of the Simons-type
integral inequality together with its equality cases.
"""

from .canonical import (
    CanonicalData,
    ClosedForms,
    ReconstructionError,
    canonical_basis,
    closed_forms,
    commutator_invariant_direct,
    cubic_form,
    maximize_theta,
    reconstruct_sff,
)
from .cayley import (
    MulTable,
    TableError,
    almost_complex,
    cayley_dickson_table,
    cross,
    g_tensor,
    g_tensor_fd,
    lagrangian_frame,
    load_table,
    verify_nk_identities,
)
from .geometry import (
    ChartDegeneracyError,
    CurvaturePacket,
    FramePacket,
    ImmersionJet,
    NablaH,
    SFF,
    curvature,
    curvature_from_sff,
    fd_jet,
    frame,
    laplace_beltrami,
    nabla_h,
    second_fundamental_form,
    sectional_curvature,
    shape_operator,
)
from .models import (
    BergerSpec,
    HopfChart,
    PolynomialSphereImmersion,
    SyntheticH,
    berger_curvature,
    default_table,
    dvv_immersion,
    load_polynomial_immersion,
    resolve_model,
    synthetic_case,
    totally_geodesic_immersion,
)
from .simons import (
    InequalityReport,
    LaplacianIdentityReport,
    QuadratureRule,
    ResolutionError,
    TTensorPacket,
    f_tensor,
    integrate_inequality,
    j_parallel_defect,
    laplacian_identity_check,
    t_tensor,
)

__version__ = "0.1.0"
