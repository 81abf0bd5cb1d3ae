"""Zero-curvature-plane certification for a one-parameter family of points
in a two-sided quotient of the 3x3 unit-symplectic group.

The library verifies, both by an algebraic endpoint pipeline and by an
independent residual search, that no plane through a point p(theta) with
theta in (0, pi/6) has vanishing curvature for the deformed quotient metric.
"""

from .certify import (
    Certificate,
    SearchReport,
    bracket_bounds,
    build_linear_system,
    certify_theta,
    kernel_reference,
    kernel_solutions,
    scan,
    search_zero_plane,
    sign_certificate,
)
from .embeddings import (
    adp_h1_basis,
    h1_basis,
    h2_basis,
    phi3_alg,
    point_p,
    rho_rank,
)
from .liealg import (
    adjoint,
    bracket,
    g0_inner,
    split_kp,
    sp2_project,
)
from .zeroplane import (
    conditionA_residual,
    conditionB_residual,
    conditionC_residual,
    lemma_equations_residuals,
    normal_form_reduce,
    vw_vectors,
)

__version__ = "0.1.0"
