"""Exact computation with p-adic oscillatory integrals.

Exponential sums E_A(z, f), Newton-polyhedron decay exponents, Fourier
transforms of hypersurface measures, and the closed-form solution of the
wave-type pseudo-differential equation over Q_p, all at exact desk scale.
"""

from .errors import (
    CertificateIndeterminate,
    CertificateUnavailableError,
    DegenerateInputError,
    DomainError,
    PolynomialSyntaxError,
    ResourceCapError,
)
from .expsums import (
    DecayFit,
    ExpSumResult,
    StationaryCertificate,
    character_sum,
    decay_fit,
    exp_sum,
    residue_histogram,
    stationary_certificate,
)
from .newton import (
    Facet,
    NewtonPolyhedron,
    QuasiHomogeneityWitness,
    beta_and_t0,
    face_polynomials,
    newton_facets,
    nondegeneracy_mod_p,
    quasi_homogeneous_detect,
    support,
)
from .padic import (
    Ball,
    DEFAULT_ENUMERATION_CAP,
    RootOfUnity,
    character,
)
from .polynomials import SparsePolynomial, parse_polynomial
from .schwartz import (
    ModulatedSBFn,
    SchwartzBruhatFn,
    fourier_sb,
    inverse_fourier_sb,
    l2_norm,
    lp_norm,
    sb_allclose,
)
from .surface import (
    GraphHypersurface,
    SurfaceDecayTable,
    decay_table,
    ray_values,
    restriction_ratio,
    surface_ft,
    zeta_kernel,
    zeta_kernel_numeric,
)
from .wave import (
    SolutionSpec,
    StrichartzReport,
    solution_grid,
    solve_u,
    strichartz_report,
    strichartz_truncated,
    windowed_spectrum,
)

__version__ = "0.1.0"
