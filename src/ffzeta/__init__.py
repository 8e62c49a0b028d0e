"""Exact characteristic-p zeta and L-series data over F_r[T].

The package computes, in exact arithmetic, the objects attached to the
Dirichlet-series formalism of function fields: power sums and special
polynomials, coefficient families at the infinite place and at finite
primes, their Newton polygons and zero spectra with simplicity verdicts,
and Frobenius data / Euler products of rank-1 and rank-2 Drinfeld
modules, including the square-root complex-multiplication example.
"""

__version__ = "0.1.0"

from .ffpoly import (  # noqa: F401
    FiniteField,
    Poly,
    enumerate_monic,
    enumerate_monic_primes,
    is_irreducible,
    monic_by_index,
    monic_prime_count,
    poly_gcd,
    poly_parse,
    poly_xgcd,
    powmod,
)
from .nonarch import (  # noqa: F401
    LaurentSeries,
    PadicExponent,
    SvPoint,
    VadicElem,
    VadicRing,
    bracket_infty,
    pow_sv,
    unit_pow_padic,
)
from .zeta import (  # noqa: F401
    CoefficientFamily,
    SpecialPolynomial,
    coprime_power_sum,
    euler_removed_identity,
    interp_consistency,
    power_sum,
    power_sum_enumerated,
    special_polynomial,
    twist_identity_deg1,
    zeta_family_infty,
    zeta_family_vadic,
)
from .newton import (  # noqa: F401
    NewtonPolygon,
    RhVerdict,
    hensel_root,
    newton_polygon,
    rh_verdict,
    zero_spectrum,
)
from .drinfeld import (  # noqa: F401
    DirichletCoefficients,
    DrinfeldModule,
    FrobeniusData,
    SkewPoly,
    carlitz_module,
    frobenius_charpoly,
    lseries_coeffs,
    lseries_coeffs_by_expansion,
    lseries_special_coeffs,
    module_over_A,
    skew_tau,
)
from .cache import PowerSumCache  # noqa: F401
