"""Newton polygons, zero spectra, simplicity verdicts, and root refinement.

A polygon is the lower convex hull of (d, valuation of coefficient of
x^(-d)).  Three kinds of points enter:

* finite points -- the valuation is known exactly;
* known zeros -- the coefficient is exactly zero (infinite valuation);
  they are ignored, they can never support the lower hull;
* lower bounds -- the coefficient vanishes *to the working precision*
  only, so its valuation is only known to be >= some bound B.

``polygon_of`` is the one place that sorts coefficients into these
kinds.  The caller gives the valuation rule for exact coefficients
(``minus_degree`` at infinity); Laurent windows and elements of A/(f^M)
carry their own ``valuation`` and ``prec``.

Lower-bound points never produce hull vertices (a false vertex would
fabricate zeroes).  The hull is taken over the *window* spanned by the
finite points.  Bound points beyond the last finite abscissa shrink the
window, exactly as the dmax cutoff of an entire series does: for these
families coefficient valuations grow without bound, so the tail always
leaves the working precision eventually, and the reported spectrum is
the spectrum of the visible window.  The polygon is *provisional* when
the window itself is not trustworthy: a bound point before the first
finite point (unseen small-valuation zeroes), or one strictly inside
the window whose bound dips below the hull there (a finite valuation
>= B at that abscissa would reshape segments the report does claim).

Segment slopes are exact rationals.  A segment of slope s and horizontal
length l stands for l reciprocal zeroes (roots in the variable x^(-1))
of valuation -s, i.e. of absolute value r^s (the degree of the infinite
place is 1 throughout); absolute values are reported as the exponent s,
never as floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    AllCoefficientsVanish,
    DerivativeVanishesToPrecision,
    InsufficientPadicPrecision,
    NonConvergence,
    PreconditionViolated,
)
from .nonarch import LaurentSeries
from .zeta import CoefficientFamily, SpecialPolynomial


@dataclass(frozen=True)
class Segment:
    slope: Fraction
    length: int
    d_start: int
    d_end: int

    @property
    def zero_valuation(self) -> Fraction:
        """Valuation of the corresponding reciprocal zeroes."""
        return -self.slope

    @property
    def abs_value_exponent(self) -> Fraction:
        """|zero| = r ** this exponent."""
        return self.slope


class NewtonPolygon:
    """Lower hull data of one coefficient family."""

    def __init__(self, finite: Sequence[tuple[int, int]],
                 bounds: Sequence[tuple[int, int]] = (),
                 exact_zeros: Sequence[int] = ()):
        self.finite = sorted(finite)
        self.bounds = sorted(bounds)
        self.exact_zeros = sorted(exact_zeros)
        if not self.finite:
            raise AllCoefficientsVanish(
                "no coefficient is nonzero within the working precision")
        self.vertices = _lower_hull(self.finite)
        self._assert_convex()
        self.provisional = self._assess_bounds()

    def _assert_convex(self):
        segs = list(zip(self.vertices, self.vertices[1:]))
        for (a, b), (c, d_) in zip(segs, segs[1:]):
            if (b[1] - a[1]) * (d_[0] - c[0]) >= (d_[1] - c[1]) * (b[0] - a[0]):
                raise AssertionError("hull slopes fail to strictly increase")

    def _assess_bounds(self) -> bool:
        first_d = self.finite[0][0]
        last_d = self.finite[-1][0]
        for d, b in self.bounds:
            if d < first_d:
                return True
            if first_d < d < last_d and _below_hull(self.vertices, d, b):
                return True
        return False

    @property
    def segments(self) -> list[Segment]:
        out = []
        for (d1, v1), (d2, v2) in zip(self.vertices, self.vertices[1:]):
            out.append(Segment(Fraction(v2 - v1, d2 - d1), d2 - d1, d1, d2))
        return out

    def __repr__(self):
        vs = ", ".join(f"({d},{v})" for d, v in self.vertices)
        flag = " provisional" if self.provisional else ""
        return f"NewtonPolygon[{vs}]{flag}"


def _lower_hull(points):
    # points are sorted with pairwise-distinct abscissas
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2 and not _strictly_convex(hull[-2], hull[-1], pt):
            hull.pop()
        hull.append(pt)
    return hull


def _strictly_convex(o, a, b):
    # slope(o,a) < slope(a,b)
    return (a[1] - o[1]) * (b[0] - a[0]) < (b[1] - a[1]) * (a[0] - o[0])


def _below_hull(vertices, d: int, b: int) -> bool:
    """Whether valuation b at abscissa d lies strictly below the hull."""
    for (d1, v1), (d2, v2) in zip(vertices, vertices[1:]):
        if d1 <= d <= d2:
            return (b - v1) * (d2 - d1) < (v2 - v1) * (d - d1)
    return False


def polygon_of(coeffs: Sequence, valuation=None) -> NewtonPolygon:
    """The polygon of a coefficient list; the one place points are sorted
    into finite points, lower bounds and known zeros.

    With a ``valuation`` rule the coefficients are exact, and None from
    the rule marks a known zero.  Without one they are truncated (Laurent
    windows, elements of A/(f^M)): their own ``valuation`` is used, and
    None marks a zero to precision, bounded below by ``prec``.
    """
    finite, bounds, zeros = [], [], []
    for d, c in enumerate(coeffs):
        v = c.valuation if valuation is None else valuation(c)
        if v is not None:
            finite.append((d, v))
        elif valuation is None:
            bounds.append((d, c.prec))
        else:
            zeros.append(d)
    return NewtonPolygon(finite, bounds, zeros)


def minus_degree(c) -> int | None:
    """Valuation at infinity of an exact polynomial; None for zero."""
    return None if c.is_zero() else -int(c.degree)


def newton_polygon(source) -> NewtonPolygon:
    """Polygon of a coefficient family or special polynomial.

    Valuation rules by source: minus the degree for exact polynomial
    coefficients at infinity; pi-order for Laurent windows; f-order for
    elements of A/(f^M).
    """
    if isinstance(source, SpecialPolynomial):
        return polygon_of(source.coeffs, minus_degree)
    if isinstance(source, CoefficientFamily):
        return polygon_of(source.coeffs)
    raise TypeError("newton_polygon needs a family or special polynomial")


def zero_spectrum(np_: NewtonPolygon, accept_provisional: bool = False
                  ) -> NewtonPolygon:
    """The polygon, whose segments give the valuations and multiplicities
    of the reciprocal zeroes in the trusted window; a provisional polygon
    raises unless accepted, and then carries its tag."""
    if np_.provisional and not accept_provisional:
        raise PreconditionViolated(
            "polygon is provisional; pass accept_provisional=True to tag it")
    return np_


@dataclass
class RhVerdict:
    """Absolute-value simplicity summary of a spectrum.

    ``all_simple_beyond`` is the least abscissa such that every segment
    starting at or after it has length 1 (0 when they all do); it is
    reported from the data, never assumed.  ``exceptions`` lists the long
    segments, whose zeroes share an absolute value.
    """

    all_simple_beyond: int
    unique_abs_value: list[bool]
    exceptions: list[Segment]
    passed: bool


def rh_verdict(spectrum: NewtonPolygon) -> RhVerdict:
    unique = [s.length == 1 for s in spectrum.segments]
    exceptions = [s for s in spectrum.segments if s.length > 1]
    b_hat = exceptions[-1].d_end if exceptions else 0
    return RhVerdict(b_hat, unique, exceptions, not exceptions)


def polygon_verdict(source) -> tuple[NewtonPolygon, RhVerdict]:
    """Polygon of a family and the verdict on its spectrum; a provisional
    polygon is judged too, and the caller reads ``provisional``."""
    poly = newton_polygon(source)
    return poly, rh_verdict(zero_spectrum(poly, accept_provisional=True))


def hensel_root(coeffs: Sequence[LaurentSeries], slope: int,
                target_prec: int) -> LaurentSeries:
    """Refine the reciprocal zero on a unit-length integer-slope segment.

    Newton iteration z <- z - P(z)/P'(z) on P(z) = sum c_d z^d, seeded by
    the two-term solution of the dominating segment.  Certifying the
    residual costs precision headroom: evaluating through degree D at a
    root of valuation -s burns D*s for positive s (and 2|s| covers the
    division in the seed), so coefficients must carry
    target_prec + hensel_slack(...) digits.
    """
    coeffs = list(coeffs)
    poly = polygon_of(coeffs)
    seg = next((s for s in poly.segments if s.slope == slope), None)
    if seg is None or seg.length != 1:
        raise PreconditionViolated(
            f"no unit-length segment of slope {slope} in the polygon")
    need = target_prec + hensel_slack(int(slope), len(coeffs) - 1)
    short = [d for d, c in enumerate(coeffs) if c.prec < need]
    if short:
        raise InsufficientPadicPrecision(
            f"coefficients at d={short} carry precision < {need}")
    field = coeffs[0].field
    d1, d2 = seg.d_start, seg.d_end
    z = -(coeffs[d1] / coeffs[d2])

    def val_of(s: LaurentSeries):
        return s.prec if s.valuation is None else s.valuation

    max_iter = max(target_prec.bit_length(), 1) + 2
    for _ in range(max_iter):
        pz = _eval_poly(coeffs, z)
        if val_of(pz) >= target_prec:
            return z
        dpz = _eval_poly(_derivative(field, coeffs), z)
        if dpz.valuation is None:
            raise DerivativeVanishesToPrecision(
                "derivative vanishes to precision; raise target_prec headroom")
        z = z - pz / dpz
    pz = _eval_poly(coeffs, z)
    if val_of(pz) >= target_prec:
        return z
    raise NonConvergence("Newton refinement missed the residual target")


def hensel_slack(slope: int, span: int) -> int:
    """Precision headroom needed to certify a residual at this slope when
    the family has `span`+1 coefficients."""
    return max(2 * abs(slope), span * max(slope, 0))


def _derivative(field, coeffs):
    out = []
    for d in range(1, len(coeffs)):
        out.append(coeffs[d].scale(d % field.p))
    return out


def _eval_poly(coeffs, z: LaurentSeries):
    acc = None
    for c in reversed(list(coeffs)):
        acc = c if acc is None else acc * z + c
    return acc
