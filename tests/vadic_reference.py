"""n^s at a finite prime by its definition, for the oracles of
``test_nonarch`` and ``test_zeta``.

The library takes n^s as one integer power n^g
(``VadicRing.integer_exponent``) and lifts nothing.  The Teichmueller
lift lives here, kept slow and plain, as the independent side of those
comparisons, with the walk over the monics coprime to f that they sum.
"""

from ffzeta.errors import NonConvergence, NotCoprime
from ffzeta.ffpoly import enumerate_monic


def coprime_monics(field, d, f):
    """Monic degree-d polynomials that f does not divide, one by one."""
    for n in enumerate_monic(field, d):
        if not (n % f).is_zero():
            yield n


def teichmuller(ring, n):
    """The unique root-of-unity lift of n mod f in ``ring`` = A/(f^M),
    by iterating the residue-order power map until it fixes (each step at
    least doubles the contact order, so log2(M)+2 iterations always do)."""
    if (n % ring.f).is_zero():
        raise NotCoprime("Teichmueller lift needs gcd(n, f) = 1")
    x = ring.elem(n)
    for _ in range(max(ring.precision.bit_length(), 1) + 2):
        nxt = x ** ring.residue_order
        if nxt == x:
            return x
        x = nxt
    raise NonConvergence("Teichmueller iteration did not stabilise")


def pow_sv_reference(n, s, ring):
    """n^s as omega(n)^s1 * (n * omega(n)^-1)^(s2 mod p^N), with a fresh
    Teichmueller lift and inverse on every call."""
    omega = teichmuller(ring, n)
    unit = ring.elem(n) * omega.inverse()
    return omega ** s.s1 * unit ** s.s2.value()
