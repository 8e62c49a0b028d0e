"""The power-sum engine's earlier recursion, kept as a reference for
``test_zeta``.

The library walks the Lucas lattice of one exponent in layers, skips the
subspace sums that the degree bound proves zero and keeps nothing past
the call.  Here every subspace sum E_d(t) is computed by the plain
recursion, zeros included, and memoised per (p, q, d, t), so that a
fault in the layers, in their prune or in the way a caller reads them
shows up as a disagreement.  It shares the packed sum (``pk_sum``) and
the Lucas listings with the engine; the enumeration oracle is the check
that shares neither.
"""

import functools

from ffzeta import _packing as pk


@functools.cache
def subspace_sum(p: int, q: int, d: int, t: int) -> int:
    """E_d(t) = sum of m^t over all m with deg m < d, over F_q, packed.

    Writing m = c T^(d-1) + m' expands m^t over the Lucas sub-exponents s
    of t, and the sum over c in F_q keeps -1 exactly where s > 0 and
    (q-1) | s.
    """
    if d == 0:
        return int(t == 0)
    terms = [((p - 1) * c % p, subspace_sum(p, q, d - 1, t - s), (d - 1) * s)
             for s, c in pk.lucas_residue(t, p, q - 1, 0)[1:]]
    return pk.pk_sum(terms, p, (d - 1) * t + 1)


def monic_sum(p: int, q: int, d: int, j: int) -> int:
    """S_d(j) over F_q, packed: C(j, t) T^(d(j-t)) E_d(t) over every
    Lucas subset t of j, whatever its class mod q-1."""
    terms = [(c, subspace_sum(p, q, d, t), d * (j - t))
             for t, c in pk.lucas_residue(j, p, 1, 0)]
    return pk.pk_sum(terms, p, d * j + 1)


def monic_coeffs(field, d: int, j: int) -> list[int]:
    """The coefficients of S_d(j) over ``field``, lowest first, trimmed."""
    coeffs = pk.pk_unpack(monic_sum(field.p, field.order, d, j), d * j + 1, field.p)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs
