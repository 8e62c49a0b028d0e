"""Small finite fields F_2, F_3, F_4 and their polynomials, written
independently of ffzeta.

The benchmark uses them to pick irreducible inputs from a seed without
asking the program under test, and to recompute a few outputs by a route
that shares no code with it.  Elements are encoded as ffzeta encodes
them: the integer a_0 + a_1 p for a_0 + a_1 w, with w^2 = w + 1 over F_4.
Polynomials are coefficient lists, lowest degree first, without trailing
zeros.
"""

from __future__ import annotations

import itertools


class Field:
    def __init__(self, p: int, m: int = 1):
        if (p, m) not in ((2, 1), (3, 1), (2, 2)):
            raise ValueError(f"no small field F_{p}^{m} here")
        self.p, self.m, self.q = p, m, p ** m
        q = self.q
        self.add_t = [[self._add(a, b) for b in range(q)] for a in range(q)]
        self.mul_t = [[self._mul(a, b) for b in range(q)] for a in range(q)]
        self.neg_t = [next(b for b in range(q) if self.add_t[a][b] == 0)
                      for a in range(q)]

    def _add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        return a ^ b

    def _mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        # (a0 + a1 w)(b0 + b1 w) with w^2 = w + 1
        a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
        hi = a1 & b1
        c0 = (a0 & b0) ^ hi
        c1 = (a0 & b1) ^ (a1 & b0) ^ hi
        return c0 | (c1 << 1)

    def frob(self, a: int) -> int:
        """a^p."""
        return self.mul_t[a][a] if self.p == 2 else self.mul_t[a][self.mul_t[a][a]]

    def decode(self, digits: str) -> int:
        return sum(int(c) * self.p ** i for i, c in enumerate(digits))

    def coeff_str(self, c: int) -> str:
        if self.m == 1:
            return str(c)
        return "[" + "".join(str((c // self.p ** i) % self.p)
                             for i in range(self.m)) + "]"


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def mul_trunc(F: Field, a: list[int], b: list[int], n: int) -> list[int]:
    """a * b mod X^n."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            row = F.mul_t[x]
            for k, y in enumerate(b[: n - i]):
                out[i + k] = F.add_t[out[i + k]][row[y]]
    return out


def rem(F: Field, a: list[int], f: list[int]) -> list[int]:
    """a mod f, f monic."""
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i]
        if c:
            nc = F.neg_t[c]
            for k in range(df + 1):
                a[i - df + k] = F.add_t[a[i - df + k]][F.mul_t[nc][f[k]]]
    return trim(a[:df])


def monics(F: Field, d: int):
    for low in itertools.product(range(F.q), repeat=d):
        yield list(low) + [1]


def is_irreducible(F: Field, f: list[int]) -> bool:
    d = len(f) - 1
    return d >= 1 and all(rem(F, f, g) for k in range(1, d // 2 + 1)
                          for g in monics(F, k))


def random_prime(F: Field, d: int, rng) -> list[int]:
    """A monic irreducible of degree d, drawn by rejection from rng."""
    while True:
        f = [rng.randrange(F.q) for _ in range(d)] + [1]
        if is_irreducible(F, f):
            return f


def to_cli(F: Field, a: list[int], var: str = "T") -> str:
    """The polynomial in the CLI's ``T^2+[01]T+1`` syntax."""
    terms = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if not c:
            continue
        cs = "" if (c == 1 and i > 0) else F.coeff_str(c)
        terms.append(cs + ("" if i == 0 else var if i == 1 else f"{var}^{i}"))
    return "+".join(terms) or "0"


def unit_pow_padic(F: Field, unit: list[int], digits: list[int],
                   prec: int) -> list[int]:
    """unit^e mod X^prec for a one-unit (constant term 1) and the p-adic
    exponent e = sum digits[i] p^i.

    Uses u^(p^i)(X) = (Frobenius^i u)(X^(p^i)): only the factors with
    p^i < prec differ from 1 modulo X^prec.
    """
    p = F.p
    acc = [1] + [0] * (prec - 1)
    base = (list(unit) + [0] * prec)[:prec]
    step = 1
    for dig in digits:
        if step >= prec:
            break
        spread = [0] * prec
        for k, c in enumerate(base):
            if k * step >= prec:
                break
            spread[k * step] = c
        for _ in range(dig):
            acc = mul_trunc(F, acc, spread, prec)
        base = [F.frob(c) for c in base]
        step *= p
    return acc
