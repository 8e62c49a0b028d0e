"""On-disk cache of power sums S_d(j), shared safely between runs.

Layout: one file per (d, j) under a directory keyed by the field,

    <root>/p<p>_m<m>[_mod<digits>]/S_d<d>_j<j>.txt

holding a single line

    deg <k>: c_0 c_1 ... c_k

where each c_i is the base-p digit string of the coefficient (w^0 digit
first) and the zero polynomial is written as ``deg -inf:``.  For p > 10
the digits of a coefficient, and those of the modulus in the directory
name, are joined with ".".  A line is read in one pass: its digit
strings must be ASCII and are decoded in bulk (``decode_strs``; over
F_2, F_3, F_5 and F_7, one byte translation of all of them).  The
format is line-oriented, diff-able and language-neutral.  Writes go to a
temporary file in the same directory followed by an atomic rename, so
parallel runs may share a cache directory.

A cache hit can be spot-checked: the caller is told to recompute and
compare (power_sum does exactly that, raising CacheCorruption on
mismatch) when the CRC-32 of the entry's key, its field directory, d and
j, falls below ``verify_fraction`` of its range.  So the same entries are
checked on every run, and they fall on every degree.
"""

from __future__ import annotations

import os
import tempfile
import zlib
from pathlib import Path

from .errors import CacheCorruption
from .ffpoly import FiniteField, Poly, join_digits

ENV_CACHE_DIR = "FFZETA_CACHE_DIR"


class PowerSumCache:
    def __init__(self, root: str | os.PathLike, verify_fraction: float = 0.05):
        self.root = Path(root)
        self.verify_fraction = verify_fraction
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.spot_checks = 0

    # -- keying --------------------------------------------------------------

    def field_dir(self, field: FiniteField) -> Path:
        name = f"p{field.p}_m{field.m}"
        if field.m > 1:
            name += f"_mod{join_digits(field.modulus, field.p)}"
        return self.root / name

    def path(self, field: FiniteField, d: int, j: int) -> Path:
        return self.field_dir(field) / f"S_d{d}_j{j}.txt"

    # -- io --------------------------------------------------------------------

    def get(self, field: FiniteField, d: int, j: int) -> Poly | None:
        p = self.path(field, d, j)
        try:
            text = p.read_text()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            raise CacheCorruption(f"unreadable cache entry {p}: {exc}")
        self.hits += 1
        return self._parse(field, text, p)

    def put(self, field: FiniteField, d: int, j: int, value: Poly) -> None:
        target = self.path(field, d, j)
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".tmp_", suffix=".txt")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(self._render(value))
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1

    def should_spot_check(self, field: FiniteField, d: int, j: int) -> bool:
        """Whether the hit S_d(j) is recomputed: decided by its key alone."""
        if self.verify_fraction <= 0:
            return False
        key = f"{self.field_dir(field).name}/S_d{d}_j{j}".encode()
        hit = zlib.crc32(key) < self.verify_fraction * 2 ** 32
        if hit:
            self.spot_checks += 1
        return hit

    # -- format -----------------------------------------------------------------

    @staticmethod
    def _render(value: Poly) -> str:
        if value.is_zero():
            return "deg -inf:\n"
        digits = " ".join(value.to_digit_strings())
        return f"deg {int(value.degree)}: {digits}\n"

    @staticmethod
    def _parse(field: FiniteField, text: str, origin: Path) -> Poly:
        head, colon, tail = text.strip().partition(":")
        if not head.startswith("deg ") or not colon:
            raise CacheCorruption(f"malformed cache entry {origin}")
        deg_str = head[4:].strip()
        tokens = tail.split()
        if deg_str == "-inf":
            if tokens:
                raise CacheCorruption(f"zero entry with coefficients in {origin}")
            return Poly.zero(field)
        if not (deg_str.isascii() and deg_str.isdigit()):  # as the writer writes it
            raise CacheCorruption(f"malformed degree in cache entry {origin}")
        try:
            coeffs = field.decode_strs(tokens)
        except ValueError as exc:  # decode_strs' digit errors
            raise CacheCorruption(f"malformed cache entry {origin}: {exc}")
        if len(coeffs) != int(deg_str) + 1 or coeffs[-1] == 0:
            raise CacheCorruption(f"inconsistent degree in cache entry {origin}")
        return Poly._of_trimmed(field, coeffs)  # decoded ints, last one nonzero


def cache_from_env() -> PowerSumCache | None:
    """Cache at $FFZETA_CACHE_DIR, or None."""
    root = os.environ.get(ENV_CACHE_DIR)
    if not root:
        return None
    return PowerSumCache(root)
