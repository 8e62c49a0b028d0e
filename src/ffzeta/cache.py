"""On-disk cache of power sums S_d(j), shared safely between runs.

Layout: one file per (d, j) under a directory keyed by the field,

    <root>/p<p>_m<m>[_mod<digits>]/S_d<d>_j<j>.txt

holding a single line

    deg <k>: c_0 c_1 ... c_k

where each c_i is the base-p digit string of the coefficient (w^0 digit
first) and the zero polynomial is written as ``deg -inf:``.  For p > 10
the digits of a coefficient, and those of the modulus in the directory
name, are joined with ".".  Entries are read and written as ASCII; any
other byte makes the entry corrupt.  A line is read in one pass: its
digit strings are decoded in bulk (``decode_strs``; over
F_2, F_3, F_5 and F_7, one byte translation of all of them).  The
format is line-oriented, diff-able and language-neutral.  Writes go to a
temporary file in the same directory followed by an atomic rename, so
parallel runs may share a cache directory.

A hit is spot-checked when the CRC-32 of the entry's key, its field
directory, d and j, falls below ``SPOT_CHECK_FRACTION`` of its range, so
the same entries are checked on every run, and they fall on every
degree.  ``read_through`` is the one place where an entry is used: it
reads S_0(j) .. S_top(j), takes a value from the engine's one pass
(``zeta._power_sums``) only at a degree that misses or is spot-checked,
writes each miss, and raises CacheCorruption when a checked entry
disagrees.  So a warm request advances the pass only to its highest
checked degree.  ``hits``, ``misses``, ``writes`` and ``spot_checks``
count this cache's traffic; ``special`` reports them under
``timing.counters.cache``.  ``special --cache-dir`` opens the one cache,
and ``special_polynomial`` is the one library function that takes it.
"""

from __future__ import annotations

import itertools
import os
import stat
import tempfile
import zlib
from pathlib import Path

from .errors import CacheCorruption
from .ffpoly import FiniteField, Poly, join_digits

SPOT_CHECK_FRACTION = 0.05  # of the hits, recomputed and compared


class PowerSumCache:
    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        try:  # a root that is there, or a file above it, raises an OSError
            if not stat.S_ISDIR(self.root.stat().st_mode):
                raise NotADirectoryError(f"cache directory {root} is not a directory")
        except FileNotFoundError:  # made on the first write
            pass
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
            text = p.read_text(encoding="ascii")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, UnicodeDecodeError) as exc:
            raise CacheCorruption(f"unreadable cache entry {p}: {exc}")
        self.hits += 1
        return self._parse(field, text, p)

    def put(self, field: FiniteField, d: int, j: int, value: Poly) -> None:
        target = self.path(field, d, j)
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".tmp_", suffix=".txt")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
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
        key = f"{self.field_dir(field).name}/S_d{d}_j{j}".encode()
        hit = zlib.crc32(key) < SPOT_CHECK_FRACTION * 2 ** 32
        if hit:
            self.spot_checks += 1
        return hit

    def read_through(self, field: FiniteField, j: int, sums, top: int) -> list[Poly]:
        """S_0(j) .. S_top(j), each read from the cache where it can be.

        ``sums`` yields S_0(j), S_1(j), ... from one pass of the engine.
        It is advanced only to a degree that misses or is spot-checked,
        so a warm request with no checked entry never starts it.  A miss
        is written; a checked entry that disagrees with the pass raises
        CacheCorruption.
        """
        out = []
        taken = 0  # values drawn from sums
        for d in range(top + 1):
            hit = self.get(field, d, j)
            if hit is not None and not self.should_spot_check(field, d, j):
                out.append(hit)
                continue
            value = next(itertools.islice(sums, d - taken, None))
            taken = d + 1
            if hit is None:
                self.put(field, d, j, value)
            elif value != hit:
                raise CacheCorruption(f"cache entry S_{d}({j}) disagrees with recomputation")
            out.append(value)
        return out

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

