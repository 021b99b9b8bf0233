"""Rows of floats as CSV or JSON text, byte for byte as Python writes them, a block of rows at once.

CPython formats one float at a time (about 290 ns each), which made writing a
2001-row scan cost more than computing it.  ``csv_rows`` writes the fields of
``'%.17g'`` and ``json_rows`` the values of ``repr``, as ``json.dump`` writes
them.  Both form the correctly rounded 17 significant digits of every value of
a block together:

* X = floor(log10|x|) and D = round-half-even(|x| 10^(16 - X)), a 17-digit
  integer, from Dekker's exact product (Numer. Math. 18, 224 (1971)) of |x|
  and 10^p = Ph + Pl, a double-double.  For p in [0, 22], 10^p is a double
  and the product is exact, so a tie goes to the even digit.  Elsewhere the
  fraction is off by less than 5e-15, and one within ``TIE`` of 1/2 is left
  undecided.
* When log10 misses X by one (near a power of ten), D leaves [10^16, 10^17)
  and that value is recomputed once with X corrected; a second miss is left
  undecided too.
* ``repr``'s digits are the shortest that read back as x, the nearest of them
  when several do (Steele & White, PLDI 1990).  At most one 15-digit decimal
  lies within half an ulp of a double, so they are the first of D rounded to
  15, 16 and 17 digits that does, with its trailing zeros dropped.  Below an
  exact power of two the interval reaches half as far as above it, so there
  the 16-digit decimal above x is tried when the nearer one below misses.  A
  distance within ``TIE`` of the half-ulp, or a rounding to 15 or 16 digits
  within ``TIE`` of a tie, is left undecided.

The CSV layout follows ``%g``: fixed notation iff -4 <= X < 17, trailing zeros
dropped along with a point that has nothing after it, ``e+dd`` / ``e-ddd``
exponents, and a ``-`` before every negative value, ``-0`` included.  The JSON
layout follows ``repr``, which differs in three ways: fixed notation iff
-4 <= X < 16, ``.0`` after an integral fixed value, and fewer digits.  Each
number owns a column of slots laid out slot-major, so that every step runs
over a whole block.  The block's rows are then laid out value by value, each
number followed by its column's separator, a constant: ``,`` or CRLF in CSV,
``,\\n      "name": `` or the end of one JSON object and the start of the
next.  An unused slot holds 0 and is deleted when the block is compacted.
What the kernel does not decide, non-finite values, |x| outside [``LOW``,
``HIGH``] (subnormals among them) and undecided roundings, is formatted one
value at a time by ``'%.17g' % x`` or by ``json.dumps(x)``, which spells
``NaN``, ``Infinity`` and ``-Infinity``.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["csv_rows", "json_rows"]

LOW, HIGH = 1e-280, 1e280  # keep Veltkamp's split of x and of 10^p clear of overflow, and Pl normal
TIE = 2.0**-40  # an inexact fraction this close to 1/2, or a distance this close to the half-ulp, is left to the fallback
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitter for doubles
_E16, _E17 = 10**16, 10**17
_EXPONENT, _MANTISSA = 0x7FF << 52, (1 << 52) - 1  # the bits of a double
# slots of one value: sign; "0." and up to three zeros for -4 <= X < 0; 17 digits and
# a point; 'e', the exponent's sign and three digits; then its separator
_SIGN, _LEAD, _BODY, _EXP, _SEP = 0, 1, 6, 24, 29
_P_OFFSET = 300  # p = 16 - X runs over [-264, 296] for LOW <= |x| <= HIGH
_POWERS = np.full((2, 600), np.nan)  # filled in by _powers
_K18 = np.arange(18, dtype=np.int8)[:, None]
_K17 = _K18[:17]


def _powers(p0: int, p1: int) -> np.ndarray:
    """(Ph, Pl) by 10^p = Ph + Pl at column p + _P_OFFSET, filled in for p0 <= p <= p1.

    Ph is the nearest double to 10^p and Pl the nearest double to the rest; both
    come from a correctly rounded division of integers.  A column is computed on
    first use and kept.
    """
    span = _POWERS[:, p0 + _P_OFFSET : p1 + _P_OFFSET + 1]
    for k in np.flatnonzero(np.isnan(span[0])):
        p = int(p0 + k)
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        span[0, k] = head = num / den
        head_num, head_den = head.as_integer_ratio()
        span[1, k] = (num * head_den - head_num * den) / (den * head_den)
    return _POWERS


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = v * _SPLIT
    hi = c - (c - v)
    return hi, v - hi


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h, l) with h = fl(a b) and h + l = a b exactly, from Veltkamp's splits of a and b."""
    h = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    l = ah * bh
    l -= h
    l += ah * bl
    l += al * bh
    l += al * bl
    return h, l


def _round17(a: np.ndarray, x_exp: np.ndarray) -> tuple[np.ndarray, ...]:
    """(D, a 10^p - D, miss, undecided) for positive a in [LOW, HIGH] and trial exponents X.

    miss is +1 where D > 10^17 (X one too small) and -1 where a 10^(16-X) < 10^16
    (X one too large); D = 10^17 is a carry, not a miss.
    """
    p = 16 - x_exp
    ph, pl = np.take(_powers(int(p.min()), int(p.max())), p + _P_OFFSET, axis=1)
    h, t = _two_product(a, ph)
    t += a * pl
    # h >= 2^53 is an even integer, so the parity of D is that of rint(t)
    nearest = np.rint(t)
    digits = h.astype(np.int64) + nearest.astype(np.int64)
    inexact = pl != 0.0
    at_e16 = h == 1e16
    undecided = inexact & ((np.abs(t - np.floor(t) - 0.5) < TIE) | (at_e16 & (np.abs(t) < TIE)))
    miss = (digits > _E17).view(np.int8) - ((h < 1e16) | (at_e16 & (t < 0.0))).view(np.int8)
    return digits, t - nearest, miss, undecided


def _shortest(a: np.ndarray, x_exp: np.ndarray, digits: np.ndarray, delta: np.ndarray, undecided: np.ndarray) -> np.ndarray:
    """repr's digits of each a, as D_k 10^(17-k) for the first k of 15, 16, 17 whose D_k reads back as a.

    digits holds D_17 and delta = a 10^p - D_17, exact where 10^p is a double; undecided is updated in place.
    """
    ph, pl = np.take(_POWERS, 16 - x_exp + _P_OFFSET, axis=1)  # filled in by _round17
    # half an ulp of a normal a >= 2^-969 is the double 53 binades below its leading bit
    half = ((a.view(np.int64) & _EXPONENT) - (53 << 52)).view(np.float64) * ph
    below = np.where((a.view(np.int64) & _MANTISSA) == 0, 0.5 * half, half)  # half as far below a power of two
    inexact = pl != 0.0
    base = digits - digits % 200
    low = (digits - base) + delta  # a 10^p less base, an even multiple of both units
    shortest = digits.copy()
    for unit in 10, 100:  # 16, then 15 digits, which take precedence
        nearest = np.rint(low / unit) * unit  # a tie goes to the even D_k
        dist = nearest - low
        gap = np.abs(dist) - np.where(dist < 0.0, below, half)
        # the candidate above a power of two may read back where the nearer one below does not
        up = np.where((dist < 0.0) & (gap >= 0.0), dist + unit - half, np.inf)
        above = up < 0.0
        undecided |= (np.abs(gap) < TIE) | (np.abs(up) < TIE) | (inexact & (np.abs(np.abs(dist) - unit / 2) < TIE) & (half > unit / 2))
        np.copyto(shortest, base + (nearest + above * unit).astype(np.int64), where=(gap < 0.0) | above)
    return shortest


def _halves(v: np.ndarray, divisor: int, dtype) -> np.ndarray:
    """Each row of v split into its quotient and remainder by divisor, as two rows of dtype."""
    q = v // divisor
    out = np.empty((2 * len(v), v.shape[1]), dtype)
    out[0::2] = q
    out[1::2] = v - q * divisor
    return out


def _digits(x: np.ndarray, shortest: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, the 17 ASCII digits of D by rows, the indices left to the fallback) of each x; 0 has X = 0, D = 0.

    D is correctly rounded to 17 digits, or holds repr's digits followed by zeros when shortest.
    """
    n = x.size
    a = np.abs(x)
    zero = a == 0.0
    kernel = (a >= LOW) & (a <= HIGH)
    a[~kernel] = 1.0
    x_exp = np.log10(a)
    x_exp = np.floor(x_exp, out=x_exp).astype(np.int64)
    digits, delta, miss, undecided = _round17(a, x_exp)
    if miss.any():
        again = np.flatnonzero(miss)
        x_exp[again] += miss[again]
        digits[again], delta[again], miss[again], undecided[again] = _round17(a[again], x_exp[again])
    if shortest:
        digits = _shortest(a, x_exp, digits, delta, undecided)
    carry = digits == _E17
    digits[carry] = _E16
    x_exp += carry
    digits[zero] = 0
    x_exp[zero] = 0

    # the leading digit, then the other 16 by halving their count in ever narrower integers
    top = digits // _E16
    rest = (digits - top * _E16)[None]
    for divisor, dtype in (10**8, np.uint32), (10**4, np.uint16), (100, np.uint8), (10, np.uint8):
        rest = _halves(rest, divisor, dtype)
    ascii = np.empty((17, n), np.uint8)
    ascii[0] = top
    ascii[1:] = rest
    ascii += ord("0")
    return x_exp, ascii, np.flatnonzero(~(kernel | zero) | undecided | (miss != 0))


def _printf(value: float) -> bytes:
    """'%.17g' % value, for a value that the kernel does not decide."""
    return b"%.17g" % value


def _repr(value: float) -> bytes:
    """json's spelling of value, repr for a finite one, for a value that the kernel does not decide."""
    return json.dumps(float(value)).encode()


def _slots(x: np.ndarray, shortest: bool) -> np.ndarray:
    """The (_SEP, n) bytes of the values x, one column of slots each; 0 marks an unused slot."""
    x_exp, ascii, fallback = _digits(x, shortest)
    significant = ((ascii != ord("0")).view(np.uint8) * _K18[1:]).max(axis=0)
    np.maximum(significant, 1, out=significant)

    slots = np.empty((_SEP, x.size), np.uint8)
    slots[_SIGN] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    fixed = (x_exp >= -4) & (x_exp < (16 if shortest else 17))
    integral = fixed & (x_exp >= 0)
    fraction = fixed & (x_exp < 0)
    # "0." and -X-1 zeros before the digits of 1e-4 <= |x| < 1
    lead = slots[_LEAD:_BODY]
    lead[0] = fraction.view(np.uint8) * np.uint8(ord("0"))
    lead[1] = fraction.view(np.uint8) * np.uint8(ord("."))
    zeros = np.where(fraction, -1 - x_exp, 0).astype(np.int8)
    lead[2:] = (_K17[:3] < zeros).view(np.uint8) * np.uint8(ord("0"))
    # the digits written, all of the integer part in fixed notation (and for repr the
    # zero after it), with a point before the first written digit of the fraction, if any
    written = np.where(integral, np.maximum(significant, x_exp + 1 + shortest), significant).astype(np.int8)
    point = np.where(integral, x_exp + 1, 1)
    point = np.where(fraction | (written <= point), 18, point).astype(np.int8)
    shown = ascii * (_K17 < written)
    body = slots[_BODY:_EXP]
    body[:17] = shown
    body[17] = 0
    np.copyto(body[1:], shown, where=_K17 >= point)
    np.copyto(body, np.uint8(ord(".")), where=_K18 == point)

    # 'e', the sign and two or three digits of X, which is at most 281 in magnitude here
    sci = ~fixed
    magnitude = np.abs(x_exp).astype(np.uint16)
    wide = magnitude >= 100
    decades = magnitude // 10
    hundreds = decades // 10
    tens, ones = decades - 10 * hundreds, magnitude - 10 * decades
    exponent = slots[_EXP:_SEP]
    exponent[0] = ord("e")
    exponent[1] = np.where(x_exp < 0, ord("-"), ord("+"))
    exponent[2] = np.where(wide, hundreds, tens)
    exponent[3] = np.where(wide, tens, ones)
    exponent[4] = ones
    exponent[2:] += ord("0")
    exponent[:4] *= sci
    exponent[4] *= sci & wide

    fallback_text = _repr if shortest else _printf
    for i in fallback:
        text = np.frombuffer(fallback_text(x[i]), np.uint8)
        slots[:, i] = 0
        slots[_LEAD : _LEAD + text.size, i] = text
    return slots


def _rows(block: np.ndarray, seps: list[bytes], shortest: bool) -> bytearray:
    """The values of a 2-D float64 block, row by row, each followed by the separator of its column."""
    rows, cols = block.shape
    table = np.zeros((cols, max(map(len, seps))), np.uint8)
    for column, sep in enumerate(seps):
        table[column, : len(sep)] = np.frombuffer(sep, np.uint8)
    slots = _slots(block.ravel(), shortest)  # first, so that its temporaries are freed before text is allocated
    text = bytearray(rows * cols * (_SEP + table.shape[1]))
    packed = np.frombuffer(text, np.uint8).reshape(rows, cols, -1)
    packed[..., :_SEP] = slots.T.reshape(rows, cols, _SEP)
    packed[..., _SEP:] = table
    # deleting the zeros needs no mask, where indexing with packed != 0 needs one byte per slot
    return text.translate(None, b"\0")


def csv_rows(block: np.ndarray) -> bytearray:
    """The rows of a 2-D float64 block as CSV: '%.17g' fields joined by ',', each row ended by CRLF."""
    return _rows(block, [b","] * (block.shape[1] - 1) + [b"\r\n"], False)


def json_rows(block: np.ndarray, names: list[str]) -> bytearray:
    """The rows of a 2-D float64 block as json.dump(indent=2) writes objects of a list two levels deep.

    Each row is an object with the keys names, in order; the rows are joined by
    ",\\n", and the last one is not followed by it.
    """
    keys = [b'      %s: ' % json.dumps(name).encode() for name in names]
    first = b"    {\n" + keys[0]
    seps = [b",\n" + key for key in keys[1:]] + [b"\n    },\n" + first]
    text = _rows(block, seps, True)
    del text[6 - len(seps[-1]) :]  # the last row's separator, but for the "\n    }" that closes it
    text[:0] = first
    return text
