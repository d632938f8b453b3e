"""Exact vectorized `%.15g` text for float64 arrays.

`g15_fields` gives, for every value, the bytes of `'%.15g' % v` padded with
NUL to a fixed field width; `csv_rows` turns a 2-D table into ASCII CSV
lines from those fields.  The output is byte-identical to Python's formatting.

Significand.  With e = floor(log10|v|), the 15 significant digits are
N = round(q), q = |v| 10^(14-e) (Python rounds the exact binary value, ties
to even).  q is formed as one `np.longdouble` product with a power of ten
from a table that the C library parses with correct rounding; a carry to
10^15 moves the exponent.  With eps the machine epsilon of longdouble, the
table entry and the product are each rounded once, so the computed p
differs from q by b <= (eps + eps^2/4) q < 1.01 eps 1e15, and the fraction
p - floor(p) is exact.  Values whose fraction lies within
`_HALF_MARGIN` = c eps 1e15 of 1/2 go to Python's own `'%.15g'`, with
c = `_MARGIN_FACTOR` = 16, for two reasons:

- rounding p and q to the nearest integer differs only if a half-integer
  lies between them, and then the fraction of p is within b < margin
  of 1/2;
- when log10 or p puts e one off near a power of ten, q lies within b of
  10^14 or 10^15, and both exponents give the same digits if 10 b < 1/2.
  Whenever margin < 1/2, eps 1e15 < 1/32, so b < 1/30 and 10 b < 1/3.

Where longdouble is plain float64 the margin is 3.6 > 1/2, so every value
goes to Python: still exact, only slower.  Zeros, NaN and infinities go to
Python too, as does any N outside [10^14, 10^15).

Text.  N splits into four 4-digit groups by three int64 divisions; each
group's ASCII bytes and trailing-zero count come from lookup tables.  The
sign, the decimal exponent X and the number of significant digits pick one
of 630 byte templates (its class), which map each output byte to a byte of
the value's source row: fixed notation for -4 <= X < 15, else d.ddde+XX
with at least two exponent digits.  About 88 % of a study column's values
share one class, so a call writes its commonest class into every row by a
few slice writes (`_RUNS`) and gathers only the other rows byte by byte.
"""

from __future__ import annotations

import numpy as np

#: bytes per formatted field; '-4.94065645841247e-324' is the longest
FIELD_WIDTH = 22

_PRECISION = 15
_N_LOW = 10 ** (_PRECISION - 1)
_N_HIGH = 10**_PRECISION

_GROUPS = np.arange(10000)
_PLACES = np.array([1000, 100, 10, 1])
#: ASCII of 0000..9999, one uint32 per group, in memory order
_DIGITS4 = (_GROUPS[:, None] // _PLACES % 10 + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]
#: trailing zeros of each 4-digit group (4 for 0000)
_TRAILING4 = np.sum(_GROUPS[:, None] % (10 * _PLACES) == 0, axis=1)

#: 10^k as correctly rounded longdoubles, k in [_P10_LOW, _P10_HIGH]
_P10_LOW, _P10_HIGH = -300, 345
_P10 = np.array([np.longdouble("1e%d" % k) for k in range(_P10_LOW, _P10_HIGH + 1)])

_MARGIN_FACTOR = 16
_HALF_MARGIN = float(_MARGIN_FACTOR * np.finfo(np.longdouble).eps * 1e15)

# Source bytes of one value, built as seven uint32 words: 0..15 the digit
# groups (byte 0 is a leading '0', digit i is byte i), 16..19 the exponent
# as sign and three digits, then '-', '.', '0', 'e' and NUL.
_EXP_SIGN, _MINUS, _POINT, _ZERO, _E, _PAD = 16, 20, 21, 22, 23, 24
_SOURCE_WORDS = 7
_EXP_LOW = -400
_EXP4 = np.frombuffer(
    b"".join(b"%+04d" % k for k in range(_EXP_LOW, -_EXP_LOW + 1)), dtype=np.uint32
)
_CONST_BYTES = b"-.0e\0"  # source bytes _MINUS.._PAD
_CONST_WORD = np.frombuffer(_CONST_BYTES[:4], dtype=np.uint32)[0]

#: template forms: fixed notation for X = -4..14, then the exponent form
#: with two and with three exponent digits
_FIXED_FORMS = 19
_FORMS = _FIXED_FORMS + 2


def _template(negative: bool, form: int, digits: int) -> list[int]:
    out = [_MINUS] if negative else []
    sig = list(range(1, digits + 1))
    if form < _FIXED_FORMS:
        x = form - 4
        if x >= 0:
            out += list(range(1, x + 2))
            if digits > x + 1:
                out += [_POINT] + sig[x + 1 :]
        else:
            out += [_ZERO, _POINT] + [_ZERO] * (-x - 1) + sig
    else:
        out += sig[:1] + ([_POINT] + sig[1:] if digits > 1 else [])
        first = _EXP_SIGN + (1 if form == _FIXED_FORMS + 1 else 2)
        out += [_E, _EXP_SIGN] + list(range(first, _EXP_SIGN + 4))
    return out + [_PAD] * (FIELD_WIDTH - len(out))


_TEMPLATES = np.array(
    [
        _template(negative, form, digits)
        for negative in (False, True)
        for form in range(_FORMS)
        for digits in range(1, _PRECISION + 1)
    ],
    dtype=np.int32,
)


def _runs(template: list[int]) -> list[list]:
    """`template` as a few slice writes [out offset, length, source offset,
    byte]: a stretch of consecutive source bytes is one copy (byte None), a
    stretch of one constant byte ('-', '.', '0', 'e' or NUL) one fill."""
    runs = []
    for o, s in enumerate(template):
        byte = _CONST_BYTES[s - _MINUS] if s >= _MINUS else None
        if runs and runs[-1][3] == byte and (byte is not None or sum(runs[-1][1:3]) == s):
            runs[-1][1] += 1
        else:
            runs.append([o, 1, s, byte])
    return runs


#: each template's slice writes, by class
_RUNS = [_runs(t) for t in _TEMPLATES.tolist()]


def _python_fields(values: np.ndarray) -> np.ndarray:
    """Fields of `values` formatted by Python, one call per distinct value."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = b"".join(
        ("%.15g" % v).encode("ascii").ljust(FIELD_WIDTH, b"\0")
        for v in bits.view(np.float64).tolist()
    )
    return np.frombuffer(text, dtype=np.uint8).reshape(-1, FIELD_WIDTH)[inverse]


def g15_fields(values) -> np.ndarray:
    """(len(values), FIELD_WIDTH) uint8: the ASCII of `'%.15g' % v` for
    each float64 v, padded with NUL bytes."""
    v = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    a = np.abs(v)
    normal = np.isfinite(a) & (a > 0.0)
    a = np.where(normal, a, 1.0)

    e = np.floor(np.log10(a)).astype(np.int64)
    wide = a.astype(np.longdouble)
    p = wide * _P10[_PRECISION - 1 - e - _P10_LOW]
    shift = (p >= _N_HIGH).astype(np.int64) - (p < _N_LOW)
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] += shift[moved]
        p[moved] = wide[moved] * _P10[_PRECISION - 1 - e[moved] - _P10_LOW]
    n = p.astype(np.int64)
    frac = (p - n.astype(np.longdouble)).astype(np.float64)
    n += frac > 0.5
    carry = n == _N_HIGH
    n[carry] = _N_LOW
    e += carry

    fallback = ~normal | (np.abs(frac - 0.5) <= _HALF_MARGIN) | (n < _N_LOW) | (n >= _N_HIGH)
    n[fallback] = _N_LOW
    e[fallback] = 0

    hi = n // 10**8
    lo = n - hi * 10**8
    g0 = hi // 10**4
    g1 = hi - g0 * 10**4
    g2 = lo // 10**4
    g3 = lo - g2 * 10**4

    trailing = _TRAILING4[g3]
    zero = g3 == 0
    trailing += zero * _TRAILING4[g2]
    zero &= g2 == 0
    trailing += zero * _TRAILING4[g1]
    zero &= g1 == 0
    trailing += zero * _TRAILING4[g0]

    count = v.size
    src = np.empty((count, _SOURCE_WORDS), dtype=np.uint32)
    src[:, 0] = _DIGITS4[g0]
    src[:, 1] = _DIGITS4[g1]
    src[:, 2] = _DIGITS4[g2]
    src[:, 3] = _DIGITS4[g3]
    src[:, 4] = _EXP4[e - _EXP_LOW]
    src[:, 5] = _CONST_WORD
    src[:, 6] = 0

    fixed = (e >= -4) & (e < _PRECISION)
    form = np.where(fixed, e + 4, np.where(np.abs(e) >= 100, _FIXED_FORMS + 1, _FIXED_FORMS))
    cls = (np.signbit(v) * _FORMS + form) * _PRECISION + (_PRECISION - 1 - trailing)
    # slice writes of the commonest class in every row, then the other rows' gather
    raw = src.view(np.uint8)
    out = np.empty((count, FIELD_WIDTH), dtype=np.uint8)
    major = int(np.bincount(cls, minlength=len(_RUNS)).argmax())
    for o, size, s, byte in _RUNS[major]:
        out[:, o : o + size] = raw[:, s : s + size] if byte is None else byte
    rows = np.flatnonzero(cls != major)
    # int32 offsets gather faster while they fit
    offset_type = np.int32 if count < 2**31 // raw.shape[1] else np.intp
    index = np.take(_TEMPLATES, cls[rows], axis=0).astype(offset_type, copy=False)
    index += (rows.astype(offset_type) * raw.shape[1])[:, None]
    out[rows] = np.take(raw.reshape(-1), index)

    slow = np.flatnonzero(fallback)
    if slow.size:
        out[slow] = _python_fields(v[slow])
    return out


def csv_rows(table: np.ndarray) -> np.ndarray:
    """ASCII CSV lines, as a uint8 array, of a 2-D float table, each value as
    `'%.15g' % v`, every line ending in a newline.  A column whose bit patterns
    equal an earlier column's is copied from it, not formatted again."""
    rows, cols = table.shape
    bits = np.asarray(table, dtype=np.float64).view(np.uint64)  # keeps -0.0, NaNs apart
    buf = np.empty((rows, cols, FIELD_WIDTH + 1), dtype=np.uint8)
    buf[:, :, FIELD_WIDTH] = ord(",")
    buf[:, -1, FIELD_WIDTH] = ord("\n")
    for c in range(cols):  # d: the first column with c's bit patterns
        d = next((d for d in range(c) if np.array_equal(bits[:1, d], bits[:1, c])
                  and np.array_equal(bits[:, d], bits[:, c])), c)
        buf[:, c, :FIELD_WIDTH] = g15_fields(table[:, c]) if d == c else buf[:, d, :FIELD_WIDTH]
    flat = buf.reshape(-1)
    return flat[flat != 0]
