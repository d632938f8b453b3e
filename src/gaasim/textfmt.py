"""Exact vectorized `%.15g` text for float64 arrays.

`g15_fields` gives, for every value, the bytes of `'%.15g' % v` padded with
NUL to a fixed field width; `csv_rows` turns columns into ASCII CSV lines
from those fields.  The output is byte-identical to Python's formatting.

Significand.  With e = floor(log10|v|), the 15 significant digits are
N = round(q), q = |v| 10^(14-e) (Python rounds the exact binary value, ties
to even).  q is formed in float64 alone, as a double-double product
(Dekker 1971; Ogita, Rump & Oishi 2005).  Each 10^k is stored as hi, its
correctly rounded double, with hi's two halves of at most 26 bits, and as
lo, the rounded residual 10^k - hi.  Dekker's TwoProduct, with v split by
Veltkamp's 2^27 + 1, gives |v| hi = ph + pl exactly, and
t = pl + |v| lo carries the rest; a carry to 10^15 moves the exponent.
With u = 2^-53, floor(ph) and ph - floor(ph) are exact and |t| < 0.18, so
the computed fraction f = (ph - floor(ph)) + t differs from q - floor(ph)
by at most u (|f| + |t|) + 2.01 u^2 q < 1.8e-16.  Values whose f lies
within `_HALF_MARGIN` = 2^-50 (8.9e-16) of 1/2 go to Python's own
`'%.15g'`, for two reasons:

- rounding q and f + floor(ph) to the nearest integer differs only if a
  half-integer lies between them, and then f is within the bound of 1/2;
- the exponent is checked on ph, within b < 0.18 of q (half an ulp of ph
  plus |t|).  When log10 or ph puts e one off near a power of ten, q lies
  within b of 10^14 or 10^15, and both exponents give the same digits as
  10 b < 1/2.

Zeros, NaN and infinities go to Python too, as do |v| outside
[1e-290, 1e300], where v's split or the power table would overflow or
lose bits, and any N outside [10^14, 10^15).  Of the study's values only
exact ties and zeros do.

Text.  N splits into four 4-digit groups by three int64 divisions; each
group's ASCII bytes and trailing-zero count come from lookup tables.  The
sign, the decimal exponent X and the number of significant digits pick one
of 630 byte templates (its class), which map each output byte to a byte of
the value's source row: fixed notation for -4 <= X < 15, else d.ddde+XX
with at least two exponent digits.  About 88 % of a study column's values
share one class, so a call writes its commonest class into every row by a
few slice writes (`_runs`, built for a class on its first use) and gathers
only the other rows byte by byte.
"""

from __future__ import annotations

import functools

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

#: |v| the kernel formats itself; outside, v's split or the table overflows
_V_LOW, _V_HIGH = 1e-290, 1e300
#: 10^k for k in [_K_LOW, _K_HIGH] (14 - e for every e of an |v| in range,
#: with one to spare): hi correctly rounded, lo = 10^k - hi rounded, and hi
#: split exactly into halves of at most 26 bits (on hi's significand, so
#: that nothing overflows)
_K_LOW, _K_HIGH = -289, 307
_HI = np.array([float("1e%d" % k) for k in range(_K_LOW, _K_HIGH + 1)])


def _residual(k: int, hi: float) -> float:
    """10^k - hi, correctly rounded (Python's int / int is)."""
    num, den = hi.as_integer_ratio()
    p, q = (10**k, 1) if k >= 0 else (1, 10**-k)
    return (p * den - num * q) / (den * q)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x1, x2), x = x1 + x2 exactly, each of at most 26 bits (Veltkamp's
    split by 2^27 + 1, which overflows for |x| above about 1.3e300)."""
    c = x * 134217729.0
    x1 = c - x
    np.subtract(c, x1, out=x1)
    return x1, np.subtract(x, x1, out=c)


_LO = np.array([_residual(k, hi) for k, hi in zip(range(_K_LOW, _K_HIGH + 1), _HI.tolist())])
_m, _x = np.frexp(_HI)
_HI1, _HI2 = (np.ldexp(half, _x) for half in _split(_m))
del _m, _x

#: a computed fraction within this of 1/2 may round either way
_HALF_MARGIN = 2.0**-50

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
_EXPONENTS = np.arange(_EXP_LOW, -_EXP_LOW + 1)
#: the class of a positive value with exponent X and 15 significant digits,
#: at X - _EXP_LOW; a minus sign adds _FORMS * 15, each trailing zero of N
#: takes 1 off
_CLASS_OF_EXP = _PRECISION * np.where(
    (_EXPONENTS >= -4) & (_EXPONENTS < _PRECISION), _EXPONENTS + 4,
    _FIXED_FORMS + (np.abs(_EXPONENTS) >= 100)
) + _PRECISION - 1


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


@functools.cache
def _runs(cls: int) -> list[list]:
    """Class `cls`'s template as a few slice writes [out offset, length,
    source offset, byte]: a stretch of consecutive source bytes is one copy
    (byte None), a stretch of one constant byte ('-', '.', '0', 'e' or NUL)
    one fill."""
    runs = []
    for o, s in enumerate(_TEMPLATES[cls].tolist()):
        byte = _CONST_BYTES[s - _MINUS] if s >= _MINUS else None
        if runs and runs[-1][3] == byte and (byte is not None or sum(runs[-1][1:3]) == s):
            runs[-1][1] += 1
        else:
            runs.append([o, 1, s, byte])
    return runs


def _python_fields(values: np.ndarray) -> np.ndarray:
    """Fields of `values` formatted by Python, one call per distinct value."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = b"".join(
        ("%.15g" % v).encode("ascii").ljust(FIELD_WIDTH, b"\0")
        for v in bits.view(np.float64).tolist()
    )
    return np.frombuffer(text, dtype=np.uint8).reshape(-1, FIELD_WIDTH)[inverse]


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ph, t) with a 10^k = ph + t: ph = a hi rounded, t = pl + a lo, where
    a hi = ph + pl exactly by Dekker's TwoProduct; a in [_V_LOW, _V_HIGH]."""
    k = k - _K_LOW
    a1, a2 = _split(a)
    ph = a * _HI[k]
    h1, h2 = _HI1[k], _HI2[k]
    pl = a1 * h1
    pl -= ph
    pl += a1 * h2
    h1 *= a2
    pl += h1
    h2 *= a2
    pl += h2
    t = _LO[k]
    t *= a
    t += pl
    return ph, t


def g15_fields(values) -> np.ndarray:
    """(len(values), FIELD_WIDTH) uint8: the ASCII of `'%.15g' % v` for
    each float64 v, padded with NUL bytes."""
    v = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    a = np.abs(v)
    inside = (a >= _V_LOW) & (a <= _V_HIGH)  # False for 0, NaN and inf
    a[~inside] = 1.0

    e = np.floor(np.log10(a)).astype(np.int64)
    ph, t = _scaled(a, _PRECISION - 1 - e)
    moved = np.flatnonzero((ph >= _N_HIGH) | (ph < _N_LOW))
    if moved.size:
        e[moved] += np.where(ph[moved] >= _N_HIGH, 1, -1)
        ph[moved], t[moved] = _scaled(a[moved], _PRECISION - 1 - e[moved])
    n = np.floor(ph)
    frac = np.subtract(ph, n, out=ph)
    frac += t
    n = n.astype(np.int64)
    n += frac > 0.5
    carry = n == _N_HIGH
    n[carry] = _N_LOW
    e += carry

    fallback = ~inside | (np.abs(frac - 0.5) <= _HALF_MARGIN) | (n < _N_LOW) | (n >= _N_HIGH)
    n[fallback] = _N_LOW
    e[fallback] = 0

    hi = n // 10**8
    lo = n - hi * 10**8
    g0 = hi // 10**4
    g1 = hi - g0 * 10**4
    g2 = lo // 10**4
    g3 = lo - g2 * 10**4

    trailing = _TRAILING4[g3]
    zero = np.flatnonzero(g3 == 0)
    for g in (g2, g1, g0):  # the rows whose later groups are all 0000
        group = g[zero]
        trailing[zero] += _TRAILING4[group]
        zero = zero[group == 0]

    count = v.size
    src = np.empty((count, _SOURCE_WORDS), dtype=np.uint32)
    src[:, 0] = _DIGITS4[g0]
    src[:, 1] = _DIGITS4[g1]
    src[:, 2] = _DIGITS4[g2]
    src[:, 3] = _DIGITS4[g3]
    at = e - _EXP_LOW  # e's entry in _EXP4 and _CLASS_OF_EXP
    src[:, 4] = _EXP4[at]
    src[:, 5] = _CONST_WORD
    src[:, 6] = 0

    cls = _CLASS_OF_EXP[at]
    cls += np.signbit(v) * (_FORMS * _PRECISION)
    cls -= trailing
    # slice writes of the commonest class in every row, then the other rows' gather
    raw = src.view(np.uint8)
    out = np.empty((count, FIELD_WIDTH), dtype=np.uint8)
    major = int(np.bincount(cls, minlength=len(_TEMPLATES)).argmax())
    for o, size, s, byte in _runs(major):
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


def csv_rows(columns) -> np.ndarray:
    """ASCII CSV lines, as a uint8 array, of equal-length float64 columns
    (a 2-D table's `.T` will do), each value as `'%.15g' % v`, every line
    ending in a newline.  Each column is read where it lies, with no copy
    when it is contiguous.  A column whose bit patterns equal an earlier
    column's is copied from it, not formatted again."""
    cols, rows = len(columns), len(columns[0])
    bits = [np.asarray(c, dtype=np.float64).view(np.uint64) for c in columns]  # keeps -0.0, NaNs apart
    buf = np.empty((rows, cols, FIELD_WIDTH + 1), dtype=np.uint8)
    buf[:, :, FIELD_WIDTH] = ord(",")
    buf[:, -1, FIELD_WIDTH] = ord("\n")
    for c in range(cols):  # d: the first column with c's bit patterns
        d = next((d for d in range(c) if np.array_equal(bits[d][:1], bits[c][:1])
                  and np.array_equal(bits[d], bits[c])), c)
        buf[:, c, :FIELD_WIDTH] = g15_fields(columns[c]) if d == c else buf[:, d, :FIELD_WIDTH]
    flat = buf.reshape(-1)
    return flat[flat != 0]
