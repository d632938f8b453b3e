"""The vectorized `%.15g` kernel must give exactly Python's bytes."""

import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gaasim import textfmt


def reference(values) -> str:
    return "".join("%.15g\n" % v for v in np.asarray(values, dtype=float).tolist())


def csv_bytes(table) -> bytes:
    """`textfmt.csv_rows` of the columns of `table`, whose uint8 array holds
    the text, as bytes."""
    return bytes(textfmt.csv_rows(np.asarray(table).T))


def formatted(values) -> str:
    return csv_bytes(np.asarray(values, dtype=float).reshape(-1, 1)).decode("ascii")


@pytest.fixture
def python_path(monkeypatch):
    """Counts the values that go through Python's own formatting."""
    seen = []
    original = textfmt._python_fields

    def spy(values):
        seen.extend(values.tolist())
        return original(values)

    monkeypatch.setattr(textfmt, "_python_fields", spy)
    return seen


def test_random_bit_patterns():
    rng = np.random.default_rng(20261018)
    values = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False)
    values = values.view(np.float64)
    assert formatted(values) == reference(values)


def test_random_decimals_over_many_scales():
    rng = np.random.default_rng(7)
    scale = 10.0 ** rng.integers(-12, 24, size=200_000)
    values = rng.standard_normal(200_000) * scale
    values = np.concatenate([values, np.round(values, 3), np.round(values, -2)])
    assert formatted(values) == reference(values)


EDGE_VALUES = [
    0.0, -0.0, np.inf, -np.inf, np.nan,
    5e-324, -5e-324,  # smallest subnormal
    2.2250738585072014e-308,  # smallest normal
    1.7976931348623157e308, -1.7976931348623157e308,  # largest double
    1e-5, 1e-4, 9.99999999999999e-5, 9.999999999999995e-5,
    1e14, 1e15, 999999999999999.5, 999999999999999.4, 1e16,
    99999999999999.95, 0.1, 1.0, -1.0, 12.5, 1e100, 1e-100, 1e22, 1e23,
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_edge_value(value):
    assert formatted([value]) == reference([value])


def test_sixteenth_digit_five():
    """Decimals whose 16th digit is 5; their binary values lie 4e-3 to
    1.1e-2 of a last-digit unit from the tie, outside the fallback margin,
    so the kernel rounds them and their neighbours itself."""
    values = [
        float("1.000000000000005"),
        float("123.4567890123455"),
        float("-0.0001234567890123455"),
        float("9.999999999999995e200"),
    ]
    values += [np.nextafter(v, d) for v in values for d in (-np.inf, np.inf)]
    assert formatted(values) == reference(values)


def test_exact_ties_take_the_fallback(python_path):
    ties = [999999999999999.5, 123456789012345.5, -1234567890123.125, 2.0**-22]
    assert formatted(ties) == reference(ties)
    assert python_path == ties
    neighbours = [np.nextafter(v, d) for v in ties for d in (-np.inf, np.inf)]
    assert formatted(neighbours) == reference(neighbours)


def test_zeros_nan_and_inf_take_the_fallback(python_path):
    values = [0.0, -0.0, np.inf, -np.inf, 1.25]
    assert formatted(values) == reference(values)
    assert len(python_path) == 4 and 1.25 not in python_path


def test_power_table_hi_is_correctly_rounded():
    for k, hi in zip(range(textfmt._K_LOW, textfmt._K_HIGH + 1), textfmt._HI.tolist()):
        exact = Fraction(10) ** k
        half_ulp = Fraction(*np.spacing(hi).as_integer_ratio()) / 2
        assert abs(Fraction(hi) - exact) <= half_ulp


def test_power_table_hi_plus_lo_is_within_2_to_the_minus_106():
    for k, hi, lo in zip(range(textfmt._K_LOW, textfmt._K_HIGH + 1), textfmt._HI.tolist(),
                         textfmt._LO.tolist()):
        exact = Fraction(10) ** k
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2**106


def test_power_table_halves_are_exact_26_bit_splits():
    def bits(x: float) -> int:
        """Significant bits of x: its odd numerator's length (0 for 0)."""
        num = abs(Fraction(x).numerator)
        return (num // (num & -num)).bit_length() if num else 0

    for hi, h1, h2 in zip(textfmt._HI.tolist(), textfmt._HI1.tolist(), textfmt._HI2.tolist()):
        assert Fraction(h1) + Fraction(h2) == Fraction(hi)
        assert bits(h1) <= 26 and bits(h2) <= 26


def test_power_table_covers_every_exponent_in_range():
    """Every e = floor(log10 |v|) of an |v| in range, moved one either way,
    has its 10^(14 - e) in the table, and no entry is infinite or subnormal."""
    e_low = int(np.floor(np.log10(textfmt._V_LOW))) - 1
    e_high = int(np.floor(np.log10(textfmt._V_HIGH))) + 1
    assert textfmt._K_LOW <= 14 - e_high and 14 - e_low <= textfmt._K_HIGH
    for table in (textfmt._HI, textfmt._LO, textfmt._HI1, textfmt._HI2):
        nonzero = np.abs(table[table != 0.0])
        assert np.all(np.isfinite(table)) and np.all(nonzero >= np.finfo(float).tiny)


def must_reach_python(v: float) -> bool:
    """Whether the kernel must leave v to Python: a zero, a non-finite
    value, an |v| outside [1e-290, 1e300] or an exact tie, whose 15-digit
    significand |v| 10^(14 - X) has fraction exactly 1/2."""
    if v == 0.0 or not math.isfinite(v) or not 1e-290 <= abs(v) <= 1e300:
        return True
    x = Fraction(abs(v))
    guess = math.floor(math.log10(abs(v)))
    for e in (guess - 1, guess, guess + 1):
        q = x * Fraction(10) ** (14 - e)
        if 10**14 <= q < 10**15:
            return q - math.floor(q) == Fraction(1, 2)
    raise AssertionError(v)


def test_kernel_takes_no_longdouble_and_no_fallback():
    """A fresh interpreter binds numpy.longdouble to float64 (as on hosts
    whose long double is a double) before importing textfmt: the bytes are
    Python's, and only the values that must reach Python do."""
    script = textwrap.dedent("""
        import json
        import numpy as np
        np.longdouble = np.float64
        from gaasim import textfmt
        seen = []
        original = textfmt._python_fields
        textfmt._python_fields = lambda v: seen.extend(v.tolist()) or original(v)
        rng = np.random.default_rng(5)
        values = rng.standard_normal(50_000) * 10.0 ** rng.integers(-30, 30, 50_000)
        values = np.concatenate([values, [0.0, -0.0, np.inf, np.nan, 1e-5, 1e15]])
        text = bytes(textfmt.csv_rows([values])).decode("ascii")
        assert text == "".join("%.15g\\n" % v for v in values.tolist())
        print(json.dumps(seen))
    """)
    src = str(Path(textfmt.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen[-4:][:2] == [0.0, -0.0] and math.isinf(seen[-2]) and math.isnan(seen[-1])
    assert all(must_reach_python(v) for v in seen)


def neighbours(values, ulps: int = 3) -> list[float]:
    """Each value and the doubles up to `ulps` steps below and above it."""
    out = []
    for v in values:
        out.append(v)
        for direction in (-math.inf, math.inf):
            w = v
            for _ in range(ulps):
                w = math.nextafter(w, direction)
                out.append(w)
    return out


def test_near_ties_and_decade_edges(python_path):
    """A seeded falsifier: the doubles nearest the ties (N + 1/2) 10^(X - 14)
    for random 15-digit N and X in [-290, 300] (and X near 14, where ties
    are exact), every 10^k, the ends of the kernel's range and subnormals,
    each with its neighbours up to 3 ulps away, of both signs.  Every field
    is Python's, and exactly the values that must reach Python do."""
    rng = np.random.default_rng(20261020)
    n = rng.integers(10**14, 10**15, size=1500).tolist()
    x = rng.integers(-290, 301, size=1500).tolist()
    x[:300] = rng.integers(12, 17, size=300).tolist()
    ties = [float((Fraction(2 * k + 1, 2)) * Fraction(10) ** (e - 14)) for k, e in zip(n, x)]
    powers = [float("1e%d" % k) for k in range(-323, 309)]
    edges = [1e-290, 1e300, 2.2250738585072014e-308, 5e-324, 2.225073858507201e-308,
             1.2345678901234567e-310, 1.7976931348623157e308]
    values = neighbours(ties + powers + edges)
    values = [v for v in values + [-v for v in values] if math.isfinite(v)]
    assert formatted(values) == reference(values)
    reached = set(np.array(python_path).view(np.uint64).tolist())
    expected = {b for v, b in zip(values, np.array(values).view(np.uint64).tolist())
                if must_reach_python(v)}
    assert reached == expected
    assert sum(v != 0.0 and 1e-290 <= abs(v) <= 1e300 for v in python_path) > 0  # exact ties


def test_fields_are_nul_padded_to_fixed_width():
    fields = textfmt.g15_fields([1.5, -2.5e-300])
    assert fields.shape == (2, textfmt.FIELD_WIDTH)
    assert bytes(fields[0]).rstrip(b"\0") == b"1.5"
    assert bytes(fields[1]).rstrip(b"\0") == b"-2.5e-300"


def test_table_rows_and_separators():
    table = np.array([[1.0, -0.0, 3.5e20], [np.nan, 2e-7, 0.25]])
    assert csv_bytes(table) == b"1,-0,3.5e+20\nnan,2e-07,0.25\n"
    assert csv_bytes(np.empty((0, 3))) == b""


def test_equal_columns_are_formatted_once(python_path):
    """A column equal bit for bit to an earlier one is copied, not formatted
    again; 0.0 and -0.0, and NaNs with different payloads, are not equal."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal(200) * 10.0 ** rng.integers(-20, 20, 200)
    quiet = np.array([0x7FF8000000000000], dtype=np.uint64).view(np.float64)[0]
    payload = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    zeros, nans = np.zeros(200), np.full(200, quiet)
    table = np.column_stack([x, zeros, -zeros, x, nans, np.full(200, payload), -x, x])
    expected = "".join(",".join("%.15g" % v for v in row) + "\n" for row in table.tolist())
    assert csv_bytes(table).decode("ascii") == expected
    assert expected.split("\n", 1)[0].split(",")[1:3] == ["0", "-0"]
    # the +0.0, -0.0 and both NaN columns each reach the fallback once
    assert sum(v == 0.0 or v != v for v in python_path) == 4 * 200


def test_equal_columns_skip_the_kernel(monkeypatch):
    calls = []
    original = textfmt.g15_fields

    def counting(values):
        calls.append(values.size)
        return original(values)

    monkeypatch.setattr(textfmt, "g15_fields", counting)
    x = np.linspace(-3.0, 3.0, 50)
    table = np.column_stack([x, x * 2.0, x, x * 2.0, x])
    rows = csv_bytes(table).decode("ascii").splitlines()
    assert rows == [",".join("%.15g" % v for v in row) for row in table.tolist()]
    assert calls == [50, 50]


def class_values(neg: bool, form: int, digits: int, count: int = 1) -> list[float]:
    """`count` values of the template class (sign, form, digit count): `form`
    is X + 4 in fixed notation (X = -4..14), then an exponent of two, then
    of three digits; each value has `digits` significant digits, none of
    them 0, and a different last digit."""
    exponents = {19: (20, -20), 20: (200, -200)}.get(form, (form - 4,))
    values = []
    for k in range(count):
        mantissa = "123456789123456"[: digits - 1] + "123456789"[k % 9]
        x = exponents[k % len(exponents)]
        values.append(float(f"{'-' if neg else ''}{mantissa[0]}.{mantissa[1:]}e{x}"))
    return values


CLASSES = [(neg, form, digits) for neg in (False, True) for form in range(textfmt._FORMS)
           for digits in range(1, textfmt._PRECISION + 1)]


def test_class_values_cover_every_template():
    assert len(CLASSES) == len(textfmt._TEMPLATES) == 630
    for neg, form, digits in CLASSES:
        for text in ("%.15g" % v for v in class_values(neg, form, digits, 9)):
            significand, _, exponent = text.lstrip("-").partition("e")
            assert text.startswith("-") == neg
            assert len(significand.replace(".", "").strip("0")) == digits
            if form < 19:
                assert not exponent and np.floor(np.log10(abs(float(text)))) == form - 4
            else:
                assert len(exponent) == (3 if form == 19 else 4)


def test_every_class_as_commonest_and_as_minority(monkeypatch, python_path):
    """Each of the 630 classes is the commonest of one block, written by its
    slice writes, while every other class appears in that block once and is
    gathered through its template."""
    used = []
    runs = textfmt._runs

    def recording(cls):
        used.append(cls)
        return runs(cls)

    monkeypatch.setattr(textfmt, "_runs", recording)
    others = [v for key in CLASSES for v in class_values(*key)]
    for key in CLASSES:
        values = class_values(*key, count=9) + others
        assert formatted(values) == reference(values)
    assert used == list(range(len(CLASSES)))
    assert python_path == []


def test_block_with_no_majority():
    """Every class once, or two classes tied: the bytes are Python's
    whichever class is written by slice writes."""
    rng = np.random.default_rng(11)
    values = [v for key in CLASSES for v in class_values(*key)]
    values = np.array(values)[rng.permutation(len(values))]
    assert formatted(values) == reference(values)
    tied = class_values(False, 4, 15, 50) + class_values(True, 19, 3, 50)
    assert formatted(tied) == reference(tied)
    assert formatted(tied[::-1]) == reference(tied[::-1])


def test_empty_input():
    assert textfmt.g15_fields([]).shape == (0, textfmt.FIELD_WIDTH)
    assert csv_bytes(np.empty((0, 1))) == b""


@pytest.mark.parametrize("value", [0.0, -0.0, np.nan, -np.nan, np.inf], ids=repr)
def test_column_of_one_special_value(value):
    """A column all zeros, NaNs or infinities: its commonest class is
    written into every row and then overwritten by Python's bytes."""
    table = np.column_stack([np.full(300, value), np.linspace(-1.0, 1.0, 300),
                             np.full(300, value)])
    expected = "".join(",".join("%.15g" % v for v in row) + "\n" for row in table.tolist())
    assert csv_bytes(table).decode("ascii") == expected
