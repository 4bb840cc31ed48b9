"""Plain numeric CSV readers and writers.

One matrix row per line, comma separated, no header. Writers print each double
in scientific notation with 17 significant digits and trailing zeros trimmed
(``-1.0000000000000001e-01``, ``5e-01``, ``1e+22``); a zero exponent is
left out (``1``, ``-0``), and non-finite cells read ``nan``, ``inf`` and
``-inf``. Every double round-trips exactly. Readers reject ragged rows,
non-numeric fields and non-finite values with the offending line in the
message. The reader streams each row into its own float array, so the Python
float objects of only one row are alive at a time, and stacks the rows once.
"""

import math

import numpy as np

from .errors import ValidationError

_CHUNK = 8192  # values formatted per pass; bounds the writer's temporary arrays
_E_MIN, _E_MAX = -1073, 1024  # frexp exponents of the least and greatest doubles
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves
_LOG10_2 = math.log10(2)
# The scale 2**E * 10**k as rows hi, hi's two Veltkamp halves and lo, where
# hi + lo is within 2**-106 of it relatively. One column per frexp exponent E
# and step s, with k = 16 - floor((E - 1) log10 2) - s; a column is built on
# first use and is NaN until then.
_SCALES = np.full((4, 2 * (_E_MAX - _E_MIN + 1)), np.nan)
_NAN, _INF = (np.frombuffer(token, np.uint8)[:, None] for token in (b"nan", b"inf"))


def read_matrix(path):
    """Load a 2-d matrix from CSV, rejecting ragged, non-numeric or non-finite rows."""
    rows = []
    linenos = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ValidationError(
                    f"{path}: ragged row at line {lineno}: expected {width} "
                    f"columns, found {len(fields)}")
            linenos.append(lineno)
            try:
                rows.append(np.fromiter(map(float, fields), float, width))
            except ValueError:
                bad = next(i for i, f in enumerate(fields) if not _is_number(f))
                raise ValidationError(
                    f"{path}: non-numeric value at line {lineno}, column {bad + 1}")
    if not rows:
        raise ValidationError(f"{path}: empty matrix file")
    arr = np.array(rows)
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise ValidationError(
            f"{path}: non-finite value at line {linenos[i]}, column {j + 1}")
    return arr


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


def read_vector(path):
    """Load a vector stored as a single CSV row or a single column."""
    arr = read_matrix(path)
    if 1 not in arr.shape:
        raise ValidationError(
            f"{path}: expected a single row or column vector, got shape {arr.shape}")
    return arr.ravel()


def _scale(column):
    """The column of ``_SCALES`` with index ``column``, from the exact ratio
    num / den of Python integers (their true division rounds correctly)."""
    E, step = divmod(column, 2)
    E += _E_MIN
    k = 16 - math.floor((E - 1) * _LOG10_2) - step
    num, den = 2 ** max(E, 0) * 10 ** max(k, 0), 2 ** max(-E, 0) * 10 ** max(-k, 0)
    hi = num / den
    a, b = hi.as_integer_ratio()  # hi == a / b exactly
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, hh, hi - hh, (num * b - a * den) / (den * b)


def _scaled_round(mant, E, step):
    """round(mant * 2**E * 10**k) as int64, for frexp's mantissa and exponent.

    The product of ``mant`` with hi is exact as a double-double (Dekker's
    two-product, since numpy has no fused multiply-add), so the sum errs by
    about 1e-14 of a unit, far below the 1e-3 that ``write_matrix`` needs.
    """
    column = 2 * (E - _E_MIN) + step
    hi, hh, hl, lo = np.take(_SCALES, column, axis=1)
    missing = np.isnan(hi)
    if missing.any():
        for c in set(column[missing].tolist()):
            _SCALES[:, c] = _scale(c)
        hi, hh, hl, lo = np.take(_SCALES, column, axis=1)
    c = _SPLIT * mant
    mh = c - (c - mant)
    ml = mant - mh
    prod = mant * hi  # at least 1e16 > 2**53, so a whole number
    err = ((mh * hh - prod) + mh * hl + ml * hh) + ml * hl  # mant * hi - prod
    return prod.astype(np.int64) + np.rint(err + mant * lo).astype(np.int64)


def _format(values, seps):
    """The CSV bytes of a 1-d chunk, each value followed by its byte of ``seps``.
    D's digits come off its two 32-bit halves by ``//`` and ``-``, far cheaper than int64."""
    mag = np.abs(values)
    finite = mag < np.inf
    nonzero = finite & (mag > 0)
    mant, E = np.frexp(np.where(nonzero, mag, 1.0))
    E = E.astype(np.int64)
    # The first k puts |x| * 10**k at or above 1e16; where the 17-digit D
    # reaches 1e17, one power of ten fewer brings it back into range.
    step = np.zeros(values.size, np.int64)
    D = _scaled_round(mant, E, step)
    over = np.flatnonzero(D >= 10 ** 17)
    step[over] = 1
    D[over] = _scaled_round(mant[over], E[over], step[over])
    D[~nonzero] = 0
    exp10 = np.where(nonzero, np.floor((E - 1) * _LOG10_2).astype(np.int64) + step, 0)

    # One column per value: sign, digit, point, 16 digits, e, sign, three
    # exponent digits, separator; ``keep`` selects the bytes written.
    text = np.empty((25, values.size), np.uint8)
    keep = np.empty(text.shape, bool)
    tail = np.zeros(values.size, bool)
    high, low = np.array(np.divmod(D, 10 ** 8), np.uint32)
    for half, rows in ((low, range(18, 10, -1)), (high, (*range(10, 2, -1), 1))):
        for row in rows:
            rest = half // 10
            np.add(half - rest * 10, 48, out=text[row], casting="unsafe")
            tail |= text[row] != 48
            keep[row] = tail
            half = rest
    keep[1] = True
    text[0], keep[0] = ord("-"), np.signbit(values) & ~np.isnan(values)
    text[2], keep[2] = ord("."), keep[3]
    mag10 = np.abs(exp10).astype(np.uint32)
    text[19], text[20] = ord("e"), np.where(exp10 < 0, ord("-"), ord("+"))
    hundreds, tens = mag10 // 100, mag10 // 10
    text[21], text[22], text[23] = hundreds + 48, tens - hundreds * 10 + 48, mag10 - tens * 10 + 48
    keep[19:24] = exp10 != 0
    keep[21] &= mag10 >= 100
    text[24], keep[24] = seps, True
    bad = np.flatnonzero(~finite)
    text[1:4, bad] = np.where(np.isnan(values[bad]), _NAN, _INF)
    keep[2:4, bad] = True
    return text.T[keep.T]


def write_matrix(path, matrix):
    """Write a matrix as CSV, each double at 17 significant digits.

    Each finite |x| is printed as D * 10**-k, where D = round(|x| * 10**k) is
    the 17-digit integer. ``_scaled_round`` finds D to within 1e-3 of a unit,
    and a decimal within 0.501 units of its 17th digit lies inside half an ulp
    of x, so any correctly rounding parser reads back the same double. Each
    pass formats whole rows, or a piece of a row longer than ``_CHUNK``, and
    takes its separators from one array that the write builds once.
    """
    arr = np.atleast_2d(np.asarray(matrix, dtype=float))
    if arr.ndim != 2:
        raise ValidationError(f"{path}: expected a matrix, got {arr.ndim} dimensions")
    width = max(arr.shape[1], 1)
    rows = max(_CHUNK // width, 1)
    seps = np.tile(np.frombuffer(b"," * (width - 1) + b"\n", np.uint8), rows)
    with open(path, "wb") as fh:
        for top in range(0, arr.shape[0], rows):
            block = arr[top:top + rows]
            for start in range(0, block.size, _CHUNK):
                values = block.flat[start:start + _CHUNK]
                fh.write(_format(values, seps[start:start + values.size]))


def write_vector(path, vector):
    """Write a vector as a single CSV row."""
    write_matrix(path, np.asarray(vector, dtype=float).reshape(1, -1))
