"""Plain numeric CSV readers and writers.

One matrix row per line, comma separated, no header. Writers emit 17
significant digits so doubles round-trip exactly; readers reject ragged rows,
non-numeric fields and non-finite values with the offending line in the
message. The reader streams each row into its own float array, so the Python
float objects of only one row are alive at a time, and stacks the rows once.
"""

import numpy as np

from .errors import ValidationError


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


def write_matrix(path, matrix):
    """Write a matrix as CSV at 17 significant digits."""
    arr = np.atleast_2d(np.asarray(matrix, dtype=float))
    np.savetxt(path, arr, fmt="%.17g", delimiter=",")


def write_vector(path, vector):
    """Write a vector as a single CSV row."""
    write_matrix(path, np.asarray(vector, dtype=float).reshape(1, -1))
