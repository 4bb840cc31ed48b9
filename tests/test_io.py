import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from otmatch import io as mio
from otmatch.errors import ValidationError

from conftest import peak_arrays


class TestMatrixRoundTrip:
    def test_doubles_survive_exactly(self, rng, tmp_path):
        arr = rng.normal(0, 1, (4, 6))
        path = tmp_path / "m.csv"
        mio.write_matrix(path, arr)
        np.testing.assert_array_equal(mio.read_matrix(path), arr)

    def test_vector_round_trip(self, rng, tmp_path):
        v = rng.normal(0, 1, 7)
        path = tmp_path / "v.csv"
        mio.write_vector(path, v)
        np.testing.assert_array_equal(mio.read_vector(path), v)

    def test_read_peaks_below_two_and_a_half_arrays(self, rng, tmp_path):
        # rows stream into float arrays; a list of Python floats per value
        # would peak above five copies of the matrix
        arr = rng.normal(0, 1, (300, 300))
        path = tmp_path / "m.csv"
        mio.write_matrix(path, arr)
        got = []
        assert peak_arrays(lambda: got.append(mio.read_matrix(path)), arr.shape) <= 2.5
        np.testing.assert_array_equal(got[0], arr)

    def test_column_vector_accepted(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1.5\n2.5\n3.5\n")
        np.testing.assert_array_equal(mio.read_vector(path), [1.5, 2.5, 3.5])


def assert_bitwise(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def edge_doubles():
    """Powers of two and ten with their neighbours, signed zeros, subnormals,
    the extremes and random bit patterns, all finite."""
    pow2 = np.ldexp(1.0, np.arange(-1074, 1024))
    pow10 = np.array([float(f"1e{e}") for e in range(-323, 309)])
    near = np.concatenate([pow2, pow10])
    near = np.concatenate([near, np.nextafter(near, 0), np.nextafter(near, np.inf)])
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2 ** 63, 100_000, dtype=np.int64).view(np.float64)
    subnormal = rng.integers(1, 2 ** 52, 10_000, dtype=np.int64).view(np.float64)
    finfo = np.finfo(float)
    x = np.concatenate([near, bits, subnormal, [0.0, finfo.max, finfo.tiny, finfo.eps]])
    x = x[np.isfinite(x)]
    return np.concatenate([x, -x])


def oracle_token(x):
    """The writer's text for one double, from Python's correctly rounded
    17-digit form: mantissa zeros and a bare point trimmed, ``e+00`` dropped,
    at least two exponent digits."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    mantissa, exponent = format(x, ".16e").split("e")
    mantissa = mantissa.rstrip("0").rstrip(".")
    exponent = int(exponent)
    return mantissa if exponent == 0 else f"{mantissa}e{exponent:+03d}"


def oracle_text(arr):
    return "".join(",".join(map(oracle_token, row)) + "\n" for row in np.atleast_2d(arr))


class TestMatrixWriter:
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=st.floats(allow_nan=False, allow_infinity=False,
                                         allow_subnormal=True)))
    def test_finite_doubles_read_back_bitwise(self, tmp_path, arr):
        path = tmp_path / "m.csv"
        mio.write_matrix(path, arr)
        assert_bitwise(mio.read_matrix(path), arr)
        assert_bitwise(np.loadtxt(path, delimiter=",", ndmin=2), arr)
        tokens = path.read_text().replace("\n", ",").split(",")[:-1]
        assert_bitwise(np.array([float(t) for t in tokens]).reshape(arr.shape), arr)

    def test_edge_doubles_read_back_bitwise(self, tmp_path):
        x = edge_doubles()
        path = tmp_path / "v.csv"
        mio.write_vector(path, x)
        assert_bitwise(mio.read_vector(path), x)

    def test_non_finite_tokens(self, tmp_path):
        path = tmp_path / "m.csv"
        mio.write_matrix(path, [[np.nan, -np.nan], [np.inf, -np.inf]])
        assert path.read_text() == "nan,nan\ninf,-inf\n"

    def test_short_values_stay_short(self, tmp_path):
        path = tmp_path / "v.csv"
        mio.write_vector(path, [1.0, 0.5, -0.0, 10.0, 1e22, -0.1, -5e-324])
        assert path.read_text() == ("1,5e-01,-0,1e+01,1e+22,-1.0000000000000001e-01,"
                                    "-4.9406564584124654e-324\n")

    def test_edge_doubles_match_the_oracle(self, tmp_path):
        x = edge_doubles()
        path = tmp_path / "v.csv"
        mio.write_vector(path, x)
        assert path.read_text() == oracle_text(x)

    @pytest.mark.parametrize("x, token", [
        (1234567890123456.75, "1.2345678901234568e+15"),  # an exact tie rounds to even
        (1e16 + 1e8, "1.00000001e+16"),  # digits on both sides of the 10**8 split
        (1e8, "1e+08"),
        (99999999.0, "9.9999999e+07"),
        (123456789.0, "1.23456789e+08"),
        (np.nan, "nan"),
        (np.inf, "inf"),
        (-np.inf, "-inf")])
    def test_single_values_match_the_oracle(self, tmp_path, x, token):
        assert oracle_token(x) == token
        path = tmp_path / "v.csv"
        mio.write_vector(path, [x, -x])
        assert path.read_text() == oracle_text([x, -x])

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0,)])
    def test_empty_shapes_write_an_empty_file(self, tmp_path, shape):
        path = tmp_path / "m.csv"
        (mio.write_vector if len(shape) == 1 else mio.write_matrix)(path, np.zeros(shape))
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("shape", [(2, 20001), (777, 13)])
    def test_rows_across_pass_edges_match_the_oracle(self, tmp_path, shape):
        # rows longer than one formatting pass, and a width that does not divide it
        x = np.random.default_rng(11).choice(edge_doubles(), shape)
        path = tmp_path / "m.csv"
        mio.write_matrix(path, x)
        assert path.read_text() == oracle_text(x)
        mio.write_matrix(path, np.asfortranarray(x))
        assert path.read_text() == oracle_text(x)

    def test_rewriting_a_written_file_gives_the_same_bytes(self, rng, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        mio.write_matrix(first, rng.normal(0, 1, (7, 9)) * np.logspace(-300, 300, 9))
        mio.write_matrix(second, mio.read_matrix(first))
        assert first.read_bytes() == second.read_bytes()

    def test_write_peaks_below_half_an_array(self, rng, tmp_path):
        # the text is built in fixed-size chunks, so the peak does not grow with m
        arr = rng.normal(0, 1, (1000, 1000))
        path = tmp_path / "m.csv"
        assert peak_arrays(lambda: mio.write_matrix(path, arr), arr.shape) <= 0.5


class TestReaderRejections:
    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValidationError, match="line 2"):
            mio.read_matrix(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(ValidationError, match="line 2, column 2"):
            mio.read_matrix(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite(self, tmp_path, token):
        # blank lines are skipped but counted: the row is the file's line 5
        path = tmp_path / "bad.csv"
        path.write_text(f"\n1,2\n\n\n3,{token}\n")
        with pytest.raises(ValidationError) as exc:
            mio.read_matrix(path)
        assert str(exc.value) == f"{path}: non-finite value at line 5, column 2"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            mio.read_matrix(path)

    def test_matrix_not_a_vector(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ValidationError, match="vector"):
            mio.read_vector(path)
