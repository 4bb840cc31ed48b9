import numpy as np
import pytest

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
