import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canica import (
    DataMatrix,
    GroupDataset,
    RowKind,
    SubjectSeries,
    read_csv_matrix,
    read_matrix,
    standardize,
    write_matrix,
)
from canica.data_model import MAGIC, VERSION
from canica.errors import (
    BadDimension,
    BadMagic,
    DataError,
    EmptyMatrix,
    NonFiniteValue,
    ShapeOverflow,
    TruncatedPayload,
)


@st.composite
def cnic_like(draw):
    """A CNIC1 header with any fields, then a payload that may fit its shape."""
    rows = draw(st.integers(0, 3) | st.integers(0, 2**64 - 1))
    cols = draw(st.integers(0, 3) | st.integers(0, 2**64 - 1))
    version = draw(st.sampled_from([VERSION, 0, 2]))
    kind = draw(st.integers(0, 2) | st.integers(0, 255))
    size = 8 * rows * cols if rows * cols <= 9 else 0
    payload = draw(st.binary(min_size=size, max_size=size) | st.binary(max_size=80))
    return MAGIC + bytes([version]) + struct.pack("<QQB", rows, cols, kind) + payload


def series_from(values):
    return SubjectSeries("s0", DataMatrix(np.asarray(values, float), RowKind.FRAMES))


class TestDataMatrix:
    def test_rejects_nan(self):
        with pytest.raises(NonFiniteValue):
            DataMatrix(np.array([[1.0, np.nan]]))

    def test_rejects_inf(self):
        with pytest.raises(NonFiniteValue):
            DataMatrix(np.array([[np.inf, 0.0]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(BadDimension):
            DataMatrix(np.zeros(3))

    def test_values_read_only(self):
        m = DataMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.values[0, 0] = 2.0

    def test_empty_rows_allowed(self):
        m = DataMatrix(np.zeros((0, 5)))
        assert m.rows == 0 and m.cols == 5


class TestGroupDataset:
    def test_voxel_mismatch(self):
        a = series_from(np.zeros((3, 4)) + np.arange(4))
        b = SubjectSeries("s1", DataMatrix(np.zeros((3, 5)), RowKind.FRAMES))
        with pytest.raises(BadDimension):
            GroupDataset((a, b))

    def test_duplicate_ids(self):
        a = series_from(np.zeros((3, 4)))
        with pytest.raises(BadDimension):
            GroupDataset((a, a))


class TestStandardize:
    def test_two_point_column(self):
        # centered values are +-1; the n-1 sample std of [1, 3] is sqrt(2)
        out = standardize(series_from([[1.0, 1.0], [3.0, 3.0]]))
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(out.data.values, [[-r, -r], [r, r]])
        assert np.allclose(out.data.values.var(axis=0, ddof=1), 1.0)

    def test_constant_column_flagged(self):
        out = standardize(series_from([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        np.testing.assert_array_equal(out.data.values[:, 0], 0.0)
        assert out.zero_variance.tolist() == [True, False]

    def test_random_matrix_statistics(self):
        rng = np.random.default_rng(7)
        out = standardize(series_from(rng.normal(3.0, 2.5, size=(100, 50))))
        x = out.data.values
        assert np.abs(x.mean(axis=0)).max() < 1e-10
        assert np.abs(x.var(axis=0, ddof=1) - 1.0).max() < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        once = standardize(series_from(rng.normal(size=(40, 30))))
        twice = standardize(once)
        np.testing.assert_allclose(
            twice.data.values, once.data.values, atol=1e-12
        )

    def test_shape_preserved(self):
        out = standardize(series_from(np.arange(12.0).reshape(4, 3)))
        assert out.data.values.shape == (4, 3)


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        m = DataMatrix(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), RowKind.FRAMES)
        path = tmp_path / "m.cnic"
        write_matrix(m, path)
        back = read_matrix(path)
        assert back.row_kind == RowKind.FRAMES
        assert m.values.tobytes() == back.values.tobytes()

    def test_empty_write_rejected(self, tmp_path):
        with pytest.raises(EmptyMatrix):
            write_matrix(DataMatrix(np.zeros((0, 0))), tmp_path / "e.cnic")

    def test_large_double_write_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        m = DataMatrix(rng.normal(size=(1000, 1000)))
        p1, p2 = tmp_path / "a.cnic", tmp_path / "b.cnic"
        write_matrix(m, p1)
        write_matrix(read_matrix(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cnic"
        path.write_bytes(b"NOPE" + bytes(30))
        with pytest.raises(BadMagic):
            read_matrix(path)

    def test_bad_version(self, tmp_path):
        m = DataMatrix(np.ones((2, 2)))
        path = tmp_path / "v.cnic"
        write_matrix(m, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            read_matrix(path)

    def test_truncated(self, tmp_path):
        m = DataMatrix(np.ones((4, 4)))
        path = tmp_path / "t.cnic"
        write_matrix(m, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TruncatedPayload):
            read_matrix(path)

    def test_trailing_bytes(self, tmp_path):
        m = DataMatrix(np.ones((2, 2)))
        path = tmp_path / "x.cnic"
        write_matrix(m, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(TruncatedPayload):
            read_matrix(path)

    def test_shape_overflow(self, tmp_path):
        path = tmp_path / "o.cnic"
        import struct

        header = b"CNIC" + bytes([1]) + struct.pack("<QQB", 1 << 30, 1 << 30, 0)
        path.write_bytes(header)
        with pytest.raises(ShapeOverflow):
            read_matrix(path)

    def test_non_finite_payload(self, tmp_path):
        m = DataMatrix(np.ones((1, 2)))
        path = tmp_path / "n.cnic"
        write_matrix(m, path)
        blob = bytearray(path.read_bytes())
        blob[-8:] = np.array([np.nan]).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(NonFiniteValue):
            read_matrix(path)

    @settings(max_examples=200)
    @given(blob=st.binary(max_size=64) | cnic_like())
    @example(blob=MAGIC + bytes([VERSION]) + struct.pack("<QQB", 1, 1, 0) + bytes(8))
    def test_any_bytes_read_as_a_matrix_or_a_data_error(self, tmp_path, blob):
        path = tmp_path / "m.cnic"
        path.write_bytes(blob)
        try:
            matrix = read_matrix(path)
        except DataError:
            return
        write_matrix(matrix, tmp_path / "back.cnic")
        assert (tmp_path / "back.cnic").read_bytes() == blob


class TestCsvImport:
    def test_without_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        m = read_csv_matrix(path)
        np.testing.assert_array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_with_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("v0,v1\n1.0,2.0\n3.0,4.0\n")
        m = read_csv_matrix(path, RowKind.FRAMES)
        assert m.row_kind == RowKind.FRAMES
        np.testing.assert_array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])
