"""Core matrix types and the CNIC1 on-disk format.

Every stage of the pipeline works on dense ``rows x voxels`` matrices of
64-bit floats. Voxels are an unordered flat axis; no spatial structure is
attached. All types are immutable after construction, apart from the Gram a
matrix keeps once formed, and safe to share across threads.

CNIC1 format, little-endian throughout::

    bytes 0..3   magic "CNIC"
    byte  4      version, 0x01
    bytes 5..12  u64 rows
    bytes 13..20 u64 cols
    byte  21     row-semantics code (0 frames, 1 patterns, 2 components)
    then rows*cols IEEE-754 f64 values, row-major

A write/read round trip is bit-exact.

``standardize`` returns a ``StandardizedSeries``, and returns such a series
as it is, so a caller that standardizes each subject as it loads it holds one
copy, and the fit that standardizes again copies nothing.

A matrix owns its row Gram ``values @ values.T`` (``DataMatrix.gram``): it is
formed on first read and kept with the matrix. For a subject series that is
the frame Gram which order selection, the reduction and the group's
cross-Gram table all read, so a command forms it once per subject.
"""

import enum
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimension,
    BadMagic,
    EmptyMatrix,
    NonFiniteValue,
    ShapeOverflow,
    TruncatedPayload,
)

MAGIC = b"CNIC"
VERSION = 1
_HEADER = struct.Struct("<QQB")
_HEADER_SIZE = len(MAGIC) + 1 + _HEADER.size
MAX_ELEMENTS = 1 << 32


class RowKind(enum.IntEnum):
    """What one row of a DataMatrix means. Columns are always voxels."""

    FRAMES = 0
    PATTERNS = 1
    COMPONENTS = 2


@dataclass(frozen=True)
class DataMatrix:
    """Immutable 2-D float64 matrix with row semantics.

    All entries are finite; the array is made C-contiguous and read-only
    at construction. The row Gram ``gram`` is formed on first read.
    """

    values: np.ndarray
    row_kind: RowKind = RowKind.PATTERNS

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise BadDimension(f"expected a 2-D matrix, got ndim={arr.ndim}")
        if arr.size and not np.isfinite(arr).all():
            raise NonFiniteValue("matrix contains NaN or infinite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "row_kind", RowKind(self.row_kind))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def gram(self) -> np.ndarray:
        """The read-only row Gram ``values @ values.T``, formed on first read.

        It is kept in the instance, set like ``values`` is: before Python 3.12
        ``functools.cached_property`` holds one lock for every instance, which
        would make a pool of subjects form their Grams one at a time. Threads
        that read a new matrix's Gram together may each form it; the products
        are one BLAS ``syrk`` on the same operand, so the kept one has the
        same bits whichever wins. A caller that writes into a Gram copies it.
        """
        gram = self.__dict__.get("_gram")
        if gram is None:
            gram = self.values @ self.values.T
            gram.setflags(write=False)
            object.__setattr__(self, "_gram", gram)
        return gram


@dataclass(frozen=True)
class SubjectSeries:
    """One subject's frames-by-voxels observation matrix."""

    subject_id: str
    data: DataMatrix

    def __post_init__(self):
        if self.data.row_kind != RowKind.FRAMES:
            raise BadDimension("subject data must have frame rows")
        if self.data.rows < 2 or self.data.cols < 2:
            raise BadDimension(
                f"subject {self.subject_id!r} needs at least 2 frames and "
                f"2 voxels, got {self.data.rows}x{self.data.cols}"
            )

    @property
    def n_frames(self) -> int:
        return self.data.rows

    @property
    def n_voxels(self) -> int:
        return self.data.cols


@dataclass(frozen=True)
class GroupDataset:
    """Ordered collection of subjects sharing one voxel axis."""

    subjects: tuple[SubjectSeries, ...]

    def __post_init__(self):
        subjects = tuple(self.subjects)
        object.__setattr__(self, "subjects", subjects)
        if not subjects:
            raise EmptyMatrix("a group dataset needs at least one subject")
        voxels = {s.n_voxels for s in subjects}
        if len(voxels) != 1:
            raise BadDimension(f"subjects disagree on voxel count: {sorted(voxels)}")
        ids = [s.subject_id for s in subjects]
        if len(set(ids)) != len(ids):
            raise BadDimension("subject ids must be unique")

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def n_voxels(self) -> int:
        return self.subjects[0].n_voxels


@dataclass(frozen=True)
class StandardizedSeries(SubjectSeries):
    """A subject series whose voxels ``standardize`` has already scaled."""


def standardize(series: SubjectSeries) -> StandardizedSeries:
    """Center every voxel and scale it to unit sample variance.

    Columns with no variation are left at zero so voxel indexing stays
    stable across subjects. Sample variance uses the n-1 denominator. A
    ``StandardizedSeries`` is returned as it is, not copied; standardizing
    its values again as a plain series moves them only by rounding.
    """
    if isinstance(series, StandardizedSeries):
        return series
    x = series.data.values
    if x.shape[0] == 0 or x.shape[1] == 0:
        raise EmptyMatrix("cannot standardize an empty matrix")
    out = x - x.mean(axis=0)
    flat = np.ptp(x, axis=0) == 0.0
    std = out.std(axis=0, ddof=1)
    std[flat] = 1.0
    out /= std
    out[:, flat] = 0.0
    return StandardizedSeries(series.subject_id, DataMatrix(out, RowKind.FRAMES))


def cnic_bytes(matrix: DataMatrix) -> tuple[bytes, memoryview]:
    """The CNIC1 file of ``matrix`` as its header and a buffer of its payload.

    On a little-endian machine the payload buffer is the matrix's own memory.
    """
    header = MAGIC + bytes([VERSION]) + _HEADER.pack(
        matrix.rows, matrix.cols, int(matrix.row_kind))
    return header, memoryview(matrix.values.astype("<f8", copy=False))


def write_matrix(matrix: DataMatrix, path) -> None:
    """Write a matrix in CNIC1 format."""
    if matrix.rows == 0 or matrix.cols == 0:
        raise EmptyMatrix("refusing to write a matrix with no rows or columns")
    header, payload = cnic_bytes(matrix)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_matrix(path) -> DataMatrix:
    """Read a CNIC1 file, validating header and payload.

    The payload is read straight into the matrix's own array, so the file is
    held in memory once, and ``DataMatrix`` checks it for finiteness once.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_SIZE)
        if len(header) < _HEADER_SIZE:
            raise BadMagic(f"{path}: file shorter than a CNIC1 header")
        if header[:4] != MAGIC or header[4] != VERSION:
            raise BadMagic(f"{path}: not a CNIC1 file")
        rows, cols, kind_code = _HEADER.unpack_from(header, 5)
        try:
            kind = RowKind(kind_code)
        except ValueError:
            raise BadMagic(f"{path}: unknown row-semantics code {kind_code}") from None
        if rows == 0 or cols == 0:
            raise EmptyMatrix(f"{path}: declared shape {rows}x{cols} is empty")
        if rows * cols > MAX_ELEMENTS:
            raise ShapeOverflow(f"{path}: {rows}x{cols} exceeds the element limit")
        expected = _HEADER_SIZE + 8 * rows * cols
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise TruncatedPayload(
                f"{path}: expected {expected} bytes for {rows}x{cols}, got {size}"
            )
        values = np.empty((rows, cols), dtype="<f8")
        got = fh.readinto(values)
    if got != values.nbytes:
        raise TruncatedPayload(
            f"{path}: expected {expected} bytes for {rows}x{cols}, "
            f"got {_HEADER_SIZE + got}"
        )
    try:
        return DataMatrix(values, kind)
    except NonFiniteValue as exc:
        raise NonFiniteValue(f"{path}: {exc}") from None


def read_csv_matrix(path, row_kind: RowKind = RowKind.PATTERNS) -> DataMatrix:
    """Read a small comma-separated matrix; a non-numeric header row is skipped."""
    with open(path) as fh:
        first = fh.readline()
    skip = 0
    try:
        [float(tok) for tok in first.strip().split(",") if tok != ""]
    except ValueError:
        skip = 1
    values = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    return DataMatrix(values, row_kind)
