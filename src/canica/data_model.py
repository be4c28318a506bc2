"""Core matrix types and the CNIC1 on-disk format.

Every stage of the pipeline works on dense ``rows x voxels`` matrices of
64-bit floats. Voxels are an unordered flat axis; no spatial structure is
attached. All types are immutable after construction, apart from what they
keep once formed (a matrix's Gram and its whitening, a subject series'
order-selection curves), and safe to share across threads.

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

A matrix owns its row Gram ``values @ values.T`` (``DataMatrix.gram``) and
that Gram's eigendecomposition under the rank rule (``_whiten``), each formed
on first read and kept. So a command forms and decomposes each subject's
frame Gram once, on one OpenBLAS thread.
"""

import enum
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import _blas
from .errors import (
    BadDimension,
    BadMagic,
    EmptyMatrix,
    NonFiniteValue,
    NumericalFailure,
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
    at construction. The row Gram ``gram`` and its ``whitening`` are formed
    on first read.
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

    @property
    def whitening(self) -> tuple[np.ndarray, int, np.ndarray]:
        """``_whiten`` of ``gram`` at full width, (s, rank, map), read-only.

        Kept like ``gram``; the map's first m columns have the bits of
        ``_whiten`` at order m. Formed on one OpenBLAS thread (``_blas.limit``):
        at many widths from about 150 rows up, ``eigh``'s bits depend on the count.
        """
        kept = self.__dict__.get("_whitening")
        if kept is None:
            with _blas.limit():
                kept = _whiten(self.gram, self.rows, max(self.values.shape))
            for array in (kept[0], kept[2]):
                array.setflags(write=False)
            object.__setattr__(self, "_whitening", kept)
        return kept


def _dead_level(lambda_max: float, size: int) -> float:
    """Gram eigenvalue at or below which a direction is rounding, not data.

    ``size`` is the longer side, max(rows, cols), of the data matrix.
    """
    return lambda_max * size * np.finfo(float).eps


def _whiten(gram: np.ndarray, order: int, size: int, data_top: float = 0.0):
    """Descending sqrt(lambda), numerical rank and whitening map of a Gram.

    The map's ``order`` columns are V/sqrt(lambda), zero on dead directions;
    ``size`` is the longer side of the data behind the Gram (its dead level).
    A stack of Grams (..., f, f) gives stacked results: each matrix has the
    dead level of its own top eigenvalue, and the rank is an array. A Gram
    that carries the rounding of larger data, as a projected one does, takes
    the dead level of that data's top eigenvalue ``data_top`` when it is larger.
    """
    try:
        evals, evecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition did not converge: {exc}") from exc
    evals, evecs = evals[..., ::-1], evecs[..., ::-1][..., :order]
    live = evals > _dead_level(np.maximum(evals[..., :1], data_top), size)
    s = np.sqrt(np.clip(evals, 0.0, None))
    top = s[..., :order]
    scale = np.divide(1.0, top, out=np.zeros(top.shape), where=live[..., :order])
    rank = live.sum(axis=-1)
    return s, int(rank) if gram.ndim == 2 else rank, evecs * scale[..., None, :]


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

    @property
    def order_curves(self) -> dict:
        """Order-selection curves kept for this series, keyed by their arguments.

        A curve depends only on the values and on (max order, draws, quantile,
        seed), so a command that fits a series in several groups, as every
        split half and repeat does, selects its order once. Kept in the
        instance like ``DataMatrix.gram``; ``setdefault`` is atomic, so threads
        that read it together share one table.
        """
        return self.__dict__.setdefault("_order_curves", {})


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

