"""FastICA rotation of the group subspace into independent component maps.

The group patterns arrive with orthonormal rows, i.e. already white in
voxel space, so the decomposition reduces to finding the orthogonal
rotation whose rows have maximally non-Gaussian marginals. The classic
fixed-point iteration with symmetric decorrelation is used; the mixing
matrix is the transpose of the converged rotation, so the reconstruction
``patterns = mixing @ components`` is exact by construction.
"""

from dataclasses import dataclass

import numpy as np

from . import streams
from .data_model import DataMatrix, RowKind
from .errors import BadDimension, NotWhitened, SingularMatrix

# E[G(Z)] for Z ~ N(0,1), used in the negentropy proxy (EG(y) - EG(Z))^2.
GAUSSIAN_LOGCOSH = 0.3745672074914380
GAUSSIAN_QUARTIC = 0.75

CONTRASTS = ("logcosh", "cube")
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 200
DEFAULT_RESTARTS = 5
WHITENESS_TOL = 1e-6


@dataclass(frozen=True)
class IcaDecomposition:
    mixing: np.ndarray  # k x k orthogonal
    components: DataMatrix  # k x n_voxels, unit-norm rows
    n_iterations: int
    converged: bool
    nonlinearity: str

    @property
    def k(self) -> int:
        return self.components.rows


def _contrast(name: str):
    """The contrast's ``g`` and ``objective``; both overwrite their argument.

    ``g(x)`` returns G'(x), written into ``x``, and the row means of G''(x).
    Working in place keeps FastICA's fixed point at a few k x voxels arrays.
    """
    if name == "logcosh":

        def g(x):
            gx = np.tanh(x, out=x)
            sq = np.square(gx)
            return gx, np.subtract(1.0, sq, out=sq).mean(axis=1)

        def objective(x):
            return np.log(np.cosh(x, out=x), out=x).mean(axis=1) - GAUSSIAN_LOGCOSH

    elif name == "cube":

        def g(x):
            slope = 3.0 * np.square(x).mean(axis=1)
            return np.power(x, 3, out=x), slope

        def objective(x):
            return 0.25 * np.power(x, 4, out=x).mean(axis=1) - GAUSSIAN_QUARTIC

    else:
        raise ValueError(f"unknown nonlinearity {name!r}; use 'logcosh' or 'cube'")
    return g, objective


def _sym_decorrelate(w: np.ndarray) -> np.ndarray:
    # W <- (W W^T)^{-1/2} W
    evals, evecs = np.linalg.eigh(w @ w.T)
    evals = np.maximum(evals, 1e-300)
    return (evecs * (1.0 / np.sqrt(evals))) @ evecs.T @ w


def negentropy_proxy(rows: np.ndarray, nonlinearity: str = "logcosh") -> np.ndarray:
    """Per-row (EG(y) - EG(Z))^2 after scaling rows to unit sample power."""
    _, objective = _contrast(nonlinearity)
    scale = np.sqrt((rows**2).mean(axis=1, keepdims=True))
    return objective(rows / np.maximum(scale, 1e-300)) ** 2


def fastica(
    patterns: DataMatrix | np.ndarray,
    nonlinearity: str = "logcosh",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> IcaDecomposition:
    """Rotate orthonormal pattern rows into independent components.

    The fixed point iterates until the largest directional change
    1 - |<w_new, w_old>| drops below ``tol`` or ``max_iter`` is reached.
    On non-convergence up to ``restarts`` seeded initializations are
    tried and the attempt with the best negentropy proxy is kept, with
    the ``converged`` flag reporting the outcome. Component rows are
    unit-norm with nonnegative skewness.
    """
    b = patterns.values if isinstance(patterns, DataMatrix) else np.asarray(patterns)
    k, n_voxels = b.shape
    if k < 1:
        raise BadDimension("need at least one pattern row")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    whiteness = np.max(np.abs(b @ b.T - np.eye(k)))
    if whiteness > WHITENESS_TOL:
        raise NotWhitened(
            f"pattern rows deviate from orthonormality by {whiteness:.2e}"
        )
    g, _ = _contrast(nonlinearity)
    x = b * np.sqrt(n_voxels)  # unit sample variance per row

    best = None
    for attempt in range(max(restarts, 1)):
        rng = streams.substream(seed, streams.ICA_INIT, attempt)
        w = np.linalg.qr(rng.standard_normal((k, k)))[0]
        w = _sym_decorrelate(w)
        converged = False
        n_iter = 0
        for n_iter in range(1, max_iter + 1):
            gx, g_mean = g(w @ x)
            w_new = _sym_decorrelate(gx @ x.T / n_voxels - g_mean[:, None] * w)
            del gx  # before the next w @ x is allocated
            change = np.max(np.abs(np.abs(np.einsum("ij,ij->i", w_new, w)) - 1.0))
            w = w_new
            if change < tol:
                converged = True
                break
        score = negentropy_proxy(w @ x, nonlinearity).mean()
        if best is None or score > best[0]:
            best = (score, w, converged, n_iter)
        if converged:
            break

    _, w, converged, n_iter = best
    components = w @ b
    mixing = w.T
    # Present activation tails as positive: flip rows with negative skewness.
    skew = np.array([(row**3).sum() for row in components])
    flip = skew < 0
    components[flip] *= -1.0
    mixing[:, flip] *= -1.0
    return IcaDecomposition(
        mixing=mixing,
        components=DataMatrix(components, RowKind.COMPONENTS),
        n_iterations=n_iter,
        converged=converged,
        nonlinearity=nonlinearity,
    )


def amari_index(m_est: np.ndarray, m_true: np.ndarray) -> float:
    """Permutation- and scale-invariant mismatch of two mixing matrices.

    Computes the standard performance index of ``inv(m_est) @ m_true``,
    normalized to [0, 1]; exactly 0 iff the product is a scaled
    permutation matrix.
    """
    m_est = np.asarray(m_est, dtype=float)
    m_true = np.asarray(m_true, dtype=float)
    if m_est.shape != m_true.shape or m_est.ndim != 2 or m_est.shape[0] != m_est.shape[1]:
        raise BadDimension("mixing matrices must be square and equally sized")
    k = m_est.shape[0]
    try:
        prod = np.linalg.solve(m_est, m_true)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"estimated mixing is singular: {exc}") from exc
    absp = np.abs(prod)
    row_max = absp.max(axis=1)
    col_max = absp.max(axis=0)
    if not (np.isfinite(absp).all() and row_max.all() and col_max.all()):
        raise SingularMatrix("product of mixing matrices is singular")
    if k == 1:
        return 0.0
    rows = (absp.sum(axis=1) / row_max - 1.0).sum()
    cols = (absp.sum(axis=0) / col_max - 1.0).sum()
    return float((rows + cols) / (2.0 * k * (k - 1)))
