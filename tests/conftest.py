import numpy as np

from canica import make_group_patterns
from canica.streams import substream

EPS = np.finfo(float).eps


def white_mixture(k, n_voxels, sparsity, seed):
    """Orthonormalized planted sources mixed by a random rotation.

    Symmetric orthogonalization keeps each row close to its original
    source, so the mixture is exactly white while the planted sources
    stay identifiable. Returns (mixed, rotation, ortho_sources, sources).
    """
    sources = make_group_patterns(k, n_voxels, sparsity, seed).values
    gram = sources @ sources.T
    evals, evecs = np.linalg.eigh(gram)
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
    ortho = inv_sqrt @ sources
    rotation = np.linalg.qr(substream(seed, 0xD0).standard_normal((k, k)))[0]
    return rotation @ ortho, rotation, ortho, sources


def brute_force_match(c):
    """Exhaustive best injective |C| matching, for d <= 7 oracles."""
    import itertools

    d1, d2 = c.shape
    small, large = min(d1, d2), max(d1, d2)
    best = -1.0
    for perm in itertools.permutations(range(large), small):
        if d1 <= d2:
            total = sum(abs(c[i, perm[i]]) for i in range(small))
        else:
            total = sum(abs(c[perm[j], j]) for j in range(small))
        best = max(best, total)
    return best


def truth_in_standardized_space(data):
    """Planted patterns as they appear after per-voxel standardization.

    The pipeline standardizes every voxel, so recovered components live in
    the rescaled space; the oracle patterns must be rescaled by the pooled
    per-voxel standard deviation and renormalized before comparison.
    """
    patterns = data.truth.group_patterns.values
    stacked = np.vstack([s.data.values for s in data.dataset.subjects])
    std = stacked.std(axis=0, ddof=1)
    std[std == 0] = 1.0
    scaled = patterns / std
    norms = np.linalg.norm(scaled, axis=1, keepdims=True)
    return scaled / np.maximum(norms, 1e-300)


def reference_svd(x):
    """LAPACK SVD with each right vector's largest-magnitude entry positive."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    flip = vt[np.arange(len(s)), np.argmax(np.abs(vt), axis=1)] < 0
    vt[flip] *= -1.0
    u[:, flip] *= -1.0
    return u, s, vt


def gram_tolerances(s, n_rows):
    """Error bounds of a Gram eigendecomposition, from eps and the reference.

    Eigenvalues of x x^T carry an absolute error of about n_rows * eps *
    s_max^2, so a singular value moves by that over 2 s, and by no more than
    its square root. An eigenvector moves by that over the gap to its
    neighbours' eigenvalues.
    """
    lam = s**2
    noise = 10 * n_rows * EPS * lam[0]
    gaps = np.abs(np.diff(lam))
    gap = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    with np.errstate(divide="ignore"):
        return np.minimum(noise / (2 * s), np.sqrt(noise)), noise / gap
