import numpy as np
from hypothesis import HealthCheck, settings

from canica import make_group_patterns
from canica.streams import CCA_NOISE_BOOT, substream
from canica.subject_level import _whiten

EPS = np.finfo(float).eps

# Fixed examples keep the suite's run time and results the same on every run.
settings.register_profile(
    "derandomized",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("derandomized")


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


def reference_bootstrap_gains(gram, ref_map, n_voxels, n_boot, seed, purpose):
    """Order-selection gains drawn one resampled Gram at a time."""
    n_frames, max_order = ref_map.shape
    gains = np.empty((n_boot, max_order))
    for b in range(n_boot):
        idx = substream(seed, purpose, b).integers(0, n_frames, size=n_frames)
        _, _, boot_map = _whiten(gram[np.ix_(idx, idx)], max_order, n_voxels)
        overlap = boot_map.T @ gram[idx, :] @ ref_map
        energy = (overlap**2).cumsum(axis=0).cumsum(axis=1).diagonal()
        gains[b] = np.diff(energy, prepend=0.0)
    return gains


def reference_max_correlations(reductions, n_boot, seed):
    """Noise-bootstrap maxima drawn one stack of resampled residuals at a time."""
    residuals = [r.noise_residual.values for r in reductions]
    orders = [r.whitened_patterns.rows for r in reductions]
    n_subjects = len(reductions)
    frames = [e.shape[0] for e in residuals]
    n_voxels = residuals[0].shape[1]
    grams = {}
    for a in range(n_subjects):
        for b in range(a, n_subjects):
            grams[a, b] = residuals[a] @ residuals[b].T
    offsets = np.concatenate([[0], np.cumsum(orders)])
    total = int(offsets[-1])
    maxima = np.empty(n_boot)
    for draw in range(n_boot):
        rng = substream(seed, CCA_NOISE_BOOT, draw)
        idx = [rng.integers(0, frames[s], size=frames[s]) for s in range(n_subjects)]
        maps = [
            _whiten(grams[s, s][np.ix_(idx[s], idx[s])], orders[s], n_voxels)[2]
            for s in range(n_subjects)
        ]
        stack_gram = np.empty((total, total))
        for a in range(n_subjects):
            ra = slice(offsets[a], offsets[a + 1])
            for b in range(a, n_subjects):
                rb = slice(offsets[b], offsets[b + 1])
                block = maps[a].T @ grams[a, b][np.ix_(idx[a], idx[b])] @ maps[b]
                stack_gram[ra, rb] = block
                if a != b:
                    stack_gram[rb, ra] = block.T
        top = np.linalg.eigvalsh(stack_gram)[-1]
        maxima[draw] = np.sqrt(max(top, 0.0))
    return maxima


def reference_csv(path, header, rows):
    """CSV rows written cell by cell, as the column writer's reference.

    A Python int or bool prints as ``str``, anything else as a float to 17
    significant digits; callers pass integer and boolean columns as Python
    values (``range``, ``.tolist()``), since a numpy integer prints as a float.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (int, bool))
                              else format(float(c), ".17g") for c in row))
    path.write_text("\n".join(lines) + "\n")
