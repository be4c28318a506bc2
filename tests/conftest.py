import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from canica import DataMatrix, make_group_patterns
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


@pytest.fixture
def gram_formations(monkeypatch):
    """The matrices whose Gram is formed from here on, once per formation."""
    formed = []
    form = DataMatrix.gram.fget

    def counted(matrix):
        before = vars(matrix).get("_gram")
        gram = form(matrix)
        if gram is not before:
            formed.append(matrix)
        return gram

    monkeypatch.setattr(DataMatrix, "gram", property(counted))
    return formed


def fit_bytes(result) -> list:
    """The threshold and the group-level arrays of a fit, as bytes."""
    subspace, ica = result.subspace, result.ica
    arrays = [result.correlations_full, subspace.group_patterns.values,
              subspace.loadings, ica.components.values, ica.mixing]
    return [repr(result.threshold)] + [a.tobytes() for a in arrays]


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


def gram_noise(top, n_rows):
    """Rounding of a Gram's entries, n_rows-term dot products of rows whose
    norms multiply to at most ``top``: s_max^2 for x x^T, s_a s_b for x_a x_b^T.
    """
    return 10 * n_rows * EPS * top


def gram_tolerances(s, n_rows):
    """Error bounds of a Gram eigendecomposition, from eps and the reference.

    Eigenvalues of x x^T carry an absolute error of about n_rows * eps *
    s_max^2, so a singular value moves by that over 2 s, and by no more than
    its square root. An eigenvector moves by that over the gap to its
    neighbours' eigenvalues.
    """
    lam = s**2
    noise = gram_noise(lam[0], n_rows)
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
        _, _, boot_map = _whiten(
            gram[np.ix_(idx, idx)], max_order, max(n_frames, n_voxels)
        )
        overlap = boot_map.T @ gram[idx, :] @ ref_map
        energy = (overlap**2).cumsum(axis=0).cumsum(axis=1).diagonal()
        gains[b] = np.diff(energy, prepend=0.0)
    return gains


def resample_spectrum(gram, idx):
    """Descending singular values of the data behind gram[idx][:, idx]."""
    evals = np.linalg.eigvalsh(gram[np.ix_(idx, idx)])[::-1]
    return np.sqrt(np.clip(evals, 0.0, None))


def live_vector_tolerances(s, n_rows, size):
    """gram_tolerances' eigenvector bounds, 0 on dead directions and at most 2.

    Both roundings zero a direction at or below the dead level, and two unit
    vectors, signs aligned, differ by at most 2.
    """
    _, vector_tol = gram_tolerances(s, n_rows)
    live = s**2 > s[0] ** 2 * size * EPS
    return np.where(live, np.minimum(vector_tol, 2.0), 0.0)


def reference_gain_tolerances(gram, ref_map, n_voxels, n_boot, seed, purpose):
    """Bound on each gain's change when a draw's Gram is rounded differently.

    The energy at order m is ||P_boot P_ref^T||_F^2 over the first m rows, at
    most m, so it moves by at most 2 sqrt(m) ||dP_boot||_F, and a gain, the
    difference of two energies, by the sum of their bounds. ||dP_boot||_F
    comes from the eigenvector bounds of the resample's spectrum.
    """
    n_frames, max_order = ref_map.shape
    bounds = np.empty((n_boot, max_order))
    for b in range(n_boot):
        idx = substream(seed, purpose, b).integers(0, n_frames, size=n_frames)
        s = resample_spectrum(gram, idx)
        err = live_vector_tolerances(s, n_frames, max(n_frames, n_voxels))[:max_order]
        energy = 2 * np.sqrt(np.arange(1, max_order + 1) * np.cumsum(err**2))
        bounds[b] = energy + np.append(0.0, energy[:-1])
    return bounds


def distinct_frames(idx, width):
    """One resample's distinct frames, ascending, then absent ones up to width.

    Returns the frames and their counts, 0 on the absent (padding) frames.
    """
    counts = np.bincount(idx, minlength=len(idx))
    frames = np.concatenate([np.flatnonzero(counts), np.flatnonzero(counts == 0)])
    return frames[:width], counts[frames[:width]]


def compressed_map(gram, idx, width, order, n_voxels, data_top=0.0):
    """One resample's whitening on its distinct frames, scaled back by D^1/2."""
    frames, counts = distinct_frames(idx, width)
    root = np.sqrt(counts)
    compressed = root[:, None] * gram[np.ix_(frames, frames)] * root[None, :]
    _, _, w = _whiten(compressed, order, max(len(idx), n_voxels), data_top)
    return frames, root[:, None] * w


def compressed_bootstrap_gains(gram, ref_map, n_voxels, n_boot, seed, purpose):
    """Order-selection gains drawn one distinct-frame whitening at a time."""
    n_frames, max_order = ref_map.shape
    projected = gram @ ref_map
    gains = np.empty((n_boot, max_order))
    for b in range(n_boot):
        idx = substream(seed, purpose, b).integers(0, n_frames, size=n_frames)
        width = max(len(np.unique(idx)), max_order)
        frames, boot_map = compressed_map(gram, idx, width, max_order, n_voxels)
        overlap = boot_map.T @ projected[frames]
        energy = (overlap**2).cumsum(axis=0).cumsum(axis=1).diagonal()
        gains[b] = np.diff(energy, prepend=0.0)
    return gains


def whitened_patterns(reduction):
    """A reduction's orthonormal patterns (V/s)^T Y, formed for comparison."""
    return reduction.whitening_map.T @ reduction.data.values


def noise_residual(reduction):
    """The discarded part of a reduction's data, (I - V V^T) Y."""
    y, v = reduction.data.values, reduction.frame_basis
    return y - v @ (v.T @ y)


def residual_grams(reductions):
    residuals = [noise_residual(r) for r in reductions]
    return {
        (a, b): residuals[a] @ residuals[b].T
        for a in range(len(residuals))
        for b in range(a, len(residuals))
    }


def projected_grams(reductions):
    """Residual Grams projected from the data's cross-Grams, as the bootstrap does.

    The same products in the same order, so they carry the bootstrap's bits.
    """
    data = [r.data.values for r in reductions]
    bases = [r.frame_basis for r in reductions]
    grams = {}
    for a in range(len(data)):
        for b in range(a, len(data)):
            gram = data[a] @ data[b].T
            gram = gram - bases[a] @ (bases[a].T @ gram)
            grams[a, b] = gram - (gram @ bases[b]) @ bases[b].T
    return grams


def noise_resamples(reductions, n_boot, seed):
    """Each draw's frame indices, one array per subject."""
    frames = [r.data.rows for r in reductions]
    draws = []
    for draw in range(n_boot):
        rng = substream(seed, CCA_NOISE_BOOT, draw)
        draws.append([rng.integers(0, f, size=f) for f in frames])
    return draws


def stack_maximum(grams, maps, kept, orders):
    """Largest singular value of the stack whose blocks are map_a^T G_ab map_b."""
    offsets = np.concatenate([[0], np.cumsum(orders)])
    stack_gram = np.empty((offsets[-1], offsets[-1]))
    for a in range(len(orders)):
        ra = slice(offsets[a], offsets[a + 1])
        for b in range(a, len(orders)):
            rb = slice(offsets[b], offsets[b + 1])
            block = maps[a].T @ grams[a, b][np.ix_(kept[a], kept[b])] @ maps[b]
            stack_gram[ra, rb] = block
            if a != b:
                stack_gram[rb, ra] = block.T
    return np.sqrt(max(np.linalg.eigvalsh(stack_gram)[-1], 0.0))


def compressed_max_correlations(reductions, n_boot, seed):
    """Noise-bootstrap maxima drawn one distinct-frame stack at a time.

    Each subject's width is its largest distinct count over all draws, or
    its order if that is larger. The residual Grams are projected from the
    data's, so each whitening takes the data's dead level.
    """
    grams = projected_grams(reductions)
    orders = [r.selected_order for r in reductions]
    n_voxels = reductions[0].n_voxels
    draws = noise_resamples(reductions, n_boot, seed)
    widths = [
        max(max(len(np.unique(idx[s])) for idx in draws), orders[s])
        for s in range(len(reductions))
    ]
    maxima = np.empty(n_boot)
    for b, idx in enumerate(draws):
        kept, maps = zip(*(
            compressed_map(grams[s, s], idx[s], widths[s], orders[s], n_voxels,
                           reductions[s].singular_values[0] ** 2)
            for s in range(len(reductions))
        ))
        maxima[b] = stack_maximum(grams, maps, kept, orders)
    return maxima


def reference_maxima_tolerances(reductions, maxima, seed):
    """Bound on the change of each of ``maxima`` when its draw rounds differently.

    The stack P of whitened patterns moves by ||dP||_F <= d, from the
    eigenvector bounds of each subject's resample. Its top singular value m
    then moves by at most d + d^2 / 2m, plus the stack eigenvalue's own
    rounding, 10 * rows * eps * m^2, over 2m.
    """
    grams = residual_grams(reductions)
    orders = [r.selected_order for r in reductions]
    n_voxels = reductions[0].n_voxels
    bounds = np.empty(len(maxima))
    for b, idx in enumerate(noise_resamples(reductions, len(maxima), seed)):
        d2 = 0.0
        for s, i in enumerate(idx):
            spectrum = resample_spectrum(grams[s, s], i)
            err = live_vector_tolerances(spectrum, len(i), max(len(i), n_voxels))
            d2 += (err[: orders[s]] ** 2).sum()
        m = maxima[b]
        bounds[b] = np.sqrt(d2) + d2 / (2 * m) + 10 * sum(orders) * EPS * m / 2
    return bounds


def projected_maxima_tolerances(reductions, maxima, seed):
    """reference_maxima_tolerances for residual Grams projected from the data's.

    The bootstrap forms E_a E_b^T as the data's cross-Gram Y_a Y_b^T projected
    in frame space, so each of its residual Grams carries the data Gram's
    rounding, 10 * frames * eps * t_a t_b, where t is the top singular value
    of a subject's resampled data. On a subject's own Gram that moves the
    whitened patterns by the eigenvector bounds of its resampled residual
    spectrum, taken with that noise; on a cross block it moves the stack Gram
    by the noise scaled by both whitening maps, 1 / (sigma_a sigma_b) with
    sigma the smallest kept live singular value. The top singular value m of
    the stack moves by d + d^2 / 2m for the patterns' total movement d, by
    the cross blocks' Frobenius norm over 2m, and by the stack eigenvalue's
    own rounding.
    """
    grams = residual_grams(reductions)
    orders = [r.selected_order for r in reductions]
    n_voxels = reductions[0].n_voxels
    data = [r.data.values for r in reductions]
    bounds = np.empty(len(maxima))
    for b, idx in enumerate(noise_resamples(reductions, len(maxima), seed)):
        d2, tops, smallest = 0.0, [], []
        for s, i in enumerate(idx):
            top = resample_spectrum(data[s] @ data[s].T, i)[0]
            spectrum = resample_spectrum(grams[s, s], i)
            # gram_tolerances' bounds, for the noise of the data's top value
            _, vector_tol = gram_tolerances(spectrum, len(i))
            live = spectrum**2 > spectrum[0] ** 2 * max(len(i), n_voxels) * EPS
            scaled = vector_tol * (top / spectrum[0]) ** 2
            err = np.where(live, np.minimum(scaled, 2.0), 0.0)
            d2 += (err[: orders[s]] ** 2).sum()
            kept = spectrum[: orders[s]][live[: orders[s]]]
            tops.append(top)
            smallest.append(kept[-1] if kept.size else np.inf)
        cross2 = sum(
            2 * (10 * max(len(idx[a]), len(idx[c])) * EPS * tops[a] * tops[c]
                 / (smallest[a] * smallest[c])) ** 2
            for a in range(len(idx)) for c in range(a + 1, len(idx))
        )
        m = maxima[b]
        bounds[b] = (np.sqrt(d2) + (d2 + np.sqrt(cross2)) / (2 * m)
                     + 10 * sum(orders) * EPS * m / 2)
    return bounds


def reference_max_correlations(reductions, n_boot, seed):
    """Noise-bootstrap maxima drawn one stack of resampled residuals at a time."""
    grams = residual_grams(reductions)
    orders = [r.selected_order for r in reductions]
    n_voxels = reductions[0].n_voxels
    maxima = np.empty(n_boot)
    for b, idx in enumerate(noise_resamples(reductions, n_boot, seed)):
        maps = [
            _whiten(grams[s, s][np.ix_(i, i)], orders[s], max(len(i), n_voxels))[2]
            for s, i in enumerate(idx)
        ]
        maxima[b] = stack_maximum(grams, maps, idx, orders)
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
