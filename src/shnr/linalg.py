"""Dense complex linear-algebra kernels.

The library's spectral work goes through the PSD eigendecomposition and
rank mask every context is built from (:func:`_psd_spectrum`), the
spectral norm and the largest |eigenvalue| of Hermitian stacks.  The
pseudoinverse, PSD square root and range projector share the rank policy
as reference constructions; no other module calls them.  Matrices are
``complex128`` arrays at desk scale (n up to a few dozen), so dense
LAPACK-backed routines are the right tool.

Conventions kept throughout:

* eigenvalues ascending, singular values descending (byte-stable reports),
* one relative tolerance ``rtol`` (default ``1e-10``, finite and in
  (0, 1)) drives every rank decision, measured against the largest
  eigenvalue / singular value,
* inputs are validated (finite entries, shape, symmetry) at the boundary
  and errors name the violated precondition.
"""

from __future__ import annotations

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NonSquareError,
    NotHermitianError,
    NotPositiveError,
)

#: Relative tolerance used for every rank decision unless overridden.
DEFAULT_RTOL = 1e-10

#: Byte cap of one stack of matrices handed to a batched kernel: the angle
#: engine, the eigenvalue sweep, the closed-form Hermitian evaluations, the
#: alpha ascent and the Omega_A bracket grid split their batches into
#: stacks no bigger (see :func:`stack_slices`).  It bounds their
#: scratch memory; larger caps raised the peak resident set measurably.
STACK_BYTES = 1 << 16


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-D complex128 array with finite entries."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return m


def as_matrix_stack(data, name: str = "matrix") -> np.ndarray:
    """Like :func:`as_matrix`, but a 3-D input is kept as a (k, n, m) stack."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 3:
        return as_matrix(m, name)
    if not np.isfinite(m).all():
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return m


def as_vector(data, name: str = "vector") -> np.ndarray:
    """Coerce 1-D input to a complex128 array with finite entries; any other
    shape raises ``DimensionMismatchError``, so no matrix is read as its
    flattened entries."""
    v = np.asarray(data, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-dimensional, got ndim={v.ndim}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return v


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Check that a matrix, or every matrix of a stack, is square."""
    if m.shape[-2] != m.shape[-1]:
        raise NonSquareError(f"{name} must be square, got shape {m.shape}")
    return m


def ctranspose(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose M* of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def herm(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M*)/2 of a matrix or of each matrix of a stack."""
    return (m + ctranspose(m)) / 2.0


def hermitian_deviation(m: np.ndarray) -> float:
    """Max-entry distance of M from its conjugate transpose."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def spectral_norm(m):
    """Operator 2-norm (largest singular value).

    A (k, n, m) stack gives the k norms as an array, from one batched SVD.
    """
    return _spectral_norm(as_matrix_stack(m))


def _spectral_norm(m: np.ndarray):
    """:func:`spectral_norm` of an array that :func:`as_matrix_stack` has
    already coerced and checked."""
    if m.size == 0 or not m.any():
        return np.zeros(m.shape[:-2]) if m.ndim == 3 else 0.0
    s = np.linalg.svd(m, compute_uv=False)
    return s[:, 0] if m.ndim == 3 else float(s[0])


def hermitian_abs_max(stack: np.ndarray) -> np.ndarray:
    """Largest |eigenvalue| of each Hermitian matrix of a (k, n, n) stack,
    from one batched eigenvalue call; this is each matrix's spectral norm."""
    w = np.linalg.eigvalsh(stack)
    # ascending eigenvalues: the largest modulus is -w_min or w_max
    return np.maximum(-w[:, 0], w[:, -1])


def pseudo_inverse(m, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD truncation.

    Singular values at or below ``rtol * sigma_max`` are treated as exact
    zeros; the zero matrix maps to the zero matrix.  The result satisfies
    the four Penrose identities to roughly ``rtol`` relative accuracy.
    Raises ``ValueError`` unless ``rtol`` is finite and in (0, 1).
    """
    m = as_matrix(m)
    _check_rtol(rtol)
    if not m.any():
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    cutoff = rtol * s[0]
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (vh.conj().T * inv) @ u.conj().T


def _check_rtol(rtol: float) -> None:
    # the negated test also rejects nan
    if not 0.0 < rtol < 1.0:
        raise ValueError(f"rtol must be finite and in (0, 1), got {rtol!r}")


def _psd_spectrum(a, rtol: float, what: str):
    """Eigendecomposition of a Hermitian PSD matrix with clamped spectrum.

    Returns ``(w, v, lam_max, keep)``: ascending eigenvalues clamped at zero,
    their eigenvectors, the largest eigenvalue, and the rank mask
    ``w > rtol * lam_max`` that every rank decision of this library uses.
    Raises ``ValueError`` unless ``rtol`` is finite and in (0, 1).
    """
    _check_rtol(rtol)
    a = require_square(as_matrix(a), what)
    dev = hermitian_deviation(a)
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if dev > 10 * rtol * max(scale, 1e-300):
        raise NotHermitianError(
            f"{what}: Hermitian deviation {dev:.3e} too large for tolerance {rtol:.3e}"
        )
    w, v = np.linalg.eigh(herm(a))
    lam_max = float(w[-1]) if w.size else 0.0
    # purely relative, so c*A gets the verdict of A for every scale c > 0
    if w.size and float(w[0]) < -rtol * max(lam_max, 0.0):
        raise NotPositiveError(
            f"{what}: eigenvalue {w[0]:.3e} below PSD tolerance (lam_max={lam_max:.3e})"
        )
    w = np.maximum(w, 0.0)
    return w, v, lam_max, w > rtol * lam_max


def psd_sqrt(a, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Hermitian PSD square root.

    Eigenvalues at or below ``rtol * lam_max`` are dropped before taking
    roots, so that rank decisions match :func:`range_projector` exactly.
    """
    w, v, _, keep = _psd_spectrum(a, rtol, "psd_sqrt")
    vk = v[:, keep]
    return herm((vk * np.sqrt(w[keep])) @ vk.conj().T)


def range_projector(a, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors above cutoff.

    The cutoff is ``rtol * lam_max``; the projector rank equals the
    numerical rank of ``a``.
    """
    _, v, _, keep = _psd_spectrum(a, rtol, "range_projector")
    vk = v[:, keep]
    return herm(vk @ vk.conj().T)


def stack_slices(count: int, item_bytes: int) -> list:
    """Consecutive slices of ``range(count)`` whose items, ``item_bytes``
    each, fit in :data:`STACK_BYTES`; every slice holds at least one item."""
    step = max(1, STACK_BYTES // item_bytes)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]
