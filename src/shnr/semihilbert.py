"""The semi-Hilbertian structure induced by a positive operator A.

A non-zero Hermitian PSD matrix ``A`` induces the semi-inner product
``<x, y>_A = <Ax, y> = y* A x`` and with it a whole parallel operator
theory: A-adjoints, A-selfadjoint/positive/normal/unitary classes, the
A-operator seminorm and the A-numerical radius.  This module builds the
context (A and its eigenbasis) and exposes those primitives; the
A-numerical radius is :func:`shnr.radius.omega_a_fast`.

It is the one module that knows how range(A) is represented.  With
``A = V_r D V_r*`` (``V_r`` the r eigenvectors above the rank cutoff,
``V_k`` the others), an operator T on ``(H, <.,.>_A)`` becomes the r x r
range block ``B = D^{1/2} V_r* T V_r D^{-1/2}``: for A-adjointable ``T`` the
map ``x -> D^{1/2} V_r* x`` sends A-unit vectors onto unit vectors and
intertwines ``T`` with ``B``, so A-seminorms of ``T`` are classical norms
of ``B``.  The compression ``T~ = A^{1/2} T (A^{1/2})^+`` is ``V_r B V_r*``
and the adjoint ``T# = A^+ T* A`` is ``V_r D^{-1} (V_r* T V_r)* D V_r*``.
:func:`_range_block` and its inverse :func:`_lift` map between the two.
On the identity context of size r (:func:`_identity_context`) an r x r
block is its own operator, which is how the catalog evaluates blocks.

Only operators with ``range(T* A)`` inside ``range(A)`` admit A-adjoints;
in finite dimension that is exactly the kernel condition
``T(ker A) <= ker A`` (the block ``D V_r* T V_k`` vanishes) and coincides
with A-boundedness, so one membership predicate serves both classes.
Non-members are rejected (``NotMemberError``) rather than silently
compressed: their compression is finite but means nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .exceptions import (
    DimensionMismatchError,
    NotMemberError,
    ZeroOperatorError,
)
from .linalg import (
    DEFAULT_RTOL,
    as_matrix,
    as_matrix_stack,
    as_vector,
    ctranspose,
    herm,
    require_square,
)


@dataclass(frozen=True)
class SemiHilbertContext:
    """One inducing operator A and its eigenbasis.

    The eigenvalues ascend, so the last ``rank`` eigenvector columns span
    range(A) and the others ker A.  Immutable after construction; safe to
    share across threads.
    """

    a: np.ndarray            # the inducing Hermitian PSD matrix
    rank: int                # numerical rank of A
    rtol: float              # relative tolerance for all predicates
    eigenvalues: np.ndarray = field(repr=False)   # ascending spectrum of A, clamped at 0
    eigenvectors: np.ndarray = field(repr=False)  # matching eigenvector columns

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def scale(self) -> float:
        """Largest eigenvalue of A."""
        return float(self.eigenvalues[-1])

    @property
    def proj(self) -> np.ndarray:
        """Orthogonal projector V_r V_r* onto range(A)."""
        vr = _split(self)[0]
        return herm(vr @ vr.conj().T)

    def tol(self, operator_scale: float = 0.0) -> float:
        """Membership tolerance rtol |A| (1 + |T|), not homogeneous in T."""
        return self.rtol * self.scale * (1.0 + operator_scale)


def build_context(a, rtol: float = DEFAULT_RTOL) -> SemiHilbertContext:
    """Validate A and keep its eigendecomposition and rank.

    Raises ``NotHermitianError`` / ``NotPositiveError`` / ``ZeroOperatorError``
    when A is not a non-zero Hermitian PSD matrix within tolerance.
    """
    a = require_square(as_matrix(a, "A"), "A")
    w, v, lam_max, keep = linalg._psd_spectrum(a, rtol, "A")
    if lam_max <= 0.0:
        raise ZeroOperatorError("A must be a non-zero positive operator")
    return SemiHilbertContext(
        a=herm(a),
        rank=int(np.count_nonzero(keep)),
        rtol=rtol,
        eigenvalues=w,
        eigenvectors=v,
    )


#: The identity contexts made so far, by size.
_IDENTITIES = {}


def _identity_context(r: int) -> SemiHilbertContext:
    """The context of the r x r identity, built once per r, its arrays
    read-only.  Its eigenvectors are exactly I, so on it an r x r matrix B
    is its own range block and its A-adjoint is B*, bit for bit: the range
    block of a member under any A is an operator under this context, and
    the A-real parts it forms from B, (B + B*)/2 and (B - B*)/2i, are
    exactly Hermitian."""
    ctx = _IDENTITIES.get(r)
    if ctx is None:
        ctx = build_context(np.eye(r))
        for x in (ctx.a, ctx.eigenvalues, ctx.eigenvectors):
            x.flags.writeable = False
        # a thread that built one at the same time keeps the first
        ctx = _IDENTITIES.setdefault(r, ctx)
    return ctx


def _split(ctx: SemiHilbertContext):
    """(V_r, V_k, D): the range and kernel eigenvectors of A, and the
    eigenvalues of the range ones."""
    k = ctx.dim - ctx.rank
    return ctx.eigenvectors[:, k:], ctx.eigenvectors[:, :k], ctx.eigenvalues[k:]


def _range_block(ctx: SemiHilbertContext, t: np.ndarray) -> np.ndarray:
    """The r x r block D^{1/2} V_r* T V_r D^{-1/2} of T, or of each matrix
    of a (k, n, n) stack: the operator T induces on range(A)."""
    vr, _, d = _split(ctx)
    s = np.sqrt(d)
    return s[:, None] * (vr.conj().T @ t @ vr) / s


def _lift(ctx: SemiHilbertContext, m: np.ndarray, kernel=None) -> np.ndarray:
    """V_r D^{-1/2} M D^{1/2} V_r*, the n x n member whose range block is
    the r x r matrix M, plus V_k K V_k* for an (n - r) x (n - r) kernel
    block K when one is given."""
    vr, vk, d = _split(ctx)
    s = np.sqrt(d)
    t = (vr / s) @ m @ (s[:, None] * vr.conj().T)
    return t if kernel is None else t + vk @ kernel @ vk.conj().T


def a_inner(ctx: SemiHilbertContext, x, y) -> complex:
    """Semi-inner product <x, y>_A = y* A x."""
    x = as_vector(x, "x")
    y = as_vector(y, "y")
    if x.shape[0] != ctx.dim or y.shape[0] != ctx.dim:
        raise DimensionMismatchError(
            f"vectors of length {x.shape[0]}, {y.shape[0]} vs A of dim {ctx.dim}"
        )
    return complex(y.conj() @ (ctx.a @ x))


def a_norm_vec(ctx: SemiHilbertContext, x) -> float:
    """Vector seminorm |x|_A = sqrt(<x, x>_A)."""
    val = a_inner(ctx, x, x)
    return float(np.sqrt(max(val.real, 0.0)))


def membership_residual(ctx: SemiHilbertContext, t):
    """Spectral norm of the range-to-kernel block D V_r* T V_k, which is
    |(I - P) T* A|; zero iff T admits an A-adjoint.

    A (k, n, n) stack gives the k residuals as an array.  When A has full
    rank the block is empty and every residual is zero.
    """
    return _residual(ctx, _check_shape(ctx, t, stack=True))


def _residual(ctx: SemiHilbertContext, t: np.ndarray):
    """:func:`membership_residual` of a T that :func:`_check_shape` has checked."""
    vr, vk, d = _split(ctx)
    return linalg._spectral_norm(d[:, None] * (vr.conj().T @ t @ vk))


def _member_verdict(ctx: SemiHilbertContext, t: np.ndarray):
    """Residual of a checked T or stack, and whether it exceeds the
    tolerance rtol |A| (1 + |T|)."""
    res = _residual(ctx, t)
    return res, res > ctx.tol(linalg._spectral_norm(t))


def is_member(ctx: SemiHilbertContext, t) -> bool:
    """Whether range(T* A) <= range(A), i.e. T admits an A-adjoint.

    Finite dimension collapses the range condition and A-boundedness into
    the single kernel-invariance predicate tested here.
    """
    return not _member_verdict(ctx, _check_shape(ctx, t))[1]


def _check_shape(ctx: SemiHilbertContext, t, stack: bool = False) -> np.ndarray:
    t = as_matrix_stack(t, "T") if stack else as_matrix(t, "T")
    t = require_square(t, "T")
    if t.shape[-1] != ctx.dim:
        raise DimensionMismatchError(f"T has dim {t.shape[-1]}, A has dim {ctx.dim}")
    return t


def require_member(ctx: SemiHilbertContext, t) -> np.ndarray:
    """Return T as an array, or raise ``NotMemberError`` if it has no A-adjoint.

    A (k, n, n) stack is checked at once, by one batched residual and one
    batched norm, with the per-matrix tolerance of a single operator; the
    error names the first failing index.  T is coerced and checked once.
    """
    t = _check_shape(ctx, t, stack=True)
    res, bad = _member_verdict(ctx, t)
    if t.ndim == 3 and bad.any():
        i = int(np.argmax(bad))
        raise NotMemberError(
            f"operator at stack index {i} is not A-adjointable: range residual {res[i]:.3e}"
        )
    if t.ndim == 2 and bad:
        raise NotMemberError(f"operator is not A-adjointable: range residual {res:.3e}")
    return t


def _member_block(ctx: SemiHilbertContext, t) -> np.ndarray:
    """The range block B of T or of each matrix of a stack, after one membership
    check; on members the block map is multiplicative and sends T# to B*.

    On an identity context of :func:`_identity_context` every square matrix
    is a member and its own block, so T only has its shape checked.
    """
    if _IDENTITIES.get(ctx.dim) is ctx:
        return _check_shape(ctx, t, stack=True)
    return _range_block(ctx, require_member(ctx, t))


def _adjoint_of_member(ctx: SemiHilbertContext, t: np.ndarray) -> np.ndarray:
    """A^+ T* A = V_r D^{-1} (V_r* T V_r)* D V_r* for a T already
    validated by :func:`require_member`."""
    vr, _, d = _split(ctx)
    inner = ctranspose(vr.conj().T @ t @ vr)
    return (vr / d) @ inner @ (d[:, None] * vr.conj().T)


def _cartesian_parts(ctx: SemiHilbertContext, t: np.ndarray):
    """(T#, Re_A T, Im_A T) = (T#, (T + T#)/2, (T - T#)/2i), the A-Cartesian
    parts, for a T already validated by :func:`require_member`."""
    adj = _adjoint_of_member(ctx, t)
    return adj, (t + adj) / 2.0, (t - adj) / 2.0j


def a_adjoint(ctx: SemiHilbertContext, t) -> np.ndarray:
    """The distinguished A-adjoint A^+ T* A.

    Solves A X = T* A with range(X) inside range(A); requires membership.
    """
    return _adjoint_of_member(ctx, require_member(ctx, t))


def re_a(ctx: SemiHilbertContext, t) -> np.ndarray:
    """A-real part (T + T#)/2; always A-selfadjoint."""
    return _cartesian_parts(ctx, require_member(ctx, t))[1]


def im_a(ctx: SemiHilbertContext, t) -> np.ndarray:
    """A-imaginary part (T - T#)/2i; always A-selfadjoint."""
    return _cartesian_parts(ctx, require_member(ctx, t))[2]


def compress(ctx: SemiHilbertContext, t) -> np.ndarray:
    """Compression T~ = A^{1/2} T (A^{1/2})^+ of a member operator.

    Satisfies <Tx, x>_A = <T~ y, y> with y = A^{1/2} x, and
    compress(T#) = compress(T)*.  A (k, n, n) stack is compressed
    matrix by matrix.
    """
    vr = _split(ctx)[0]
    return vr @ _member_block(ctx, t) @ vr.conj().T


def uncompress(ctx: SemiHilbertContext, m) -> np.ndarray:
    """Left inverse of compress on range-supported matrices.

    Maps M to (A^{1/2})^+ M A^{1/2}, the lift of the range block V_r* M V_r;
    compress(uncompress(M)) = P M P.
    Useful for constructing members with a prescribed compression
    (Hermitian compression -> A-selfadjoint operator, PSD -> A-positive,
    normal -> A-normal up to the kernel block).
    """
    m = _check_shape(ctx, m)
    vr = _split(ctx)[0]
    return _lift(ctx, vr.conj().T @ m @ vr)


def a_operator_norm(ctx: SemiHilbertContext, t) -> float:
    """A-operator seminorm |T|_A = sigma_max of the range block.

    Equals sup |<Tx, y>_A| over A-unit x, y, and sup |Tx|_A / |x|_A over
    the range of A.  Raises ``NotMemberError`` outside the A-bounded class
    (where the supremum is infinite).  A (k, n, n) stack gives k values.
    """
    return linalg._spectral_norm(_member_block(ctx, t))


# The class predicates below compare each defect with rtol times the size it
# scales with, so a verdict does not change when A or T is rescaled.


def is_a_selfadjoint(ctx: SemiHilbertContext, t) -> bool:
    """Whether A T = T* A within rtol |A| |T|."""
    t = _check_shape(ctx, t)
    dev = linalg.spectral_norm(ctx.a @ t - t.conj().T @ ctx.a)
    return dev <= ctx.rtol * ctx.scale * linalg.spectral_norm(t)


def is_a_positive(ctx: SemiHilbertContext, t) -> bool:
    """Whether A T is Hermitian PSD within rtol |A| |T|."""
    t = _check_shape(ctx, t)
    if not is_a_selfadjoint(ctx, t):
        return False
    w = np.linalg.eigvalsh(herm(ctx.a @ t))
    return bool(w.size == 0 or w[0] >= -ctx.rtol * ctx.scale * linalg.spectral_norm(t))


def is_a_normal(ctx: SemiHilbertContext, t) -> bool:
    """Whether T# T = T T# within rtol |T#| |T| (requires membership)."""
    t = require_member(ctx, _check_shape(ctx, t))
    ts = _adjoint_of_member(ctx, t)
    dev = linalg.spectral_norm(ts @ t - t @ ts)
    return dev <= ctx.rtol * linalg.spectral_norm(ts) * linalg.spectral_norm(t)


def is_a_unitary(ctx: SemiHilbertContext, t) -> bool:
    """Whether |Tx|_A = |T# x|_A = |x|_A for all x (requires membership).

    Tested on the range block B: both B* B and B B* must equal the
    identity on range(A), within rtol (1 + |B|^2).
    """
    b = _member_block(ctx, _check_shape(ctx, t))
    eye = np.eye(ctx.rank)
    tol = ctx.rtol * (1.0 + linalg._spectral_norm(b) ** 2)
    return (
        linalg._spectral_norm(b.conj().T @ b - eye) <= tol
        and linalg._spectral_norm(b @ b.conj().T - eye) <= tol
    )
