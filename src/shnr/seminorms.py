"""Pluggable seminorms on the A-adjointable operators.

Three concrete seminorms are provided:

``a_norm``
    the A-operator seminorm itself, sigma_max of the range block;

``a_alpha``
    the alpha-weighted mix
    sup over A-unit x of sqrt(alpha |<Tx,x>_A|^2 + (1-alpha) |Tx|_A^2),
    interpolating between the A-operator seminorm (alpha = 0) and the
    A-numerical radius (alpha = 1);

``big_omega``
    Omega_A(T) = sup |alpha T + beta T#|_A over the complex unit ball
    |alpha|^2 + |beta|^2 <= 1.

Each descriptor carries declared property flags (submultiplicative,
A-selfadjoint invariant, A-increasing, A-power) consumed by the check
catalog to decide which theorems apply; the flags are declarations, not
proofs, and :func:`shnr.verify.probe_properties` measures them empirically.

Every built-in evaluator, and :func:`gamma_a`, checks membership once and
works on the r x r range block B of its argument, where T# is B* and each
A-seminorm of T a classical norm of B (``semihilbert._member_block``).
The two nontrivial evaluators are global optimizations over spheres.
On an A-selfadjoint argument both collapse to its A-operator seminorm:
Omega_A(S) = sqrt(2) |S|_A and the alpha seminorm is |S|_A, because
omega_A(S) = |S|_A.  A Hermitian block, which is what every A-real
part handed over by :func:`shnr.radius.generalized_radius` has, is
therefore evaluated in closed form, by one batched Hermitian eigenvalue
call per stack.  Every other block goes to the evaluator's one
general solver: a deterministic bracketing stage (coefficient grid /
eigenvector starts) followed by a monotone block-coordinate ascent that
converges to a stationary point.  Closed forms and iterates alike are at
most the objective at a feasible point, so returned values are certified
lower bounds that the cross-form oracles (:func:`big_omega_pair_form`, dense sphere
sampling in the tests) pin from the other side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg, radius, semihilbert
from .exceptions import AlphaOutOfRangeError
from .linalg import ctranspose, herm
from .semihilbert import SemiHilbertContext

_EPS = 1e-300


@dataclass(frozen=True)
class SeminormDescriptor:
    """A named seminorm evaluator plus its declared property flags.

    ``evaluate(ctx, t)`` takes one (n, n) operator and returns a float, or a
    (k, n, n) stack and returns the k values as an array.  The angle engine
    in :mod:`shnr.radius` hands it whole stacks of angle combinations, so a
    custom evaluator must accept both shapes.  :func:`semihilbert.require_member`
    validates a stack with one batched check, and the other primitives accept stacks.
    """

    id: str
    evaluate: Callable[[SemiHilbertContext, np.ndarray], "float | np.ndarray"]
    submultiplicative: bool = False
    selfadjoint_invariant: bool = False
    a_increasing: bool = False
    power_property: bool = False
    alpha: Optional[float] = None

    @property
    def flags(self) -> frozenset:
        out = set()
        if self.submultiplicative:
            out.add("submultiplicative")
        if self.selfadjoint_invariant:
            out.add("selfadjoint_invariant")
        if self.a_increasing:
            out.add("a_increasing")
        if self.power_property:
            out.add("power_property")
        return frozenset(out)

    @property
    def base_id(self) -> str:
        return self.id.split("[")[0]


# ---------------------------------------------------------------------------
# stacked evaluation, shared by the alpha and Omega evaluators


def _matvec(m, v):
    """M v for each matrix of a (k, n, n) stack and row of a (k, n) array."""
    return (m @ v[..., None])[..., 0]


def _vdot(v, w):
    """v* w for each pair of rows of two (k, n) arrays."""
    return np.einsum("ki,ki->k", v.conj(), w)


#: Relative skew |B - B*|_F / |B|_F up to which a range block counts as
#: Hermitian and takes the closed form.  It sits at roundoff level (the
#: blocks of the A-real parts of a generalized radius measure at most ~2e-15)
#: and is deliberately not the context's ``rtol``, a rank-truncation
#: tolerance that users may set loosely: the closed form drops the skew
#: part S, and this threshold bounds it by |S|_2 <= 1e-13 sqrt(r) |B|_2 / 2.
_HERMITIAN_SKEW_RTOL = 1e-13


def _evaluate_stack(b, factor, width, solve):
    """Evaluate a range block B, or each nonzero block of a stack.

    A Hermitian block (an A-selfadjoint argument) is worth ``factor``
    times the largest |eigenvalue| of herm(B), one batched eigenvalue call
    per ``linalg.STACK_BYTES`` stack.  ``solve(tts, scale)`` returns the
    values of a stack of the other blocks (``scale`` their Frobenius
    norms) and batches ``width`` matrices per element, so it gets stacks
    whose batches fit ``linalg.STACK_BYTES``.  A zero block is worth 0;
    one block gives a float.
    """
    tts = b[None] if b.ndim == 2 else b
    item = tts.itemsize * tts.shape[-2] * tts.shape[-1]
    scale = np.linalg.norm(tts, axis=(-2, -1))
    skew = np.linalg.norm(tts - ctranspose(tts), axis=(-2, -1))
    hermitian = skew <= _HERMITIAN_SKEW_RTOL * scale
    out = np.zeros(len(tts))
    idx = np.flatnonzero(hermitian & (scale > 0.0))
    for sl in linalg.stack_slices(idx.size, item):
        out[idx[sl]] = factor * linalg.hermitian_abs_max(herm(tts[idx[sl]]))
    idx = np.flatnonzero(~hermitian & (scale > 0.0))
    for sl in linalg.stack_slices(idx.size, width * item):
        out[idx[sl]] = solve(tts[idx[sl]], scale[idx[sl]])
    return float(out[0]) if b.ndim == 2 else out


# ---------------------------------------------------------------------------
# A-operator seminorm


def a_norm_seminorm() -> SeminormDescriptor:
    """The A-operator seminorm with all four properties declared.

    Submultiplicativity and selfadjoint invariance hold for it outright;
    monotonicity and the power property are declared for the A-positive /
    A-selfadjoint comparisons the theorems actually use, which is also how
    the prober tests them.
    """
    return SeminormDescriptor(
        id="a_norm",
        evaluate=semihilbert.a_operator_norm,
        submultiplicative=True,
        selfadjoint_invariant=True,
        a_increasing=True,
        power_property=True,
    )


# ---------------------------------------------------------------------------
# alpha seminorm

#: The alpha ascent's seeded random starts (after its 6 eigenvector starts),
#: stationarity tolerance (relative to max(1, |B|_F^2)) and sweep cap.
_ALPHA_RANDOM_STARTS = 26
_ALPHA_GTOL = 1e-9
_ALPHA_MAX_ITER = 300


def _alpha_objective(tts, y, alpha):
    """F(y) = alpha |y* B y|^2 + (1 - alpha) |B y|^2 for unit rows y.

    ``tts`` is (k, n, n) and ``y`` is (k, s, n): s rows per matrix.
    """
    ty = y @ tts.swapaxes(-1, -2)
    q = np.einsum("ksj,ksj->ks", y.conj(), ty)
    return alpha * np.abs(q) ** 2 + (1.0 - alpha) * np.einsum(
        "ksj,ksj->ks", ty.conj(), ty
    ).real, q


def _alpha_step(tts, f_mat, q, alpha):
    """Top eigenvectors of the tangent minorants at rows with forms ``q``."""
    s = np.abs(q)
    phase = np.where(s > _EPS, np.conj(q) / np.maximum(s, _EPS), 1.0)
    h_phi = herm(phase[..., None, None] * tts[:, None])
    m_batch = (2.0 * alpha * s)[..., None, None] * h_phi + (1.0 - alpha) * f_mat[:, None]
    return np.linalg.eigh(m_batch)[1][..., -1]


def _alpha_starts(tts, f_mat):
    """Unit start rows per matrix: the extreme eigenvectors of the Hermitian
    and skew parts of B and of B* B, then ``_ALPHA_RANDOM_STARTS`` seeded
    random rows shared by every matrix."""
    k, n = tts.shape[:2]
    _, v = np.linalg.eigh(
        np.concatenate([herm(tts), (tts - ctranspose(tts)) / 2.0j, f_mat])
    )
    v = v.reshape(3, k, n, n)
    cols = np.stack([v[m, :, :, c] for m in range(3) for c in (-1, 0)], axis=1)
    rng = np.random.default_rng(0xA1F0)
    shape = (_ALPHA_RANDOM_STARTS, n)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    starts = np.concatenate([cols, np.broadcast_to(z, (k, *shape))], axis=1)
    norms = np.linalg.norm(starts, axis=-1)
    norms[norms == 0] = 1.0
    return starts / norms[..., None]


def _alpha_ascent(tts, scale, alpha):
    """Multi-start monotone ascent for the alpha seminorm, lockstep over a stack.

    Each sweep replaces the objective by its tangent eigenvalue minorant
    at the current iterate (the square is convex, the modulus is a max of
    Hermitian forms), then jumps to the top eigenvector; values never
    decrease and fixed points are exactly the first-order stationary
    points, which the final gradient check certifies.  A matrix leaves the
    active set after two sweeps without relative gain above 1e-14.
    """
    k = len(tts)
    f_mat = ctranspose(tts) @ tts
    y = _alpha_starts(tts, f_mat)
    best = np.full(k, -np.inf)
    # the active set, compacted only when a matrix leaves it
    idx, ta, fa, ya = np.arange(k), tts, f_mat, y.copy()
    best_a, stall = best.copy(), np.zeros(k, dtype=int)
    for _ in range(_ALPHA_MAX_ITER):
        vals, q = _alpha_objective(ta, ya, alpha)
        top = vals.max(axis=1)
        stall = np.where(top <= best_a * (1 + 1e-14) + 1e-30, stall + 1, 0)
        stop = stall >= 2
        if stop.any():
            best[idx[stop]], y[idx[stop]] = best_a[stop], ya[stop]
            keep = ~stop
            idx, ta, fa, ya = idx[keep], ta[keep], fa[keep], ya[keep]
            best_a, stall, top, q = best_a[keep], stall[keep], top[keep], q[keep]
            if not idx.size:
                break
        best_a = np.maximum(best_a, top)
        ya = _alpha_step(ta, fa, q, alpha)
    best[idx], y[idx] = best_a, ya

    # first-order stationarity certificate for each winner
    vals, q = _alpha_objective(tts, y, alpha)
    rows = np.arange(k)
    win = vals.argmax(axis=1)
    best = np.maximum(best, vals[rows, win])
    yk, qk = y[rows, win], q[rows, win]
    grad = alpha * (
        np.conj(qk)[:, None] * _matvec(tts, yk) + qk[:, None] * _matvec(ctranspose(tts), yk)
    ) + (1.0 - alpha) * _matvec(f_mat, yk)
    grad -= _vdot(yk, grad)[:, None] * yk
    gnorm = np.linalg.norm(grad, axis=1)
    polish = np.flatnonzero(gnorm > _ALPHA_GTOL * np.maximum(1.0, scale**2))
    if polish.size:
        # rare: polish with a few extra sweeps on the winners alone
        y1 = yk[polish, None]
        for _ in range(50):
            vals1, q1 = _alpha_objective(tts[polish], y1, alpha)
            best[polish] = np.maximum(best[polish], vals1[:, 0])
            y1 = _alpha_step(tts[polish], f_mat[polish], q1, alpha)
    return np.sqrt(np.maximum(best, 0.0))


def _alpha_eval(ctx, t, alpha):
    """The alpha seminorm of T, or of each matrix of a (k, n, n) stack.

    On the range block, a Hermitian H is worth max|eig(H)| = |H|_2 for
    every alpha: |y* H y| <= |H y| <= |H|_2 for unit y, with equality at a
    top eigenvector.  A block B = H + S that passes the Hermitian test
    with skew part S gets max|eig(H)| = |lambda| too, still a lower
    bound: for the top eigenvector x of H, x* S x is imaginary, so
    |B x| >= |x* B x| >= |lambda| and the objective at x is at least
    lambda^2.  The supremum is at most |B|_2 <= |H|_2 + |S|_2, so the gap
    is at most |S|_2.  Every other block gets the 32-start ascent
    (6 eigenvector starts and 26 seeded random ones).
    """
    return _evaluate_stack(semihilbert._member_block(ctx, t), 1.0, 6 + _ALPHA_RANDOM_STARTS,
                           lambda tts, scale: _alpha_ascent(tts, scale, alpha))


def a_alpha_seminorm(alpha: float) -> SeminormDescriptor:
    """The alpha-weighted seminorm; alpha = 0 gives |.|_A, alpha = 1 gives omega_A."""
    if not (0.0 <= alpha <= 1.0):
        raise AlphaOutOfRangeError(f"alpha must lie in [0, 1], got {alpha}")

    def evaluate(ctx, t, _alpha=float(alpha)):
        return _alpha_eval(ctx, t, _alpha)

    return SeminormDescriptor(id=f"a_alpha[{alpha:g}]", evaluate=evaluate, alpha=float(alpha))


# ---------------------------------------------------------------------------
# Omega seminorm

#: The (t, psi) bracket grid, refinement start count and per-start step cap
#: of the general-argument Omega_A evaluator (see :func:`_big_omega_eval`).
OMEGA_T_GRID = 12
OMEGA_PSI_GRID = 24
OMEGA_REFINE_STARTS = 8
_OMEGA_REFINE_MAX_ITER = 500
#: Start count and per-start sweep cap of :func:`big_omega_pair_form`.
_PAIR_FORM_STARTS = 24
_PAIR_FORM_MAX_ITER = 300


def _omega_pencil(tts):
    """Precomputed Hermitian pencil of |C(t, psi)|^2 coefficients, per matrix.

    C = cos(t) B + e^{i psi} sin(t) B* has
    C*C = cos^2(t) F + sin^2(t) G + sin(2t) (cos(psi) K1 + sin(psi) K2).
    """
    f_mat = ctranspose(tts) @ tts
    g_mat = tts @ ctranspose(tts)
    k = tts @ tts
    return f_mat, g_mat, herm(k), (k - ctranspose(k)) / 2.0j


def _omega_grid(pencil, ts, psis):
    """lam_max(C*C) on the (t, psi) grid for each matrix: a (k, grid) array
    from one batched Hermitian eigenvalue call per ``linalg.STACK_BYTES``
    stack of grid points (k matrices each)."""
    s2t = np.sin(2.0 * ts)
    coeffs = np.stack([
        np.repeat(np.cos(ts) ** 2, psis.size),
        np.repeat(np.sin(ts) ** 2, psis.size),
        np.outer(s2t, np.cos(psis)).ravel(),
        np.outer(s2t, np.sin(psis)).ravel(),
    ])
    out = []
    for sl in linalg.stack_slices(coeffs.shape[1], pencil[0].nbytes):
        m_batch = coeffs[0, sl, None, None] * pencil[0][:, None]
        for c, p in zip(coeffs[1:, sl], pencil[1:]):
            m_batch += c[:, None, None] * p[:, None]
        out.append(np.linalg.eigvalsh(m_batch)[..., -1])
    return np.concatenate(out, axis=1)


def _pick_starts(order, n_psi, count):
    """Up to ``count`` grid indices from ``order`` (best first) as (t, psi)
    index pairs, skipping any within two steps of an earlier pick in both
    t and (cyclic) psi."""
    picked = []
    for idx in order:
        it, ip = divmod(int(idx), n_psi)
        near_existing = any(
            abs(it - jt) <= 2 and min(abs(ip - jp), n_psi - abs(ip - jp)) <= 2
            for jt, jp in picked
        )
        if near_existing:
            continue
        picked.append((it, ip))
        if len(picked) >= count:
            break
    return picked


def _omega_refine(tts, u, v):
    """Block-coordinate ascent on |v* (alpha B + beta B*) u|, per start.

    Row p of ``u`` and ``v`` starts an ascent on matrix p of ``tts``; all
    run in lockstep.  Each alternates the closed-form optimal coefficient
    pair (Cauchy-Schwarz) with the optimal singular pair of the resulting
    combination; the value is nondecreasing, so it converges and every
    iterate is feasible.  A start stops at its first step without relative
    gain above 1e-14, or after ``_OMEGA_REFINE_MAX_ITER`` steps.
    """
    out = np.zeros(len(tts))
    # the active set, compacted only when a start stops
    idx, tta, best = np.arange(len(tts)), ctranspose(tts), np.zeros(len(tts))
    for _ in range(_OMEGA_REFINE_MAX_ITER):
        z1 = _vdot(v, _matvec(tts, u))
        z2 = _vdot(v, _matvec(tta, u))
        r = np.hypot(np.abs(z1), np.abs(z2))
        done = r <= best * (1.0 + 1e-14) + 1e-30
        if done.any():
            out[idx[done]] = np.maximum(best[done], r[done])
            keep = ~done
            idx, tts, tta = idx[keep], tts[keep], tta[keep]
            z1, z2, r = z1[keep], z2[keep], r[keep]
            if not idx.size:
                return out
        best = r
        b_mat = (
            np.conj(z1)[:, None, None] * tts + np.conj(z2)[:, None, None] * tta
        ) / r[:, None, None]
        w_mat, _, vh = np.linalg.svd(b_mat)
        v = w_mat[..., 0]
        u = vh[:, 0].conj()
    out[idx] = best
    return out


def _omega_solve(tts, t_grid, psi_grid, refine_starts):
    """Omega_A of each range block in a stack: grid bracket, then refinement."""
    ts = np.linspace(0.0, math.pi / 2.0, t_grid)
    psis = np.linspace(0.0, 2.0 * math.pi, psi_grid, endpoint=False)
    vals = _omega_grid(_omega_pencil(tts), ts, psis)
    order = np.argsort(vals, axis=1)[:, ::-1]
    best = np.sqrt(np.maximum(vals[np.arange(len(tts)), order[:, 0]], 0.0))
    owner, it, ip = np.array([
        (e, jt, jp)
        for e in range(len(tts))
        for jt, jp in _pick_starts(order[e], psis.size, refine_starts)
    ]).T
    tt0 = tts[owner]
    b_mat = (
        np.cos(ts[it])[:, None, None] * tt0
        + (np.exp(1j * psis[ip]) * np.sin(ts[it]))[:, None, None] * ctranspose(tt0)
    )
    w_mat, _, vh = np.linalg.svd(b_mat)
    np.maximum.at(best, owner, _omega_refine(tt0, vh[:, 0].conj(), w_mat[..., 0]))
    return best


def _big_omega_eval(ctx, t):
    """Omega_A from the range block B: closed form on Hermitian blocks,
    otherwise grid bracketing plus block-coordinate refinement.

    ``t`` is one operator (a float is returned) or a (k, n, n) stack (k
    values); the matrices of a stack share each batched kernel call.
    The global phase of (alpha, beta) is eliminated by absolute
    homogeneity, leaving alpha = cos(t) >= 0 and beta = e^{i psi} sin(t)
    on t in [0, pi/2], psi in [0, 2 pi).  The grid only chooses where the
    refinement starts; the default 12 x 24 grid is 288 matrices per
    block, in batched eigenvalue calls of at most
    ``linalg.STACK_BYTES``.  Why the coarse default is sound:

    * every returned value is lam_max at a grid point or an iterate of
      :func:`_omega_refine`, i.e. |alpha T + beta T#|_A at a feasible
      (alpha, beta), so it is a lower bound for Omega_A;
    * the result dominates every point of the dense 180 x 360 grid; the
      tests check this against ``dense_grid_omega`` in ``tests/oracles.py``,
      an independent slow oracle that takes sigma_max on that grid by SVD;
    * :func:`big_omega_pair_form` stays the independent cross-check
      (catalog check C26 and the cross-oracle acceptance criterion).

    A Hermitian block H (an A-selfadjoint argument) skips the grid
    and the refinement: alpha H + beta H* = (alpha + beta) H, so Omega_A
    is sqrt(2) max|eig(H)|, attained at (alpha, beta) = (1/sqrt2, 1/sqrt2).
    A block B = H + S that passes the Hermitian test with skew part
    S gets the same value, |B/sqrt2 + B*/sqrt2|_2 at that feasible
    point.  Writing alpha B + beta B* = sqrt(2) (a H + b S) with
    a = (alpha + beta)/sqrt2, b = (alpha - beta)/sqrt2 and
    |a|^2 + |b|^2 = 1, the supremum is at most
    sqrt(2) sqrt(|H|_2^2 + |S|_2^2), so the gap is at most
    |S|_2^2 / (sqrt(2) |H|_2).
    """
    grid = (OMEGA_T_GRID, OMEGA_PSI_GRID, OMEGA_REFINE_STARTS)
    return _evaluate_stack(semihilbert._member_block(ctx, t), math.sqrt(2.0),
                           grid[0] * grid[1], lambda tts, scale: _omega_solve(tts, *grid))


def big_omega_seminorm() -> SeminormDescriptor:
    """Omega_A descriptor; A-selfadjoint invariant, other flags undeclared."""
    return SeminormDescriptor(
        id="big_omega",
        evaluate=_big_omega_eval,
        selfadjoint_invariant=True,
    )


def big_omega_pair_form(ctx, t) -> float:
    """Independent oracle for Omega_A through the pair supremum

    sup sqrt(|<Tx, y>_A|^2 + |<T# x, y>_A|^2) over A-unit x, y,

    evaluated on the n x n compression by alternating the two closed-form
    partial maximizations (each is a top eigenvector of a rank-2 Hermitian
    form).  Shares no code path with the range-block evaluator.
    """
    tt = semihilbert.compress(ctx, semihilbert._check_shape(ctx, t))
    n = tt.shape[0]
    if float(np.linalg.norm(tt)) == 0.0:
        return 0.0
    tta = tt.conj().T
    rng = np.random.default_rng(0xB19A)

    def top_vec(a, b):
        m = np.outer(a, a.conj()) + np.outer(b, b.conj())
        _, vecs = np.linalg.eigh(herm(m))
        return vecs[:, -1]

    best = 0.0
    w_mat, _, vh = np.linalg.svd(tt)
    seeds = [(vh[0].conj(), w_mat[:, 0])]
    for _ in range(_PAIR_FORM_STARTS - 1):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        seeds.append((u / np.linalg.norm(u), v / np.linalg.norm(v)))

    for u, v in seeds:
        prev = -1.0
        for _ in range(_PAIR_FORM_MAX_ITER):
            v = top_vec(tt @ u, tta @ u)
            u = top_vec(tta @ v, tt @ v)
            r = math.hypot(abs(np.vdot(v, tt @ u)), abs(np.vdot(v, tta @ u)))
            if r <= prev * (1.0 + 1e-14) + 1e-30:
                break
            prev = r
        best = max(best, prev)
    return best


def gamma_a(ctx, t) -> float:
    """min of sqrt(|T T# + T# T|_A) and sqrt(|T|_A^2 + omega_A(T^2)).

    Both branches are upper bounds for Omega_A; their minimum sits between
    Omega_A(T) and sqrt(2) |T|_A.  Computed from the range block B of T:
    the blocks of T T# + T# T and T^2 are B B* + B* B and B^2.
    """
    b = semihilbert._member_block(ctx, semihilbert._check_shape(ctx, t))
    bh = b.conj().T
    branch1 = math.sqrt(linalg._spectral_norm(b @ bh + bh @ b))
    branch2 = math.sqrt(linalg._spectral_norm(b) ** 2 + radius._level_set_radius(b @ b))
    return min(branch1, branch2)


# ---------------------------------------------------------------------------
# registry


def seminorm_by_name(name: str, alpha: Optional[float] = None) -> SeminormDescriptor:
    """Look up a registered seminorm; a_alpha requires the alpha weight."""
    if name == "a_norm":
        return a_norm_seminorm()
    if name == "big_omega":
        return big_omega_seminorm()
    if name == "a_alpha":
        if alpha is None:
            raise AlphaOutOfRangeError("a_alpha needs an explicit alpha in [0, 1]")
        return a_alpha_seminorm(alpha)
    raise KeyError(f"unknown seminorm {name!r}; choose a_norm, big_omega or a_alpha")
