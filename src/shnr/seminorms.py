"""Pluggable seminorms on the A-adjointable operators.

Three concrete seminorms are provided:

``a_norm``
    the A-operator seminorm itself, sigma_max of the compression;

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
proofs, and :func:`probe_properties` measures them empirically.

The two nontrivial evaluators are global optimizations over spheres.
Both follow the same recipe: a deterministic bracketing stage (coefficient
grid / eigenvector starts) followed by a monotone block-coordinate ascent
that converges to a stationary point.  Every iterate is a feasible point,
so returned values are certified lower bounds that the cross-form oracles
(:func:`big_omega_pair_form`, dense sphere sampling in the tests) pin from
the other side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linalg, semihilbert
from .exceptions import AlphaOutOfRangeError
from .linalg import herm
from .semihilbert import SemiHilbertContext

_EPS = 1e-300


@dataclass(frozen=True)
class SeminormDescriptor:
    """A named seminorm evaluator plus its declared property flags."""

    id: str
    evaluate: Callable[[SemiHilbertContext, np.ndarray], float]
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


def _alpha_objective(tt, y_rows, alpha):
    """F(y) = alpha |y* T~ y|^2 + (1 - alpha) |T~ y|^2 for unit rows y."""
    ty = y_rows @ tt.T
    q = np.einsum("ij,ij->i", y_rows.conj(), ty)
    return alpha * np.abs(q) ** 2 + (1.0 - alpha) * np.einsum(
        "ij,ij->i", ty.conj(), ty
    ).real, q


def _alpha_starts(tt, f_mat, n_random, rng):
    n = tt.shape[0]
    h1 = herm(tt)
    h2 = (tt - tt.conj().T) / 2.0j
    cols = []
    for m in (h1, h2, f_mat):
        _, v = np.linalg.eigh(m)
        cols.append(v[:, -1])
        cols.append(v[:, 0])
    z = rng.standard_normal((n_random, n)) + 1j * rng.standard_normal((n_random, n))
    starts = np.vstack([np.array(cols), z])
    norms = np.linalg.norm(starts, axis=1)
    norms[norms == 0] = 1.0
    return starts / norms[:, None]


def _alpha_eval(ctx, t, alpha, n_starts=32, gtol=1e-9, max_iter=300):
    """Multi-start monotone ascent for the alpha seminorm.

    Each sweep replaces the objective by its tangent eigenvalue minorant
    at the current iterate (the square is convex, the modulus is a max of
    Hermitian forms), then jumps to the top eigenvector; values never
    decrease and fixed points are exactly the first-order stationary
    points, which the final gradient check certifies.

    Hermitian compressions (A-selfadjoint arguments) have their maximizer
    at an eigenvector, so the eigenvector starts plus a couple of random
    ones suffice there and the start count is trimmed accordingly.
    """
    tt = semihilbert.compress(ctx, t)
    scale = float(np.linalg.norm(tt))
    if scale == 0.0:
        return 0.0
    f_mat = tt.conj().T @ tt
    hermitian_arg = np.linalg.norm(tt - tt.conj().T) <= 1e-7 * scale
    n_random = max(2, (8 if hermitian_arg else n_starts) - 6)
    rng = np.random.default_rng(0xA1F0)
    y = _alpha_starts(tt, f_mat, n_random, rng)

    best = -np.inf
    stall = 0
    for _ in range(max_iter):
        vals, q = _alpha_objective(tt, y, alpha)
        top = float(np.max(vals))
        if top <= best * (1 + 1e-14) + 1e-30:
            stall += 1
            if stall >= 2:
                break
        else:
            stall = 0
        best = max(best, top)
        s = np.abs(q)
        phase = np.where(s > _EPS, np.conj(q) / np.maximum(s, _EPS), 1.0)
        h_phi = 0.5 * (
            phase[:, None, None] * tt + np.conj(phase)[:, None, None] * tt.conj().T
        )
        m_batch = 2.0 * alpha * s[:, None, None] * h_phi + (1.0 - alpha) * f_mat
        _, vecs = np.linalg.eigh(m_batch)
        y = vecs[:, :, -1]

    # first-order stationarity certificate for the winner
    vals, q = _alpha_objective(tt, y, alpha)
    k = int(np.argmax(vals))
    best = max(best, float(vals[k]))
    yk = y[k]
    grad = (
        alpha * (np.conj(q[k]) * (tt @ yk) + q[k] * (tt.conj().T @ yk))
        + (1.0 - alpha) * (f_mat @ yk)
    )
    grad -= (np.vdot(yk, grad)) * yk
    if np.linalg.norm(grad) > gtol * max(1.0, scale**2):
        # rare: polish with a few extra sweeps on the winner alone
        y1 = yk[None, :]
        for _ in range(50):
            vals1, q1 = _alpha_objective(tt, y1, alpha)
            best = max(best, float(vals1[0]))
            s1 = abs(q1[0])
            ph = np.conj(q1[0]) / max(s1, _EPS) if s1 > _EPS else 1.0
            m1 = 2.0 * alpha * s1 * herm(ph * tt) + (1.0 - alpha) * f_mat
            _, v1 = np.linalg.eigh(m1)
            y1 = v1[:, -1][None, :]
    return float(math.sqrt(max(best, 0.0)))


def a_alpha_seminorm(alpha: float, n_starts: int = 32) -> SeminormDescriptor:
    """The alpha-weighted seminorm; alpha = 0 gives |.|_A, alpha = 1 gives omega_A."""
    if not (0.0 <= alpha <= 1.0):
        raise AlphaOutOfRangeError(f"alpha must lie in [0, 1], got {alpha}")

    def evaluate(ctx, t, _alpha=float(alpha), _ns=n_starts):
        return _alpha_eval(ctx, t, _alpha, n_starts=_ns)

    return SeminormDescriptor(id=f"a_alpha[{alpha:g}]", evaluate=evaluate, alpha=float(alpha))


# ---------------------------------------------------------------------------
# Omega seminorm

#: Default (t, psi) bracket grid and refinement start count of the
#: general-argument Omega_A evaluator (see :func:`_big_omega_eval`).
OMEGA_T_GRID = 12
OMEGA_PSI_GRID = 24
OMEGA_REFINE_STARTS = 8


def _omega_pencil(tt):
    """Precomputed Hermitian pencil of |B(t, psi)|^2 coefficients.

    B = cos(t) T~ + e^{i psi} sin(t) T~* has
    B*B = cos^2(t) F + sin^2(t) G + sin(2t) (cos(psi) K1 + sin(psi) K2).
    """
    f_mat = tt.conj().T @ tt
    g_mat = tt @ tt.conj().T
    k = tt @ tt
    k1 = herm(k)
    k2 = (k - k.conj().T) / 2.0j
    return f_mat, g_mat, k1, k2


def _omega_grid(pencil, ts, psis, chunk=16384):
    """lam_max(B*B) on the (t, psi) grid via batched Hermitian eigenvalues."""
    f_mat, g_mat, k1, k2 = pencil
    c1 = np.repeat(np.cos(ts) ** 2, psis.size)
    c2 = np.repeat(np.sin(ts) ** 2, psis.size)
    s2t = np.sin(2.0 * ts)
    c3 = np.outer(s2t, np.cos(psis)).ravel()
    c4 = np.outer(s2t, np.sin(psis)).ravel()
    vals = np.empty(c1.size)
    for i in range(0, c1.size, chunk):
        sl = slice(i, min(i + chunk, c1.size))
        m_batch = (
            c1[sl, None, None] * f_mat
            + c2[sl, None, None] * g_mat
            + c3[sl, None, None] * k1
            + c4[sl, None, None] * k2
        )
        vals[sl] = np.linalg.eigvalsh(m_batch)[:, -1]
    return vals


def _omega_refine(tt, u, v, max_iter=500):
    """Block-coordinate ascent on |v* (alpha T~ + beta T~*) u|.

    Alternates the closed-form optimal coefficient pair (Cauchy-Schwarz)
    with the optimal singular pair of the resulting combination; the value
    is nondecreasing, so it converges and every iterate is feasible.
    """
    tta = tt.conj().T
    best = 0.0
    for _ in range(max_iter):
        z1 = np.vdot(v, tt @ u)
        z2 = np.vdot(v, tta @ u)
        r = math.hypot(abs(z1), abs(z2))
        if r <= best * (1.0 + 1e-14) + 1e-30:
            return max(best, r)
        best = r
        b_mat = (np.conj(z1) * tt + np.conj(z2) * tta) / r
        w_mat, _, vh = np.linalg.svd(b_mat)
        v = w_mat[:, 0]
        u = vh[0].conj()
    return best


def _big_omega_eval(ctx, t, t_grid=OMEGA_T_GRID, psi_grid=OMEGA_PSI_GRID,
                    refine_starts=OMEGA_REFINE_STARTS):
    """Omega_A via grid bracketing plus block-coordinate refinement.

    The global phase of (alpha, beta) is eliminated by absolute
    homogeneity, leaving alpha = cos(t) >= 0 and beta = e^{i psi} sin(t)
    on t in [0, pi/2], psi in [0, 2 pi).  The grid only chooses where the
    refinement starts; the default 12 x 24 grid is one batched eigenvalue
    call of 288 matrices.  Why the coarse default is sound:

    * every returned value is lam_max at a grid point or an iterate of
      :func:`_omega_refine`, i.e. |alpha T + beta T#|_A at a feasible
      (alpha, beta), so it is a lower bound for Omega_A;
    * the result dominates every point of the dense 180 x 360 grid; the
      tests check this against ``dense_grid_omega`` in ``tests/oracles.py``,
      an independent slow oracle that takes sigma_max on that grid by SVD;
    * :func:`big_omega_pair_form` stays the independent cross-check
      (catalog check C26 and the cross-oracle acceptance criterion).

    A Hermitian compression makes the surface |cos t + e^{i psi} sin t|
    sigma_max(T~), single-peaked per period, so an even coarser grid with
    two starts brackets it.
    """
    tt = semihilbert.compress(ctx, t)
    scale = float(np.linalg.norm(tt))
    if scale == 0.0:
        return 0.0
    if np.linalg.norm(tt - tt.conj().T) <= 1e-7 * scale:
        # Hermitian compression: the surface is |cos t + e^{i psi} sin t|
        # times sigma_max, single-peaked, so a coarse bracket suffices.
        t_grid, psi_grid, refine_starts = 6, 8, 2
    ts = np.linspace(0.0, math.pi / 2.0, t_grid)
    psis = np.linspace(0.0, 2.0 * math.pi, psi_grid, endpoint=False)
    vals = _omega_grid(_omega_pencil(tt), ts, psis)

    order = np.argsort(vals)[::-1]
    picked = []
    for idx in order:
        it, ip = divmod(int(idx), psis.size)
        near_existing = any(
            abs(it - jt) <= 2 and min(abs(ip - jp), psis.size - abs(ip - jp)) <= 2
            for jt, jp in picked
        )
        if near_existing:
            continue
        picked.append((it, ip))
        if len(picked) >= refine_starts:
            break

    best = math.sqrt(max(float(vals[order[0]]), 0.0))
    for it, ip in picked:
        t_ang, psi = ts[it], psis[ip]
        b_mat = math.cos(t_ang) * tt + np.exp(1j * psi) * math.sin(t_ang) * tt.conj().T
        w_mat, _, vh = np.linalg.svd(b_mat)
        best = max(best, _omega_refine(tt, vh[0].conj(), w_mat[:, 0]))
    return best


def big_omega_seminorm(t_grid: int = OMEGA_T_GRID, psi_grid: int = OMEGA_PSI_GRID,
                       refine_starts: int = OMEGA_REFINE_STARTS) -> SeminormDescriptor:
    """Omega_A descriptor; A-selfadjoint invariant, other flags undeclared."""

    def evaluate(ctx, t, _tg=t_grid, _pg=psi_grid, _rs=refine_starts):
        return _big_omega_eval(ctx, t, t_grid=_tg, psi_grid=_pg, refine_starts=_rs)

    return SeminormDescriptor(
        id="big_omega",
        evaluate=evaluate,
        selfadjoint_invariant=True,
    )


def big_omega_pair_form(ctx, t, n_starts: int = 24, max_iter: int = 300) -> float:
    """Independent oracle for Omega_A through the pair supremum

    sup sqrt(|<Tx, y>_A|^2 + |<T# x, y>_A|^2) over A-unit x, y,

    evaluated in compressed coordinates by alternating the two closed-form
    partial maximizations (each is a top eigenvector of a rank-2 Hermitian
    form).  Shares no code path with the grid evaluator.
    """
    tt = semihilbert.compress(ctx, t)
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
    for _ in range(n_starts - 1):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        seeds.append((u / np.linalg.norm(u), v / np.linalg.norm(v)))

    for u, v in seeds:
        prev = -1.0
        for _ in range(max_iter):
            v = top_vec(tt @ u, tta @ u)
            u = top_vec(tta @ v, tt @ v)
            r = math.hypot(abs(np.vdot(v, tt @ u)), abs(np.vdot(v, tta @ u)))
            if r <= prev * (1.0 + 1e-14) + 1e-30:
                break
            prev = r
        best = max(best, prev)
    return best


def gamma_a(ctx, t, cfg=None) -> float:
    """min of sqrt(|T T# + T# T|_A) and sqrt(|T|_A^2 + omega_A(T^2)).

    Both branches are upper bounds for Omega_A; their minimum sits between
    Omega_A(T) and sqrt(2) |T|_A.
    """
    t = semihilbert.require_member(ctx, t)
    ts = semihilbert.a_adjoint(ctx, t)
    branch1 = math.sqrt(semihilbert.a_operator_norm(ctx, ts @ t + t @ ts))
    branch2 = math.sqrt(
        semihilbert.a_operator_norm(ctx, t) ** 2
        + semihilbert.omega_a(ctx, t @ t, cfg)
    )
    return min(branch1, branch2)


# ---------------------------------------------------------------------------
# registry and empirical prober


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


@dataclass
class ProbeReport:
    """Max observed violations of the seminorm axioms and property flags."""

    seminorm_id: str
    trials: int
    seed: int
    violations: dict = field(default_factory=dict)

    def consistent_with(self, descriptor: SeminormDescriptor, tol: float = 1e-8) -> bool:
        """Whether every declared-true flag stayed within ``tol``."""
        return all(
            self.violations.get(flag, 0.0) <= tol for flag in descriptor.flags
        )


def probe_properties(ctx, descriptor: SeminormDescriptor, trials: int,
                     seed: int = 0) -> ProbeReport:
    """Empirically measure axioms and property flags on random instances.

    Monotonicity is probed on A-positive pairs and the power property on
    A-selfadjoint operators, matching how the theorems invoke them.
    Deterministic for a fixed seed.
    """
    from . import verify  # deferred: verify imports this module

    if trials < 1:
        raise ValueError("trials must be at least 1")
    ev = descriptor.evaluate
    worst = {
        "nonnegativity": 0.0,
        "homogeneity": 0.0,
        "triangle": 0.0,
        "submultiplicative": 0.0,
        "selfadjoint_invariant": 0.0,
        "a_increasing": 0.0,
        "power_property": 0.0,
    }
    for k in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        t = verify.random_member(ctx, rng=rng, unit_norm=True)
        s = verify.random_member(ctx, rng=rng, unit_norm=True)
        lam = complex(rng.standard_normal() + 1j * rng.standard_normal())

        nt = ev(ctx, t)
        ns = ev(ctx, s)
        worst["nonnegativity"] = max(worst["nonnegativity"], -min(nt, ns, 0.0))
        worst["homogeneity"] = max(
            worst["homogeneity"], abs(ev(ctx, lam * t) - abs(lam) * nt)
        )
        worst["triangle"] = max(worst["triangle"], ev(ctx, t + s) - nt - ns)
        worst["submultiplicative"] = max(
            worst["submultiplicative"], ev(ctx, t @ s) - nt * ns
        )
        worst["selfadjoint_invariant"] = max(
            worst["selfadjoint_invariant"],
            abs(ev(ctx, semihilbert.a_adjoint(ctx, t)) - nt),
        )

        pos_small = verify.random_a_positive(ctx, rng=rng, unit_norm=True)
        pos_extra = verify.random_a_positive(ctx, rng=rng, unit_norm=True)
        worst["a_increasing"] = max(
            worst["a_increasing"], ev(ctx, pos_small) - ev(ctx, pos_small + pos_extra)
        )

        sa = verify.random_a_selfadjoint(ctx, rng=rng, unit_norm=True)
        n_sa = ev(ctx, sa)
        for p in (2, 3):
            worst["power_property"] = max(
                worst["power_property"],
                abs(ev(ctx, np.linalg.matrix_power(sa, p)) - n_sa**p),
            )
    return ProbeReport(
        seminorm_id=descriptor.id, trials=trials, seed=seed, violations=worst
    )
