"""Independent oracles used by the test suite.

Each oracle reaches the same quantity as the library through a different
algorithm (characteristic polynomial roots, power iteration, dense sphere
sampling, direct vector ascent, a dense coefficient grid by SVD, one
evaluator call per angle, an angle grid with golden-section refinement, a
dense angle grid, n x n pseudoinverse formulas in place of the range
block) so that agreement is evidence, not tautology.
They are deliberately slow and simple.  Two are not oracles but
references: :func:`level_set_loop` is the level-set radius one matrix at a
time, the loop that the stacked kernel replaced, kept so that the stacked
kernel's arithmetic can be held to it bit for bit; :func:`re_im_sweep` is
the C02/C07 sweep one instance at a time on n x n parts, which the
catalog's stacked sweep on range blocks must match to roundoff.
"""

import math

import numpy as np

from shnr import compress, im_a, linalg, re_a
from shnr.linalg import herm
from shnr.radius import _theta_combos, sup_on_circle


def psd_parts(a, rtol: float = linalg.DEFAULT_RTOL):
    """(A^{1/2}, (A^{1/2})^+, A^+, P) of a Hermitian PSD A as n x n
    matrices, from numpy's own ``eigh`` of A with the eigenvalues at or
    below rtol * lam_max dropped; P is the projector onto range(A)."""
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    keep = w > rtol * w[-1]
    wk, vk = w[keep], v[:, keep]
    return (
        (vk * np.sqrt(wk)) @ vk.conj().T,
        (vk / np.sqrt(wk)) @ vk.conj().T,
        (vk / wk) @ vk.conj().T,
        vk @ vk.conj().T,
    )


def semihilbert_formulas(a, t, m, rtol: float = linalg.DEFAULT_RTOL) -> dict:
    """The semi-Hilbert primitives of a member T (and the uncompression of
    a matrix M) by their n x n definitions, from :func:`psd_parts`:
    compress A^{1/2} T (A^{1/2})^+, adjoint A^+ T* A, uncompress
    (A^{1/2})^+ M A^{1/2}, membership residual |(I - P) T* A|_2 and A-norm
    |T~|_2, each by plain matrix products and ``svd``."""
    half, half_pinv, a_pinv, proj = psd_parts(a, rtol)
    tt = half @ t @ half_pinv
    return {
        "compress": tt,
        "adjoint": a_pinv @ t.conj().T @ a,
        "uncompress": half_pinv @ m @ half,
        "residual": _sigma_max((np.eye(a.shape[0]) - proj) @ t.conj().T @ a),
        "a_norm": _sigma_max(tt),
        "half": half,
        "half_pinv": half_pinv,
        "a_pinv": a_pinv,
    }


def _sigma_max(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


def char_poly_coeffs(m: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients via the Faddeev-LeVerrier
    recursion (matrix products and traces only, no eigensolver)."""
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    work = np.zeros_like(m)
    for k in range(1, n + 1):
        work = m @ work + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(m @ work) / k
    return coeffs


def eigenvalues_by_charpoly(m: np.ndarray) -> np.ndarray:
    """Hermitian eigenvalues as roots of the characteristic polynomial."""
    roots = np.roots(char_poly_coeffs(m))
    return np.sort(roots.real)


def power_iteration_sigma_max(m: np.ndarray, iters: int = 2000, seed: int = 0) -> float:
    """Largest singular value via power iteration on M* M."""
    rng = np.random.default_rng(seed)
    gram = m.conj().T @ m
    v = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = gram @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam = float(np.real(np.vdot(v, gram @ v)))
    return float(np.sqrt(max(lam, 0.0)))


def random_unit_sphere(n: int, samples: int, rng) -> np.ndarray:
    """Uniform complex unit vectors, one per row."""
    z = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    return z / np.linalg.norm(z, axis=1)[:, None]


def sampling_sigma_max(m: np.ndarray, samples: int, rng) -> float:
    """max |M v| over random unit vectors: a statistical lower bound."""
    ys = random_unit_sphere(m.shape[1], samples, rng)
    return float(np.max(np.linalg.norm(ys @ m.T, axis=1)))


def vector_ascent_omega(ctx, t, n_starts: int = 16, iters: int = 400,
                        seed: int = 11) -> float:
    """sup |<T x, x>_A| by direct ascent over vectors, no angle sweep.

    Works in compressed coordinates: repeatedly aligns the phase and jumps
    to the top eigenvector of the aligned Hermitian part, which cannot
    decrease |y* T~ y|.  Independent of the theta-grid engine.
    """
    tt = compress(ctx, t)
    n = tt.shape[0]
    rng = np.random.default_rng(seed)
    best = 0.0
    for s in range(n_starts):
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y /= np.linalg.norm(y)
        prev = -1.0
        for _ in range(iters):
            q = np.vdot(y, tt @ y)
            r = abs(q)
            if r <= prev * (1 + 1e-14) + 1e-30:
                break
            prev = r
            phase = np.conj(q) / r if r > 0 else 1.0
            h = (phase * tt + np.conj(phase) * tt.conj().T) / 2.0
            _, vecs = np.linalg.eigh(h)
            y = vecs[:, -1]
        best = max(best, prev)
    return best


def sampling_alpha_norm(ctx, t, alpha: float, samples: int, rng) -> float:
    """Dense-sphere lower bound for the alpha seminorm (small n only)."""
    tt = compress(ctx, t)
    ys = random_unit_sphere(tt.shape[0], samples, rng)
    ty = ys @ tt.T
    q = np.einsum("ij,ij->i", ys.conj(), ty)
    vals = alpha * np.abs(q) ** 2 + (1 - alpha) * np.einsum(
        "ij,ij->i", ty.conj(), ty
    ).real
    return float(np.sqrt(np.max(vals)))


def sampling_omega_pairs(ctx, t, samples: int, rng) -> float:
    """Dense-sphere lower bound for Omega_A via random unit pairs."""
    tt = compress(ctx, t)
    n = tt.shape[0]
    xs = random_unit_sphere(n, samples, rng)
    ys = random_unit_sphere(n, samples, rng)
    z1 = np.einsum("ij,ij->i", ys.conj(), xs @ tt.T)
    z2 = np.einsum("ij,ij->i", ys.conj(), xs @ np.conj(tt))
    return float(np.max(np.hypot(np.abs(z1), np.abs(z2))))


def dense_grid_omega(tt: np.ndarray, t_grid: int = 180, psi_grid: int = 360) -> float:
    """max sigma_max(cos t T~ + e^{i psi} sin t T~*) over a dense (t, psi) grid.

    Forms every combination explicitly and takes its largest singular value
    by batched SVD: no Hermitian pencil, no eigenvalue solver and no
    refinement, so it shares nothing with the library's Omega_A bracket.
    A lower bound for Omega_A that the library's value must dominate.
    """
    ts = np.linspace(0.0, np.pi / 2.0, t_grid)
    psis = np.linspace(0.0, 2.0 * np.pi, psi_grid, endpoint=False)
    alphas = np.repeat(np.cos(ts), psi_grid)
    betas = np.outer(np.sin(ts), np.exp(1j * psis)).ravel()
    tta = tt.conj().T
    best = 0.0
    chunk = 8192
    for i in range(0, alphas.size, chunk):
        combos = (alphas[i:i + chunk, None, None] * tt
                  + betas[i:i + chunk, None, None] * tta)
        best = max(best, float(np.linalg.svd(combos, compute_uv=False)[:, 0].max()))
    return best


def per_angle_radius(ctx, seminorm, t, grid_points: int = 720) -> float:
    """w_N(T) = sup_theta N(Re_A(e^{i theta} T)) with one ``seminorm.evaluate``
    call on a single matrix per grid angle and per refinement step: the
    library's angle loop without stacks, for a nonzero member T."""
    r0 = re_a(ctx, t)
    i0 = im_a(ctx, t)

    def f(thetas):
        return np.array([
            seminorm.evaluate(ctx, math.cos(theta) * r0 - math.sin(theta) * i0)
            for theta in thetas
        ])

    _, val = sup_on_circle(f, grid_points)
    return val


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def grid_golden_max(f, grid_points: int, period: float = math.pi) -> float:
    """max of a periodic f: a uniform grid of ``grid_points`` angles, then
    plain golden section on the two grid steps around the best one, down to
    a bracket of 1e-8.  A copy of the angle engine's former refinement, so
    an oracle built on it shares no step rule with ``sup_on_circle``."""
    thetas = np.linspace(0.0, period, grid_points, endpoint=False)
    vals = np.asarray(f(thetas), dtype=float)
    k = int(np.argmax(vals))
    h = period / grid_points
    a, b = thetas[k] - h, thetas[k] + h

    def f_one(x):
        return float(f(np.array([x % period]))[0])

    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = f_one(c), f_one(d)
    best = max(float(vals[k]), fc, fd)
    while b - a > 1e-8:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f_one(c)
            best = max(best, fc)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f_one(d)
            best = max(best, fd)
    return best


def eigenvalue_sweep(tt: np.ndarray, grid_points: int) -> float:
    """The classical numerical radius of the compression ``tt``, by
    :func:`grid_golden_max`."""
    if not tt.any():
        return 0.0
    h1 = herm(tt)
    h2 = (tt - tt.conj().T) / 2.0j

    def f(thetas):
        return np.concatenate([
            linalg.hermitian_abs_max(_theta_combos(h1, h2, thetas[sl]))
            for sl in linalg.stack_slices(thetas.size, h1.nbytes)
        ])

    return grid_golden_max(f, grid_points)


def dense_grid_radius(tt: np.ndarray, angles: int = 20000) -> float:
    """max |eigenvalue| of the Hermitian part of e^{i theta} T~ over a
    uniform grid of [0, pi), by plain ``eigvalsh``: no refinement, no
    pencil.  A value attained at a grid angle, so a lower bound of the
    numerical radius that the library's value must dominate."""
    h1 = (tt + tt.conj().T) / 2.0
    h2 = (tt - tt.conj().T) / 2.0j
    best = 0.0
    for thetas in np.array_split(np.linspace(0.0, np.pi, angles, endpoint=False), 40):
        w = np.linalg.eigvalsh(np.cos(thetas)[:, None, None] * h1
                               - np.sin(thetas)[:, None, None] * h2)
        best = max(best, float(np.abs(w).max()))
    return best


def level_set_loop(m: np.ndarray) -> float:
    """The level-set numerical radius of one matrix, as a loop of passes on
    that matrix alone (see ``radius._level_set_radius`` for the method and
    its tolerances)."""
    n = m.shape[0]
    if not m.any():
        return 0.0
    eps = np.finfo(float).eps
    a = 0.5 * np.exp(1j)
    ac = a.conjugate()
    mh = m.conj().T
    h1 = herm(m)
    h2 = (m - mh) / 2.0j
    eye = np.eye(n)
    lead = m + ac * ac * mh
    rest = np.hstack((a * a * m + mh, 2.0 * (a * m + ac * mh)))
    drest = np.hstack((2.0 * a * eye, 2.0 * (1.0 + abs(a) ** 2) * eye))
    comp = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    comp[:n, n:] = eye

    def abs_max(thetas):
        return float(linalg.hermitian_abs_max(_theta_combos(h1, h2, thetas)).max())

    r = abs_max(np.arange(8) * (math.pi / 8))
    fine = 2 * n * eps * float(np.linalg.norm(m)) / r
    on_circle = math.sqrt(2 * n * eps)
    for _ in range(64):
        for margin in (fine, math.sqrt(eps)):
            level = r * (1.0 + margin)
            u, s, vh = np.linalg.svd(lead - (2.0 * level * ac) * eye)
            if s[-1] >= math.sqrt(eps) * s[0]:
                break
        inv = vh.conj().T / np.maximum(s, eps * s[0])
        comp[n:] = -inv @ (u.conj().T @ (rest - level * drest))
        w = np.linalg.eigvals(comp)
        w = w[np.abs(np.abs(w) - 1.0) <= on_circle * np.linalg.norm(comp)]
        if not w.size:
            return r
        th = np.sort(np.angle(w + a) - np.angle(1.0 + ac * w))
        best = abs_max((th + np.append(th[1:], th[0] + 2.0 * math.pi)) / 2.0)
        if best <= level:
            return max(r, best)
        r = best
    return r


def re_im_sweep(ctx, seminorm, t, combine, grid_points: int) -> float:
    """sup over theta of combine(N(Re_A(e^{i theta} T)), N(Im_A(e^{i theta} T)))
    for one member T, as the catalog swept it one instance at a time: the
    n x n A-Cartesian parts of T, ``seminorm.evaluate`` on the n x n
    angle combinations, and ``sup_on_circle`` over phi = 2 theta.  A
    reference for the catalog's stacked sweep on range blocks, which forms
    the same parts in r x r coordinates."""
    r0 = re_a(ctx, t)
    i0 = im_a(ctx, t)

    def f(phis):
        thetas = np.concatenate([phis / 2.0, phis / 2.0 + math.pi / 2.0])
        vals = seminorm.evaluate(ctx, _theta_combos(r0, i0, thetas))
        return combine(vals[: phis.size], vals[phis.size:])

    _, val = sup_on_circle(f, grid_points)
    return val
