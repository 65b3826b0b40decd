"""Reference values for ``shnr compute``, built from numpy alone.

Nothing here calls shnr: every value comes from the eigendecomposition of
A and the paper's identities, so agreement with the CLI is evidence.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
RANK_RTOL = 1e-8   # generated spectra sit in [0.2, 1] * lam_max or at 0


def psd_parts(a):
    """(A^{1/2}, (A^{1/2})^+, A^+) from eigh(A)."""
    w, v = np.linalg.eigh(a)
    keep = w > RANK_RTOL * w[-1]
    wk, vk = w[keep], v[:, keep]
    return (
        (vk * np.sqrt(wk)) @ vk.conj().T,
        (vk / np.sqrt(wk)) @ vk.conj().T,
        (vk / wk) @ vk.conj().T,
    )


def numerical_radius(m, grid=1024, iters=80):
    """max over theta of lam_max(Re(e^{i theta} M)): grid, then golden section."""
    h1 = (m + m.conj().T) / 2.0
    h2 = (m - m.conj().T) / 2.0j

    def f(th):
        return float(np.linalg.eigvalsh(math.cos(th) * h1 - math.sin(th) * h2)[-1])

    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    batch = np.cos(thetas)[:, None, None] * h1 - np.sin(thetas)[:, None, None] * h2
    vals = np.linalg.eigvalsh(batch)[:, -1]
    k = int(np.argmax(vals))
    h = 2.0 * math.pi / grid
    lo, hi = thetas[k] - h, thetas[k] + h
    best = float(vals[k])
    for _ in range(iters):
        c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
        fc, fd = f(c), f(d)
        best = max(best, fc, fd)
        if fc >= fd:
            hi = d
        else:
            lo = c
    return best


def pair_form(m, starts=16, iters=2000):
    """Omega via sup sqrt(|<Mu, v>|^2 + |<M*u, v>|^2) over unit u, v.

    Alternating exact maximization: for fixed u the best v spans
    {Mu, M*u}, found from the 2x2 Gram matrix, and symmetrically for u.
    Starts are the top singular pairs of M plus seeded random vectors.
    """
    n = m.shape[0]
    ma = m.conj().T
    rng = np.random.default_rng(0)
    w_mat, _, vh = np.linalg.svd(m)
    inits = [vh[0].conj(), w_mat[:, 0]]
    inits += [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(starts)]
    best = 0.0
    for u in inits:
        u = u / np.linalg.norm(u)
        prev = -1.0
        for _ in range(iters):
            v, _ = _top_in_span(m @ u, ma @ u)
            u, val = _top_in_span(ma @ v, m @ v)
            if val <= prev * (1.0 + 1e-15):
                break
            prev = val
        best = max(best, prev)
    return best


def _top_in_span(a, b):
    """Unit x maximizing |<a, x>|^2 + |<b, x>|^2, and the square root of that maximum."""
    x = np.stack([a, b], axis=1)
    w, c = np.linalg.eigh(x.conj().T @ x)
    y = x @ c[:, -1]
    return y / np.linalg.norm(y), math.sqrt(max(float(w[-1]), 0.0))


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def mat_rel_err(got, want):
    return float(np.linalg.norm(got - want)) / max(float(np.linalg.norm(want)), 1e-300)
