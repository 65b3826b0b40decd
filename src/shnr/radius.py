"""Generalized A-numerical radius: the angle-supremum engine.

For a seminorm ``N`` on the A-adjointable operators, the generalized
radius of ``T`` is

    w_N(T) = sup_theta N( Re_A(e^{i theta} T) ),

an optimization over the half-circle [0, pi): replacing theta by
theta + pi flips the sign of the A-real part, which seminorms cannot see.
The engine samples a uniform grid, then sharpens the best bracket with a
golden-section search.  The grid guarantees the global maximum is
bracketed up to the Lipschitz bound L * h / 2 (h the grid step, L at most
N(Re_A T) + N(Im_A T)); the refinement then converges to the bracketed
peak, so the returned value is a certified lower bound of the supremum
within that grid bound.

Every objective is batched: ``sup_on_circle`` hands it a 1-D array of
angles and takes an array of values back, the whole grid in one call and
each golden-section step as a one-angle array.  The generic objective builds
the A-real parts cos(theta) Re_A T - sin(theta) Im_A T as (k, n, n) stacks
of at most ``linalg.STACK_BYTES`` and makes one ``N.evaluate`` call per
stack (the stack contract of :class:`~shnr.seminorms.SeminormDescriptor`).

For the A-operator seminorm an eigenvalue fast path replaces the generic
objective: the compression of Re_A(e^{i theta} T) is the Hermitian part
of e^{i theta} T~, so its objective is one batched Hermitian eigenvalue
call per ``linalg.STACK_BYTES`` stack of angles.  The seminorms that
:mod:`shnr.seminorms` provides evaluate the generic objective's A-real
parts, which are A-selfadjoint, in closed form through the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, semihilbert
from .linalg import herm

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ThetaOptConfig:
    """Knobs for the angle sweep.

    ``grid_points`` uniform samples over [0, pi), then golden-section
    refinement of the best bracket down to ``refine_tol`` in theta.
    """

    grid_points: int = 720
    refine_tol: float = 1e-8
    max_refine_iters: int = 200

    def __post_init__(self):
        if self.grid_points < 8:
            raise ValueError("grid_points must be at least 8")
        if self.refine_tol <= 0:
            raise ValueError("refine_tol must be positive")


DEFAULT_THETA_CONFIG = ThetaOptConfig()


def _golden_max(f, a: float, b: float, tol: float, max_iter: int):
    """Golden-section maximization of f on [a, b]; returns (x, f(x))."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    if fc >= fd:
        best_x, best_f = c, fc
    else:
        best_x, best_f = d, fd
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            if fd > best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def sup_on_circle(f, period: float, cfg: ThetaOptConfig):
    """Maximize a periodic function: uniform grid, then refine best bracket.

    ``f`` maps a 1-D array of angles to the array of its values.  The grid
    is one call of ``f``; each golden-section step calls it on a one-angle
    array.  Returns (theta*, f*) with f* at least the grid maximum.
    """
    m = cfg.grid_points
    thetas = np.linspace(0.0, period, m, endpoint=False)
    vals = np.asarray(f(thetas), dtype=float)
    k = int(np.argmax(vals))
    h = period / m
    lo, hi = thetas[k] - h, thetas[k] + h

    def f_one(x):
        return float(f(np.array([x % period]))[0])

    x_ref, f_ref = _golden_max(f_one, lo, hi, cfg.refine_tol, cfg.max_refine_iters)
    if f_ref >= vals[k]:
        return x_ref % period, float(f_ref)
    return float(thetas[k]), float(vals[k])


def _theta_combos(r0: np.ndarray, i0: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    # Re_A(e^{i theta} T) = cos(theta) Re_A(T) - sin(theta) Im_A(T), one per theta
    return np.cos(thetas)[:, None, None] * r0 - np.sin(thetas)[:, None, None] * i0


def omega_a_fast(ctx, t, cfg: ThetaOptConfig | None = None) -> float:
    """A-numerical radius via the compression's eigenvalue sweep.

    omega_A(T) = sup_theta of the largest |eigenvalue| of the Hermitian
    part of e^{i theta} T~; the objective is one batched eigvalsh call per
    ``linalg.STACK_BYTES`` stack of angles.  Agrees with the generic engine
    under the A-operator seminorm to the refinement tolerance.
    """
    return _eigenvalue_sweep(semihilbert.compress(ctx, t), cfg or DEFAULT_THETA_CONFIG)


def _eigenvalue_sweep(tt: np.ndarray, cfg: ThetaOptConfig) -> float:
    """The classical numerical radius of the compression ``tt``."""
    if not tt.any():
        return 0.0
    h1 = herm(tt)
    h2 = (tt - tt.conj().T) / 2.0j

    def f(thetas):
        return np.concatenate([
            linalg.hermitian_abs_max(_theta_combos(h1, h2, thetas[sl]))
            for sl in linalg.stack_slices(thetas.size, h1.nbytes)
        ])

    _, val = sup_on_circle(f, math.pi, cfg)
    return val


def generalized_radius(ctx, seminorm, t, cfg: ThetaOptConfig | None = None,
                       with_error_bound: bool = False):
    """sup over theta of N(Re_A(e^{i theta} T)) for the given seminorm.

    Dispatches to the eigenvalue fast path, which compresses T as
    validated here without checking it again, when ``seminorm`` is the
    plain A-operator seminorm.  Otherwise the objective hands the angles to
    ``seminorm.evaluate`` as stacks of A-real parts, each at most
    ``linalg.STACK_BYTES``.  With ``with_error_bound`` the certified
    one-sided grid bound L * h / 2 is returned alongside the value, with
    L = N(Re_A T) + N(Im_A T) for every seminorm.
    """
    cfg = cfg or DEFAULT_THETA_CONFIG
    t = semihilbert.require_member(ctx, t)
    if not t.any():
        return (0.0, 0.0) if with_error_bound else 0.0
    adj = semihilbert._adjoint_of_member(ctx, t)
    r0 = (t + adj) / 2.0
    i0 = (t - adj) / 2.0j
    if getattr(seminorm, "id", None) == "a_norm":
        val = _eigenvalue_sweep(semihilbert._compress_member(ctx, t), cfg)
    else:
        def f(thetas):
            return np.concatenate([
                seminorm.evaluate(ctx, _theta_combos(r0, i0, thetas[sl]))
                for sl in linalg.stack_slices(thetas.size, r0.nbytes)
            ])

        _, val = sup_on_circle(f, math.pi, cfg)
    if not with_error_bound:
        return val
    lip = float(np.sum(seminorm.evaluate(ctx, np.stack([r0, i0]))))
    return val, lip * (math.pi / cfg.grid_points) / 2.0


def generalized_radius_im_form(ctx, seminorm, t, cfg: ThetaOptConfig | None = None) -> float:
    """Same supremum through the A-imaginary part.

    Im_A(e^{i theta} T) = Re_A(e^{i theta} (-i T)), so this is
    :func:`generalized_radius` of -i T.
    """
    return generalized_radius(ctx, seminorm, -1j * np.asarray(t), cfg)
