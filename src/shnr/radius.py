"""Generalized A-numerical radius: the angle-supremum engine.

For a seminorm ``N`` on the A-adjointable operators, the generalized
radius of ``T`` is

    w_N(T) = sup_theta N( Re_A(e^{i theta} T) ),

an optimization over the half-circle [0, pi): replacing theta by
theta + pi flips the sign of the A-real part, which seminorms cannot see.
The engine samples a uniform grid, then sharpens the best bracket with
Brent's method: parabolic interpolation, which converges superlinearly on
a smooth peak, with golden-section steps whenever a parabola does not
shrink the bracket fast enough, as on a kinked peak.  The grid guarantees
the global maximum is bracketed up to the Lipschitz bound L * h / 2 (h the
grid step, L at most N(Re_A T) + N(Im_A T)); the refinement only raises
the grid maximum, so the returned value is a certified lower bound of the
supremum within that grid bound, whatever the refinement does.

Every objective is batched: ``sup_on_circle`` hands it a 1-D array of
angles and takes an array of values back, the whole grid in one call and
each refinement step as a one-angle array.  It is the one-member case of
one lockstep engine (:func:`_sup_lockstep`), which maximizes k objectives
at once: their grids are one call of an objective that also takes the
member of each angle, and the Brent refinements, coroutines that yield
their next angle, step together, one call per step for every member still
refining.  A member's angles and values do not depend on the others, so
each one's value is that of a lone sweep on the same parts.
:func:`_profile`, the one angle-stack loop, hands the A-real parts
cos(theta) Re_A T - sin(theta) Im_A T in stacks of at most
``linalg.STACK_BYTES`` to ``N.evaluate`` (the engine) or to a batched
eigenvalue call (the level set); with an owner index it pairs each angle
with its own member of a stack of parts.  One form is enough:
Im_A(e^{i theta} T) = -Re_A(e^{i (theta + pi/2)} T), so N of it is the profile
a quarter-turn on.

Every angle supremum goes through one of two functions, whatever asks for
it: :func:`_radii` (w_N of a stack of members; the one place that picks
the level set or the engine) and :func:`_sweeps` (the catalog's C02/C07
sweeps of N(Re_A) against N(Im_A)).  :func:`generalized_radius` calls
:func:`_radii` with its one n x n operator under its own context; the
catalog calls both with the r x r range blocks of many instances under
the identity context of size r.

For the A-operator seminorm the radius is omega_A(T), the classical
numerical radius of the compression T~, and no angle grid is needed: the
level-set iteration of He & Watson (IMA J. Numer. Anal. 17, 1997) and
Mengi & Overton (IMA J. Numer. Anal. 25, 2005) finds, at a level r, every
angle where r is an eigenvalue of the Hermitian part of e^{i theta} T~,
raises r to the largest eigenvalue at the midpoints of those angles, and
stops when a level just above r has no crossing, which certifies r.  The
level set takes a stack of matrices and runs them in lockstep, one batched
call of each kind per pass for all of them, so :func:`_radii` solves the
A-norm radii of many members at once; each value is that of a lone call.
The seminorms that :mod:`shnr.seminorms` provides evaluate the generic
objective's A-real parts, which are A-selfadjoint, in closed form.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from . import linalg, semihilbert

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = np.finfo(float).eps
#: Refinement stops once the bracket is this short in theta.
_REFINE_TOL = 1e-8
#: No two refinement angles are closer than this; the search ends when the
#: best angle is within two of these of both ends of its bracket.
_STEP_TOL = _REFINE_TOL / 4.0
#: Two values closer than this, relative, agree to roundoff: an extreme
#: eigenvalue of an n x n Hermitian matrix is accurate to about n eps of its
#: norm, and the objectives here are such eigenvalues at n <= 16 or so.
_FLAT = 64.0 * _EPS


def _require_grid(grid_points: int) -> None:
    if not (isinstance(grid_points, numbers.Integral) and not isinstance(grid_points, bool)
            and grid_points >= 8):
        raise ValueError(f"grid_points must be an integer of at least 8, got {grid_points!r}")


def _step_cap(width: float) -> int:
    """Most objective calls the refinement makes on a bracket this wide:
    as many as golden section needs to shrink it to ``_REFINE_TOL`` (two
    starting points, then one per step).  The widest bracket a valid grid
    leaves, pi / 4, gives 40."""
    return 2 + math.ceil(math.log(_REFINE_TOL / width) / math.log(_INVPHI))


def _brent_max(a: float, x: float, b: float, fa: float, fx: float, fb: float):
    """Maximize f on the bracket [a, b] around x, with f known at a, x, b.

    A coroutine: it yields each angle u where it needs f and takes f(u)
    back by ``send``, so that the refinements of many objectives can step
    in lockstep (:func:`_sup_lockstep`).  Brent's method (Algorithms for
    Minimization without Derivatives, 1973, ch. 5), with w and v the second
    and third best angles so far: each step goes to the vertex of the
    parabola through x, w and v when that lies inside the bracket and moves
    less than half the step before last, and otherwise takes a
    golden-section step into the larger side of x.  Starting with w and v
    at the ends makes the first step the parabola through the three grid
    values.  On a smooth peak the steps converge superlinearly.  Once x and
    w lie within ``_REFINE_TOL`` of each other with values equal to
    roundoff (``_FLAT``), the parabola has nothing left to resolve, so the
    step goes ``_STEP_TOL`` to the far side, which closes that side unless
    it finds a higher value.  The bracket holds the best value throughout.
    Stops when x is within 2 ``_STEP_TOL`` of both ends (a bracket of at
    most ``_REFINE_TOL``) or after ``_step_cap(b - a)`` angles; returns
    (x, f(x)) with f(x) >= fx.
    """
    w, fw, v, fv = (a, fa, b, fb) if fa >= fb else (b, fb, a, fa)
    d = e = b - a
    for _ in range(_step_cap(b - a)):
        if max(x - a, b - x) <= 2.0 * _STEP_TOL:
            break
        m = 0.5 * (a + b)
        golden = True
        if abs(e) > _STEP_TOL:
            # vertex x + p / q of the parabola through (x, w, v)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                golden = False
                if x + d - a < 2.0 * _STEP_TOL or b - x - d < 2.0 * _STEP_TOL:
                    d = math.copysign(_STEP_TOL, m - x)
        if golden and abs(x - w) <= _REFINE_TOL and fx - fw <= _FLAT * abs(fx):
            e, d = d, math.copysign(_STEP_TOL, m - x)
        elif golden:
            e = (a - x) if x >= m else (b - x)
            d = (1.0 - _INVPHI) * e
        u = x + (d if abs(d) >= _STEP_TOL else math.copysign(_STEP_TOL, d))
        fu = yield u
        if fu > fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _sup_lockstep(f, k: int, grid_points: int):
    """Maximize k functions of period pi at once: the engine behind
    :func:`sup_on_circle`, whose one-member case is every lone sweep.

    ``f(thetas, owner)`` maps a 1-D array of angles in [0, pi), angle j
    one of member ``owner[j]``, to the array of their values.  The grids
    of all members, ``grid_points`` angles each, are one call; then the
    refinements of all members (:func:`_brent_max`, each on the bracket of
    two grid steps around its best grid angle) step in lockstep, one call
    per step with one angle for every member still refining.  A member's
    angles and values are those of a lone sweep, whatever the others do.
    Returns the arrays (theta*, f*) of the k members.
    """
    _require_grid(grid_points)
    thetas = np.linspace(0.0, math.pi, grid_points, endpoint=False)
    vals = np.asarray(f(np.tile(thetas, k), np.arange(k).repeat(grid_points)), dtype=float)
    vals = vals.reshape(k, grid_points)
    h = math.pi / grid_points
    x, fx = np.empty(k), np.empty(k)
    searches = [
        _brent_max(thetas[j] - h, float(thetas[j]), thetas[j] + h,
                   float(vals[i, j - 1]), float(vals[i, j]), float(vals[i, (j + 1) % grid_points]))
        for i, j in enumerate(np.argmax(vals, axis=1).tolist())
    ]
    # the members still refining, and the value each one's last angle got
    live, sent, owner = list(range(k)), [None] * k, None
    while live:
        angles, asked = [], []
        for i, value in zip(live, sent):
            try:
                angles.append(searches[i].send(value) % math.pi)
                asked.append(i)
            except StopIteration as stop:
                x[i], fx[i] = stop.value[0] % math.pi, stop.value[1]
        live = asked
        if not live:
            break
        if owner is None or len(owner) != len(live):    # members only leave
            owner = np.array(live)
        sent = [float(v) for v in f(np.array(angles), owner)]
    return x, fx


def sup_on_circle(f, grid_points: int):
    """Maximize a function of period pi: uniform grid, then refine best bracket.

    The period is always pi: every objective here is a seminorm of the
    A-real or A-imaginary parts of e^{i theta} T, or a function of such
    values, and theta + pi only flips their sign.  ``f`` maps a 1-D array
    of angles in [0, pi) to the array of its values.  The grid of
    ``grid_points`` angles (at least 8) is one call of ``f``; Brent's
    method (:func:`_brent_max`) then refines the bracket of two grid steps
    around the best angle, starting from the three grid values there, and
    calls ``f`` on a one-angle array at each step, at most
    ``_step_cap(2 h)`` times (h the grid step): never more than golden
    section down to the same ``_REFINE_TOL``.  Returns (theta*, f*) with f*
    at least the grid maximum, so the grid's L * h / 2 certificate holds as
    it is.  This is the one-member case of :func:`_sup_lockstep`.
    """
    x, fx = _sup_lockstep(lambda thetas, owner: f(thetas), 1, grid_points)
    return float(x[0]), float(fx[0])


def _theta_combos(r0: np.ndarray, i0: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    # Re_A(e^{i theta} T) = cos(theta) Re_A(T) - sin(theta) Im_A(T), one per theta
    return np.cos(thetas)[:, None, None] * r0 - np.sin(thetas)[:, None, None] * i0


def _profile(fn, r0, i0, thetas, owner=None):
    """fn of cos(theta) r0 - sin(theta) i0 at each of a 1-D array of angles,
    one ``fn`` call per ``linalg.STACK_BYTES`` stack; ``fn`` maps a
    (k, n, n) stack to k values.  With ``owner``, r0 and i0 are (m, n, n)
    stacks and angle j takes the pair r0[owner[j]], i0[owner[j]]."""
    n = r0.shape[-1]
    out = []
    for sl in linalg.stack_slices(thetas.size, n * n * r0.itemsize):
        if owner is None:
            out.append(fn(_theta_combos(r0, i0, thetas[sl])))
        else:
            idx = owner[sl]
            out.append(fn(_theta_combos(r0.take(idx, axis=0), i0.take(idx, axis=0), thetas[sl])))
    return np.concatenate(out)


def omega_a_fast(ctx, t) -> float:
    """A-numerical radius by the level-set iteration.

    omega_A(T) is the classical numerical radius of the r x r range block
    B of T (``semihilbert._member_block``), which is that of the compression
    T~; see :func:`_level_set_radius`.  The value is attained at an angle,
    and the radius exceeds it by at most the iteration's margin: 2 r eps
    |B|_F relative to the value, or sqrt(eps) when the pencil is singular
    at the last level.
    """
    return _level_set_radius(semihilbert._member_block(ctx, semihilbert._check_shape(ctx, t)))


_SQRT_EPS = math.sqrt(_EPS)
#: Moebius shift of the level-set pencil: a fixed point of the open unit
#: disk off the real and imaginary axes, where structured inputs (diagonal,
#: Jordan) put their eigenvalues.
_SHIFT = 0.5 * np.exp(1j)
#: Starting angles: eight on [0, pi), which with +-eigenvalues are sixteen
#: directions, so the first level is at least cos(pi / 16) of the radius.
_START = np.arange(8) * (math.pi / 8)
#: Levels never needed more than four in the tests; the cap only bounds a loop
#: that raises the level by a factor (1 + margin) at each pass.
_MAX_LEVELS = 64


def _level_set_radius(m: np.ndarray):
    """Numerical radius max |x* M x| over unit x of a square matrix M, or
    the k radii of a (k, n, n) stack as an array.

    With H(theta) the Hermitian part of e^{i theta} M, the radius is the
    maximum over theta of lam_max(H(theta)), and a level l is an eigenvalue
    of H(theta) exactly when z = e^{i theta} is a unit-modulus eigenvalue
    of the pencil z^2 M - 2 l z I + M*.  Each pass takes the current value
    r (attained at some angle), sets the level l = r (1 + margin), finds the
    crossing angles from the pencil, and evaluates lam_max at the midpoint
    of every arc between consecutive crossings in one batched eigenvalue
    call.  Every arc where lam_max exceeds l is bounded by two crossings,
    so if no midpoint exceeds l (in particular, if there is no crossing)
    the radius is at most l: r is returned, certified to within the
    margin.  Otherwise r rises above l and the pass repeats; near the
    maximum the rise is quadratic.

    The pencil's leading coefficient M is singular for singular M, so the
    Moebius substitution z = (w + a) / (1 + conj(a) w) with the fixed shift
    a = ``_SHIFT`` maps it to w^2 B2 + w B1 + B0, which keeps the unit
    circle; its companion matrix needs B2^{-1}, built from one SVD.  The
    tolerances come from backward errors rather than literals:

    * the margin is 2 n eps |M|_F / r, the backward error of the eigenvalue
      calls that give r, so a roundoff rise cannot pass for a crossing arc;
    * B2 = conj(a)^2 P(1 / conj(a)) is singular for every shift when some
      eigenvalue of H(theta) is the same for all theta and equals l (the
      pencil is singular; W(M) a disk, as for a nilpotent M, puts it at the
      answer).  When the SVD says B2 is within sqrt(eps) of singular, the
      level moves to r (1 + sqrt(eps)), so B2^{-1} keeps sqrt(eps) relative
      accuracy and the certificate holds to sqrt(eps) at such levels;
      singular values are floored at eps |B2| either way, a perturbation
      within the SVD's own backward error;
    * a crossing is an eigenvalue w with ||w| - 1| <= sqrt(2n eps) |C|_F,
      C the companion matrix: the eigenvalue solver's backward error is
      about 2n eps |C|_F, and a double eigenvalue (two crossings about to
      merge) moves by the square root of that.  Counting a near-circle
      eigenvalue that is not a crossing only adds a midpoint.

    A stack runs its members in lockstep, in stacks whose 2n x 2n companion
    matrices fit in ``linalg.STACK_BYTES``: each pass makes one batched SVD
    (a second one only for the members that need the sqrt(eps) margin), one
    batched companion eigenvalue call, and one batched Hermitian eigenvalue
    call over the midpoints of every member, and a member leaves the stack
    once it is certified.  Every member goes through the arithmetic of a
    lone call, so its value does not depend on the stack it came in.
    """
    if m.ndim == 2:
        return float(_lockstep(m[None])[0]) if m.any() else 0.0
    n = m.shape[-1]
    out = np.zeros(len(m))
    # a zero member has radius 0 and no pencil; 16 bytes a complex entry
    for sl in linalg.stack_slices(len(m), 16 * (2 * n) ** 2):
        live = sl.start + np.flatnonzero(m[sl].any(axis=(1, 2)))
        if live.size:
            out[live] = _lockstep(m[live])
    return out


@functools.lru_cache(maxsize=None)
def _pencil_identities(n: int):
    """The n x n identity and the level-set pencil's constant parts at size
    n, dlead = 2 conj(a) I and drest = [2a I, 2(1 + |a|^2) I], read-only."""
    a = _SHIFT
    eye = np.eye(n)
    dlead = 2.0 * a.conjugate() * eye
    drest = np.hstack((2.0 * a * eye, 2.0 * (1.0 + abs(a) ** 2) * eye))
    for x in (eye, dlead, drest):
        x.flags.writeable = False
    return eye, dlead, drest


def _lockstep(m: np.ndarray) -> np.ndarray:
    """:func:`_level_set_radius` of a (k, n, n) stack of non-zero matrices.

    Row j of each state array belongs to member ``ids[j]``, and a member's
    rows go once it is certified.  When one row is left (at once, for a
    lone matrix) :func:`_lone_passes` finishes it without the masks, the
    padding and the compaction that keep the rows of a stack apart.
    """
    k, n, _ = m.shape
    a = _SHIFT
    ac = a.conjugate()
    mh = m.conj().swapaxes(1, 2)
    h1 = (m + mh) / 2.0
    h2 = (m - mh) / 2.0j
    eye, dlead, drest = _pencil_identities(n)
    # B2 = lead - l dlead and [B0, B1] = rest - l drest
    lead = m + ac * ac * mh
    rest = np.concatenate((a * a * m + mh, 2.0 * (a * m + ac * mh)), axis=2)
    comp = np.zeros((k, 2 * n, 2 * n), dtype=np.complex128)
    comp[:, :n, n:] = eye
    # |lam|_max of herm(e^{i theta} M): lam_max there or at theta + pi
    starts = _profile(linalg.hermitian_abs_max, h1, h2,
                      np.tile(_START, k), np.arange(k).repeat(_START.size))
    r = np.maximum.reduce(starts.reshape(k, -1), axis=1)
    grow = 1.0 + 2 * n * _EPS * np.array([np.linalg.norm(x) for x in m]) / r
    on_circle = math.sqrt(2 * n * _EPS)
    out = np.empty(k)
    ids = np.arange(k)          # the member of each row still running
    for passes in range(_MAX_LEVELS, 0, -1):
        if len(ids) == 1:
            out[ids[0]] = _lone_passes(passes, float(r[0]), float(grow[0]), lead[0],
                                       rest[0], comp[0], h1[0], h2[0])
            return out
        level = r * grow
        u, s, vh = np.linalg.svd(lead - level[:, None, None] * dlead)
        near = ~(s[:, -1] >= _SQRT_EPS * s[:, 0])
        if near.any():
            level[near] = r[near] * (1.0 + _SQRT_EPS)
            u[near], s[near], vh[near] = np.linalg.svd(
                lead[near] - level[near, None, None] * dlead)
        inv = vh.conj().swapaxes(1, 2) / np.maximum(s, _EPS * s[:, :1])[:, None]
        comp[:, n:] = -inv @ (u.conj().swapaxes(1, 2) @ (rest - level[:, None, None] * drest))
        w = np.linalg.eigvals(comp)
        tol = np.array([on_circle * np.linalg.norm(c) for c in comp])
        hit = np.abs(np.abs(w) - 1.0) <= tol[:, None]
        # arg z of each crossing w, sorted, each row's crossings first and
        # inf after them; the midpoint of each arc between crossings
        th = np.empty((len(w), 2 * n + 1))
        th[:, -1] = np.inf
        z0, z1 = w + a, 1.0 + ac * w
        arg = np.arctan2(z0.imag, z0.real) - np.arctan2(z1.imag, z1.real)
        th[:, :-1] = np.where(hit, arg, np.inf)
        th.sort(axis=1)
        th, nxt = th[:, :-1], th[:, 1:]
        mids = (th + np.where(nxt < np.inf, nxt, th[:, :1] + 2.0 * math.pi)) / 2.0
        vals = -mids           # -inf where there is no midpoint
        if np.count_nonzero(hit):
            real = th < np.inf
            vals[real] = _profile(linalg.hermitian_abs_max, h1, h2, mids[real],
                                  real.nonzero()[0])
        best = np.maximum.reduce(vals, axis=1)
        # certified: no crossing (best is -inf), or no midpoint above the level
        done = best <= level
        finished = np.count_nonzero(done)
        if finished == len(done):
            out[ids] = np.maximum(r, best)
            return out
        if finished:
            out[ids[done]] = np.maximum(r[done], best[done])
            go = ~done
            ids, best, grow, lead, rest, comp, h1, h2 = (
                x[go] for x in (ids, best, grow, lead, rest, comp, h1, h2))
        r = best
    out[ids] = r
    return out


def _lone_passes(passes, r, grow, lead, rest, comp, h1, h2):
    """At most ``passes`` passes of :func:`_lockstep` on one member, with
    the member's n x n arrays and its value and growth factor as floats;
    the same arithmetic, so the same value, as in a stack."""
    n = len(lead)
    a = _SHIFT
    ac = a.conjugate()
    _, dlead, drest = _pencil_identities(n)
    on_circle = math.sqrt(2 * n * _EPS)
    for _ in range(passes):
        level = r * grow
        u, s, vh = np.linalg.svd(lead - level * dlead)
        if not s[-1] >= _SQRT_EPS * s[0]:
            level = r * (1.0 + _SQRT_EPS)
            u, s, vh = np.linalg.svd(lead - level * dlead)
        inv = vh.conj().T / np.maximum(s, _EPS * s[0])
        comp[n:] = -inv @ (u.conj().T @ (rest - level * drest))
        w = np.linalg.eigvals(comp)
        w = w[np.abs(np.abs(w) - 1.0) <= on_circle * np.linalg.norm(comp)]
        if not w.size:
            return r
        z0, z1 = w + a, 1.0 + ac * w
        th = np.sort(np.arctan2(z0.imag, z0.real) - np.arctan2(z1.imag, z1.real))
        mids = (th + np.append(th[1:], th[0] + 2.0 * math.pi)) / 2.0
        best = float(_profile(linalg.hermitian_abs_max, h1, h2, mids).max())
        if best <= level:
            return max(r, best)
        r = best
    return r


def _radii(ctx, seminorm, members, grid_points: int) -> np.ndarray:
    """The radii w_N of a (k, n, n) stack of members that the caller has
    validated under ``ctx``: the one place that picks the level set or the
    angle engine, for :func:`generalized_radius` (one n x n operator under
    its own context) and the catalog (range blocks under the identity
    context of their size) alike.

    Under the plain A-operator seminorm the radius is omega_A, and the
    stacked level set (:func:`_level_set_radius`) takes it from the range
    blocks; the grid plays no part.  Otherwise the lockstep engine
    (:func:`_sup_lockstep`) maximizes ``seminorm.evaluate(ctx, .)`` on the
    A-real parts of every member at once, ``grid_points`` angles each.
    A zero member gets 0 either way.
    """
    if seminorm.id == "a_norm":
        return _level_set_radius(semihilbert._range_block(ctx, members))
    _, r0, i0 = semihilbert._cartesian_parts(ctx, members)
    objective = functools.partial(_profile, functools.partial(seminorm.evaluate, ctx), r0, i0)
    return _sup_lockstep(objective, len(members), grid_points)[1]


def _sweeps(ctx, seminorm, members, combine, grid_points: int) -> np.ndarray:
    """For each member T of a validated (k, n, n) stack, sup over theta of
    combine(p(theta), p(theta + pi/2)) with p(theta) = N(Re_A(e^{i theta} T)),
    so that p a quarter-turn on is N(Im_A(e^{i theta} T)).  The objective
    has period pi/2 in theta, so the lockstep engine runs over phi = 2 theta,
    ``grid_points`` angles, and both angles of a step go into one profile
    call."""
    _, r0, i0 = semihilbert._cartesian_parts(ctx, members)
    evaluate = functools.partial(seminorm.evaluate, ctx)

    def objective(phis, owner):
        thetas = phis / 2.0
        vals = _profile(evaluate, r0, i0, np.concatenate([thetas, thetas + math.pi / 2.0]),
                        np.concatenate([owner, owner]))
        return combine(vals[: phis.size], vals[phis.size:])

    return _sup_lockstep(objective, len(members), grid_points)[1]


def generalized_radius(ctx, seminorm, t, grid_points: int = 720,
                       with_error_bound: bool = False):
    """sup over theta of N(Re_A(e^{i theta} T)) for one operator T.

    T is validated once and goes to :func:`_radii` as a one-member stack
    under ``ctx``: the plain A-operator seminorm gives omega_A(T) from the
    level-set iteration, where the grid plays no part; any other seminorm
    gets the angle engine, whose objective hands the ``grid_points`` angles
    (an integer, at least 8) to ``seminorm.evaluate`` as stacks of A-real
    parts, each at most ``linalg.STACK_BYTES``.  With ``with_error_bound``
    the certified one-sided grid bound L * h / 2 is returned alongside the
    value, with L = N(Re_A T) + N(Im_A T) for every seminorm (for the
    A-norm it still holds, far above the level-set margin).

    The same supremum over the A-imaginary parts Im_A(e^{i theta} T) is
    the radius of -i T, since Im_A(S) = Re_A(-i S).
    """
    _require_grid(grid_points)
    t = semihilbert.require_member(ctx, semihilbert._check_shape(ctx, t))
    val = float(_radii(ctx, seminorm, t[None], grid_points)[0])
    if not with_error_bound:
        return val
    _, r0, i0 = semihilbert._cartesian_parts(ctx, t)
    lip = float(np.sum(seminorm.evaluate(ctx, np.stack([r0, i0]))))
    return val, lip * (math.pi / grid_points) / 2.0
