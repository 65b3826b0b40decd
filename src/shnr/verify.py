"""Executable catalog of the semi-Hilbertian radius theorems.

Every inequality and equality the library implements is written down once
here as a :class:`CheckSpec`: an executable predicate over random (or
pinned) instances, tagged with the seminorm property flags it needs.  The
seeded runner :func:`run_suite` draws instances across dimensions and rank
profiles of A (rank-deficient A is a first-class citizen: the projector,
the failure of (T#)# = T, and the adjoint twist are all invisible when A
is invertible), evaluates both sides, and reports per-check violation
counts, the minimum slack (how close the bound came to equality, i.e.
sharpness), and the worst witness instance in replayable form.

Evaluators ask for what they need of a seminorm by yielding one request:
radii w_N(T) (``_w``), values N(T) (``_n``) and the C02/C07 sweeps of
N(Re_A(e^{i theta} T)) against N(Im_A(e^{i theta} T)) (``_sweep``).  One
driver (:func:`_drive`) runs the evaluators of a chunk of instances in
lockstep.  It checks the operands each instance draws with one stacked
membership call; every operand an evaluator builds from them by sums,
products and A-adjoints is then a member by construction (the
A-adjointable operators form an algebra closed under these), so the driver
takes the r x r range blocks of the requested operands unchecked, groups
the blocks of all instances by (request kind, seminorm, r), and answers
each group with one call: the seminorm's own ``evaluate`` for values,
``radius._radii`` for radii and ``radius._sweeps`` for sweeps, the same
functions that ``radius.generalized_radius`` calls on one n x n operator.
The range block of a member under A is an operator under the identity
context of size r (``semihilbert._identity_context``), bit for bit, so
every such call goes through the public ``evaluate`` on that context; its
A-real parts are exactly Hermitian there.  The catalog pays each solver's
fixed cost per chunk, not per instance.  C22's ``gamma_A`` and C26's
pair form are direct oracle calls, which check their own argument.

Slack bookkeeping: for an obligation lhs <= rhs the relative slack is
(rhs - lhs) / max(rhs, 1e-300); equalities use the symmetric deviation
-|lhs - rhs| / max(|lhs|, |rhs|, 1e-300).  An instance counts as a
violation when any of its slacks drops below -tol_rel.  Conditional
equivalences record how often their premise held, so a run where it never
fired is visibly vacuous rather than silently green.

The random instance generators live here too, and so does
:func:`probe_properties`, which draws from them to measure a seminorm
descriptor's declared property flags.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import __version__, radius, semihilbert, seminorms, serialize
from .exceptions import RankOutOfRangeError, ShnrError
from .linalg import DEFAULT_RTOL, _check_rtol, herm, spectral_norm
from .semihilbert import build_context, require_member
from .seminorms import SeminormDescriptor

_SLACK_FLOOR = 1e-300
_SQRT2 = math.sqrt(2.0)
_PROFILE_RANKS = {
    "full": lambda n: n,
    "n-1": lambda n: max(1, n - 1),
    "half": lambda n: (n + 1) // 2,
}

# ---------------------------------------------------------------------------
# instance generation: each generator takes one ``seed`` (None, an int, a
# SeedSequence or a Generator) and resolves it by ``np.random.default_rng``,
# which hands a Generator back unchanged, so one stream can feed many draws


def _random_unitary(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    ph = d / np.abs(np.where(d == 0, 1.0, d))
    return q * ph.conj()


def _ginibre(n, rng):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)


def _unit_norm(t: np.ndarray) -> np.ndarray:
    """T / |T|, or T itself when it is zero."""
    s = spectral_norm(t)
    return t / s if s > 0 else t


def random_psd(n: int, rank: int, seed=None) -> np.ndarray:
    """Random Hermitian PSD matrix with exactly ``rank`` nonzero eigenvalues.

    Built from a Haar-ish unitary and a clamped spectrum normalized to
    lam_max = 1, so context tolerances behave uniformly across draws.
    """
    if not 1 <= rank <= n:
        raise RankOutOfRangeError(f"rank {rank} not in 1..{n}")
    rng = np.random.default_rng(seed)
    q = _random_unitary(n, rng)
    vals = rng.uniform(0.2, 1.0, size=rank)
    vals /= vals.max()
    qr_cols = q[:, :rank]
    return herm((qr_cols * vals) @ qr_cols.conj().T)


def random_member(ctx, seed=None, unit_norm: bool = False) -> np.ndarray:
    """Random A-adjointable operator.

    A Ginibre draw is made block lower-triangular with respect to
    range(A) + ker(A) by removing its range-to-kernel block, which forces
    the kernel of A to be invariant, hence membership.
    """
    rng = np.random.default_rng(seed)
    g = _ginibre(ctx.dim, rng)
    pg = ctx.proj @ g
    t = g - pg + pg @ ctx.proj
    return _unit_norm(t) if unit_norm else t


def random_a_selfadjoint(ctx, seed=None, unit_norm: bool = False) -> np.ndarray:
    """Random A-selfadjoint operator (Hermitian compression lifted back)."""
    rng = np.random.default_rng(seed)
    t = semihilbert.uncompress(ctx, herm(_ginibre(ctx.dim, rng)))
    return _unit_norm(t) if unit_norm else t


def random_a_positive(ctx, seed=None, unit_norm: bool = False) -> np.ndarray:
    """Random A-positive operator (PSD compression lifted back)."""
    rng = np.random.default_rng(seed)
    g = _ginibre(ctx.dim, rng)
    t = semihilbert.uncompress(ctx, g @ g.conj().T)
    return _unit_norm(t) if unit_norm else t


def random_a_normal(ctx, seed=None, unit_norm: bool = False) -> np.ndarray:
    """Random A-normal operator: normal compression plus a free kernel block."""
    rng = np.random.default_rng(seed)
    r = ctx.rank
    v = _random_unitary(r, rng)
    d = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    t = semihilbert._lift(ctx, (v * d) @ v.conj().T, _ginibre(ctx.dim - r, rng))
    return _unit_norm(t) if unit_norm else t


def random_a_unitary(ctx, seed=None) -> np.ndarray:
    """Random A-unitary operator: unitary compression plus identity on ker A."""
    rng = np.random.default_rng(seed)
    wr = _random_unitary(ctx.rank, rng)
    return semihilbert._lift(ctx, wr, np.eye(ctx.dim - ctx.rank))


def random_nilpotent(n: int, seed=None) -> np.ndarray:
    """Random rank-one square-zero matrix x y* with x orthogonal to y, unit norm."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y -= x * (x.conj() @ y)
    y /= np.linalg.norm(y)
    return np.outer(x, y.conj())


def _range_nilpotent(ctx, rng) -> np.ndarray:
    """Nilpotent member supported on range(A), so that A T^2 = 0 exactly."""
    return _unit_norm(semihilbert._lift(ctx, random_nilpotent(ctx.rank, rng)))


def _unit_vector(ctx, rng):
    """Random unit vector as the (n, 1) column that witnesses store."""
    v = rng.standard_normal((ctx.dim, 1)) + 1j * rng.standard_normal((ctx.dim, 1))
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# empirical prober of seminorm descriptors


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
    if not _is_count(trials, 1):
        raise ValueError(f"trials must be an integer of at least 1, got {trials!r}")
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
        t = random_member(ctx, rng, unit_norm=True)
        s = random_member(ctx, rng, unit_norm=True)
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

        pos_small = random_a_positive(ctx, rng, unit_norm=True)
        pos_extra = random_a_positive(ctx, rng, unit_norm=True)
        worst["a_increasing"] = max(
            worst["a_increasing"], ev(ctx, pos_small) - ev(ctx, pos_small + pos_extra)
        )

        sa = random_a_selfadjoint(ctx, rng, unit_norm=True)
        n_sa = ev(ctx, sa)
        for p in (2, 3):
            worst["power_property"] = max(
                worst["power_property"],
                abs(ev(ctx, np.linalg.matrix_power(sa, p)) - n_sa**p),
            )
    return ProbeReport(
        seminorm_id=descriptor.id, trials=trials, seed=seed, violations=worst
    )


# ---------------------------------------------------------------------------
# check specification and outcomes


@dataclass
class InstanceOutcome:
    """Obligations produced by one check on one instance."""

    pairs: list                      # (lhs, rhs) obligations
    premise_held: Optional[bool] = None


@dataclass(frozen=True)
class CheckSpec:
    """One theorem as an executable predicate."""

    id: str
    statement: str
    kind: str                        # inequality | equality | conditional
    required_flags: frozenset
    seminorm_ids: tuple
    generator: Callable              # (n, profile, rng, rtol, idx) -> (ctx, mats)
    evaluator: Callable
    max_instances: Optional[int] = None


@dataclass
class CheckResult:
    id: str
    statement: str
    kind: str
    seminorms: list
    instances_run: int = 0
    incomplete: int = 0
    violations: int = 0
    premise_held: Optional[int] = None
    max_violation: float = 0.0
    min_slack: Optional[float] = None
    worst_witness: Optional[dict] = None


def _is_count(x, least: int) -> bool:
    """Whether x is an integer, and not a bool, of at least ``least``."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= least


@dataclass
class InstanceGenConfig:
    """Configuration of one suite run; fully determines its output."""

    dims: tuple = (2, 3, 4)
    rank_profiles: tuple = ("full", "n-1", "half")
    instances_per_check: int = 200
    seed: int = 42
    tol_rel: float = 1e-6
    rtol: float = DEFAULT_RTOL

    def __post_init__(self):
        if not _is_count(self.seed, 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not self.dims or not all(_is_count(n, 2) for n in self.dims):
            raise ValueError(f"dims must be integers of at least 2, got {self.dims!r}")
        if not self.rank_profiles:
            raise ValueError("rank_profiles must name at least one profile")
        if not _is_count(self.instances_per_check, 1):
            raise ValueError(
                "instances_per_check must be an integer of at least 1, "
                f"got {self.instances_per_check!r}"
            )
        # the negated test also rejects nan
        if not 0.0 <= self.tol_rel < math.inf:
            raise ValueError(f"tol_rel must be finite and at least 0, got {self.tol_rel!r}")
        _check_rtol(self.rtol)
        for p in self.rank_profiles:
            if p not in _PROFILE_RANKS:
                raise ValueError(f"unknown rank profile {p!r}")
        # the report echoes these fields, and JSON takes Python ints only
        self.seed = int(self.seed)
        self.dims = tuple(int(n) for n in self.dims)
        self.instances_per_check = int(self.instances_per_check)


@dataclass
class SuiteReport:
    version: str
    config: dict
    checks: list
    violations_total: int
    incomplete_total: int

    def to_dict(self) -> dict:
        return {"tool": "shnr", **asdict(self)}


def _ineq_slack(lhs: float, rhs: float) -> float:
    if lhs == rhs:
        return 0.0
    return (rhs - lhs) / max(rhs, _SLACK_FLOOR)


def _eq_slack(lhs: float, rhs: float) -> float:
    d = abs(lhs - rhs)
    if d == 0.0:
        return 0.0
    return -d / max(abs(lhs), abs(rhs), _SLACK_FLOOR)


def _slack(kind: str, lhs: float, rhs: float) -> float:
    return _ineq_slack(lhs, rhs) if kind == "inequality" else _eq_slack(lhs, rhs)


# ---------------------------------------------------------------------------
# evaluators: one per check, shared helpers first
#
# An evaluator maps (ctx, mats, n_desc) to an InstanceOutcome.  One that
# needs seminorm quantities is a generator: it yields one request, a sum of
# ``_w(N, T1, ...)`` (radii), ``_n(N, T1, ...)`` (values) and ``_sweep(N,
# combine, T)`` tuples, and the runner sends back one number per entry as a
# tuple in the same order, then takes the outcome it returns.  The runner
# collects the requests of many instances and answers each kind of them in
# stacked calls on range blocks.  The runner has validated the operands in
# ``mats`` before the call, so an evaluator builds its operands with the
# unchecked member algebra (``semihilbert._adjoint_of_member`` and
# ``_cartesian_parts``): sums, products and A-adjoints of members are
# members.

#: Angle grid of every radius in a suite run (echoed in the report).
_THETA_GRID = 180
#: The grids a report was made with; replay refuses any other.
_GRIDS = {
    "theta_grid": _THETA_GRID,
    "omega_t_grid": seminorms.OMEGA_T_GRID,
    "omega_psi_grid": seminorms.OMEGA_PSI_GRID,
}
#: Grid of the C02/C07 sweeps, in 2 theta over [0, pi): the 64 angles
#: theta = k pi / 64 of the A-real profile.
_SWEEP_GRID = 32
#: The seminorm whose radius is omega_A, for checks that compare with it;
#: built at each request, so that a wrapper installed on
#: ``semihilbert.a_operator_norm`` (perfbench's tracer) sees its values.
_a_norm = seminorms.a_norm_seminorm


#: Request kinds besides the sweeps, which are keyed by their combine.
_RADIUS = "radius"
_VALUE = "value"


def _w(n_desc, *ops):
    """A request for the radius w_N of each operand, for an evaluator to yield."""
    return tuple((_RADIUS, n_desc, t) for t in ops)


def _n(n_desc, *ops):
    """A request for the value N(T) of each operand."""
    return tuple((_VALUE, n_desc, t) for t in ops)


def _sweep(n_desc, combine, t):
    """A request for sup over theta of combine(N(Re_A(e^{i theta} T)),
    N(Im_A(e^{i theta} T))).  ``combine`` maps the two arrays of values to
    one; a module-level function, so that the runner can group on it."""
    return ((combine, n_desc, t),)


def _gap(re, im):
    return np.abs(re - im)


def _neg_hypot(re, im):
    return -np.hypot(re, im)


def _eval_c01(ctx, mats, n_desc):
    t = mats["T"]
    _, r0, i0 = semihilbert._cartesian_parts(ctx, t)
    w, nt, nr, ni = yield _w(n_desc, t) + _n(n_desc, t, r0, i0)
    return InstanceOutcome([(nt / 2 + abs(nr - ni) / 2, w)])


def _eval_c02(ctx, mats, n_desc):
    t = mats["T"]
    w, nt, sup_gap = yield _w(n_desc, t) + _n(n_desc, t) + _sweep(n_desc, _gap, t)
    return InstanceOutcome([(nt / 2 + sup_gap / 2, w)])


def _eval_c03(ctx, mats, n_desc):
    # also C17, the same bounds under the A-norm on sharpness constructions
    t = mats["T"]
    w, nt = yield _w(n_desc, t) + _n(n_desc, t)
    pairs = [(nt / 2, w)]
    if n_desc.selfadjoint_invariant:
        pairs.append((w, nt))
    return InstanceOutcome(pairs)


def _eval_c04(ctx, mats, n_desc):
    t = mats["T"]
    ops = [t, semihilbert._adjoint_of_member(ctx, t)]
    if n_desc.base_id == "a_norm" and "U" in mats:
        u = mats["U"]
        ops.append(semihilbert._adjoint_of_member(ctx, u) @ t @ u)
    w_t, w_adj, *w_conj = yield _w(n_desc, *ops)
    return InstanceOutcome([(w_t, w_adj)] + [(w, w_t) for w in w_conj])


def _eval_c05(ctx, mats, n_desc):
    t = mats["T"]
    c, r0, i0 = semihilbert._cartesian_parts(ctx, t)
    w, q, nr, ni = yield _w(n_desc, t) + _n(n_desc, c @ t + t @ c, r0, i0)
    gap = abs(nr ** 2 - ni ** 2)
    return InstanceOutcome([(math.sqrt(q / 4 + gap / 2), w)])


def _eval_c06(ctx, mats, n_desc):
    t = mats["T"]
    c = semihilbert._adjoint_of_member(ctx, t)
    w, q = yield _w(n_desc, t) + _n(n_desc, c @ t + t @ c)
    pairs = [(math.sqrt(q) / 2, w)]
    if n_desc.a_increasing and n_desc.power_property:
        pairs.append((w, math.sqrt(2 * q) / 2))
    return InstanceOutcome(pairs)


def _eval_c07(ctx, mats, n_desc):
    t = mats["T"]
    _, r0, i0 = semihilbert._cartesian_parts(ctx, t)
    w, nr, ni, neg_inf = yield (
        _w(n_desc, t) + _n(n_desc, r0, i0) + _sweep(n_desc, _neg_hypot, t)
    )
    return InstanceOutcome([(w, math.hypot(nr, ni)), (w, -neg_inf)])


def _eval_c08(ctx, mats, n_desc):
    t = mats["T"]
    c = semihilbert._adjoint_of_member(ctx, t)
    w, w2, q = yield _w(n_desc, t, t @ t) + _n(n_desc, c @ t + t @ c)
    return InstanceOutcome([(w, math.sqrt(0.5 * w2 + 0.25 * q))])


def _eval_c09(ctx, mats, n_desc):
    t = mats["T"]
    c = semihilbert._adjoint_of_member(ctx, t)
    w, w2, q = yield _w(n_desc, t, t @ t) + _n(n_desc, c @ t + t @ c)
    return InstanceOutcome([(w, (q * q / 8 + w2 * w2 / 2) ** 0.25)])


def _eval_c10(ctx, mats, n_desc):
    # also C25, the same identity on A-normal T under Omega_A
    t = mats["T"]
    w, nt = yield _w(n_desc, t) + _n(n_desc, t)
    return InstanceOutcome([(w, nt)])


def _eval_c11(ctx, mats, n_desc):
    t = mats["T"]
    w, w_pt, w_tp = yield _w(n_desc, t, ctx.proj @ t, t @ ctx.proj)
    return InstanceOutcome([(w, w_pt), (w, w_tp)])


def _eval_c12(ctx, mats, n_desc):
    t, s = mats["T"], mats["S"]
    ts_adj = semihilbert._adjoint_of_member(ctx, t)
    ss_adj = semihilbert._adjoint_of_member(ctx, s)
    w_ts, w_t, w_s, *w_mixed, n_t, n_s = yield _w(
        n_desc, t @ s, t, s,
        *(t @ s + sgn * op for sgn in (1.0, -1.0) for op in (s @ ts_adj, ss_adj @ t)),
    ) + _n(n_desc, t, s)
    pairs = []
    for w_left, w_right in zip(w_mixed[::2], w_mixed[1::2]):
        pairs += [(w_ts, n_t * w_s + 0.5 * w_left), (w_ts, n_s * w_t + 0.5 * w_right)]
    return InstanceOutcome(pairs)


def _eval_c13(ctx, mats, n_desc):
    t, s = mats["T"], mats["S"]
    ts_adj = semihilbert._adjoint_of_member(ctx, t)
    w_s, *w_mixed, n_t = yield _w(
        n_desc, s, *(t @ s + sgn * (s @ ts_adj) for sgn in (1.0, -1.0))
    ) + _n(n_desc, t)
    bound = 2 * n_t * w_s
    return InstanceOutcome([(w, bound) for w in w_mixed])


def _eval_c14(ctx, mats, n_desc):
    t, s = mats["T"], mats["S"]
    w_t, w_s, w_ts, n_s, n_t = yield _w(n_desc, t, s, t @ s) + _n(n_desc, s, t)
    mid = 2 * min(w_t * n_s, w_s * n_t)
    return InstanceOutcome([(w_ts, mid), (mid, 4 * w_t * w_s)])


def _eval_c15(ctx, mats, n_desc):
    t, s, x = mats["T"], mats["S"], mats["X"]
    ts_adj = semihilbert._adjoint_of_member(ctx, t)
    ss_adj = semihilbert._adjoint_of_member(ctx, s)
    w_x, *w_mixed, n_t, n_s = yield _w(
        n_desc, x,
        *(t @ x @ s + sgn * (ss_adj @ x @ ts_adj) for sgn in (1.0, -1.0)),
    ) + _n(n_desc, t, s)
    bound = 2 * n_t * n_s * w_x
    return InstanceOutcome([(w, bound) for w in w_mixed])


def _eval_c16(ctx, mats, n_desc):
    t = mats["T"]
    x = mats["X"]
    ts_adj = semihilbert._adjoint_of_member(ctx, t)
    w_x, w_txt, w_ttx, n_t = yield (
        _w(n_desc, x, t @ x @ ts_adj, ts_adj @ x @ t) + _n(n_desc, t)
    )
    bound = n_t ** 2 * w_x
    return InstanceOutcome([(w_txt, bound), (w_ttx, bound)])


def _eval_c18(ctx, mats, n_desc):
    t = mats["T"]
    c = semihilbert._adjoint_of_member(ctx, t)
    n_t, n_ct, n_tc = yield _n(_a_norm(), t, c @ t, t @ c)
    return InstanceOutcome([(n_ct, n_t ** 2), (n_tc, n_t ** 2)])


def _eval_c19(ctx, mats, n_desc):
    va = np.ravel(mats["a"])
    vb = np.ravel(mats["b"])
    vc = np.ravel(mats["c"])
    lhs = (
        abs(semihilbert.a_inner(ctx, va, vc)) ** 2
        + abs(semihilbert.a_inner(ctx, vb, vc)) ** 2
    )
    na2 = semihilbert.a_norm_vec(ctx, va) ** 2
    nb2 = semihilbert.a_norm_vec(ctx, vb) ** 2
    rhs = semihilbert.a_norm_vec(ctx, vc) ** 2 * (
        max(na2, nb2) + abs(semihilbert.a_inner(ctx, va, vb))
    )
    return InstanceOutcome([(lhs, rhs)])


def _eval_c20(ctx, mats, n_desc):
    h = semihilbert._cartesian_parts(ctx, mats["T"])[1]
    n_h, a_h = yield _n(n_desc, h) + _n(_a_norm(), h)
    return InstanceOutcome([(n_h, a_h)])


def _eval_c21(ctx, mats, n_desc):
    t = mats["T"]
    w, w_a = yield _w(n_desc, t) + _w(_a_norm(), t)
    return InstanceOutcome([(w, w_a)])


def _eval_c22(ctx, mats, n_desc):
    t = mats["T"]
    na, om = yield _n(_a_norm(), t) + _n(n_desc, t)
    gam = seminorms.gamma_a(ctx, t)
    return InstanceOutcome([(na, om), (om, gam), (gam, _SQRT2 * na)])


def _eval_c23(ctx, mats, n_desc):
    t = mats["T"]
    om, na = yield _n(n_desc, t) + _n(_a_norm(), t)
    return InstanceOutcome([(om, _SQRT2 * na)])


def _eval_c24(ctx, mats, n_desc):
    t = mats["T"]
    w, w_a = yield _w(n_desc, t) + _w(_a_norm(), t)
    return InstanceOutcome([(w, _SQRT2 * w_a)])


def _eval_c26(ctx, mats, n_desc):
    t = mats["T"]
    target = 2 * _SQRT2
    nt, w = yield _n(n_desc, t) + _w(n_desc, t)
    return InstanceOutcome(
        [
            (nt, target),
            (w, target),
            (seminorms.big_omega_pair_form(ctx, t), target),
        ]
    )


def _eval_c27(ctx, mats, n_desc):
    t = mats["T"]
    c, r0, i0 = semihilbert._cartesian_parts(ctx, t)
    w, nt, q = yield _w(n_desc, t) + _n(n_desc, t, c @ t + t @ c)
    tol = 1e-7 * nt
    target = math.sqrt(q) / 2
    flat = abs(w - nt / 2) <= tol  # lower-bound attainment forces flat angle profile
    quadratic = abs(w - target) <= tol  # quadratic lower-bound attainment
    held = flat or quadratic
    if not held:
        return InstanceOutcome([], premise_held=False)
    # the Im value at each angle is the Re value 32 steps on: Re covers both
    parts = radius._profile(lambda x: x, r0, i0, np.linspace(0.0, math.pi, 64, endpoint=False))
    omega_flat = n_desc.base_id == "big_omega" and flat
    vals = yield _n(n_desc, *parts) + (_n(_a_norm(), *parts) if omega_flat else ())
    pairs = []
    for bound, premise in ((nt / 2, flat), (target, quadratic)):
        if premise:
            pairs.extend((v, bound) for v in vals[:len(parts)])
    # Omega_A(T) <= 2 sqrt2 |Re_A(e^{i theta} T)|_A when the profile is flat
    pairs.extend((nt, 2 * _SQRT2 * v) for v in vals[len(parts):])
    return InstanceOutcome(pairs, premise_held=held)


# ---------------------------------------------------------------------------
# instance generators: (n, profile, rng, rtol, idx) -> (ctx, mats)


def _make_ctx(n, profile, rng, rtol):
    a = random_psd(n, _PROFILE_RANKS[profile](n), rng)
    return build_context(a, rtol)


def _gen(**makers):
    """Generator drawing A, then one operand per ``maker(ctx, rng)`` in the
    order given.  Makers call the ``random_*`` functions through this
    module's namespace, so a wrapper installed there (perfbench's tracer)
    sees every draw."""

    def gen(n, profile, rng, rtol, idx):
        ctx = _make_ctx(n, profile, rng, rtol)
        return ctx, {k: make(ctx, rng) for k, make in makers.items()}

    return gen


def _member(ctx, rng):
    return random_member(ctx, rng, unit_norm=True)


def _a_normal(ctx, rng):
    return random_a_normal(ctx, rng, unit_norm=True)


def _gen_sharp_mix(n, profile, rng, rtol, idx):
    """Random members interleaved with both sharpness constructions."""
    ctx = _make_ctx(n, profile, rng, rtol)
    style = idx % 3
    if style == 1 and ctx.rank >= 2:
        return ctx, {"T": _range_nilpotent(ctx, rng)}
    if style == 2:
        return ctx, {"T": _a_normal(ctx, rng)}
    return ctx, {"T": _member(ctx, rng)}


def _gen_nilpotent_mix(n, profile, rng, rtol, idx):
    """Engineered premise instances (identity A, square-zero T) mixed with noise."""
    if idx % 2 == 0:
        ctx = build_context(np.eye(n), rtol)
        return ctx, {"T": random_nilpotent(n, rng)}
    ctx = _make_ctx(n, profile, rng, rtol)
    return ctx, {"T": _member(ctx, rng)}


_REMARK_T = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 2]], dtype=np.complex128)


def _gen_pinned_remark(n, profile, rng, rtol, idx):
    ctx = build_context(np.eye(3), rtol)
    return ctx, {"T": _REMARK_T.copy()}


# ---------------------------------------------------------------------------
# the catalog


def catalog() -> list:
    """The fixed list of 27 executable checks, in stable order."""
    no_flags = frozenset()
    sa = frozenset({"selfadjoint_invariant"})
    sub = frozenset({"submultiplicative"})
    sa_sub = frozenset({"selfadjoint_invariant", "submultiplicative"})
    inc_pow = frozenset({"a_increasing", "power_property"})
    member = _gen(T=_member)
    pair = _gen(T=_member, S=_member)
    a_selfadjoint = _gen(
        T=lambda ctx, rng: random_a_selfadjoint(ctx, rng, unit_norm=True)
    )

    specs = [
        CheckSpec(
            "C01",
            "w_N(T) >= N(T)/2 + |N(Re_A(T)) - N(Im_A(T))|/2",
            "inequality", no_flags, ("a_norm",), member, _eval_c01,
        ),
        CheckSpec(
            "C02",
            "w_N(T) >= N(T)/2 + sup_th |N(Re_A(e^{i th}T)) - N(Im_A(e^{i th}T))|/2",
            "inequality", no_flags, ("a_norm",), member, _eval_c02,
        ),
        CheckSpec(
            "C03",
            "N(T)/2 <= w_N(T) <= N(T), upper half for selfadjoint-invariant N",
            "inequality", sa, ("a_norm", "big_omega"), member, _eval_c03,
        ),
        CheckSpec(
            "C04",
            "w_N(T) = w_N(T#); and w_N(U# T U) = w_N(T) for A-unitary U under the A-norm",
            "equality", sa, ("a_norm", "big_omega"),
            _gen(T=_member, U=lambda ctx, rng: random_a_unitary(ctx, rng)),
            _eval_c04,
        ),
        CheckSpec(
            "C05",
            "w_N(T) >= sqrt(N(T#T + TT#)/4 + |N^2(Re_A T) - N^2(Im_A T)|/2)",
            "inequality", sub, ("a_norm",), member, _eval_c05,
        ),
        CheckSpec(
            "C06",
            "sqrt(N(T#T + TT#))/2 <= w_N(T) <= sqrt(N(T#T + TT#)/2)",
            "inequality", sub | inc_pow, ("a_norm",), member, _eval_c06,
        ),
        CheckSpec(
            "C07",
            "w_N(T) <= inf_th sqrt(N^2(Re_A(e^{i th}T)) + N^2(Im_A(e^{i th}T)))",
            "inequality", no_flags, ("a_norm",), member, _eval_c07,
        ),
        CheckSpec(
            "C08",
            "w_N(T) <= sqrt(w_N(T^2)/2 + N(T#T + TT#)/4)",
            "inequality", frozenset({"power_property"}), ("a_norm",),
            member, _eval_c08,
        ),
        CheckSpec(
            "C09",
            "w_N(T) <= (N^2(T#T + TT#)/8 + w_N^2(T^2)/2)^(1/4)",
            "inequality", inc_pow, ("a_norm",), member, _eval_c09,
        ),
        CheckSpec(
            "C10",
            "w_N(T) = N(T) for A-selfadjoint T",
            "equality", sa, ("a_norm", "big_omega"), a_selfadjoint, _eval_c10,
        ),
        CheckSpec(
            "C11",
            "w_N(T) = w_N(P T) = w_N(T P) for the range projector P",
            "equality", sa, ("a_norm",), member, _eval_c11,
        ),
        CheckSpec(
            "C12",
            "w_N(TS) <= N(T) w_N(S) + w_N(TS +- S T#)/2 and the mirrored form",
            "inequality", sa_sub, ("a_norm",), pair, _eval_c12,
        ),
        CheckSpec(
            "C13",
            "w_N(TS +- S T#) <= 2 N(T) w_N(S)",
            "inequality", sa_sub, ("a_norm",), pair, _eval_c13,
        ),
        CheckSpec(
            "C14",
            "w_N(TS) <= 2 min(w_N(T) N(S), w_N(S) N(T)) <= 4 w_N(T) w_N(S)",
            "inequality", sa_sub, ("a_norm",), pair, _eval_c14,
        ),
        CheckSpec(
            "C15",
            "w_N(T X S +- S# X T#) <= 2 N(T) N(S) w_N(X)",
            "inequality", sa_sub, ("a_norm",), _gen(T=_member, S=_member, X=_member),
            _eval_c15,
        ),
        CheckSpec(
            "C16",
            "w_N(T X T#) <= N^2(T) w_N(X) and w_N(T# X T) <= N^2(T) w_N(X)",
            "inequality", sa_sub, ("a_norm",), _gen(T=_member, X=_member),
            _eval_c16,
        ),
        CheckSpec(
            "C17",
            "|T|_A / 2 <= w_A(T) <= |T|_A with sharpness constructions mixed in",
            "inequality", no_flags, ("a_norm",), _gen_sharp_mix, _eval_c03,
        ),
        CheckSpec(
            "C18",
            "|T# T|_A = |T T#|_A = |T|_A^2",
            "equality", no_flags, ("a_norm",), member, _eval_c18,
        ),
        CheckSpec(
            "C19",
            "|<a,c>_A|^2 + |<b,c>_A|^2 <= |c|_A^2 (max(|a|_A^2, |b|_A^2) + |<a,b>_A|)",
            "inequality", no_flags, ("a_norm",),
            _gen(a=_unit_vector, b=_unit_vector, c=_unit_vector), _eval_c19,
        ),
        CheckSpec(
            "C20",
            "|Re_A(T)|_{A,alpha} = |Re_A(T)|_A",
            "equality", no_flags, ("a_alpha",), member, _eval_c20,
        ),
        CheckSpec(
            "C21",
            "w under |.|_{A,alpha} equals w_A",
            "equality", no_flags, ("a_alpha",), member, _eval_c21,
        ),
        CheckSpec(
            "C22",
            "|T|_A <= Omega_A(T) <= gamma_A(T) <= sqrt(2) |T|_A",
            "inequality", no_flags, ("big_omega",), member, _eval_c22,
        ),
        CheckSpec(
            "C23",
            "Omega_A(T) = sqrt(2) |T|_A for A-selfadjoint T",
            "equality", sa, ("big_omega",), a_selfadjoint, _eval_c23,
        ),
        CheckSpec(
            "C24",
            "w under Omega_A equals sqrt(2) w_A",
            "equality", sa, ("big_omega",), member, _eval_c24,
        ),
        CheckSpec(
            "C25",
            "w under Omega_A equals Omega_A for A-normal T",
            "equality", sa, ("big_omega",), _gen(T=_a_normal), _eval_c10,
        ),
        CheckSpec(
            "C26",
            "pinned 3x3 instance: Omega = w_Omega = 2 sqrt(2), via grid and pair forms",
            "equality", sa, ("big_omega",), _gen_pinned_remark, _eval_c26,
            max_instances=1,
        ),
        CheckSpec(
            "C27",
            "attainment equivalences: when w_N hits a lower bound, the angle profile is flat",
            "conditional", no_flags, ("a_norm", "big_omega"), _gen_nilpotent_mix,
            _eval_c27,
        ),
    ]
    assert len(specs) == 27
    return specs


# ---------------------------------------------------------------------------
# the runner


def _expand_seminorms(ids, alphas):
    out = []
    for base in ids:
        if base == "a_alpha":
            out.extend(seminorms.seminorm_by_name(base, a) for a in alphas)
        else:
            out.append(seminorms.seminorm_by_name(base))
    return out


def _witness_dict(n_desc, dim, profile, idx, slack, lhs, rhs, a_mat, mats):
    return {
        "seminorm": n_desc.base_id,
        "alpha": n_desc.alpha,
        "dim": dim,
        "rank_profile": profile,
        "instance_index": idx,
        "slack": slack,
        "lhs": lhs,
        "rhs": rhs,
        "matrices": {
            k: serialize.matrix_to_dict(m) for k, m in {"A": a_mat, **mats}.items()
        },
    }


#: What marks one instance incomplete instead of stopping the run.
_INSTANCE_ERRORS = (ShnrError, np.linalg.LinAlgError)


def _solve(asks):
    """Answer requests: ``asks`` maps an instance key to its context and the
    request its evaluator yielded; the result maps each key to the tuple of
    answers or to the error that made the instance fail.

    Every operand is built from the instance's validated operands by sums,
    products and A-adjoints, so it is a member by construction (the
    A-adjointable operators form an algebra closed under these) and goes
    straight to its range block.  The blocks of all instances are grouped by
    request kind, seminorm and size r, and each group is one call
    (:func:`_answer`); equal descriptors share a group, so the A-norm radii
    of a check and those it asks for through ``_a_norm()`` go into one
    level set.  When a group's call raises what marks an instance incomplete
    (``LinAlgError``, or a ``ShnrError`` from a seminorm's own evaluate),
    the group is solved again one instance at a time, so only a failing
    instance fails.
    """
    got, groups = {}, {}
    for key, (ctx, request) in asks.items():
        blocks = semihilbert._range_block(ctx, np.stack([t for _, _, t in request]))
        got[key] = [None] * len(request)
        for j, ((kind, n_desc, _), b) in enumerate(zip(request, blocks)):
            group = groups.setdefault((kind, n_desc, len(b)), {})
            group.setdefault(key, []).append((j, b))
    for (kind, n_desc, _), group in groups.items():
        try:
            flat = _answer(kind, n_desc, np.stack([b for m in group.values() for _, b in m]))
            solved = np.split(flat, np.cumsum([len(m) for m in group.values()])[:-1])
        except _INSTANCE_ERRORS:
            solved = [_answer_or_error(kind, n_desc, np.stack([b for _, b in m]))
                      for m in group.values()]
        for (key, members), vals in zip(group.items(), solved):
            if isinstance(got[key], Exception):
                continue
            if isinstance(vals, Exception):
                got[key] = vals
                continue
            for (j, _), v in zip(members, vals):
                got[key][j] = float(v)
    return {key: v if isinstance(v, Exception) else tuple(v) for key, v in got.items()}


def _answer(kind, n_desc, blocks):
    """The answers for a (k, r, r) stack of range blocks of one group, each
    block its own operator under the identity context of size r: values
    from ``n_desc.evaluate``, radii from :func:`radius._radii` and sweeps
    from :func:`radius._sweeps`, the functions behind
    :func:`radius.generalized_radius` too."""
    ctx = semihilbert._identity_context(blocks.shape[-1])
    if kind == _VALUE:
        return n_desc.evaluate(ctx, blocks)
    if kind == _RADIUS:
        return radius._radii(ctx, n_desc, blocks, _THETA_GRID)
    return radius._sweeps(ctx, n_desc, blocks, kind, _SWEEP_GRID)


def _answer_or_error(kind, n_desc, blocks):
    try:
        return _answer(kind, n_desc, blocks)
    except _INSTANCE_ERRORS as exc:
        return exc


def _drive(spec, instances):
    """Run ``spec.evaluator`` on each (ctx, mats, n_desc) of ``instances``
    in lockstep and return, per instance, its InstanceOutcome or the error
    (``ShnrError`` or ``LinAlgError``) that made it incomplete.

    The square operands an instance draws (every matrix of ``mats`` but
    C19's vectors, which are (n, 1) columns) pass one stacked
    :func:`require_member` before its evaluator is called, and a non-member
    fails that instance alone; evaluators build every other operand from
    them, so nothing after this checks membership again.  Every evaluator
    is called once.  Those that yield requests run to their request; the
    requests of all instances are answered together (:func:`_solve`: one
    call per group of range blocks), each generator gets its answers back,
    and the round repeats until every evaluator has returned.
    """
    out = [None] * len(instances)
    gens = {}
    for i, (ctx, mats, n_desc) in enumerate(instances):
        try:
            # shapes first, so that a replayed operand of the wrong size is
            # named as such and not left to np.stack
            ops = [semihilbert._check_shape(ctx, m) for m in mats.values() if m.shape[-1] > 1]
            if ops:
                require_member(ctx, np.stack(ops))
            got = spec.evaluator(ctx, mats, n_desc)
        except _INSTANCE_ERRORS as exc:
            got = exc
        if isinstance(got, (InstanceOutcome, Exception)):
            out[i] = got
        else:
            gens[i] = got
    sent = dict.fromkeys(gens)
    while gens:
        asks = {}
        for i, value in sent.items():
            try:
                asks[i] = (instances[i][0], gens[i].send(value))
            except StopIteration as stop:
                out[i] = stop.value
                del gens[i]
            except _INSTANCE_ERRORS as exc:
                out[i] = exc
                del gens[i]
        sent = _solve(asks)
        for i, value in list(sent.items()):
            if isinstance(value, Exception):
                out[i] = value
                del gens[i], sent[i]
    return out


def _evaluate(spec, ctx, mats, n_desc) -> InstanceOutcome:
    """One instance through :func:`_drive`; its error, if any, is raised."""
    (got,) = _drive(spec, [(ctx, mats, n_desc)])
    if isinstance(got, Exception):
        raise got
    return got


def _run_chunk(spec, cfg, grid, sems, idxs):
    """Draw instances ``idxs`` of a check and evaluate them together: per
    instance [idx, dim, profile, n_desc, ctx, mats, outcome], the outcome
    an InstanceOutcome or the error that made the instance incomplete."""
    rows, instances = [], []
    for idx in idxs:
        dim, profile = grid[idx % len(grid)]
        n_desc = sems[(idx // len(grid)) % len(sems)]
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, int(spec.id[1:]), idx])
        )
        try:
            ctx, mats = spec.generator(dim, profile, rng, cfg.rtol, idx)
        except _INSTANCE_ERRORS as exc:
            rows.append([idx, dim, profile, n_desc, None, None, exc])
            continue
        rows.append([idx, dim, profile, n_desc, ctx, mats, None])
        instances.append((ctx, mats, n_desc))
    outcomes = iter(_drive(spec, instances))
    for row in rows:
        if row[6] is None:
            row[6] = next(outcomes)
    return rows


def run_suite(
    cfg: InstanceGenConfig,
    only=None,
    threads: int = 1,
    alphas=(0.0, 0.25, 0.5, 0.75, 1.0),
) -> SuiteReport:
    """Run the catalog over seeded random instances and aggregate slacks.

    Deterministic for a fixed config: per-instance seeds derive from
    (seed, check number, instance index), aggregation is index-ordered, so
    the report bytes do not depend on ``threads``.  Raises ``ValueError``
    for ``threads`` that is not an integer of at least 1, for ``alphas``
    that name no weight, or for an ``only`` that is a bare string or is
    given but names no check, and ``KeyError`` for an unknown check id.
    """
    if not _is_count(threads, 1):
        raise ValueError(f"threads must be an integer of at least 1, got {threads!r}")
    if not alphas:
        raise ValueError("alphas names no weight")
    specs = catalog()
    if only is not None:
        wanted = set(only)
        # a bare string would be read as its characters
        if not wanted or isinstance(only, str):
            raise ValueError(f"only must be a collection of check ids, got {only!r}")
        unknown = wanted - {s.id for s in specs}
        if unknown:
            raise KeyError(f"unknown check ids: {sorted(unknown)}")
        specs = [s for s in specs if s.id in wanted]
    grid = [(n, p) for n in cfg.dims for p in cfg.rank_profiles]

    results = []
    for spec in specs:
        sems = _expand_seminorms(spec.seminorm_ids, alphas)
        res = CheckResult(
            id=spec.id,
            statement=spec.statement,
            kind=spec.kind,
            seminorms=[s.id for s in sems],
            premise_held=0 if spec.kind == "conditional" else None,
        )
        total = cfg.instances_per_check
        if spec.max_instances is not None:
            total = min(total, spec.max_instances)

        # contiguous chunks, one a thread: every radius's value is that of
        # a lone call, so the bytes do not depend on the split
        bounds = [total * j // threads for j in range(threads + 1)]
        chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        run = functools.partial(_run_chunk, spec, cfg, grid, sems)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(run, chunks))
        else:
            parts = [run(chunk) for chunk in chunks]

        for idx, dim, profile, n_desc, ctx, mats, outcome in itertools.chain(*parts):
            if isinstance(outcome, Exception):
                res.incomplete += 1
                continue
            res.instances_run += 1
            if outcome.premise_held:
                res.premise_held += 1
            if not outcome.pairs:
                continue
            slacks = [_slack(spec.kind, float(l), float(r)) for l, r in outcome.pairs]
            k = int(np.argmin(slacks))
            s_min = float(slacks[k])
            if res.min_slack is None or s_min < res.min_slack:
                res.min_slack = s_min
                lhs, rhs = outcome.pairs[k]
                res.worst_witness = _witness_dict(
                    n_desc, dim, profile, idx, s_min, float(lhs), float(rhs),
                    ctx.a, mats,
                )
            if s_min < -cfg.tol_rel:
                res.violations += 1
                res.max_violation = max(res.max_violation, -s_min)
        results.append(res)

    return SuiteReport(
        version=__version__,
        config={
            **asdict(cfg), **_GRIDS,
            "alphas": list(alphas), "only": sorted(only) if only else None,
        },
        checks=results,
        violations_total=sum(r.violations for r in results),
        incomplete_total=sum(r.incomplete for r in results),
    )


def replay_witness(report: dict, check_id: str) -> float:
    """Re-evaluate the stored worst witness of a check from a report dict.

    Rebuilds the context and seminorm from the serialized matrices and the
    report's config echo, reruns the check evaluator, and returns the
    minimum slack, which must reproduce the recorded one.  Raises
    ``ValueError`` for an unknown check id, a report with no entry or no
    witness for the check, or one made with other angle or Omega_A grids.
    """
    spec = next((s for s in catalog() if s.id == check_id), None)
    if spec is None:
        raise ValueError(f"unknown check id {check_id!r}")
    entry = next((c for c in report["checks"] if c["id"] == check_id), None)
    if entry is None:
        raise ValueError(f"report has no entry for check {check_id}")
    wit = entry["worst_witness"]
    if wit is None:
        raise ValueError(f"check {check_id} recorded no witness")
    conf = report["config"]
    other = {k: conf.get(k) for k, v in _GRIDS.items() if conf.get(k) != v}
    if other:
        raise ValueError(
            f"report was made with grids {other}; this version uses {_GRIDS}"
        )
    mats = {k: serialize.matrix_from_dict(v) for k, v in wit["matrices"].items()}
    ctx = build_context(mats.pop("A"), conf["rtol"])
    n_desc = seminorms.seminorm_by_name(wit["seminorm"], wit["alpha"])
    outcome = _evaluate(spec, ctx, mats, n_desc)
    return min(_slack(spec.kind, float(l), float(r)) for l, r in outcome.pairs)
