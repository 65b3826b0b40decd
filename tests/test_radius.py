import functools
import inspect
import math

import numpy as np
import pytest

from shnr import (
    DimensionMismatchError,
    InstanceGenConfig,
    SeminormDescriptor,
    a_adjoint,
    a_norm_seminorm,
    a_alpha_seminorm,
    a_operator_norm,
    big_omega_pair_form,
    big_omega_seminorm,
    build_context,
    compress,
    gamma_a,
    generalized_radius,
    im_a,
    is_a_normal,
    is_a_unitary,
    omega_a,
    omega_a_fast,
    spectral_norm,
    verify,
)
from shnr import radius
from shnr.linalg import herm
from shnr.radius import sup_on_circle
from conftest import ctx_grid, make_ctx, refine_step_cap
from oracles import dense_grid_radius, eigenvalue_sweep

A_NORM = a_norm_seminorm()
# same evaluator, different id: forces the generic grid loop instead of the
# eigenvalue fast path, so the two paths can be cross-asserted
A_NORM_GENERIC = SeminormDescriptor(
    id="a_norm_generic",
    evaluate=a_operator_norm,
    selfadjoint_invariant=True,
)


class TestConfig:
    def test_defaults(self):
        params = inspect.signature(generalized_radius).parameters
        assert params["grid_points"].default == 720
        assert radius._REFINE_TOL == 1e-8
        # the refinement makes no more calls than golden section on the
        # same bracket: the widest bracket a valid grid leaves, pi / 4,
        # takes two starting points and 38 steps
        assert [refine_step_cap(g) for g in (8, 64, 180, 720)] == [40, 36, 34, 31]

    def test_validation(self):
        ctx = make_ctx(3, 2, seed=0)
        t = verify.random_member(ctx, seed=1, unit_norm=True)
        with pytest.raises(ValueError):
            sup_on_circle(np.cos, 4)
        with pytest.raises(ValueError):
            generalized_radius(ctx, A_NORM, t, grid_points=4)
        with pytest.raises(ValueError):
            generalized_radius(ctx, A_NORM_GENERIC, t, grid_points=7)

    @pytest.mark.parametrize("case", [
        ("generalized_radius[a_norm]", lambda ctx, t: generalized_radius(ctx, A_NORM, t)),
        ("generalized_radius[big_omega]",
         lambda ctx, t: generalized_radius(ctx, big_omega_seminorm(), t)),
        ("omega_a", omega_a),
        ("gamma_a", gamma_a),
        ("big_omega_pair_form", big_omega_pair_form),
        ("is_a_unitary", is_a_unitary),
        ("is_a_normal", is_a_normal),
        ("grid 100.0", lambda ctx, t: generalized_radius(ctx, A_NORM, t[0], grid_points=100.0)),
        ("grid 8.5", lambda ctx, t: generalized_radius(ctx, A_NORM, t[0], grid_points=8.5)),
        ("grid 100.0 [big_omega]",
         lambda ctx, t: generalized_radius(ctx, big_omega_seminorm(), t[0], grid_points=100.0)),
        ("sup_on_circle grid 100.0", lambda ctx, t: sup_on_circle(np.cos, 100.0)),
    ], ids=lambda case: case[0])
    def test_one_operator_and_integer_grid(self, case):
        # these entry points take one operator: a stack of two members is a
        # DimensionMismatchError, and a grid that is not an integer of at
        # least 8 a ValueError, under every seminorm
        name, fn = case
        ctx = make_ctx(3, 2, seed=0)
        t = np.stack([verify.random_member(ctx, seed=s, unit_norm=True) for s in (1, 2)])
        with pytest.raises(ValueError if "grid" in name else DimensionMismatchError):
            fn(ctx, t)


class TestEngines:
    def test_zero_short_circuits(self):
        ctx = make_ctx(3, 2, seed=0)
        z = np.zeros((3, 3))
        assert generalized_radius(ctx, A_NORM, z) == 0.0
        assert generalized_radius(ctx, A_NORM, -1j * z) == 0.0
        assert omega_a_fast(ctx, z) == 0.0

    def test_fast_path_matches_generic_path(self):
        for ctx in ctx_grid(21):
            t = verify.random_member(ctx, seed=1, unit_norm=True)
            fast = generalized_radius(ctx, A_NORM, t)
            generic = generalized_radius(ctx, A_NORM_GENERIC, t)
            assert fast == pytest.approx(generic, abs=1e-8)

    def test_normal_matrix_gives_spectral_radius(self):
        ctx = build_context(np.eye(3))
        t = np.diag([1.0 + 1j, -2.0, 0.5j])
        assert omega_a_fast(ctx, t) == pytest.approx(2.0, abs=1e-10)

    def test_nilpotent_half_norm(self):
        ctx = build_context(np.eye(2))
        t = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert omega_a_fast(ctx, t) == pytest.approx(0.5, abs=1e-10)

    def test_error_bound_is_reported_and_sane(self):
        ctx = make_ctx(3, 3, seed=2)
        t = verify.random_member(ctx, seed=3, unit_norm=True)
        val, bound = generalized_radius(ctx, A_NORM, t, with_error_bound=True)
        assert bound >= 0
        # the certified bound must cover a much denser sweep
        dense = eigenvalue_sweep(compress(ctx, t), 4096)
        assert dense <= val + bound + 1e-12
        _, bound_gen = generalized_radius(
            ctx, A_NORM_GENERIC, t, with_error_bound=True
        )
        assert bound_gen >= 0

    @pytest.mark.parametrize("ctx", ctx_grid(29), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_fast_path_error_bound_matches_generic_path(self, ctx):
        # one formula, N(Re_A T) + N(Im_A T); for the A-norm that is
        # |herm T~| + |skew T~|
        t = verify.random_member(ctx, seed=30, unit_norm=True)
        _, fast = generalized_radius(ctx, A_NORM, t, with_error_bound=True)
        _, generic = generalized_radius(ctx, A_NORM_GENERIC, t, with_error_bound=True)
        assert fast == pytest.approx(generic, rel=1e-12, abs=0.0)
        tt = compress(ctx, t)
        lip = spectral_norm(herm(tt)) + spectral_norm((tt - tt.conj().T) / 2.0j)
        assert fast == pytest.approx(lip * (math.pi / 720) / 2.0, rel=1e-12, abs=0.0)

    def test_sup_on_circle_takes_the_grid_in_one_call(self):
        calls = []

        def f(thetas):
            calls.append(np.array(thetas))
            return np.cos(2.0 * (thetas - 1.0))

        theta, val = sup_on_circle(f, 64)
        np.testing.assert_array_equal(
            calls[0], np.linspace(0.0, math.pi, 64, endpoint=False)
        )
        # the rest are refinement steps, one angle each
        assert all(c.shape == (1,) for c in calls[1:])
        assert 2 <= len(calls) - 1 <= refine_step_cap(64)
        assert theta == pytest.approx(1.0, abs=1e-8)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_coarse_grid_still_brackets(self):
        ctx = make_ctx(3, 2, seed=4)
        t = verify.random_member(ctx, seed=5, unit_norm=True)
        coarse = generalized_radius(ctx, A_NORM_GENERIC, t, 32)
        fine = generalized_radius(ctx, A_NORM_GENERIC, t)
        assert coarse == pytest.approx(fine, rel=1e-7)


def _refine(f, grid_points=64):
    """(theta*, f*, one-angle calls, grid max) of ``sup_on_circle``."""
    calls = []

    def counted(thetas):
        calls.append(thetas.size)
        return f(thetas)

    theta, val = sup_on_circle(counted, grid_points)
    grid_max = float(np.max(f(np.linspace(0.0, math.pi, grid_points, endpoint=False))))
    assert calls[0] == grid_points and all(c == 1 for c in calls[1:])
    return theta, val, len(calls) - 1, grid_max


def _circle_dist(x, y, period=math.pi):
    return abs((x - y + period / 2) % period - period / 2)


class TestRefinement:
    """Brent refinement in ``sup_on_circle``: parabolic steps on smooth
    peaks, golden-section steps on kinks, never more calls than
    ``refine_step_cap``, and never below the grid maximum."""

    def test_smooth_peak_takes_few_steps(self):
        # golden section takes all 36 calls of the cap here
        theta, val, steps, _ = _refine(lambda t: np.cos(2.0 * (t - 1.0)))
        assert steps <= 18
        assert _circle_dist(theta, 1.0) <= 1e-8
        assert val == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("grid_points", [8, 64, 180, 720])
    @pytest.mark.parametrize("name,f,peak", [
        ("abs", lambda t: 1.0 - np.abs(t - 1.0), 1.0),
        ("asymmetric", lambda t: 1.0 - np.where(t > 1.3, 3.0 * (t - 1.3), 0.4 * (1.3 - t)), 1.3),
        # lower envelope of two cosines crossing at theta = 1
        ("crossing_cosines", lambda t: np.minimum(np.cos(t - 0.5), np.cos(t - 1.5)), 1.0),
    ])
    def test_kinked_peak(self, name, f, peak, grid_points):
        theta, val, steps, grid_max = _refine(f, grid_points)
        assert steps <= refine_step_cap(grid_points)
        assert _circle_dist(theta, peak) <= 1e-8
        assert val >= grid_max
        assert val == float(f(np.array([theta]))[0])

    @pytest.mark.parametrize("peak", [0.0, 1e-3, 1e-9, math.pi - 1e-3, math.pi - 1e-9])
    def test_peak_at_the_period_wrap(self, peak):
        # the bracket around the best grid angle crosses 0 = pi; theta* is
        # reported in [0, pi)
        theta, val, steps, grid_max = _refine(lambda t: np.cos(2.0 * (t - peak)))
        assert 0.0 <= theta < math.pi
        assert _circle_dist(theta, peak) <= 1e-8
        assert val >= grid_max and val == pytest.approx(1.0, abs=1e-15)
        assert steps <= 18

    @staticmethod
    def _rising():
        """The grid peaks at theta = 1; then every one-angle call beats the
        last, wherever it lands."""
        count = [0]

        def f(t):
            if t.size > 1:
                return np.cos(2.0 * (t - 1.0))
            count[0] += 1
            return np.array([2.0 + count[0]])

        return f

    @pytest.mark.parametrize("name", ["rising", "noise", "flat", "step"])
    @pytest.mark.parametrize("grid_points", [8, 64, 720])
    def test_step_cap_on_adversarial_objectives(self, name, grid_points):
        f = {
            "rising": self._rising(),
            "noise": lambda t: np.sin(1e7 * t),
            "flat": lambda t: np.ones_like(t),
            "step": lambda t: (t > 1.0).astype(float),
        }[name]
        theta, val, steps, grid_max = _refine(f, grid_points)
        assert 2 <= steps <= refine_step_cap(grid_points)
        assert val >= grid_max
        assert 0.0 <= theta < math.pi

    def test_step_cap_is_hard(self, monkeypatch):
        monkeypatch.setattr(radius, "_step_cap", lambda width: 5)
        theta, val, steps, _ = _refine(self._rising())
        assert steps == 5 and val == 7.0
        assert _circle_dist(theta, 1.0) < math.pi / 64

def _seeded_cases():
    """(n, rank, seed) for n = 2..16, ranks full, n-1 and half, two seeds."""
    return [
        (n, rank, seed)
        for n in range(2, 17)
        for rank in sorted({n, n - 1, (n + 1) // 2})
        for seed in (0, 1)
    ]


def _jordan(k):
    return np.diag(np.ones(k - 1), 1).astype(complex)


def _direct_sum(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    i = 0
    for b in blocks:
        k = b.shape[0]
        out[i:i + k, i:i + k] = b
        i += k
    return out


# (name, T with A = I, exact numerical radius or None)
ADVERSARIAL = [
    ("jordan2", _jordan(2), 0.5),
    ("jordan3", _jordan(3), math.cos(math.pi / 4)),
    ("jordan5", _jordan(5), math.cos(math.pi / 6)),
    ("jordan_plus_phase", _direct_sum(_jordan(2), np.array([[np.exp(0.9j)]])), 1.0),
    ("jordan_plus_half", _direct_sum(_jordan(2), np.array([[0.5]])), 0.5),
    # 0.501 lies between the starting directions, so the first level is the
    # Jordan block's constant eigenvalue 1/2, where the pencil is singular
    ("jordan_plus_0.501_off_start",
     _direct_sum(_jordan(2), np.array([[0.501 * np.exp(1j * math.pi / 16)]])), 0.501),
    ("jordan3_plus_half_phase",
     _direct_sum(_jordan(3), np.array([[0.5 * np.exp(2.2j)]])), math.cos(math.pi / 4)),
    ("tie_diag2", np.diag([1.0, -1.0]).astype(complex), 1.0),
    ("tie_diag4", np.diag([1.0, 1j, -1.0, -1j]), 1.0),
    ("strictly_upper5",
     np.triu(np.random.default_rng(55).standard_normal((5, 5))
             + 1j * np.random.default_rng(56).standard_normal((5, 5)), 1), None),
    ("identity", np.eye(3, dtype=complex), 1.0),
]


class TestLevelSet:
    """The level-set A-numerical radius against the grid-plus-golden sweep
    it replaced (``oracles.eigenvalue_sweep``, 720 angles) and against a
    20,000-angle dense grid, which it must never fall below."""

    @staticmethod
    def _check(ctx, t, exact=None):
        got = omega_a_fast(ctx, t)
        tt = compress(ctx, t)
        ref = eigenvalue_sweep(tt, 720)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert got >= dense_grid_radius(tt) * (1.0 - 1e-14)
        if exact is not None:
            assert got == pytest.approx(exact, rel=1e-12, abs=0.0)
        return got

    @pytest.mark.parametrize("n,rank,seed", _seeded_cases(),
                             ids=lambda v: str(v))
    def test_seeded_members(self, n, rank, seed):
        ctx = make_ctx(n, rank, seed=3000 + 100 * n + 10 * rank + seed)
        t = verify.random_member(ctx, seed=4000 + 100 * n + 10 * rank + seed,
                                 unit_norm=True)
        self._check(ctx, t)

    @pytest.mark.parametrize("name,t,exact", ADVERSARIAL, ids=[c[0] for c in ADVERSARIAL])
    def test_adversarial(self, name, t, exact):
        self._check(build_context(np.eye(t.shape[0])), t, exact)

    @pytest.mark.parametrize("e", [1e-13, 1e-11, 1e-9, 1e-7])
    @pytest.mark.parametrize("b", ["identity", "diag"])
    def test_jordan_block_shifted_just_past_half(self, b, e):
        # Q (J + (0.5 + e) e^{i phi} B) Q*: for B = I, W is the disk of
        # radius 1/2 around (0.5 + e) e^{i phi}, so the radius is 1 + e and
        # the Jordan part's constant eigenvalue sits e below it, where the
        # pencil is near singular; the level set must still meet its
        # documented sqrt(eps) relative certificate
        bmat = np.eye(2) if b == "identity" else np.diag([1.0, 0.3])
        j = _jordan(2)
        rng = np.random.default_rng(int(-math.log10(e)) + (0 if b == "identity" else 100))
        for _ in range(12):
            q, _r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            m = q @ (j + (0.5 + e) * np.exp(1j * phi) * bmat) @ q.conj().T
            got = radius._level_set_radius(m)
            assert got >= dense_grid_radius(m) * (1.0 - radius._SQRT_EPS)
            if b == "identity":
                assert abs(got - (1.0 + e)) <= radius._SQRT_EPS * (1.0 + e)

    @pytest.mark.parametrize("seed", range(8))
    def test_constant_branch_below_radius_unitarily_mixed(self, seed):
        # a unitary similarity keeps W(T) but couples the Jordan block's
        # singular pencil to the rest, which an exactly block-diagonal T hides
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        t = _direct_sum(_jordan(2), np.array([[0.501 * np.exp(1j * math.pi / 16)]]))
        self._check(build_context(np.eye(3)), q @ t @ q.conj().T, 0.501)

    def test_zero_operator(self):
        ctx = make_ctx(4, 2, seed=60)
        assert omega_a_fast(ctx, np.zeros((4, 4))) == 0.0

    def test_rank_one_a(self):
        # on a one-dimensional range the radius is |<T x, x>_A| of its unit x
        ctx = make_ctx(4, 1, seed=61)
        t = verify.random_member(ctx, seed=62, unit_norm=True)
        x = ctx.eigenvectors[:, -1] / math.sqrt(ctx.eigenvalues[-1])
        exact = abs(complex(x.conj() @ ctx.a @ t @ x))
        self._check(ctx, t, exact)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_extreme_scales(self, scale):
        ctx = make_ctx(5, 4, seed=63)
        t = verify.random_member(ctx, seed=64, unit_norm=True)
        w = omega_a_fast(ctx, t)
        assert self._check(ctx, scale * t) == pytest.approx(scale * w, rel=1e-12, abs=0.0)
        assert self._check(build_context(np.eye(5)), scale * _jordan(5)) == pytest.approx(
            scale * math.cos(math.pi / 6), rel=1e-12, abs=0.0)

    def test_c27_nilpotent_instance(self):
        # instance 2 of this run is a square-zero T with A = I: W(T~) is a
        # disk, so the level-set pencil is singular at the answer
        cfg = InstanceGenConfig(seed=1303240053, instances_per_check=45)
        report = verify.run_suite(cfg, only=["C27"])
        (chk,) = report.checks
        assert chk.incomplete == 0 and chk.violations == 0
        spec = next(s for s in verify.catalog() if s.id == "C27")
        dim, profile = [(n, p) for n in cfg.dims for p in cfg.rank_profiles][2]
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 27, 2]))
        ctx, mats = spec.generator(dim, profile, rng, cfg.rtol, 2)
        t = mats["T"]
        assert np.abs(t @ t).max() < 1e-15
        self._check(ctx, t, a_operator_norm(ctx, t) / 2.0)

    def test_a_norm_path_makes_no_angle_sweep(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("angle sweep on the A-norm path")

        monkeypatch.setattr(radius, "sup_on_circle", forbidden)
        monkeypatch.setattr(radius, "_brent_max", forbidden)
        ctx = make_ctx(4, 3, seed=65)
        t = verify.random_member(ctx, seed=66, unit_norm=True)
        w = omega_a_fast(ctx, t)
        assert generalized_radius(ctx, A_NORM, t) == w
        assert generalized_radius(ctx, A_NORM, t, with_error_bound=True)[0] == w
        assert generalized_radius(ctx, A_NORM, -1j * t) > 0
        assert omega_a(ctx, t) == w
        assert gamma_a(ctx, t) > 0


class TestInvariances:
    @pytest.mark.parametrize("ctx", ctx_grid(22), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_phase_invariance(self, ctx):
        rng = np.random.default_rng(6)
        t = verify.random_member(ctx, rng, unit_norm=True)
        phi = float(rng.uniform(0, 2 * math.pi))
        w0 = generalized_radius(ctx, A_NORM, t)
        w1 = generalized_radius(ctx, A_NORM, np.exp(1j * phi) * t)
        assert w0 == pytest.approx(w1, abs=1e-8)

    @pytest.mark.parametrize("ctx", ctx_grid(23), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_adjoint_invariance(self, ctx):
        t = verify.random_member(ctx, seed=7, unit_norm=True)
        assert generalized_radius(ctx, A_NORM, t) == pytest.approx(
            generalized_radius(ctx, A_NORM, a_adjoint(ctx, t)), abs=1e-8
        )

    @pytest.mark.parametrize("ctx", ctx_grid(24), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_a_unitary_conjugation_invariance(self, ctx):
        rng = np.random.default_rng(8)
        t = verify.random_member(ctx, rng, unit_norm=True)
        u = verify.random_a_unitary(ctx, rng)
        conj = a_adjoint(ctx, u) @ t @ u
        assert generalized_radius(ctx, A_NORM, conj) == pytest.approx(
            generalized_radius(ctx, A_NORM, t), abs=1e-6
        )

    @pytest.mark.parametrize("ctx", ctx_grid(25), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_projection_invariance(self, ctx):
        t = verify.random_member(ctx, seed=9, unit_norm=True)
        w = generalized_radius(ctx, A_NORM, t)
        assert w == pytest.approx(
            generalized_radius(ctx, A_NORM, ctx.proj @ t), abs=1e-8
        )
        assert w == pytest.approx(
            generalized_radius(ctx, A_NORM, t @ ctx.proj), abs=1e-8
        )

    @pytest.mark.parametrize("ctx", ctx_grid(26), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_re_and_im_forms_agree(self, ctx):
        t = verify.random_member(ctx, seed=10, unit_norm=True)
        assert generalized_radius(ctx, A_NORM, t) == pytest.approx(
            generalized_radius(ctx, A_NORM, -1j * t), abs=1e-6
        )

    def test_im_form_on_selfadjoint_with_identity(self):
        # both angle sweeps of a Hermitian operator give the plain norm
        ctx = build_context(np.eye(3))
        t = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 1.0], [0.0, 1.0, 0.5]])
        n = a_operator_norm(ctx, t)
        assert generalized_radius(ctx, A_NORM, t) == pytest.approx(n, abs=1e-9)
        assert generalized_radius(ctx, A_NORM, -1j * t) == pytest.approx(n, abs=1e-9)


class TestQuarterTurn:
    """N(Im_A(e^{i theta} T)) is the A-real profile at theta + pi/2, the
    identity the catalog's Re/Im sweeps read it by; the Im side is taken
    from ``im_a`` of e^{i theta} T, not from the profile."""

    @pytest.mark.parametrize("n,rank", [(n, r) for n in range(2, 7) for r in range(1, n + 1)])
    def test_im_profile_is_re_profile_a_quarter_turn_on(self, n, rank):
        ctx = make_ctx(n, rank, seed=1700 + 10 * n + rank)
        t = verify.random_member(ctx, seed=1750 + 10 * n + rank, unit_norm=True)
        adj = a_adjoint(ctx, t)
        thetas = np.linspace(0.0, math.pi, 16, endpoint=False) + 0.1
        bound = 8 * n * np.finfo(float).eps * a_operator_norm(ctx, t)
        for desc in (A_NORM, big_omega_seminorm(), a_alpha_seminorm(0.5)):
            evaluate = functools.partial(desc.evaluate, ctx)
            shifted = radius._profile(evaluate, (t + adj) / 2.0, (t - adj) / 2.0j,
                                      thetas + math.pi / 2.0)
            im = desc.evaluate(ctx, np.stack([im_a(ctx, np.exp(1j * th) * t) for th in thetas]))
            assert np.abs(shifted - im).max() <= bound


class TestRadiusIsSeminorm:
    @pytest.mark.parametrize("ctx", ctx_grid(27), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_axioms_on_random_pairs(self, ctx):
        rng = np.random.default_rng(11)
        t = verify.random_member(ctx, rng, unit_norm=True)
        s = verify.random_member(ctx, rng, unit_norm=True)
        lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
        wt = generalized_radius(ctx, A_NORM, t)
        ws = generalized_radius(ctx, A_NORM, s)
        assert wt >= 0
        assert generalized_radius(ctx, A_NORM, lam * t) == pytest.approx(
            abs(lam) * wt, abs=1e-7
        )
        assert generalized_radius(ctx, A_NORM, t + s) <= wt + ws + 1e-7


class TestSeminormPlugins:
    def test_omega_seminorm_scaling_law(self):
        for ctx in ctx_grid(28):
            t = verify.random_member(ctx, seed=12, unit_norm=True)
            w_om = generalized_radius(ctx, big_omega_seminorm(), t)
            assert w_om == pytest.approx(
                math.sqrt(2) * omega_a(ctx, t), rel=1e-7
            )

    def test_alpha_radius_collapse_spot(self):
        ctx = make_ctx(3, 2, seed=13)
        t = verify.random_member(ctx, seed=14, unit_norm=True)
        w_ref = omega_a(ctx, t)
        for alpha in (0.0, 0.5, 1.0):
            w_alpha = generalized_radius(ctx, a_alpha_seminorm(alpha), t)
            assert w_alpha == pytest.approx(w_ref, rel=1e-6)
