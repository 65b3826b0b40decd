import math

import numpy as np
import pytest

from shnr import (
    SeminormDescriptor,
    ThetaOptConfig,
    a_adjoint,
    a_norm_seminorm,
    a_alpha_seminorm,
    a_operator_norm,
    big_omega_seminorm,
    build_context,
    compress,
    generalized_radius,
    generalized_radius_im_form,
    omega_a,
    omega_a_fast,
    spectral_norm,
    verify,
)
from shnr.linalg import herm
from shnr.radius import sup_on_circle
from conftest import ctx_grid, make_ctx

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
        cfg = ThetaOptConfig()
        assert cfg.grid_points == 720
        assert cfg.refine_tol == 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            ThetaOptConfig(grid_points=4)
        with pytest.raises(ValueError):
            ThetaOptConfig(refine_tol=0.0)


class TestEngines:
    def test_zero_short_circuits(self):
        ctx = make_ctx(3, 2, seed=0)
        z = np.zeros((3, 3))
        assert generalized_radius(ctx, A_NORM, z) == 0.0
        assert generalized_radius_im_form(ctx, A_NORM, z) == 0.0
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
        dense = generalized_radius(
            ctx, A_NORM, t, ThetaOptConfig(grid_points=4096)
        )
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
        cfg = ThetaOptConfig(grid_points=64)
        calls = []

        def f(thetas):
            calls.append(np.array(thetas))
            return np.cos(2.0 * (thetas - 1.0))

        theta, val = sup_on_circle(f, math.pi, cfg)
        np.testing.assert_array_equal(
            calls[0], np.linspace(0.0, math.pi, 64, endpoint=False)
        )
        # the rest are golden-section steps, one angle each
        assert all(c.shape == (1,) for c in calls[1:])
        assert 2 <= len(calls) - 1 <= cfg.max_refine_iters + 2
        assert theta == pytest.approx(1.0, abs=1e-6)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_coarse_grid_still_brackets(self):
        ctx = make_ctx(3, 2, seed=4)
        t = verify.random_member(ctx, seed=5, unit_norm=True)
        coarse = generalized_radius(ctx, A_NORM, t, ThetaOptConfig(grid_points=32))
        fine = generalized_radius(ctx, A_NORM, t)
        assert coarse == pytest.approx(fine, rel=1e-7)


class TestInvariances:
    @pytest.mark.parametrize("ctx", ctx_grid(22), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_phase_invariance(self, ctx):
        rng = np.random.default_rng(6)
        t = verify.random_member(ctx, rng=rng, unit_norm=True)
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
        t = verify.random_member(ctx, rng=rng, unit_norm=True)
        u = verify.random_a_unitary(ctx, rng=rng)
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
            generalized_radius_im_form(ctx, A_NORM, t), abs=1e-6
        )

    def test_im_form_on_selfadjoint_with_identity(self):
        # both angle sweeps of a Hermitian operator give the plain norm
        ctx = build_context(np.eye(3))
        t = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 1.0], [0.0, 1.0, 0.5]])
        n = a_operator_norm(ctx, t)
        assert generalized_radius(ctx, A_NORM, t) == pytest.approx(n, abs=1e-9)
        assert generalized_radius_im_form(ctx, A_NORM, t) == pytest.approx(n, abs=1e-9)


class TestRadiusIsSeminorm:
    @pytest.mark.parametrize("ctx", ctx_grid(27), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_axioms_on_random_pairs(self, ctx):
        rng = np.random.default_rng(11)
        t = verify.random_member(ctx, rng=rng, unit_norm=True)
        s = verify.random_member(ctx, rng=rng, unit_norm=True)
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
