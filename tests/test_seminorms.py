import math

import numpy as np
import pytest

from shnr import (
    AlphaOutOfRangeError,
    a_adjoint,
    a_alpha_seminorm,
    a_inner,
    a_norm_seminorm,
    a_norm_vec,
    a_operator_norm,
    big_omega_pair_form,
    big_omega_seminorm,
    build_context,
    compress,
    gamma_a,
    omega_a,
    probe_properties,
    re_a,
    seminorm_by_name,
    uncompress,
    verify,
)
from shnr.seminorms import (
    OMEGA_PSI_GRID,
    OMEGA_REFINE_STARTS,
    OMEGA_T_GRID,
    _alpha_ascent,
    _omega_solve,
)
from conftest import ctx_grid, make_ctx

from oracles import dense_grid_omega, sampling_alpha_norm, sampling_omega_pairs

REMARK_T = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 2]], dtype=complex)
SQRT2 = math.sqrt(2.0)


def _omega_cases():
    """40 seeded (ctx, T): n = 2..5, the distinct ranks of the full / n-1 /
    half profiles, and T a plain member, an A-normal operator, the cube of
    a member or the commutator mix T + 3(TU - UT)."""
    cases = []
    for n in (2, 3, 4, 5):
        for rank in sorted({n, max(1, n - 1), (n + 1) // 2}):
            ctx = make_ctx(n, rank, seed=300 + 10 * n + rank)
            rng = np.random.default_rng(400 + 10 * n + rank)
            t = verify.random_member(ctx, rng, unit_norm=True)
            u = verify.random_member(ctx, rng, unit_norm=True)
            for kind, op in (
                ("member", t),
                ("normal", verify.random_a_normal(ctx, rng, unit_norm=True)),
                ("cube", np.linalg.matrix_power(t, 3)),
                ("mix", t + 3.0 * (t @ u - u @ t)),
            ):
                cases.append((f"{kind}-n{n}r{rank}", ctx, op))
    return cases


OMEGA_CASES = _omega_cases()


def _hermitian_stack(n, rank):
    """A context and a stack of its A-selfadjoint operators: three seeded
    ones and, for rank >= 2, one whose compression is diag(1, -1, 0.3)
    (truncated to the rank) in the range eigenbasis of A, so the largest
    |eigenvalue| is a pair +-1."""
    ctx = make_ctx(n, rank, seed=1000 + 10 * n + rank)
    rng = np.random.default_rng(1100 + 10 * n + rank)
    ops = [verify.random_a_selfadjoint(ctx, rng, unit_norm=True) for _ in range(3)]
    if ctx.rank >= 2:
        vk = ctx.eigenvectors[:, ctx.dim - ctx.rank:][:, :3]
        d = np.array([1.0, -1.0, 0.3])[: vk.shape[1]]
        ops.append(uncompress(ctx, (vk * d) @ vk.conj().T))
    return ctx, np.stack(ops)


HERMITIAN_CASES = [
    (n, rank) for n in range(2, 17) for rank in sorted({n, max(1, n - 1), (n + 1) // 2})
]


class TestRegistry:
    def test_lookup(self):
        assert seminorm_by_name("a_norm").id == "a_norm"
        assert seminorm_by_name("big_omega").id == "big_omega"
        assert seminorm_by_name("a_alpha", alpha=0.25).alpha == 0.25

    def test_alpha_required(self):
        with pytest.raises(AlphaOutOfRangeError):
            seminorm_by_name("a_alpha")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            seminorm_by_name("schatten")

    def test_flags(self):
        n = a_norm_seminorm()
        assert n.flags == {
            "submultiplicative",
            "selfadjoint_invariant",
            "a_increasing",
            "power_property",
        }
        assert big_omega_seminorm().flags == {"selfadjoint_invariant"}
        assert a_alpha_seminorm(0.5).flags == frozenset()


class TestANormSeminorm:
    def test_spectral_norm_with_identity(self):
        ctx = build_context(np.eye(2))
        n = a_norm_seminorm()
        assert n.evaluate(ctx, np.array([[0, 2], [0, 0]])) == 2.0

    def test_adjoint_invariance(self):
        n = a_norm_seminorm()
        for ctx in ctx_grid(31):
            t = verify.random_member(ctx, seed=1, unit_norm=True)
            assert n.evaluate(ctx, a_adjoint(ctx, t)) == pytest.approx(
                n.evaluate(ctx, t), abs=1e-8
            )

    @pytest.mark.parametrize("dim,rank", [(2, 2), (3, 2), (4, 4)])
    def test_prober_confirms_all_flags(self, dim, rank):
        ctx = make_ctx(dim, rank, seed=2)
        n = a_norm_seminorm()
        report = probe_properties(ctx, n, trials=500, seed=0)
        assert report.consistent_with(n, tol=1e-8)
        assert report.violations["submultiplicative"] <= 1e-8
        assert report.violations["triangle"] <= 1e-8
        assert report.violations["homogeneity"] <= 1e-8


class TestAlphaSeminorm:
    def test_alpha_bounds(self):
        with pytest.raises(AlphaOutOfRangeError):
            a_alpha_seminorm(-0.1)
        with pytest.raises(AlphaOutOfRangeError):
            a_alpha_seminorm(1.1)

    def test_endpoints_degenerate(self):
        for ctx in ctx_grid(32)[:4]:
            t = verify.random_member(ctx, seed=3, unit_norm=True)
            assert a_alpha_seminorm(0.0).evaluate(ctx, t) == pytest.approx(
                a_operator_norm(ctx, t), rel=1e-9
            )
            assert a_alpha_seminorm(1.0).evaluate(ctx, t) == pytest.approx(
                omega_a(ctx, t), rel=1e-8
            )

    def test_nilpotent_half_alpha(self):
        ctx = build_context(np.eye(2))
        t = np.array([[0.0, 1.0], [0.0, 0.0]])
        # exact value sqrt(max_s s (1 - alpha s)) = sqrt(1/2) at alpha = 1/2
        assert a_alpha_seminorm(0.5).evaluate(ctx, t) == pytest.approx(
            math.sqrt(0.5), abs=1e-10
        )

    def test_hermitian_part_identity(self):
        # the alpha norm of an A-real part collapses to the A-norm
        for ctx in ctx_grid(33)[:5]:
            t = verify.random_member(ctx, seed=4, unit_norm=True)
            h = re_a(ctx, t)
            for alpha in (0.25, 0.5, 0.75):
                assert a_alpha_seminorm(alpha).evaluate(ctx, h) == pytest.approx(
                    a_operator_norm(ctx, h), rel=1e-8
                )

    @pytest.mark.parametrize("n,rank", [(2, 2), (3, 2), (3, 3)])
    def test_dense_sphere_sampling_oracle(self, n, rank):
        ctx = make_ctx(n, rank, seed=5)
        t = verify.random_member(ctx, seed=6, unit_norm=True)
        rng = np.random.default_rng(7)
        for alpha in (0.3, 0.7):
            val = a_alpha_seminorm(alpha).evaluate(ctx, t)
            sampled = sampling_alpha_norm(ctx, t, alpha, 200_000, rng)
            assert sampled <= val + 1e-9          # sup dominates every sample
            assert sampled >= val - 0.03 * val    # and is nearly attained

    def test_axioms(self):
        ctx = make_ctx(3, 2, seed=8)
        n = a_alpha_seminorm(0.5)
        report = probe_properties(ctx, n, trials=60, seed=1)
        assert report.violations["nonnegativity"] <= 1e-12
        assert report.violations["homogeneity"] <= 1e-8
        assert report.violations["triangle"] <= 1e-8


class TestBigOmega:
    def test_pinned_remark_value(self):
        ctx = build_context(np.eye(3))
        assert big_omega_seminorm().evaluate(ctx, REMARK_T) == pytest.approx(
            2 * SQRT2, abs=1e-8
        )

    def test_nilpotent_is_one(self):
        ctx = build_context(np.eye(2))
        t = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert big_omega_seminorm().evaluate(ctx, t) == pytest.approx(1.0, abs=1e-9)

    def test_selfadjoint_scaling(self):
        om = big_omega_seminorm()
        for ctx in ctx_grid(34):
            t = verify.random_a_selfadjoint(ctx, seed=9, unit_norm=True)
            assert om.evaluate(ctx, t) == pytest.approx(
                SQRT2 * a_operator_norm(ctx, t), rel=1e-8
            )

    def test_adjoint_invariance(self):
        om = big_omega_seminorm()
        for ctx in ctx_grid(35)[:5]:
            t = verify.random_member(ctx, seed=10, unit_norm=True)
            assert om.evaluate(ctx, a_adjoint(ctx, t)) == pytest.approx(
                om.evaluate(ctx, t), rel=1e-7
            )

    @pytest.mark.parametrize("ctx", ctx_grid(36), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_chain_with_gamma(self, ctx):
        t = verify.random_member(ctx, seed=11, unit_norm=True)
        na = a_operator_norm(ctx, t)
        om = big_omega_seminorm().evaluate(ctx, t)
        gam = gamma_a(ctx, t)
        assert na <= om + 1e-7
        assert om <= gam + 1e-7
        assert gam <= SQRT2 * na + 1e-7

    def test_pair_form_agreement(self):
        om = big_omega_seminorm()
        rng = np.random.default_rng(12)
        for n in (2, 3, 4):
            for k in range(10):
                ctx = make_ctx(n, max(1, n - k % 2), seed=200 + 10 * n + k)
                t = verify.random_member(ctx, rng, unit_norm=True)
                assert om.evaluate(ctx, t) == pytest.approx(
                    big_omega_pair_form(ctx, t), abs=1e-4
                )

    @pytest.mark.parametrize("name,ctx,t", OMEGA_CASES, ids=[c[0] for c in OMEGA_CASES])
    def test_default_bracket_dominates_dense_grid_oracle(self, name, ctx, t):
        oracle = dense_grid_omega(compress(ctx, t))
        assert big_omega_seminorm().evaluate(ctx, t) >= oracle * (1.0 - 1e-12)

    @pytest.mark.parametrize("name,ctx,t", OMEGA_CASES, ids=[c[0] for c in OMEGA_CASES])
    def test_default_bracket_matches_dense_bracket(self, name, ctx, t):
        # the same bracket and refinement on the dense 180 x 360 grid
        dense = _omega_solve(compress(ctx, t)[None], 180, 360, OMEGA_REFINE_STARTS)[0]
        assert big_omega_seminorm().evaluate(ctx, t) == pytest.approx(dense, rel=1e-7)

    def test_pair_form_zero_and_hermitian(self):
        ctx = build_context(np.eye(3))
        assert big_omega_pair_form(ctx, np.zeros((3, 3))) == 0.0
        h = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 0.5], [0.0, 0.5, 3.0]])
        assert big_omega_pair_form(ctx, h) == pytest.approx(
            SQRT2 * a_operator_norm(ctx, h), rel=1e-9
        )

    def test_sampling_pairs_oracle(self):
        ctx = make_ctx(2, 2, seed=13)
        t = verify.random_member(ctx, seed=14, unit_norm=True)
        val = big_omega_seminorm().evaluate(ctx, t)
        sampled = sampling_omega_pairs(ctx, t, 200_000, np.random.default_rng(15))
        assert sampled <= val + 1e-9
        assert sampled >= 0.95 * val

    def test_prober_selfadjoint_invariance(self):
        ctx = make_ctx(3, 2, seed=16)
        om = big_omega_seminorm()
        report = probe_properties(ctx, om, trials=40, seed=2)
        assert report.consistent_with(om, tol=1e-7)
        assert report.violations["triangle"] <= 1e-8


class TestHermitianClosedForm:
    """The closed forms on Hermitian compressions (one eigvalsh per stack)
    against oracles that do not use them: the general solvers called
    directly, the pair form and dense sphere sampling."""

    @pytest.mark.parametrize("n,rank", HERMITIAN_CASES)
    def test_omega_matches_general_solver(self, n, rank):
        ctx, stack = _hermitian_stack(n, rank)
        want = _omega_solve(
            compress(ctx, stack), OMEGA_T_GRID, OMEGA_PSI_GRID, OMEGA_REFINE_STARTS
        )
        got = big_omega_seminorm().evaluate(ctx, stack)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n,rank", HERMITIAN_CASES)
    def test_alpha_matches_general_ascent(self, n, rank):
        ctx, stack = _hermitian_stack(n, rank)
        tts = compress(ctx, stack)
        scale = np.linalg.norm(tts, axis=(-2, -1))
        for alpha in (0.0, 0.5, 1.0):
            want = _alpha_ascent(tts, scale, alpha)
            got = a_alpha_seminorm(alpha).evaluate(ctx, stack)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n,rank", HERMITIAN_CASES)
    def test_omega_matches_pair_form(self, n, rank):
        ctx, stack = _hermitian_stack(n, rank)
        om = big_omega_seminorm()
        for t in (stack[0], stack[-1]):
            assert om.evaluate(ctx, t) == pytest.approx(
                big_omega_pair_form(ctx, t), rel=1e-12
            )

    @pytest.mark.parametrize("n,rank", HERMITIAN_CASES)
    def test_alpha_dominates_sphere_samples(self, n, rank):
        # the supremum dominates every sample, and at n <= 3 the samples
        # come close to it
        ctx, stack = _hermitian_stack(n, rank)
        rng = np.random.default_rng(1200 + 10 * n + rank)
        for alpha in (0.0, 0.5, 1.0):
            got = a_alpha_seminorm(alpha).evaluate(ctx, stack)
            for t, val in zip(stack, got):
                sampled = sampling_alpha_norm(ctx, t, alpha, 20_000, rng)
                assert sampled <= val * (1.0 + 1e-12)
                if n <= 3:
                    assert sampled >= val * (1.0 - 0.03)

    def test_top_eigenvalue_pair(self):
        ctx = build_context(np.eye(3))
        t = np.diag([1.0, -1.0, 0.3])
        assert big_omega_seminorm().evaluate(ctx, t) == pytest.approx(SQRT2, rel=1e-15)
        for alpha in (0.0, 0.5, 1.0):
            assert a_alpha_seminorm(alpha).evaluate(ctx, t) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("rtol", [1e-10, 0.45])
    @pytest.mark.parametrize("e", [1e-8, 0.2])
    def test_near_hermitian_compression_takes_general_solver(self, rtol, e):
        # herm(T~) = diag(1, -1) would give 1, while |T~|_A is 1 + e.  The
        # skew part is 2e relative to |T~|_F: under a loose threshold such
        # as 1e-7, and for e = 0.2 even under the context's loose rtol of
        # 0.45, which must not decide the Hermitian test
        ctx = build_context(np.eye(2), rtol=rtol)
        t = np.array([[1.0, e], [-e, -1.0]])
        assert a_operator_norm(ctx, t) == pytest.approx(1.0 + e, abs=1e-15)
        assert a_alpha_seminorm(0.0).evaluate(ctx, t) == pytest.approx(
            a_operator_norm(ctx, t), abs=1e-12
        )
        assert big_omega_seminorm().evaluate(ctx, t) == pytest.approx(
            big_omega_pair_form(ctx, t), abs=1e-12
        )


class TestGamma:
    def test_remark_value(self):
        ctx = build_context(np.eye(3))
        assert gamma_a(ctx, REMARK_T) == pytest.approx(2 * SQRT2, abs=1e-9)
        # both branches coincide on this instance
        adj = a_adjoint(ctx, REMARK_T)
        b1 = math.sqrt(a_operator_norm(ctx, adj @ REMARK_T + REMARK_T @ adj))
        b2 = math.sqrt(
            a_operator_norm(ctx, REMARK_T) ** 2 + omega_a(ctx, REMARK_T @ REMARK_T)
        )
        assert b1 == pytest.approx(2 * SQRT2, abs=1e-9)
        assert b2 == pytest.approx(2 * SQRT2, abs=1e-9)

    def test_hermitian_unitary_gives_sqrt2(self):
        ctx = build_context(np.eye(2))
        t = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert gamma_a(ctx, t) == pytest.approx(SQRT2, abs=1e-10)


class TestVectorLemma:
    @pytest.mark.parametrize("ctx", ctx_grid(37), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_two_vector_bound(self, ctx):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
            b = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
            c = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
            lhs = abs(a_inner(ctx, a, c)) ** 2 + abs(a_inner(ctx, b, c)) ** 2
            rhs = a_norm_vec(ctx, c) ** 2 * (
                max(a_norm_vec(ctx, a) ** 2, a_norm_vec(ctx, b) ** 2)
                + abs(a_inner(ctx, a, b))
            )
            assert lhs <= rhs + 1e-10


class TestProber:
    def test_deterministic(self):
        ctx = make_ctx(3, 3, seed=18)
        n = a_norm_seminorm()
        r1 = probe_properties(ctx, n, trials=20, seed=5)
        r2 = probe_properties(ctx, n, trials=20, seed=5)
        assert r1.violations == r2.violations

    def test_trials_validation(self):
        ctx = make_ctx(2, 2, seed=19)
        # a float or a bool is not a trial count, even where it compares >= 1
        for trials in (0, 2.5, True):
            with pytest.raises(ValueError, match="trials"):
                probe_properties(ctx, a_norm_seminorm(), trials=trials)
