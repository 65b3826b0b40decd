import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import shnr
from shnr import (
    DimensionMismatchError,
    NotHermitianError,
    NotMemberError,
    NotPositiveError,
    ZeroOperatorError,
    a_adjoint,
    a_alpha_seminorm,
    a_inner,
    a_norm_vec,
    a_operator_norm,
    big_omega_seminorm,
    build_context,
    compress,
    gamma_a,
    im_a,
    is_a_normal,
    is_a_positive,
    is_a_selfadjoint,
    is_a_unitary,
    is_member,
    membership_residual,
    omega_a,
    pseudo_inverse,
    psd_sqrt,
    re_a,
    spectral_norm,
    uncompress,
    verify,
)
from conftest import ctx_grid, make_ctx

from oracles import eigenvalue_sweep, psd_parts, semihilbert_formulas, vector_ascent_omega

REMARK_T = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 2]], dtype=complex)


class TestBuildContext:
    def test_identity(self):
        ctx = build_context(np.eye(2))
        assert ctx.rank == 2
        np.testing.assert_allclose(ctx.proj, np.eye(2))
        np.testing.assert_allclose(compress(ctx, np.eye(2)), np.eye(2))

    def test_rank_deficient_diag(self):
        ctx = build_context(np.diag([1.0, 0.0]))
        assert ctx.rank == 1
        np.testing.assert_allclose(ctx.proj, np.diag([1.0, 0.0]), atol=1e-14)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveError):
            build_context(np.diag([-1.0, 1.0]))

    @pytest.mark.parametrize("exp", range(-150, 151, 25))
    def test_rejects_tiny_indefinite_at_every_scale(self, exp):
        # the negative eigenvalue is 50 times lam_max in magnitude
        with pytest.raises(NotPositiveError):
            build_context(10.0**exp * np.diag([1e-12, -5e-11]))

    @pytest.mark.parametrize("exp", range(-150, 151, 25))
    def test_accepts_scaled_rank_deficient_psd(self, exp):
        ctx = build_context(10.0**exp * verify.random_psd(5, 3, seed=7))
        assert ctx.rank == 3

    def test_rejects_zero(self):
        with pytest.raises(ZeroOperatorError):
            build_context(np.zeros((3, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            build_context(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("ctx", ctx_grid(), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_derived_matrix_invariants(self, ctx):
        # A^{1/2} A (A^{1/2})^+ = A = (A^{1/2})^+ A A^{1/2}, and the
        # compression and A-adjoint of I are both A^+ A = P
        tol = 10 * ctx.rtol * ctx.scale
        eye = np.eye(ctx.dim)
        half = psd_sqrt(ctx.a, ctx.rtol)
        assert spectral_norm(half @ half - ctx.a) <= tol
        assert spectral_norm(ctx.proj @ ctx.a - ctx.a) <= tol
        assert spectral_norm(ctx.a @ ctx.proj - ctx.a) <= tol
        assert spectral_norm(ctx.a @ pseudo_inverse(ctx.a, ctx.rtol) - ctx.proj) <= tol
        assert spectral_norm(compress(ctx, ctx.a) - ctx.a) <= tol
        assert spectral_norm(uncompress(ctx, ctx.a) - ctx.a) <= tol
        assert spectral_norm(compress(ctx, eye) - ctx.proj) <= 10 * ctx.rtol
        assert spectral_norm(a_adjoint(ctx, eye) - ctx.proj) <= 10 * ctx.rtol


class TestRangeBlockEquivalence:
    """The primitives, computed on the r x r range block, agree with their
    n x n pseudoinverse definitions (``oracles.semihilbert_formulas``) to a
    few n eps in the norms they scale with, at every rank and over 300
    decades of |A|."""

    @pytest.mark.parametrize("n,rank", [(n, r) for n in range(2, 7) for r in range(1, n + 1)])
    @settings(max_examples=10)
    @given(exp=st.floats(-150.0, 150.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_n_by_n_formulas(self, n, rank, exp, seed):
        rng = np.random.default_rng(seed)
        a = 10.0**exp * verify.random_psd(n, rank, rng)
        ctx = build_context(a)
        assert ctx.rank == rank
        t = verify.random_member(ctx, rng)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ref = semihilbert_formulas(a, t, m, ctx.rtol)
        bound = 8 * n * np.finfo(float).eps
        a_n, t_n, m_n = spectral_norm(a), spectral_norm(t), spectral_norm(m)
        # the scale of T~ = A^{1/2} T (A^{1/2})^+ and of (A^{1/2})^+ M A^{1/2}
        tt_n = spectral_norm(ref["half"]) * t_n * spectral_norm(ref["half_pinv"])
        mm_n = spectral_norm(ref["half_pinv"]) * m_n * spectral_norm(ref["half"])
        assert spectral_norm(compress(ctx, t) - ref["compress"]) <= bound * tt_n
        assert spectral_norm(a_adjoint(ctx, t) - ref["adjoint"]) <= (
            bound * spectral_norm(ref["a_pinv"]) * t_n * a_n
        )
        assert spectral_norm(uncompress(ctx, m) - ref["uncompress"]) <= bound * mm_n
        assert abs(membership_residual(ctx, t) - ref["residual"]) <= bound * a_n * t_n
        assert abs(a_operator_norm(ctx, t) - ref["a_norm"]) <= bound * tt_n
        assert abs(omega_a(ctx, t) - eigenvalue_sweep(ref["compress"], 720)) <= bound * tt_n
        # gamma_A by its definition on T~, and the closed forms of Omega_A
        # and the alpha seminorm on the A-real part, whose compression is herm(T~)
        tt = ref["compress"]
        tth = tt.conj().T
        want = min(
            np.sqrt(spectral_norm(tt @ tth + tth @ tt)),
            np.sqrt(spectral_norm(tt) ** 2 + eigenvalue_sweep(tt @ tt, 720)),
        )
        assert abs(gamma_a(ctx, t) - want) <= bound * tt_n
        s = re_a(ctx, t)
        h_n = spectral_norm((tt + tth) / 2.0)
        assert abs(big_omega_seminorm().evaluate(ctx, s) - np.sqrt(2.0) * h_n) <= bound * tt_n
        assert abs(a_alpha_seminorm(0.5).evaluate(ctx, s) - h_n) <= bound * tt_n


class TestAInner:
    def test_reduces_to_euclidean(self, identity_ctx2):
        x = np.array([1.0, 2.0j])
        y = np.array([3.0, -1.0])
        assert a_inner(identity_ctx2, x, y) == pytest.approx(
            np.vdot(y, x), abs=1e-14
        )

    def test_kernel_direction_vanishes(self, degenerate_ctx):
        x = np.array([0.0, 1.0])
        assert a_inner(degenerate_ctx, x, x) == pytest.approx(0.0, abs=1e-15)
        assert a_norm_vec(degenerate_ctx, x) == 0.0

    def test_dimension_mismatch(self, identity_ctx2):
        with pytest.raises(DimensionMismatchError):
            a_inner(identity_ctx2, np.ones(3), np.ones(2))

    @pytest.mark.parametrize("x", [np.eye(2), np.ones((4, 1)), np.ones((1, 4)), 1.0])
    def test_only_1d_vectors(self, x):
        # a matrix is not read as its flattened entries: eye(2) has 4 of them
        ctx = shnr.build_context(np.eye(4))
        for args in ((x, np.ones(4)), (np.ones(4), x)):
            with pytest.raises(DimensionMismatchError, match="1-dimensional"):
                a_inner(ctx, *args)
        with pytest.raises(DimensionMismatchError, match="1-dimensional"):
            a_norm_vec(ctx, x)

    @given(
        arrays(np.float64, (4, 3), elements=st.floats(-3, 3)),
        arrays(np.float64, (4, 3), elements=st.floats(-3, 3)),
    )
    def test_conjugate_symmetry(self, re, im):
        ctx = make_ctx(3, 2, seed=1)
        x = re[0] + 1j * im[0]
        y = re[1] + 1j * im[1]
        lhs = a_inner(ctx, x, y)
        rhs = np.conj(a_inner(ctx, y, x))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


class TestMembership:
    def test_invertible_a_accepts_everything(self, identity_ctx2):
        assert is_member(identity_ctx2, np.array([[0, 1], [0, 0]]))

    def test_degenerate_rejects_kernel_breaker(self, degenerate_ctx):
        t = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not is_member(degenerate_ctx, t)
        assert membership_residual(degenerate_ctx, t) == pytest.approx(1.0)

    def test_degenerate_accepts_kernel_preserver(self, degenerate_ctx):
        assert is_member(degenerate_ctx, np.array([[2.0, 0.0], [3.0, 7.0]]))

    def test_generator_sweep(self):
        ctx = make_ctx(4, 2, seed=3)
        rng = np.random.default_rng(17)
        for _ in range(1000):
            assert is_member(ctx, verify.random_member(ctx, rng))


class TestAAdjoint:
    def test_identity_gives_conjugate_transpose(self, identity_ctx3):
        t = np.arange(9, dtype=complex).reshape(3, 3) + 1j
        np.testing.assert_allclose(a_adjoint(identity_ctx3, t), t.conj().T)

    def test_degenerate_example(self, degenerate_ctx):
        t = np.array([[2.0, 0.0], [3.0, 7.0]])
        adj = a_adjoint(degenerate_ctx, t)
        np.testing.assert_allclose(adj, np.array([[2.0, 0.0], [0.0, 0.0]]), atol=1e-12)
        # defining equation A T# = T* A
        np.testing.assert_allclose(
            degenerate_ctx.a @ adj, t.conj().T @ degenerate_ctx.a, atol=1e-12
        )

    def test_rejects_non_member(self, degenerate_ctx):
        with pytest.raises(NotMemberError):
            a_adjoint(degenerate_ctx, np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("ctx", ctx_grid(1), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_double_adjoint_is_two_sided_compression(self, ctx):
        t = verify.random_member(ctx, seed=5)
        dbl = a_adjoint(ctx, a_adjoint(ctx, t))
        np.testing.assert_allclose(dbl, ctx.proj @ t @ ctx.proj, atol=1e-10)

    @pytest.mark.parametrize("ctx", ctx_grid(2), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_defining_equation_and_range(self, ctx):
        t = verify.random_member(ctx, seed=6)
        adj = a_adjoint(ctx, t)
        assert spectral_norm(ctx.a @ adj - t.conj().T @ ctx.a) <= 1e-10
        assert spectral_norm(ctx.proj @ adj - adj) <= 1e-10
        assert spectral_norm(adj @ ctx.proj - adj) <= 1e-10


class TestReIm:
    def test_hermitian_with_identity(self, identity_ctx2):
        t = np.array([[1.0, 2.0], [2.0, -1.0]])
        np.testing.assert_allclose(re_a(identity_ctx2, t), t)
        np.testing.assert_allclose(im_a(identity_ctx2, t), np.zeros((2, 2)), atol=1e-15)

    def test_nilpotent_formulas(self, identity_ctx2):
        t = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(
            re_a(identity_ctx2, t), np.array([[0.0, 0.5], [0.5, 0.0]])
        )
        np.testing.assert_allclose(
            im_a(identity_ctx2, t), np.array([[0.0, -0.5j], [0.5j, 0.0]])
        )

    @pytest.mark.parametrize("ctx", ctx_grid(3), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_parts_are_a_selfadjoint_and_recombine(self, ctx):
        t = verify.random_member(ctx, seed=8)
        r0 = re_a(ctx, t)
        i0 = im_a(ctx, t)
        ar = ctx.a @ r0
        assert spectral_norm(ar - ar.conj().T) <= 1e-10
        assert is_a_selfadjoint(ctx, r0)
        assert is_a_selfadjoint(ctx, i0)
        # recombination is only visible to A: A (Re + i Im) = A T
        assert spectral_norm(ctx.a @ (r0 + 1j * i0) - ctx.a @ t) <= 1e-10


class TestValidateOnce:
    """Each public call checks membership once (two SVDs), not once per layer."""

    @pytest.mark.parametrize(
        "fn",
        [a_adjoint, re_a, im_a, is_a_normal, a_operator_norm, omega_a, gamma_a,
         pytest.param(big_omega_seminorm().evaluate, id="big_omega"),
         pytest.param(a_alpha_seminorm(0.5).evaluate, id="a_alpha[0.5]")],
        ids=lambda f: f.__name__,
    )
    def test_one_membership_check_per_call(self, fn, monkeypatch):
        calls = []
        original = shnr.semihilbert._member_verdict

        def counting(ctx, t):
            calls.append(np.shape(t))
            return original(ctx, t)

        monkeypatch.setattr(shnr.semihilbert, "_member_verdict", counting)
        ctx = make_ctx(3, 2, seed=40)
        fn(ctx, verify.random_member(ctx, seed=41))
        assert len(calls) == 1


class TestStacks:
    @pytest.mark.parametrize("ctx", ctx_grid(4), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_stack_matches_matrix_by_matrix(self, ctx):
        rng = np.random.default_rng(42)
        stack = np.stack([verify.random_member(ctx, rng) for _ in range(5)])
        np.testing.assert_array_equal(compress(ctx, stack),
                                      [compress(ctx, m) for m in stack])
        np.testing.assert_allclose(a_operator_norm(ctx, stack),
                                   [a_operator_norm(ctx, m) for m in stack], rtol=1e-14)
        np.testing.assert_allclose(membership_residual(ctx, stack),
                                   [membership_residual(ctx, m) for m in stack],
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("ctx", ctx_grid(5), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_residuals_and_verdicts_are_bit_identical(self, ctx):
        # the residual is the definition |(I - P) T* A| to roundoff, with P
        # from the test's own eigh of A; the verdicts on members and
        # non-members are exactly those of that definition under the
        # tolerance rtol |A| (1 + |T|); a stack gives bit for bit what its
        # matrices give one at a time
        rng = np.random.default_rng(43)
        n = ctx.dim
        a = ctx.a
        members = [verify.random_member(ctx, rng) for _ in range(4)]
        others = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                  for _ in range(4)]
        stack = np.stack(members + others)
        proj = psd_parts(a, ctx.rtol)[3]
        want = spectral_norm((np.eye(n) - proj) @ stack.conj().swapaxes(-1, -2) @ a)
        norms = spectral_norm(stack)
        got = membership_residual(ctx, stack)
        bound = 4 * n * np.finfo(float).eps * spectral_norm(a) * norms
        assert np.all(np.abs(got - want) <= bound)
        res, bad = shnr.semihilbert._member_verdict(ctx, stack)
        np.testing.assert_array_equal(res, got)
        tol = ctx.rtol * spectral_norm(a) * (1.0 + norms)
        np.testing.assert_array_equal(bad, want > tol)
        for m, r, outside in zip(stack, got, bad):
            assert membership_residual(ctx, m) == r
            assert is_member(ctx, m) == (not outside)

    def test_stack_dimension_checked(self, identity_ctx2):
        with pytest.raises(DimensionMismatchError):
            compress(identity_ctx2, np.zeros((4, 3, 3)))
        with pytest.raises(DimensionMismatchError):
            compress(identity_ctx2, np.full((2, 2, 2), np.nan))


class TestCompress:
    def test_identity_is_noop(self, identity_ctx3):
        t = np.arange(9, dtype=complex).reshape(3, 3)
        np.testing.assert_allclose(compress(identity_ctx3, t), t)

    def test_degenerate_example(self, degenerate_ctx):
        t = np.array([[2.0, 0.0], [3.0, 7.0]])
        np.testing.assert_allclose(
            compress(degenerate_ctx, t), np.array([[2.0, 0.0], [0.0, 0.0]]), atol=1e-12
        )

    @pytest.mark.parametrize("ctx", ctx_grid(4), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_quadratic_form_identity(self, ctx):
        t = verify.random_member(ctx, seed=9)
        tt = compress(ctx, t)
        half = psd_sqrt(ctx.a, ctx.rtol)
        rng = np.random.default_rng(100)
        for _ in range(100):
            x = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
            lhs = a_inner(ctx, t @ x, x)
            y = half @ x
            rhs = np.vdot(y, tt @ y)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    @pytest.mark.parametrize("ctx", ctx_grid(5), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_compress_of_adjoint_is_adjoint_of_compress(self, ctx):
        t = verify.random_member(ctx, seed=10)
        lhs = compress(ctx, a_adjoint(ctx, t))
        np.testing.assert_allclose(lhs, compress(ctx, t).conj().T, atol=1e-10)

    def test_uncompress_round_trip(self):
        ctx = make_ctx(4, 3, seed=11)
        m = np.random.default_rng(0).standard_normal((4, 4)) + 0j
        np.testing.assert_allclose(
            compress(ctx, uncompress(ctx, m)),
            ctx.proj @ m @ ctx.proj,
            atol=1e-10,
        )


class TestAOperatorNorm:
    def test_identity_nilpotent(self, identity_ctx2):
        assert a_operator_norm(identity_ctx2, np.array([[0, 1], [0, 0]])) == 1.0

    def test_kernel_block_invisible(self, degenerate_ctx):
        t = np.array([[2.0, 0.0], [3.0, 7.0]])
        assert a_operator_norm(degenerate_ctx, t) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_non_member(self, degenerate_ctx):
        with pytest.raises(NotMemberError):
            a_operator_norm(degenerate_ctx, np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("ctx", ctx_grid(6), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_adjoint_product_identities(self, ctx):
        t = verify.random_member(ctx, seed=12, unit_norm=True)
        adj = a_adjoint(ctx, t)
        na = a_operator_norm(ctx, t)
        assert a_operator_norm(ctx, adj @ t) == pytest.approx(na**2, rel=1e-8)
        assert a_operator_norm(ctx, t @ adj) == pytest.approx(na**2, rel=1e-8)
        assert a_operator_norm(ctx, adj) == pytest.approx(na, rel=1e-8)

    @pytest.mark.parametrize("ctx", ctx_grid(7), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_submultiplicative_and_vector_bound(self, ctx):
        rng = np.random.default_rng(13)
        t = verify.random_member(ctx, rng)
        s = verify.random_member(ctx, rng)
        assert a_operator_norm(ctx, t @ s) <= (
            a_operator_norm(ctx, t) * a_operator_norm(ctx, s) + 1e-10
        )
        for _ in range(20):
            x = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
            assert a_norm_vec(ctx, t @ x) <= (
                a_operator_norm(ctx, t) * a_norm_vec(ctx, x) + 1e-10
            )


class TestOmegaA:
    def test_nilpotent_half(self, identity_ctx2):
        t = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert omega_a(identity_ctx2, t) == pytest.approx(0.5, abs=1e-9)

    def test_block_example_equals_two(self, identity_ctx3):
        assert omega_a(identity_ctx3, REMARK_T) == pytest.approx(2.0, abs=1e-9)
        assert omega_a(identity_ctx3, REMARK_T) == pytest.approx(
            vector_ascent_omega(identity_ctx3, REMARK_T), abs=1e-6
        )

    @pytest.mark.parametrize("ctx", ctx_grid(8), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_sandwich_and_adjoint_invariance(self, ctx):
        t = verify.random_member(ctx, seed=14, unit_norm=True)
        na = a_operator_norm(ctx, t)
        w = omega_a(ctx, t)
        assert na / 2 - 1e-9 <= w <= na + 1e-9
        assert w == pytest.approx(omega_a(ctx, a_adjoint(ctx, t)), abs=1e-8)

    def test_a_selfadjoint_equality(self):
        ctx = make_ctx(3, 2, seed=15)
        t = verify.random_a_selfadjoint(ctx, seed=16, unit_norm=True)
        assert omega_a(ctx, t) == pytest.approx(
            a_operator_norm(ctx, t), abs=1e-8
        )

    def test_a_normal_equality(self):
        ctx = make_ctx(4, 3, seed=17)
        t = verify.random_a_normal(ctx, seed=18, unit_norm=True)
        assert omega_a(ctx, t) == pytest.approx(
            a_operator_norm(ctx, t), abs=1e-8
        )

    def test_sharp_nilpotent_case(self, identity_ctx2):
        t = np.array([[0.0, 3.0], [0.0, 0.0]])
        assert omega_a(identity_ctx2, t) == pytest.approx(
            a_operator_norm(identity_ctx2, t) / 2, abs=1e-8
        )


class TestPredicates:
    def test_identity_reduces_to_classical(self, identity_ctx2):
        h = np.array([[1.0, 2.0], [2.0, 3.0]])
        u = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert is_a_selfadjoint(identity_ctx2, h)
        assert not is_a_selfadjoint(identity_ctx2, u)
        assert is_a_positive(identity_ctx2, np.diag([1.0, 0.5]))
        assert not is_a_positive(identity_ctx2, np.diag([1.0, -0.5]))
        assert is_a_normal(identity_ctx2, u)
        assert is_a_unitary(identity_ctx2, u)

    def test_commuting_diagonals_are_a_normal(self):
        ctx = shnr.build_context(np.diag([2.0, 1.0, 0.0]))
        t = np.diag([1.0 + 1j, -2.0, 0.5])
        assert is_a_normal(ctx, t)

    def test_remark_matrix_not_normal(self, identity_ctx3):
        assert not is_a_normal(identity_ctx3, REMARK_T)

    @pytest.mark.parametrize("ctx", ctx_grid(9), ids=lambda c: f"n{c.dim}r{c.rank}")
    def test_constructed_classes_pass_their_predicates(self, ctx):
        rng = np.random.default_rng(19)
        assert is_a_selfadjoint(ctx, verify.random_a_selfadjoint(ctx, rng))
        assert is_a_positive(ctx, verify.random_a_positive(ctx, rng))
        assert is_a_normal(ctx, verify.random_a_normal(ctx, rng))
        assert is_a_unitary(ctx, verify.random_a_unitary(ctx, rng))


SCALES = (1e-12, 1.0, 1e12)
CLASS_PREDICATES = {
    "selfadjoint": is_a_selfadjoint,
    "positive": is_a_positive,
    "normal": is_a_normal,
    "unitary": is_a_unitary,
}


class TestScaleFreeVerdicts:
    @pytest.mark.parametrize("c", SCALES)
    @pytest.mark.parametrize("d", SCALES)
    def test_verdicts_invariant_under_scaling(self, c, d):
        # every predicate on every operator gives the verdict for c A and
        # d T that it gives for A and T; d T is not A-unitary, so
        # is_a_unitary sees T itself
        a = verify.random_psd(4, 3, seed=31)
        ctx, ctx_c = build_context(a), build_context(c * a)
        rng = np.random.default_rng(32)
        ops = {
            "selfadjoint": verify.random_a_selfadjoint(ctx, rng, unit_norm=True),
            "positive": verify.random_a_positive(ctx, rng, unit_norm=True),
            "normal": verify.random_a_normal(ctx, rng, unit_norm=True),
            "unitary": verify.random_a_unitary(ctx, rng),
            "generic": verify.random_member(ctx, rng, unit_norm=True),
        }
        for name, t in ops.items():
            verdicts = {k: pred(ctx, t) for k, pred in CLASS_PREDICATES.items()}
            if name == "generic":
                assert not any(verdicts.values())
            else:
                assert verdicts[name]
            for k, pred in CLASS_PREDICATES.items():
                scaled = t if k == "unitary" else d * t
                assert pred(ctx_c, scaled) == verdicts[k], (name, k)
