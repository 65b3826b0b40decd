"""The stacked evaluator contract, the batched angle loop, the stacked
level set and the catalog's route over range blocks.

A seminorm's ``evaluate`` takes one operator or a (k, n, n) stack; the
generic branch of ``generalized_radius`` hands it the angle grid as stacks
of at most ``linalg.STACK_BYTES``.  Stacked values must match per-matrix
values, a stack is rejected if any matrix is a non-member, and the radius
must match the per-angle loop kept in ``tests/oracles.py``.  The level set
takes a (k, n, n) stack too, and each of its values must be that of a
one-matrix call and of the one-matrix loop in ``tests/oracles.py``, bit for
bit.  The catalog answers its requests on range blocks under the identity
context: that context must give each block back exactly, its values must
be those of one-at-a-time ``evaluate`` calls bit for bit, and its radii
and sweeps those of the public radius and of the n x n sweep to roundoff.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from shnr import (
    NotMemberError,
    a_alpha_seminorm,
    a_norm_seminorm,
    big_omega_seminorm,
    compress,
    gamma_a,
    generalized_radius,
    omega_a_fast,
    verify,
)
from shnr import linalg, radius, semihilbert
from shnr.semihilbert import require_member
from conftest import make_ctx, refine_step_cap

from oracles import level_set_loop, per_angle_radius, re_im_sweep

DESCRIPTORS = {
    "a_norm": a_norm_seminorm(),
    "a_alpha[0]": a_alpha_seminorm(0.0),
    "a_alpha[0.5]": a_alpha_seminorm(0.5),
    "a_alpha[1]": a_alpha_seminorm(1.0),
    "big_omega": big_omega_seminorm(),
}


def _mixed_stack(ctx, seed, k=7):
    """k members cycling through A-selfadjoint, general and zero."""
    rng = np.random.default_rng(seed)
    kinds = (
        lambda: verify.random_a_selfadjoint(ctx, rng, unit_norm=True),
        lambda: verify.random_member(ctx, rng, unit_norm=True),
        lambda: np.zeros((ctx.dim, ctx.dim), dtype=complex),
    )
    return np.stack([kinds[i % 3]() for i in range(k)])


def _non_member(ctx):
    """Maps a kernel vector of A onto a range vector, so it has no A-adjoint."""
    return np.outer(ctx.eigenvectors[:, -1], ctx.eigenvectors[:, 0].conj())


def _small_stacks(monkeypatch, matrices, n):
    """Cap stacks at ``matrices`` n x n matrices."""
    monkeypatch.setattr(linalg, "STACK_BYTES", matrices * n * n * 16)


class TestStackedEvaluate:
    @pytest.mark.parametrize("name", list(DESCRIPTORS))
    @pytest.mark.parametrize("n,rank", [(2, 2), (3, 2), (4, 4), (5, 3)])
    def test_stack_matches_single_calls(self, name, n, rank):
        desc = DESCRIPTORS[name]
        ctx = make_ctx(n, rank, seed=700 + 10 * n + rank)
        stack = _mixed_stack(ctx, seed=800 + n)
        got = desc.evaluate(ctx, stack)
        want = np.array([desc.evaluate(ctx, m) for m in stack])
        assert isinstance(got, np.ndarray) and got.shape == (len(stack),)
        assert np.all(want[2::3] == 0.0) and np.all(got[2::3] == 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", ["a_alpha[0.5]", "big_omega"])
    def test_stack_split_into_small_chunks(self, name, monkeypatch):
        # a 5-matrix cap splits the Omega grid of each matrix over several
        # kernel calls; the values must not move
        desc = DESCRIPTORS[name]
        ctx = make_ctx(3, 2, seed=710)
        stack = _mixed_stack(ctx, seed=810, k=11)
        want = desc.evaluate(ctx, stack)
        _small_stacks(monkeypatch, 5, 3)
        np.testing.assert_allclose(desc.evaluate(ctx, stack), want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", list(DESCRIPTORS))
    def test_empty_stack_gives_no_values(self, name):
        ctx = make_ctx(3, 2, seed=715)
        got = DESCRIPTORS[name].evaluate(ctx, np.zeros((0, 3, 3), dtype=complex))
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    def test_single_matrix_gives_float(self):
        ctx = make_ctx(3, 3, seed=720)
        t = verify.random_member(ctx, seed=721, unit_norm=True)
        for desc in DESCRIPTORS.values():
            assert type(desc.evaluate(ctx, t)) is float

    @pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
    def test_one_non_member_rejects_the_stack(self, where):
        ctx = make_ctx(3, 2, seed=730)
        stack = _mixed_stack(ctx, seed=830)
        stack[where] = _non_member(ctx)
        index = where % len(stack)
        with pytest.raises(NotMemberError, match=f"stack index {index}"):
            require_member(ctx, stack)
        with pytest.raises(NotMemberError):
            compress(ctx, stack)
        for desc in DESCRIPTORS.values():
            with pytest.raises(NotMemberError):
                desc.evaluate(ctx, stack)


RADIUS_CASES = [(2, 2), (2, 1), (3, 3), (3, 2), (4, 4), (4, 3),
                (4, 2), (5, 5), (5, 4), (5, 3), (6, 6), (6, 3)]
GRID = 180


class TestBatchedAngleLoop:
    @pytest.mark.parametrize("n,rank", RADIUS_CASES)
    def test_matches_per_angle_loop(self, n, rank):
        ctx = make_ctx(n, rank, seed=900 + 10 * n + rank)
        t = verify.random_member(ctx, seed=950 + 10 * n + rank, unit_norm=True)
        alpha = (0.0, 0.5, 1.0)[(n + rank) % 3]
        for desc in (big_omega_seminorm(), a_alpha_seminorm(alpha)):
            assert generalized_radius(ctx, desc, t, GRID) == pytest.approx(
                per_angle_radius(ctx, desc, t, GRID), rel=1e-12
            )

    @pytest.mark.parametrize("n,rank", RADIUS_CASES[::3])
    def test_small_chunks_match_per_angle_loop(self, n, rank, monkeypatch):
        # 7 matrices a stack: 180 angles make 25 full stacks and one of 5
        ctx = make_ctx(n, rank, seed=910 + 10 * n + rank)
        t = verify.random_member(ctx, seed=960 + 10 * n + rank, unit_norm=True)
        _small_stacks(monkeypatch, 7, n)
        for desc in (big_omega_seminorm(), a_alpha_seminorm(0.5)):
            assert generalized_radius(ctx, desc, t, GRID) == pytest.approx(
                per_angle_radius(ctx, desc, t, GRID), rel=1e-12
            )

    @pytest.mark.parametrize("matrices", [None, 16])
    def test_one_evaluate_call_per_stack(self, matrices, monkeypatch):
        n = 3
        if matrices is not None:
            _small_stacks(monkeypatch, matrices, n)
        shapes = []
        base = big_omega_seminorm()

        def counting(ctx, t):
            shapes.append(np.shape(t))
            return base.evaluate(ctx, t)

        desc = dataclasses.replace(base, evaluate=counting)
        ctx = make_ctx(n, 2, seed=740)
        t = verify.random_member(ctx, seed=741, unit_norm=True)
        generalized_radius(ctx, desc, t, GRID)
        # refinement steps are one-angle stacks, at least two and at most
        # refine_step_cap of them; every other call is a grid stack
        stacks = [s[0] for s in shapes if s != (1, n, n)]
        steps = [s for s in shapes if s == (1, n, n)]
        per_stack = linalg.STACK_BYTES // (n * n * 16)
        assert len(stacks) == math.ceil(GRID / per_stack)
        assert sum(stacks) == GRID
        assert 2 <= len(steps) <= refine_step_cap(GRID)
        assert len(shapes) < GRID


class TestStackMemory:
    @pytest.mark.parametrize("name", ["omega_a_fast", "gamma_a", "big_omega"])
    def test_peak_under_one_mib_at_n16(self, name):
        # the eigenvalue sweep's 720 angles and the Omega grid's 288 points
        # are built in stacks of at most linalg.STACK_BYTES
        ctx = make_ctx(16, 16, seed=1616)
        t = verify.random_member(ctx, seed=1617, unit_norm=True)
        call = {
            "omega_a_fast": lambda: omega_a_fast(ctx, t),
            "gamma_a": lambda: gamma_a(ctx, t),
            "big_omega": lambda: big_omega_seminorm().evaluate(ctx, t),
        }[name]
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_capped_batches_are_bit_identical(self, monkeypatch):
        # 5 matrices a stack splits the sweep's 720 angles and the Omega
        # grid's 288 points over many eigenvalue calls
        ctx = make_ctx(4, 3, seed=1618)
        t = verify.random_member(ctx, seed=1619, unit_norm=True)
        want = (omega_a_fast(ctx, t), big_omega_seminorm().evaluate(ctx, t))
        _small_stacks(monkeypatch, 5, 4)
        assert (omega_a_fast(ctx, t), big_omega_seminorm().evaluate(ctx, t)) == want


def _level_set_members(n, k, seed):
    """k n x n matrices cycling through Ginibre, zero, diagonal with tied
    moduli (a kinked maximum over the angle), Jordan (a disk for W, so a
    singular pencil at the answer), a Jordan block plus a shift just past
    half its radius, and rank-one square-zero members."""
    rng = np.random.default_rng(seed)

    def ginibre():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def unitary():
        return np.linalg.qr(ginibre())[0]

    def jordan():
        return rng.uniform(0.5, 2.0) * np.diag(np.ones(n - 1), 1).astype(complex)

    def shifted_jordan():
        q = unitary()
        shift = (0.5 + 1e-9) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        return q @ (np.diag(np.ones(n - 1), 1) + shift * np.eye(n)) @ q.conj().T

    def square_zero():
        x, y = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        y = y - x * (x.conj() @ y) / (x.conj() @ x)
        return np.outer(x, y.conj())

    kinds = (
        ginibre,
        lambda: np.zeros((n, n), dtype=complex),
        lambda: np.diag(rng.choice([1.0, -1.0, 1j, -1j], n)).astype(complex),
        jordan,
        shifted_jordan,
        square_zero,
    )
    return np.stack([kinds[i % len(kinds)]() for i in range(k)])


def _assert_bits_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert (got.view(np.uint64) == want.view(np.uint64)).all(), got - want


class TestStackedLevelSet:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 16])
    def test_members_match_one_matrix_calls(self, n):
        for k in range(1, 13):
            m = _level_set_members(n, k, seed=100 * n + k)
            got = radius._level_set_radius(m)
            assert got.shape == (k,)
            _assert_bits_equal(got, [radius._level_set_radius(x) for x in m])
            _assert_bits_equal(got, [level_set_loop(x) for x in m])

    def test_group_over_several_stacks(self):
        # 16 members of 8 x 8 fill one stack of 16 x 16 companion matrices
        n, k = 8, 40
        assert len(linalg.stack_slices(k, 16 * (2 * n) ** 2)) == 3
        m = _level_set_members(n, k, seed=808)
        _assert_bits_equal(radius._level_set_radius(m), [level_set_loop(x) for x in m])

    def test_one_matrix_gives_a_float(self):
        m = _level_set_members(3, 1, seed=5)[0]
        assert type(radius._level_set_radius(m)) is float
        assert radius._level_set_radius(np.zeros((3, 3))) == 0.0
        assert radius._level_set_radius(np.zeros((0, 3, 3))).shape == (0,)


def _blocks(r, k, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((k, r, r)) + 1j * rng.standard_normal((k, r, r))


class TestIdentityContext:
    @pytest.mark.parametrize("r", range(1, 17))
    def test_blocks_come_back_exactly(self, r):
        ctx = semihilbert._identity_context(r)
        assert ctx is semihilbert._identity_context(r)
        assert ctx.rank == r
        assert np.array_equal(ctx.eigenvectors, np.eye(r))
        assert np.array_equal(ctx.eigenvalues, np.ones(r))
        for x in (ctx.a, ctx.eigenvalues, ctx.eigenvectors):
            assert not x.flags.writeable
        stack = _blocks(r, 5, seed=r)
        for b in (stack[0], stack):
            # the block map and the membership check it stands for
            assert np.array_equal(semihilbert._range_block(ctx, b), b)
            assert np.array_equal(semihilbert._member_block(ctx, b), b)
            assert np.all(semihilbert.membership_residual(ctx, b) == 0.0)
            adj, re, im = semihilbert._cartesian_parts(ctx, b)
            assert np.array_equal(adj, linalg.ctranspose(b))
            # exactly Hermitian, so the closed forms always apply
            assert np.array_equal(re, linalg.ctranspose(re))
            assert np.array_equal(im, linalg.ctranspose(im))


def _members(n, rank, k, seed):
    """A context and k members of it: general, A-selfadjoint and A-normal."""
    ctx = make_ctx(n, rank, seed=seed)
    rng = np.random.default_rng(seed + 1)
    kinds = (verify.random_member, verify.random_a_selfadjoint, verify.random_a_normal)
    return ctx, [kinds[i % 3](ctx, rng, unit_norm=True) for i in range(k)]


ROUTE_CASES = [(n, rank) for n in range(2, 9) for rank in sorted({n, n - 1, (n + 1) // 2})]


class TestCatalogRoute:
    """``verify._answer`` on range blocks against the public paths."""

    @pytest.mark.parametrize("n,rank", ROUTE_CASES)
    def test_radii_match_generalized_radius(self, n, rank):
        ctx, ts = _members(n, rank, 4, seed=60 + 10 * n + rank)
        blocks = semihilbert._member_block(ctx, np.stack(ts))
        for name in ("big_omega", "a_alpha[0]", "a_alpha[0.5]", "a_alpha[1]"):
            desc = DESCRIPTORS[name]
            got = verify._answer(verify._RADIUS, desc, blocks)
            want = [generalized_radius(ctx, desc, t, verify._THETA_GRID) for t in ts]
            np.testing.assert_allclose(got, want, rtol=16 * np.finfo(float).eps, atol=0.0)

    @pytest.mark.parametrize("n,rank", ROUTE_CASES)
    def test_sweeps_match_the_n_by_n_sweep(self, n, rank):
        # a sweep peaks at a kink, where two refinements of objectives that
        # differ by roundoff may stop up to the refinement tolerance apart
        ctx, ts = _members(n, rank, 4, seed=80 + 10 * n + rank)
        blocks = semihilbert._member_block(ctx, np.stack(ts))
        for combine in (verify._gap, verify._neg_hypot):
            for name in ("a_norm", "big_omega"):
                desc = DESCRIPTORS[name]
                got = verify._answer(combine, desc, blocks)
                want = [re_im_sweep(ctx, desc, t, combine, verify._SWEEP_GRID) for t in ts]
                np.testing.assert_allclose(got, want, rtol=radius._REFINE_TOL, atol=0.0)

    @pytest.mark.parametrize("cap", [None, 3])
    def test_values_match_one_at_a_time_bit_for_bit(self, cap, monkeypatch):
        # 30 instances of two sizes, three operands each; a 3-matrix cap
        # splits every group, and the solvers' batches, over many stacks
        if cap is not None:
            _small_stacks(monkeypatch, cap, 3)
        asks, want = {}, {}
        for i in range(30):
            ctx, ts = _members(3, (3, 2)[i % 2], 3, seed=200 + i)
            desc = list(DESCRIPTORS.values())[i % len(DESCRIPTORS)]
            asks[i] = (ctx, verify._n(desc, *ts) + verify._n(verify._a_norm(), ts[0]))
            want[i] = [desc.evaluate(ctx, t) for t in ts] + [a_norm_seminorm().evaluate(ctx, ts[0])]
        got = verify._solve(asks)
        for i in asks:
            _assert_bits_equal(got[i], want[i])
