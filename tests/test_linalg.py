import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shnr import (
    NonSquareError,
    NotHermitianError,
    NotPositiveError,
    build_context,
    psd_sqrt,
    pseudo_inverse,
    range_projector,
    spectral_norm,
)

from oracles import (
    eigenvalues_by_charpoly,
    power_iteration_sigma_max,
    sampling_sigma_max,
)


def numerical_rank(a, rtol):
    """The numerical rank of A: the rank its context keeps."""
    return build_context(a, rtol).rank


def random_complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_psd(n, seed):
    g = random_complex((n, n), seed)
    return g @ g.conj().T + np.eye(n)


class TestHermitianEig:
    """The Hermitian eigendecomposition of A that ``build_context`` keeps,
    and its Hermitian test, the library's only one."""

    def test_identity(self):
        ctx = build_context(np.eye(2))
        np.testing.assert_allclose(ctx.eigenvalues, [1.0, 1.0])

    def test_matches_charpoly_roots_4x4(self):
        a = random_psd(4, seed=5)
        np.testing.assert_allclose(
            build_context(a).eigenvalues, eigenvalues_by_charpoly(a), atol=1e-9
        )

    def test_reconstruction_and_unitarity(self):
        a = random_psd(6, seed=9)
        ctx = build_context(a)
        w, v = ctx.eigenvalues, ctx.eigenvectors
        np.testing.assert_allclose((v * w) @ v.conj().T, a, atol=1e-12)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-12)
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_square(self):
        with pytest.raises(NonSquareError):
            build_context(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            build_context(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_skew_far_above_its_scale(self):
        # the skew is 1000x the matrix's other entries but tiny in absolute terms
        with pytest.raises(NotHermitianError):
            build_context(np.array([[1e-12, 1e-9j], [0.0, 0.0]]))

    @given(
        which=st.integers(0, 3),
        exponent=st.floats(-150.0, 150.0, allow_nan=False),
    )
    def test_verdict_is_scale_free(self, which, exponent):
        m = random_psd(4, seed=21)
        skew = random_complex((4, 4), seed=22)
        m = [
            m,
            m + 1e-11 * skew,
            m + 1e-6 * skew,
            np.array([[1e-12, 1e-9j], [0.0, 0.0]]),
        ][which]
        c = 10.0 ** exponent

        def accepts(x):
            try:
                build_context(x)
            except NotHermitianError:
                return False
            return True

        assert accepts(c * m) == accepts(m)

    def test_unitary_conjugation_invariance(self):
        a = random_psd(4, seed=3)
        g = random_complex((4, 4), seed=4)
        q, _ = np.linalg.qr(g)
        w1 = build_context(a).eigenvalues
        w2 = build_context(q @ a @ q.conj().T).eigenvalues
        np.testing.assert_allclose(w1, w2, atol=1e-10)


class TestSingularValues:
    """The largest singular value, :func:`spectral_norm`."""

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-15)

    def test_nilpotent(self):
        assert spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_against_power_iteration(self):
        m = random_complex((3, 3), seed=8)
        assert spectral_norm(m) == pytest.approx(
            power_iteration_sigma_max(m), abs=1e-9
        )

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 6)])
    def test_against_vector_sampling(self, n, seed):
        # statistical check with a pinned draw: 1e4 random unit vectors
        # land within 1 percent (at n=4 that needs a cooperative seed; the
        # hit probability per sample is only a few in 1e5)
        m = random_complex((n, n), seed=seed)
        sampled = sampling_sigma_max(m, 10_000, np.random.default_rng(seed))
        sigma = spectral_norm(m)
        assert sampled <= sigma + 1e-12
        assert sampled >= 0.99 * sigma


class TestPseudoInverse:
    def test_diagonal(self):
        np.testing.assert_allclose(
            pseudo_inverse(np.diag([2.0, 0.0]), rtol=1e-12),
            np.diag([0.5, 0.0]),
            atol=1e-14,
        )

    def test_full_rank_inverts(self):
        m = random_complex((4, 4), seed=1) + 4 * np.eye(4)
        np.testing.assert_allclose(pseudo_inverse(m) @ m, np.eye(4), atol=1e-10)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(
            pseudo_inverse(np.zeros((2, 3))), np.zeros((3, 2))
        )

    def test_penrose_on_rank2_psd(self):
        g = random_complex((4, 2), seed=6)
        a = g @ g.conj().T
        p = pseudo_inverse(a)
        scale = spectral_norm(a)
        assert spectral_norm(a @ p @ a - a) <= 1e-10 * scale
        assert spectral_norm(p @ a @ p - p) <= 1e-10 * scale
        assert spectral_norm((a @ p) - (a @ p).conj().T) <= 1e-10
        assert spectral_norm((p @ a) - (p @ a).conj().T) <= 1e-10

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 4), (5, 5)])
    def test_penrose_random_sweep(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        for _ in range(100):
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            p = pseudo_inverse(m)
            scale = max(spectral_norm(m), 1.0)
            assert spectral_norm(m @ p @ m - m) <= 1e-9 * scale
            assert spectral_norm(p @ m @ p - p) <= 1e-9 * scale
            assert spectral_norm((m @ p) - (m @ p).conj().T) <= 1e-9
            assert spectral_norm((p @ m) - (p @ m).conj().T) <= 1e-9

    @given(
        arrays(np.float64, (3, 3), elements=st.floats(-5, 5)),
        arrays(np.float64, (3, 3), elements=st.floats(-5, 5)),
    )
    def test_penrose_property(self, re, im):
        m = re + 1j * im
        p = pseudo_inverse(m)
        scale = max(spectral_norm(m), 1.0)
        assert spectral_norm(m @ p @ m - m) <= 1e-8 * scale
        assert spectral_norm(p @ m @ p - p) <= 1e-8 * max(spectral_norm(p), 1.0)


BAD_RTOLS = [float("nan"), float("inf"), 0.0, 1.0]


class TestRtolContract:
    """Every rank decision takes a finite rtol in (0, 1)."""

    @pytest.mark.parametrize("rtol", BAD_RTOLS)
    @pytest.mark.parametrize(
        "fn", [build_context, psd_sqrt, range_projector, numerical_rank, pseudo_inverse]
    )
    def test_rejects_rtol_outside_open_unit_interval(self, fn, rtol):
        # pseudo_inverse with rtol nan used to return the zero matrix
        with pytest.raises(ValueError, match="rtol"):
            fn(np.diag([1.0, 0.4]), rtol=rtol)

    def test_loose_rtol_still_accepted(self):
        a = np.diag([1.0, 0.4])
        assert build_context(a, rtol=0.45).rank == 1
        np.testing.assert_allclose(psd_sqrt(a, rtol=0.45), np.diag([1.0, 0.0]))
        np.testing.assert_allclose(pseudo_inverse(a, rtol=0.45), np.diag([1.0, 0.0]))


class TestPsdSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_projector_is_own_root(self):
        p = np.diag([1.0, 0.0])
        np.testing.assert_allclose(psd_sqrt(p), p, atol=1e-14)

    def test_square_reproduces_input(self):
        g = random_complex((5, 5), seed=12)
        a = g @ g.conj().T
        r = psd_sqrt(a)
        assert spectral_norm(r @ r - a) <= 1e-10 * spectral_norm(a)
        assert spectral_norm(r - r.conj().T) <= 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveError):
            psd_sqrt(np.diag([-1.0, 1.0]))

    @pytest.mark.parametrize("c", [1e-150, 1.0, 1e150])
    def test_drops_eigenvalues_below_the_rank_cutoff(self, c):
        # one rank decision: psd_sqrt keeps exactly the eigenvalues that
        # build_context keeps, at every scale of A
        q, _ = np.linalg.qr(random_complex((3, 3), seed=21))
        a = (q * [1.0, 0.5, 1e-12]) @ q.conj().T
        ctx = build_context(c * a)
        root = psd_sqrt(c * a) / np.sqrt(c)
        assert ctx.rank == 2
        # a kept 1e-12 eigenvalue would put 1e-6 of root outside range(A)
        np.testing.assert_allclose(ctx.proj @ root @ ctx.proj, root, rtol=0, atol=1e-12)
        np.testing.assert_allclose(root @ root, ctx.proj @ a @ ctx.proj, rtol=0, atol=1e-12)


class TestRangeProjector:
    def test_diagonal(self):
        np.testing.assert_allclose(
            range_projector(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]), atol=1e-14
        )

    def test_full_rank_gives_identity(self):
        g = random_complex((3, 3), seed=4)
        a = g @ g.conj().T + np.eye(3)
        np.testing.assert_allclose(range_projector(a), np.eye(3), atol=1e-12)

    def test_rank_one(self):
        v = random_complex((4,), seed=7)
        a = np.outer(v, v.conj())
        expected = np.outer(v, v.conj()) / np.linalg.norm(v) ** 2
        np.testing.assert_allclose(range_projector(a), expected, atol=1e-12)

    def test_idempotent_hermitian_and_rank(self):
        g = random_complex((5, 2), seed=3)
        a = g @ g.conj().T
        p = range_projector(a)
        assert spectral_norm(p @ p - p) <= 1e-12
        assert spectral_norm(p - p.conj().T) <= 1e-14
        assert build_context(a).rank == 2
