import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import shnr
from shnr import radius, verify

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def make_ctx(n: int, rank: int, seed: int = 0) -> shnr.SemiHilbertContext:
    return shnr.build_context(verify.random_psd(n, rank, seed=seed))


@pytest.fixture
def identity_ctx2():
    return shnr.build_context(np.eye(2))


@pytest.fixture
def identity_ctx3():
    return shnr.build_context(np.eye(3))


@pytest.fixture
def degenerate_ctx():
    return shnr.build_context(np.diag([1.0, 0.0]))


def ctx_grid(seed: int = 0):
    """Contexts across dims 2..4 and the three rank profiles."""
    out = []
    for n in (2, 3, 4):
        for rank in {n, max(1, n - 1), (n + 1) // 2}:
            out.append(make_ctx(n, rank, seed=seed + 13 * n + rank))
    return out


def refine_step_cap(grid_points: int) -> int:
    """Most one-angle objective calls ``radius.sup_on_circle`` makes after
    its grid on [0, pi): ``radius._step_cap`` of the bracket of two grid
    steps."""
    return radius._step_cap(2.0 * math.pi / grid_points)
