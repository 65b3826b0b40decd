"""Mutants that the catalog must catch.

Each test breaks one solver by a known small amount with a monkeypatch and
runs the catalog: the checks that read that solver must report
violations.  A runner that goes around the solver, or a check that stops
reading it, leaves the mutant unseen and fails here.
"""

from shnr import radius, run_suite
from shnr.verify import InstanceGenConfig

MUTANT_CFG = InstanceGenConfig(instances_per_check=30, seed=42, tol_rel=1e-9)


def test_level_set_shrunk_by_1e7_is_caught(monkeypatch):
    # C10 compares the level set with |T|_A, C21 with the alpha radius and
    # C24 with the Omega_A radius; unpatched, none of them reports
    checks = ["C10", "C21", "C24"]
    honest = run_suite(MUTANT_CFG, only=checks)
    assert [c.violations for c in honest.checks] == [0, 0, 0]
    exact = radius._level_set_radius
    monkeypatch.setattr(radius, "_level_set_radius", lambda m: exact(m) * (1.0 - 1e-7))
    mutant = run_suite(MUTANT_CFG, only=checks)
    assert mutant.incomplete_total == 0
    assert all(c.violations >= 1 for c in mutant.checks), [
        (c.id, c.violations) for c in mutant.checks
    ]


def test_brent_turned_off_is_caught(monkeypatch):
    # with no refinement step every angle supremum, lone (sup_on_circle)
    # or in lockstep (the catalog's radii under alpha and Omega_A), is its
    # grid maximum: C21 and C24 compare such a radius with the level set,
    # C25 with Omega_A(T); unpatched, none of them reports
    cfg = InstanceGenConfig(instances_per_check=30, seed=42, tol_rel=1e-6)
    checks = ["C21", "C24", "C25"]
    honest = run_suite(cfg, only=checks)
    assert [c.violations for c in honest.checks] == [0, 0, 0]
    monkeypatch.setattr(radius, "_step_cap", lambda width: 0)
    mutant = run_suite(cfg, only=checks)
    assert mutant.incomplete_total == 0
    assert all(c.violations >= 1 for c in mutant.checks), [
        (c.id, c.violations) for c in mutant.checks
    ]
