"""Mutants that the catalog must catch.

Each test breaks one solver by a known small amount with a monkeypatch and
runs the catalog: the checks that read that solver must report
violations.  A runner that goes around the solver, or a check that stops
reading it, leaves the mutant unseen and fails here.

The mutants that the catalog does not see yet, at 30 instances and seed
42, are listed in ``KNOWN_SURVIVORS`` with what closes each gap (the
numbered items of ROADMAP.md).
"""

import numpy as np

from shnr import radius, run_suite, seminorms
from shnr.verify import InstanceGenConfig

MUTANT_CFG = InstanceGenConfig(instances_per_check=30, seed=42, tol_rel=1e-9)

#: (mutant, where it goes unseen, what closes the gap)
KNOWN_SURVIVORS = [
    ("closed-form factor of _evaluate_stack times (1 + 1e-6)",
     "C10 at any tol_rel, and every check but C03 at tol_rel 1e-6",
     "items 6 and 8: identities checked by the general solvers, certified verdicts"),
    ("seminorms._ALPHA_MAX_ITER = 1 (the alpha ascent cut to one sweep)",
     "the whole catalog at tol_rel 1e-6 and 1e-9",
     "item 6: identities checked by the general solvers"),
    ("a lax membership tolerance",
     "the whole catalog, by design: its instances are members",
     "killed in tier-1 by test_rtol_env_changes_verdict"),
]


def _assert_caught(monkeypatch, cfg, checks, module, name, mutant):
    """Unpatched, ``checks`` report nothing; with ``module.name`` replaced
    by ``mutant``, each reports at least one violation."""
    honest = run_suite(cfg, only=checks)
    assert [c.violations for c in honest.checks] == [0] * len(checks)
    monkeypatch.setattr(module, name, mutant)
    report = run_suite(cfg, only=checks)
    assert report.incomplete_total == 0
    assert all(c.violations >= 1 for c in report.checks), [
        (c.id, c.violations) for c in report.checks
    ]


def test_level_set_shrunk_by_1e7_is_caught(monkeypatch):
    # C10 compares the level set with |T|_A, C21 with the alpha radius and
    # C24 with the Omega_A radius; unpatched, none of them reports
    exact = radius._level_set_radius
    _assert_caught(monkeypatch, MUTANT_CFG, ["C10", "C21", "C24"],
                   radius, "_level_set_radius", lambda m: exact(m) * (1.0 - 1e-7))


def test_brent_turned_off_is_caught(monkeypatch):
    # with no refinement step every angle supremum, lone (sup_on_circle)
    # or in lockstep (the catalog's radii under alpha and Omega_A), is its
    # grid maximum: C21 and C24 compare such a radius with the level set,
    # C25 with Omega_A(T); unpatched, none of them reports
    cfg = InstanceGenConfig(instances_per_check=30, seed=42, tol_rel=1e-6)
    _assert_caught(monkeypatch, cfg, ["C21", "C24", "C25"],
                   radius, "_step_cap", lambda width: 0)


def test_closed_form_factor_off_by_1e6_is_caught(monkeypatch):
    # the closed forms Omega_A(S) = sqrt2 |S|_A and |S|_{A,alpha} = |S|_A on
    # Hermitian blocks, scaled up by 1e-6: C20 and C23 state them, C21 and
    # C24 compare radii built on them with the level set, C25 compares such
    # a radius with Omega_A(T), C03 and C26 bound them with |T|_A and 2 sqrt2
    exact = seminorms._evaluate_stack

    def scaled(b, factor, width, solve):
        return exact(b, factor * (1.0 + 1e-6), width, solve)

    _assert_caught(monkeypatch, MUTANT_CFG,
                   ["C03", "C20", "C21", "C23", "C24", "C25", "C26"],
                   seminorms, "_evaluate_stack", scaled)


def test_omega_from_its_grid_alone_is_caught(monkeypatch):
    # _omega_refine finds nothing, so a general Omega_A is the maximum of
    # its (t, psi) bracket grid: C03 bounds it with |T|_A, C25 compares
    # it with its radius and C26 with 2 sqrt2
    cfg = InstanceGenConfig(instances_per_check=30, seed=42, tol_rel=1e-6)
    _assert_caught(monkeypatch, cfg, ["C03", "C25", "C26"],
                   seminorms, "_omega_refine", lambda tts, u, v: np.zeros(len(tts)))
