"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines
and timings.  Criterion 4 runs the full 27-check catalog at 200 instances
per check and is the long pole (a few minutes).
"""

import json
import math
import time

import numpy as np
import pytest

import shnr
from shnr import (
    a_operator_norm,
    big_omega_pair_form,
    big_omega_seminorm,
    build_context,
    generalized_radius,
    is_a_normal,
    omega_a_fast,
    psd_sqrt,
    pseudo_inverse,
    serialize,
    spectral_norm,
    verify,
)
from shnr.cli import main
from shnr.verify import InstanceGenConfig

from oracles import vector_ascent_omega

SQRT2 = math.sqrt(2.0)
REMARK_T = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 2]], dtype=complex)
PROFILES = ("full", "n-1", "half")
RANK_OF = {"full": lambda n: n, "n-1": lambda n: max(1, n - 1), "half": lambda n: (n + 1) // 2}
GRID = 180


def _verdict(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _instance(dim, profile, seed):
    rng = np.random.default_rng(
        np.random.SeedSequence([987, dim, PROFILES.index(profile), seed])
    )
    a = verify.random_psd(dim, RANK_OF[profile](dim), rng)
    ctx = build_context(a)
    t = verify.random_member(ctx, rng, unit_norm=True)
    return ctx, t


def test_criterion_1_pinned_instance():
    ctx = build_context(np.eye(3))
    om = big_omega_seminorm()
    start = time.perf_counter()
    omega_val = om.evaluate(ctx, REMARK_T)
    radius_val = generalized_radius(ctx, om, REMARK_T)
    normal = is_a_normal(ctx, REMARK_T)
    elapsed = time.perf_counter() - start
    target = 2 * SQRT2
    ok = (
        abs(omega_val - target) <= 1e-4
        and abs(radius_val - target) <= 1e-4
        and not normal
        and elapsed < 1.0
    )
    _verdict(
        "criterion 1 (pinned 3x3 instance)",
        ok,
        f"Omega={omega_val:.10f} w_Omega={radius_val:.10f} "
        f"target={target:.10f} normal={normal} runtime={elapsed:.3f}s",
    )


def test_criterion_2_omega_scaling_law():
    om = big_omega_seminorm()
    worst = 0.0
    for dim in (2, 3, 4):
        for i in range(100):
            ctx, t = _instance(dim, PROFILES[i % 3], i)
            w_om = generalized_radius(ctx, om, t, GRID)
            w_a = omega_a_fast(ctx, t)
            worst = max(worst, abs(w_om - SQRT2 * w_a) / max(w_a, 1e-300))
    _verdict(
        "criterion 2 (w_Omega = sqrt(2) w_A on 100 x 3 dims, all profiles)",
        worst <= 1e-6,
        f"max relative deviation {worst:.3e} (tol 1e-6)",
    )


def test_criterion_3_alpha_collapse():
    worst = 0.0
    for i in range(100):
        dim = (2, 3, 4)[i % 3]
        ctx, t = _instance(dim, PROFILES[(i // 3) % 3], 1000 + i)
        w_a = omega_a_fast(ctx, t)
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            w_alpha = generalized_radius(
                ctx, shnr.a_alpha_seminorm(alpha), t, GRID
            )
            worst = max(worst, abs(w_alpha - w_a) / max(w_a, 1e-300))
    _verdict(
        "criterion 3 (alpha-seminorm radius collapses to w_A, 5 alphas x 100)",
        worst <= 1e-6,
        f"max relative deviation {worst:.3e} (tol 1e-6)",
    )


def test_criterion_4_full_catalog():
    cfg = InstanceGenConfig(
        dims=(2, 3, 4),
        rank_profiles=PROFILES,
        instances_per_check=200,
        seed=42,
        tol_rel=1e-6,
    )
    start = time.perf_counter()
    report = verify.run_suite(cfg)
    elapsed = time.perf_counter() - start
    for chk in report.checks:
        status = "ok" if chk.violations == 0 else "VIOLATED"
        print(
            f"    {chk.id} {status} instances={chk.instances_run}"
            f" min_slack={chk.min_slack}"
        )
    ok = (
        report.violations_total == 0
        and report.incomplete_total == 0
        and len(report.checks) == 27
        and elapsed <= 300.0
    )
    _verdict(
        "criterion 4 (full catalog, 200 instances/check, seed 42)",
        ok,
        f"violations={report.violations_total} incomplete={report.incomplete_total} "
        f"runtime={elapsed:.1f}s (budget 300s)",
    )


def test_criterion_5_sharpness_attainment():
    ctx2 = build_context(np.eye(2))
    nil = np.array([[0.0, 2.5], [0.0, 0.0]])
    gap_nil = abs(omega_a_fast(ctx2, nil) - a_operator_norm(ctx2, nil) / 2)

    worst_norm = 0.0
    worst_omega = 0.0
    om = big_omega_seminorm()
    rng = np.random.default_rng(52)
    for k in range(10):
        n = 2 + k % 3
        diag_a = rng.uniform(0.2, 1.0, size=n)
        if k % 2:
            diag_a[rng.integers(n)] = 0.0  # rank-deficient diagonal A
        if not diag_a.max():
            diag_a[0] = 1.0
        ctx = build_context(np.diag(diag_a))
        t = np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        worst_norm = max(
            worst_norm, abs(omega_a_fast(ctx, t) - a_operator_norm(ctx, t))
        )
        worst_omega = max(
            worst_omega,
            abs(generalized_radius(ctx, om, t, GRID) - om.evaluate(ctx, t)),
        )
    ok = gap_nil <= 1e-8 and worst_norm <= 1e-8 and worst_omega <= 1e-6
    _verdict(
        "criterion 5 (sharpness: nilpotent lower bound, diagonal A-normal equalities)",
        ok,
        f"|w - |T|/2|={gap_nil:.2e} |w - |T||={worst_norm:.2e} "
        f"|w_Omega - Omega|={worst_omega:.2e}",
    )


def test_criterion_6_oracle_equivalence():
    worst_omega = 0.0
    om = big_omega_seminorm()
    worst_pair = 0.0
    for i in range(50):
        dim = 2 + i % 2
        ctx, t = _instance(dim, PROFILES[i % 3], 5000 + i)
        worst_omega = max(
            worst_omega,
            abs(omega_a_fast(ctx, t) - vector_ascent_omega(ctx, t)),
        )
        worst_pair = max(
            worst_pair,
            abs(om.evaluate(ctx, t) - big_omega_pair_form(ctx, t)),
        )
    ok = worst_omega <= 1e-4 and worst_pair <= 1e-4
    _verdict(
        "criterion 6 (theta-sweep vs ascent oracle; grid vs pair form, n<=3 x 50)",
        ok,
        f"max |w_A gap|={worst_omega:.3e} max |Omega gap|={worst_pair:.3e} (tol 1e-4)",
    )


def test_criterion_7_kernel_residuals():
    worst_penrose = 0.0
    worst_sqrt = 0.0
    for n in range(2, 9):
        for i in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([7000, n, i]))
            rank = 1 + int(rng.integers(n))
            a = verify.random_psd(n, rank, rng)
            p = pseudo_inverse(a)
            worst_penrose = max(
                worst_penrose,
                spectral_norm(a @ p @ a - a),
                spectral_norm(p @ a @ p - p),
                spectral_norm((a @ p) - (a @ p).conj().T),
                spectral_norm((p @ a) - (p @ a).conj().T),
            )
            r = psd_sqrt(a)
            worst_sqrt = max(worst_sqrt, spectral_norm(r @ r - a))
    ok = worst_penrose <= 1e-10 and worst_sqrt <= 1e-10
    _verdict(
        "criterion 7 (Penrose and square-root residuals, 100 PSD per dim 2..8)",
        ok,
        f"penrose={worst_penrose:.3e} sqrt={worst_sqrt:.3e} (tol 1e-10)",
    )


def test_criterion_8_determinism(tmp_path):
    args = [
        "check", "--dims", "2,3", "--ranks", "full,n-1", "--instances", "4",
        "--seed", "11",
    ]
    outs = []
    for name, threads in (("r1.json", "1"), ("r2.json", "1"), ("r3.json", "4")):
        path = tmp_path / name
        rc = main(args + ["--out", str(path), "--threads", threads])
        assert rc == 0
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    _verdict(
        "criterion 8 (byte-identical reports across reruns and thread counts)",
        ok,
        f"{len(outs[0])} bytes each",
    )
