#!/usr/bin/env python3
"""The A-numerical radius and its generalized angle-sweep form.

Shows the sandwich |T|_A / 2 <= w_A(T) <= |T|_A, both of its sharp ends,
and the generalized radius machinery with a pluggable seminorm.
"""

import numpy as np

import shnr

rng = np.random.default_rng(0)

ctx = shnr.build_context(shnr.random_psd(3, 2, seed=5))
T = shnr.random_member(ctx, seed=6, unit_norm=True)

norm_a = shnr.a_operator_norm(ctx, T)
w_a = shnr.omega_a(ctx, T)
print("|T|_A   =", norm_a)
print("w_A(T)  =", w_a)
print("sandwich holds:", norm_a / 2 <= w_a <= norm_a)

# Sharp lower end: a square-zero operator. Its angle profile is flat and
# the radius sits exactly at half the seminorm.
ctx2 = shnr.build_context(np.eye(2))
N = np.array([[0.0, 1.0], [0.0, 0.0]])
print("\nnilpotent: w =", shnr.omega_a(ctx2, N), " |N|_A/2 =",
      shnr.a_operator_norm(ctx2, N) / 2)

# Sharp upper end: A-normal operators.
T_norm = shnr.random_a_normal(ctx, seed=7, unit_norm=True)
print("A-normal:  w =", shnr.omega_a(ctx, T_norm),
      " |T|_A =", shnr.a_operator_norm(ctx, T_norm))

# The radius is a supremum over rotation angles of the seminorm of the
# A-real part; the engine reports a certified grid bound alongside.
a_norm = shnr.a_norm_seminorm()
val, bound = shnr.generalized_radius(ctx, a_norm, T, with_error_bound=True)
print("\nangle-sweep value =", val, "+ certified grid bound", bound)

# Same supremum through the A-imaginary part, Im_A(S) = Re_A(-iS); must agree.
print("imaginary-part form =", shnr.generalized_radius(ctx, a_norm, -1j * T))

# Invariances: rotation, adjoint, A-unitary conjugation, range projection.
phi = float(rng.uniform(0, 2 * np.pi))
print("\nphase invariance:",
      abs(shnr.omega_a(ctx, np.exp(1j * phi) * T) - w_a) < 1e-8)
print("adjoint invariance:",
      abs(shnr.omega_a(ctx, shnr.a_adjoint(ctx, T)) - w_a) < 1e-8)
U = shnr.random_a_unitary(ctx, seed=8)
conj = shnr.a_adjoint(ctx, U) @ T @ U
print("A-unitary conjugation invariance:",
      abs(shnr.omega_a(ctx, conj) - w_a) < 1e-6)
print("projection invariance:",
      abs(shnr.omega_a(ctx, ctx.proj @ T) - w_a) < 1e-8)
