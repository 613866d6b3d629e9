"""Conserved functionals, Parseval identities, and the profile equation."""

import numpy as np

from fnlslab.fields import (cosine_field, random_field, rotate_phase,
                            translate, zero_field)
from fnlslab.functionals import (charge, hamiltonian, inner, kinetic,
                                 momentum, moving_frame_energy, potential,
                                 quadratic_energy, x_norm)
from fnlslab.params import ProblemParams
from fnlslab.profiles import profile_residual

from oracles import (conjugate_field, elliptic_field, snoidal_charge,
                     snoidal_params)

T = np.pi
RNG = np.random.default_rng(11)


def single_mode(k, a, n_modes=4):
    f = zero_field(T, max(n_modes, (abs(k) + 1) // 2))
    c = f.coeff.copy()
    c[np.searchsorted(f.wavenumbers, k)] = a
    return f.with_coeff(c)


def test_single_mode_charge_and_momentum():
    # coefficient a on mode k: Q = (T/2)|a|^2 and N = -(pi k / 2)|a|^2
    f = single_mode(3, 0.8 - 0.1j)
    q = 0.5 * T * abs(0.8 - 0.1j) ** 2
    assert abs(charge(f) - q) < 1e-14
    assert abs(momentum(f) + np.pi * 3 / 2 * abs(0.8 - 0.1j) ** 2) < 1e-14
    assert momentum(single_mode(-3, 0.5)) > 0  # left-movers carry positive N


def test_momentum_of_real_and_conjugate_fields():
    u = random_field(T, 12, RNG)
    assert abs(momentum(conjugate_field(u)) + momentum(u)) < 1e-12
    r = random_field(T, 12, RNG, real=True)
    assert abs(momentum(r)) < 1e-13


def test_kinetic_of_fundamental_cosine():
    # K(cos(pi x / T)) = (T/4) (pi/T)^alpha; at T = pi, alpha = 3/2: pi/4
    f = cosine_field(T, 1.0)
    assert abs(kinetic(f, 1.5) - np.pi / 4) < 1e-14


def test_charge_of_snoidal_profile_vs_quadrature():
    f = elliptic_field("sn", 0.6, T, 40)
    assert abs(charge(f) - snoidal_charge(0.6, T)) < 1e-10


def test_potential_of_constant_modulus_mode():
    # |u| is constant for a single mode, so P = |a|^(2s+2) T / (2s+2)
    for sigma in (1.0, 1.5, 2.0):
        f = single_mode(5, 1.3)
        expect = 1.3 ** (2 * sigma + 2) * T / (2 * sigma + 2)
        assert abs(potential(f, sigma) - expect) < 1e-12 * expect


def test_invariance_under_symmetries():
    u = random_field(T, 10, RNG)
    params = ProblemParams(1.5, 1.0, -1, T)
    for v in (translate(u, 0.41), rotate_phase(u, 0.9)):
        assert abs(charge(v) - charge(u)) < 1e-13
        assert abs(momentum(v) - momentum(u)) < 1e-12
        assert abs(kinetic(v, 1.5) - kinetic(u, 1.5)) < 1e-12
        assert abs(potential(v, 1.0) - potential(u, 1.0)) < 1e-12
        assert abs(hamiltonian(v, params) - hamiltonian(u, params)) < 1e-12


def test_poincare_inequalities():
    alpha = 1.5
    for _ in range(20):
        u = random_field(T, 16, RNG)
        assert kinetic(u, alpha) >= (np.pi / T) ** alpha * charge(u) - 1e-12
        assert abs(momentum(u)) <= (T / np.pi) ** (alpha - 1) * kinetic(u, alpha) + 1e-12
    # equality at the fundamental cosine
    f = cosine_field(T, 1.0)
    assert abs(kinetic(f, alpha) - (np.pi / T) ** alpha * charge(f)) < 1e-14


def test_sign_conventions():
    u = random_field(T, 8, RNG)
    p_def = ProblemParams(1.5, 1.0, -1, T)
    p_foc = ProblemParams(1.5, 1.0, +1, T)
    k, p = kinetic(u, 1.5), potential(u, 1.0)
    assert abs(hamiltonian(u, p_def) - (k + p)) < 1e-13
    assert abs(hamiltonian(u, p_foc) - (k - p)) < 1e-13
    assert abs(moving_frame_energy(u, 0.3, p_def)
               - (hamiltonian(u, p_def) + 0.3 * momentum(u))) < 1e-13
    assert abs(quadratic_energy(u, 0.2, 1.5) - (k + 0.2 * charge(u))) < 1e-13


def test_x_norm_combines_charge_and_kinetic():
    u = random_field(T, 8, RNG)
    assert abs(x_norm(u, 1.5) ** 2 - (2 * charge(u) + 2 * kinetic(u, 1.5))) < 1e-12


def test_gradient_vanishes_on_snoidal_profile():
    # classical defocusing profile with matched omega is a critical point
    m = 0.55
    _, _, omega = snoidal_params(m, T)
    phi = elliptic_field("sn", m, T, 48)
    params = ProblemParams(2.0, 1.0, -1, T)
    assert profile_residual(phi, omega, 0.0, params) < 1e-8


def test_inner_product_conventions():
    u = random_field(T, 6, RNG)
    assert abs(inner(u, u) - 2 * charge(u)) < 1e-13
    # momentum pairing: <i u', u> = 2 N(u)
    from fnlslab.fields import derivative
    du = derivative(u)
    assert abs(inner(1j * du, u) - 2 * momentum(u)) < 1e-12
