"""Conserved functionals, Parseval identities, the profile equation, and
the alias-free quadrature grid rule."""

from types import SimpleNamespace

import numpy as np
import pytest

from fnlslab.errors import ValidationError
from fnlslab.fields import (cosine_field, random_field, real_part,
                            rotate_phase, to_grid, translate, zero_field)
from fnlslab.functionals import (_GRID_CAP, _default_grid, _potential_sum,
                                 _residual_grid,
                                 charge, hamiltonian, inner, kinetic,
                                 momentum, moving_frame_energy, potential,
                                 quadratic_energy, x_norm)
from fnlslab.params import ProblemParams
from fnlslab.profiles import profile_residual
from fnlslab.spectrum import _quadrature_size

import oracles
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
    r = real_part(random_field(T, 12, RNG))
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


@pytest.mark.parametrize("sigma, n_modes", [(1.0, 129), (2.0, 86)])
def test_potential_is_alias_free(sigma, n_modes):
    # a broadband u puts |u|^(2 sigma + 2) up to wavenumber
    # (2 sigma + 2)(2M - 1), one bin short of the default grid; the
    # reference sums direct mode-sum samples on 4096 points
    u = random_field(T, n_modes, np.random.default_rng(5), decay=0.0)
    vals = oracles.direct_synthesis(u.wavenumbers, u.coeff, T, 4096)
    expect = 0.5 * (2.0 * T / 4096) * float(
        np.sum(np.abs(vals) ** (2 * sigma + 2))) / (2 * sigma + 2)
    assert abs(potential(u, sigma) - expect) <= 1e-12 * expect


@pytest.mark.parametrize("sigma", [1, 0.5, 1.5])
def test_potential_sum_is_both_former_sums_bit_for_bit(sigma):
    # the focusing solve summed (0.5 S)(2T/n) and the evolution log (T/n) S,
    # S = sum |u|^(2 sigma + 2); scaling by 2 is exact, so both are one value
    u = random_field(T, 8, np.random.default_rng(3))
    n = _default_grid(u, sigma)
    vals = to_grid(u, n).values
    solve = 0.5 * float(np.sum(np.abs(vals) ** (2 * sigma + 2))) * (2.0 * T / n) \
        / (2 * sigma + 2)
    log = (T / n) * float(np.sum(np.abs(vals) ** (2.0 * sigma + 2.0)))
    log /= 2.0 * sigma + 2.0
    assert _potential_sum(vals, T, sigma) == solve == log
    assert abs(_potential_sum(vals, T, sigma) - potential(u, sigma)) <= 1e-13 * log


# ------------------------------------------------------- quadrature grids

def _band(n_modes):
    """The two attributes the grid rule reads, of a full M-mode band."""
    return SimpleNamespace(n_modes=n_modes, max_wavenumber=2 * n_modes - 1)


def test_every_quadrature_site_keeps_its_grid():
    # the one rule gives each site the n of the two rules it replaced
    sigmas = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 7.0, 50.0)
    sizes = (1, 8, 128, 512, 1023, 1024, 1025, 2047, 2048, 4096)
    for n_modes in range(1, 1025):
        band = _band(n_modes)
        for sigma in sigmas:
            n = oracles._default_grid(band, sigma)
            assert (_default_grid(band, sigma), _residual_grid(band, sigma)) \
                == (n, 2 * n), (n_modes, sigma)
            for size in sizes:
                assert _quadrature_size(band, sigma, size) == \
                    oracles._quadrature_size(band, sigma, size), \
                    (n_modes, sigma, size)


def test_quadrature_grid_keeps_its_power_of_two_edge():
    # 4 * 1025 + 4 * 1023 + 2 = 8194 points: the last 2 lift the grid to
    # the next power of two
    band = _band(512)
    assert _quadrature_size(band, 2.0, 1025) == 16384
    assert oracles._quadrature_size(band, 2.0, 1025) == 16384


def test_grids_past_the_cap_are_refused():
    # sigma = 1000 on the widest config band charges 2000 * 2047 = 4094000:
    # a quadrature grid of exactly the cap passes, the residual grid does not
    band = _band(1024)
    assert _quadrature_size(band, 1000.0, 4096) == _GRID_CAP == 1 << 22
    assert _default_grid(band, 1000.0) == 4098096
    with pytest.raises(ValidationError, match="needs a 8196192-point "
                       "quadrature grid, past the cap of 4194304 points"):
        _residual_grid(band, 1000.0)
    with pytest.raises(ValidationError, match="sigma = 1100.0 on the band "
                       "k_max = 2047 needs a 8388608-point"):
        _quadrature_size(band, 1100.0, 1)
