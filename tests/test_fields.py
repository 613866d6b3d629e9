"""Spectral core: transforms, multipliers, and field algebra."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fnlslab.errors import (AntiperiodicityViolation, SamplingError,
                            ValidationError)
import fnlslab.fields as fields
from fnlslab.fields import (AntiperiodicField, GridSamples, _monotonicity,
                            analyze, antiperiodic_defects, cosine_field,
                            derivative, evaluate, fractional_laplacian,
                            imag_part, lift, modes_rows, odd_wavenumbers,
                            random_field, real_part, rotate_phase,
                            sector_matrix, synthesize, to_grid, to_modes,
                            translate)
from fnlslab.functionals import inner
from fnlslab.params import EPS_REAL

from oracles import (conjugate_field, cosine_block_dense, cosine_by_search,
                     direct_analysis, direct_synthesis, elliptic_field,
                     lift_by_search)

T = np.pi
RNG = np.random.default_rng(7)


def rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def test_round_trip_matches_direct_summation():
    f = random_field(T, 16, RNG)
    g = to_grid(f, 128)
    ref = direct_synthesis(f.wavenumbers, f.coeff, T, 128)
    assert rel(g.values, ref) < 1e-12

    back = to_modes(g, 16)
    assert rel(back.coeff, f.coeff) < 1e-12

    # analysis against the naive projection as well
    ref_modes = direct_analysis(g.values, f.wavenumbers)
    assert rel(ref_modes, f.coeff) < 1e-12


def test_synthesize_and_analyze_match_grid_and_modes():
    f = random_field(T, 16, RNG)
    bins = f.wavenumbers % 128
    vals = synthesize(f.coeff, bins, 128)
    assert np.array_equal(vals, to_grid(f, 128).values)
    assert np.array_equal(analyze(vals, bins, 128),
                          to_modes(GridSamples(T, vals), 16).coeff)


def test_synthesize_and_analyze_round_trip_batches():
    k = odd_wavenumbers(12)
    batch = RNG.standard_normal((len(k), 5)) + 1j * RNG.standard_normal((len(k), 5))
    vals = synthesize(batch, k % 96, 96)
    assert vals.shape == (96, 5)
    for col in range(5):
        ref = direct_synthesis(k, batch[:, col], T, 96)
        assert rel(vals[:, col], ref) < 1e-12
    assert rel(analyze(vals, k % 96, 96), batch) < 1e-12


def test_grid_samples_are_antiperiodic():
    f = random_field(T, 24, RNG)
    g = to_grid(f, 192)
    assert antiperiodic_defects(g.values[None])[0] < 1e-13
    half = g.n // 2
    assert np.max(np.abs(g.values[half:] + g.values[:half])) < 1e-12


def test_parseval_exact_on_grid():
    f = random_field(T, 16, RNG)
    g = to_grid(f, 64)
    dx = 2 * T / g.n
    quadrature = np.sum(np.abs(g.values) ** 2) * dx
    assert abs(quadrature - 2 * T * np.sum(np.abs(f.coeff) ** 2)) < 1e-12 * quadrature


def test_to_modes_flags_even_content():
    f = random_field(T, 8, RNG)
    g = to_grid(f, 64)
    polluted = GridSamples(T, g.values + 0.01 * np.cos(2 * np.pi * g.x / (2 * T) * 2))
    with pytest.raises(AntiperiodicityViolation):
        to_modes(polluted, 8, tol=1e-3)
    # the defect is tolerated when asked to
    to_modes(polluted, 8, tol=0.5)


# Largest of 20000 random draws (M <= 64, up to 8 extra bin pairs, decay
# in [0, 4], scale 1e-6..1e6, real or complex): round-trip error 1.03e-15
# of max|c| and even-mode defect 5.3e-16; the bounds sit ten times above.
_ROUND_TRIP_TOL = 1e-14
_EVEN_DEFECT_TOL = 5e-15


@settings(max_examples=200)
@given(n_modes=st.integers(1, 64), pad=st.integers(0, 8),
       decay=st.floats(0.0, 4.0), exponent=st.floats(-6.0, 6.0),
       real=st.booleans(), seed=st.integers(0, 2**32 - 1),
       planted=st.floats(-9.0, 0.0), even_bin=st.integers(0, 2**16))
def test_odd_band_transforms_round_trip(n_modes, pad, decay, exponent, real,
                                        seed, planted, even_bin):
    f = random_field(T, n_modes, np.random.default_rng(seed), decay=decay)
    if real:
        f = real_part(f)
    f = f * 10.0 ** exponent
    n = 2 * (f.max_wavenumber + 1) + 2 * pad
    g = to_grid(f, n)
    back = to_modes(g, f.n_modes, tol=_EVEN_DEFECT_TOL)
    assert np.array_equal(back.wavenumbers, f.wavenumbers)
    assert rel(back.coeff, f.coeff) < _ROUND_TRIP_TOL
    # one even bin at 10^planted of the odd-bin l2 norm: the defect is at
    # least 10^-9 / sqrt(2), seven times EPS_ANTI = 1e-10
    j = 2 * (even_bin % (n // 2))
    size = 10.0 ** planted * np.linalg.norm(g.values) / np.sqrt(n)
    wave = np.exp(2j * np.pi * j * np.arange(n) / n)
    with pytest.raises(AntiperiodicityViolation):
        to_modes(GridSamples(T, g.values + size * wave), f.n_modes)


def test_sampling_validation():
    f = random_field(T, 8, RNG)
    with pytest.raises(SamplingError):
        to_grid(f, 31)          # odd
    with pytest.raises(SamplingError):
        to_grid(f, 16)          # too small for |k| = 15
    to_grid(f, 32)              # boundary case is fine
    with pytest.raises(SamplingError):
        to_modes(to_grid(f, 32), 9)  # band beyond grid resolution


def test_wavenumber_lattice_validation():
    # the band is derived from len(coeff), so only a 1-d coefficient array
    # of even length 2M >= 2 has one: odd, empty and 2-d arrays are refused
    for coeff in (np.ones(3), np.ones(1), np.ones(0), np.ones((2, 2))):
        with pytest.raises(ValidationError):
            AntiperiodicField(T, coeff)
    assert list(odd_wavenumbers(2)) == [-3, -1, 1, 3]
    assert [f.name for f in dataclasses.fields(AntiperiodicField)] == \
        ["half_period", "coeff"]


@pytest.mark.parametrize("error, message, call", [
    (ValidationError, "need at least one mode, got 0",
     lambda: odd_wavenumbers(0)),
    (ValidationError, "values must be a 1-d array",
     lambda: GridSamples(T, np.zeros((2, 2)))),
    (SamplingError, "antiperiodicity check needs an even grid",
     lambda: antiperiodic_defects(np.zeros((1, 7)))),
    (SamplingError, "grid size must be even and >= 4, got 5",
     lambda: modes_rows(np.zeros((1, 5)))),
    (SamplingError, "grid of size 8 resolves no odd modes",
     lambda: modes_rows(np.zeros((1, 8)), n_modes=0)),
], ids=["odd_wavenumbers", "GridSamples", "antiperiodic_defects",
        "modes_rows_grid", "modes_rows_band"])
def test_malformed_direct_calls_are_named(error, message, call):
    # no package caller passes these inputs; a library caller can
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_band_is_derived_from_the_coefficient_count():
    for m in range(1, 65):
        f = AntiperiodicField(T, np.ones(2 * m))
        assert f.n_modes == m
        assert np.array_equal(f.wavenumbers, odd_wavenumbers(m))
        assert f.max_wavenumber == 2 * m - 1
        # the smallest grid that keeps every bin apart is 2 (2M - 1 + 1)
        to_grid(f, 4 * m)
        with pytest.raises(SamplingError):
            to_grid(f, 4 * m - 2)


def test_lift_and_cosine_field_match_searchsorted_placement():
    rng = np.random.default_rng(11)
    pairs = [(1, 1), (1, 2), (3, 3)] + [
        tuple(sorted(rng.integers(1, 40, size=2))) for _ in range(20)]
    for m, wide in pairs:
        f = random_field(T, m, rng)
        assert np.array_equal(lift(f, wide).coeff, lift_by_search(f, wide))
        assert np.array_equal(cosine_field(T, 0.7, wide).coeff,
                              cosine_by_search(0.7, wide))


def test_inner_across_bands_is_inner_of_lifts():
    u = random_field(T, 3, RNG)
    v = random_field(T, 7, RNG)
    assert inner(u, v) == inner(lift(u, 7), v)
    assert inner(v, u) == inner(v, lift(u, 7))


def test_inner_refuses_fields_on_different_tori_in_either_order():
    # equal bands used to skip the torus check: 1.5708 one way, 1.0 the other
    u, v = cosine_field(np.pi, 1.0, 4), cosine_field(2.0, 1.0, 4)
    for a, b in ((u, v), (v, u)):
        with pytest.raises(ValidationError, match="^fields live on different tori$"):
            inner(a, b)


def test_field_keeps_a_read_only_copy_of_its_coefficients():
    c = np.arange(4, dtype=np.complex128)
    f = AntiperiodicField(1.0, c)
    c[0] = 1.0  # the caller's array stays writable
    assert np.array_equal(f.coeff, np.arange(4))
    assert not f.coeff.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        f.coeff[0] = 1.0


def test_cosine_field_values():
    a = 0.7
    f = cosine_field(T, a, n_modes=8)
    g = to_grid(f, 64)
    assert rel(g.values, a * np.cos(np.pi * g.x / T)) < 1e-13
    assert f.realness_defect() <= EPS_REAL


def test_derivative_equals_hilbert_of_calderon():
    # d/dx = H Lambda with the Hilbert symbol i sign(k)
    f = random_field(T, 20, RNG)
    left = derivative(f)
    lam1 = fractional_laplacian(f, 1.0)
    right = lam1.with_coeff(1j * np.sign(lam1.wavenumbers) * lam1.coeff)
    assert rel(right.coeff, left.coeff) < 1e-13


def test_multiplier_symmetries():
    u = random_field(T, 12, RNG)
    v = random_field(T, 12, RNG)
    # self-adjoint: real symbol
    assert abs(inner(fractional_laplacian(u, 1.6), v)
               - inner(u, fractional_laplacian(v, 1.6))) < 1e-12
    # derivative is skew-adjoint
    assert abs(inner(derivative(u), v) + inner(u, derivative(v))) < 1e-12


def test_real_fields_stay_real_under_real_symbol_operators():
    u = real_part(random_field(T, 12, RNG))
    assert u.realness_defect() <= EPS_REAL
    lam = fractional_laplacian(u, 1.3)
    assert lam.realness_defect() <= EPS_REAL


def test_translate_rotate_conjugate():
    u = random_field(T, 10, RNG)
    g = to_grid(translate(u, 0.37), 128)
    ref = evaluate(u, g.x - 0.37)
    assert rel(g.values, ref) < 1e-12

    r = rotate_phase(u, 1.1)
    assert rel(r.coeff, u.coeff * np.exp(1.1j)) == 0.0

    cu = conjugate_field(u)
    assert rel(to_grid(cu, 64).values, np.conj(to_grid(u, 64).values)) < 1e-13

    re, im = real_part(u), imag_part(u)
    assert max(re.realness_defect(), im.realness_defect()) <= EPS_REAL
    assert rel((re - 1j * im).coeff, cu.coeff) < 1e-13
    assert rel((re + 1j * im).coeff, u.coeff) < 1e-13


def test_evaluate_matches_grid():
    u = random_field(T, 9, RNG)
    g = to_grid(u, 72)
    assert rel(evaluate(u, g.x), g.values) < 1e-12


def test_lift_and_algebra():
    u = random_field(T, 4, RNG)
    v = random_field(T, 6, RNG)
    v16 = lift(v, 16)
    assert not np.any((v16 - v).coeff)
    w = u + v
    assert w.n_modes == 6
    assert rel(to_grid(w, 64).values,
               to_grid(u, 64).values + to_grid(v, 64).values) < 1e-12
    with pytest.raises(ValidationError):
        lift(v, 2)


def test_snoidal_mode_decay():
    # classical-dispersion profile at m = 0.5: coefficients are below
    # 1e-12 well before |k| = 40
    f = elliptic_field("sn", 0.5, T, 32)
    tail = np.abs(f.coeff[np.abs(f.wavenumbers) >= 41])
    assert np.all(tail < 1e-12)
    # and the low modes are O(1)
    assert np.max(np.abs(f.coeff)) > 0.3


def test_fields_are_immutable():
    u = random_field(T, 4, RNG)
    with pytest.raises((ValueError, AttributeError)):
        u.coeff[0] = 1.0


@settings(max_examples=200)
@given(size=st.integers(1, 1100), sector=st.sampled_from(["even", "odd"]),
       seed=st.integers(0, 2**32 - 1), zeros=st.integers(0, 8))
@example(size=48, sector="even", seed=1, zeros=3)
@example(size=48, sector="odd", seed=2, zeros=3)
@example(size=1, sector="odd", seed=3, zeros=2)
def test_sector_matrix_matches_dense_oracle(size, sector, seed, zeros):
    # byte equality, so a flipped sign of zero fails too: the potential
    # block off the diagonal, and on it the block plus symbol and omega
    rng = np.random.default_rng(seed)
    n = 4 * size
    samples = rng.standard_normal(n)
    alpha, omega = rng.uniform(1.0, 2.0), rng.standard_normal()
    sign = 1.0 if sector == "even" else -1.0
    off = ~np.eye(size, dtype=bool)
    lam = (np.pi * (2 * np.arange(size) + 1) / T) ** alpha

    def check(mat, dense):
        assert mat[off].tobytes() == dense[off].tobytes()
        assert np.diagonal(mat).tobytes() == (np.diagonal(dense) + (lam + omega)).tobytes()

    w = 2.0 * np.real(np.fft.fft(samples)[2 * np.arange(2 * size)] / n)
    check(sector_matrix(samples, alpha, T, omega, sector, size),
          cosine_block_dense(w, size, sign))

    # a random cosine line with planted +0.0 and -0.0 entries, fed to
    # sector_matrix in place of the transform of its samples
    line = rng.standard_normal(2 * size)
    line[rng.integers(0, 2 * size, zeros)] = np.copysign(
        0.0, rng.standard_normal(zeros))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "analyze", lambda values, bins, n: line)
        mat = sector_matrix(samples, alpha, T, omega, sector, size)
    check(mat, cosine_block_dense(2.0 * line, size, sign))


def test_sector_matrix_refuses_a_grid_that_aliases_its_cosine_line():
    # size 2 reads w_0..w_3, which need more than 2 (2 size - 1) = 6 points
    with pytest.raises(ValidationError, match="^quadrature grid too small for "
                       "multiplication matrix$"):
        sector_matrix(np.ones(6), 1.5, T, 0.0, "even", 2)


def test_monotonicity_classifies_the_first_quarter_of_the_2t_grid():
    n = 64
    x = 2 * T * np.arange(n) / n
    slack = 1e-10
    assert _monotonicity(np.cos(2 * x), slack) == "nonincreasing"
    assert _monotonicity(-np.cos(2 * x), slack) == "nondecreasing"
    assert _monotonicity(np.full(n, 3.0), slack) == "constant"
    assert _monotonicity(np.cos(6 * x), slack) == "none"
    # only the samples on [0, T/2] are read
    v = np.cos(2 * x)
    v[n // 4 + 1:] = RNG.standard_normal(n - n // 4 - 1)
    assert _monotonicity(v, slack) == "nonincreasing"


def test_monotonicity_slack_bounds_each_step():
    n = 64
    flat = np.full(n, 1.0)
    wiggle = flat.copy()
    wiggle[1:n // 4 + 1:2] += 1e-11          # steps of +-1e-11
    assert _monotonicity(wiggle, 1e-10) == "constant"
    assert _monotonicity(wiggle, 1e-12) == "none"
    ramp = -np.arange(n, dtype=float)
    ramp[5] += 1.0 + 5e-11                   # one step up by 5e-11
    assert _monotonicity(ramp, 1e-10) == "nonincreasing"
    assert _monotonicity(ramp, 1e-11) == "none"
    assert _monotonicity(-ramp, 1e-10) == "nondecreasing"
