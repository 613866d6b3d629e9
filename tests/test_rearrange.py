"""Rearrangement tests: placement invariants, norm preservation, the two
inequality drivers, grid-defect convergence, and the end-to-end ground-state
ordering chain through a computed profile."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fnlslab.cli as cli
from fnlslab.config import parse_config
from fnlslab.errors import (ComplexInput, MonotonicityUnverified,
                            SamplingError, ValidationError)
from fnlslab.fields import (AntiperiodicField, GridSamples,
                            antiperiodic_defects, cosine_field, random_field,
                            real_part, to_grid, to_modes, translate)
from fnlslab.functionals import kinetic
from fnlslab.params import ProblemParams
from fnlslab.profiles import solve_defocusing
from fnlslab.rearrange import (_hash_rows, _star_rows, polya_szego_check,
                               polya_szego_trials, potential_ordering_check,
                               rearrange_hash, rearrange_star)
from fnlslab.spectrum import sector_spectra
import oracles

T = np.pi


def grid_of(values):
    return GridSamples(T, values)


def random_real(seed, n_modes=12):
    return real_part(random_field(T, n_modes, np.random.default_rng(seed)))


def test_star_fixes_symmetric_decreasing_samples():
    g = to_grid(cosine_field(T, 1.0), 256)
    star = rearrange_star(g)
    # ties between cos(x) and cos(-x) samples differ by ulps, nothing more
    assert np.max(np.abs(star.values.real - g.values.real)) < 1e-15


def test_star_collapses_shifted_cosine():
    n = 256
    ref = to_grid(cosine_field(T, 1.0), n).values.real
    # grid-aligned shift: same sample multiset, exact recovery
    star = rearrange_star(to_grid(translate(cosine_field(T, 1.0), 2 * T * 37 / n), n))
    assert np.max(np.abs(star.values.real - ref)) < 1e-14
    # generic shift: multiset differs by O(1/N) sampling phase
    star = rearrange_star(to_grid(translate(cosine_field(T, 1.0), 0.7345), n))
    assert np.max(np.abs(star.values.real - ref)) < 5e-3


def test_star_placement_invariants():
    for seed in (0, 3, 8):
        f = random_real(seed)
        g = to_grid(f, 512)
        star = rearrange_star(g)
        vals = star.values.real
        # nonincreasing on [0, T] exactly, largest value at the origin
        assert np.all(np.diff(vals[: 257]) <= 0)
        assert vals[0] == np.max(vals)
        # multiset preserved exactly
        assert np.array_equal(np.sort(vals), np.sort(g.values.real))
        # antiperiodic pairing survives placement to roundoff
        assert antiperiodic_defects(star.values[None])[0] < 1e-13
        assert polya_szego_check(f, 1.5, 512)["evenness_defect"] < 0.05


def test_hash_is_half_period_shift_of_star():
    g = to_grid(random_real(4), 256)
    star = rearrange_star(g)
    hsh = rearrange_hash(g)
    assert np.array_equal(hsh.values, np.roll(star.values, 64))


def test_hash_turns_cosine_into_sine():
    n = 256
    x = 2 * T * np.arange(n) / n
    hsh = rearrange_hash(to_grid(cosine_field(T, 1.0), n))
    assert np.max(np.abs(hsh.values.real - np.sin(np.pi * x / T))) < 1e-14


def test_hash_of_zero_is_zero():
    hsh = rearrange_hash(grid_of(np.zeros(64)))
    assert np.array_equal(hsh.values.real, np.zeros(64))


# Largest relative change of an l^p sum over 20000 random draws (n up to
# 1024, magnitudes across 12 decades): 7.2e-16; the bound sits ten times
# above.  The maximum is a permutation invariant and stays exact.
_LP_TOL = 1e-14


def _lp_sums(vals, h):
    return {"L1": h * float(np.sum(np.abs(vals))),
            "L2": math.sqrt(h * float(np.sum(vals**2))),
            "Linf": float(np.max(np.abs(vals)))}


@settings(max_examples=200)
@given(half=st.integers(2, 256).flatmap(lambda m: st.lists(
    st.floats(-1e6, 1e6, allow_subnormal=False), min_size=2 * m,
    max_size=2 * m)))
def test_rearrangements_keep_multiset_and_lp_sums(half):
    # real antiperiodic samples: the second half-period negates the first
    vals = np.concatenate([half, np.negative(half)])
    g = grid_of(vals)
    h = 2 * T / g.n
    base = _lp_sums(vals, h)
    for out in (rearrange_star(g), rearrange_hash(g)):
        assert np.array_equal(np.sort(out.values.real), np.sort(vals))
        sums = _lp_sums(out.values.real, h)
        assert sums["Linf"] == base["Linf"]
        for p in ("L1", "L2"):
            assert abs(sums[p] - base[p]) <= _LP_TOL * base[p]


def test_complex_samples_rejected():
    with pytest.raises(ComplexInput):
        rearrange_star(grid_of(np.full(64, 1.0 + 0.5j)))
    f = random_field(T, 8, np.random.default_rng(1))  # complex coefficients
    with pytest.raises(ComplexInput):
        polya_szego_check(f, 1.5, n=256)


def test_grid_size_validation():
    with pytest.raises(SamplingError):
        rearrange_star(grid_of(np.ones(66)))
    with pytest.raises(ValidationError):
        rearrange_star(np.ones(64))


def test_rearranged_samples_pass_to_modes():
    # star output of an antiperiodic field has no even-harmonic content
    # beyond roundoff, so the spectral round trip just works
    g = to_grid(random_real(2), 512)
    f = to_modes(rearrange_star(g))
    assert f.n_modes == 128
    assert antiperiodic_defects(to_grid(f, 512).values[None])[0] < 1e-13


def test_kinetic_equality_for_symmetric_decreasing_input():
    rep = polya_szego_check(cosine_field(T, 1.0, n_modes=8), 1.5, n=512)
    assert rep["satisfied"]
    assert abs(rep["kinetic_star"] - rep["kinetic_original"]) < 1e-12


def test_kinetic_strictly_drops_for_oscillatory_input():
    # samples of cos(3 pi x/T) on a power-of-two grid are a permutation
    # of the cos(pi x/T) samples, so the star energy is exactly 3^-alpha
    # times the original
    n = 512
    x = 2 * T * np.arange(n) / n
    f3 = to_modes(grid_of(np.cos(3 * np.pi * x / T)))
    for alpha in (1.2, 1.7, 2.0):
        rep = polya_szego_check(f3, alpha, n=n)
        assert rep["kinetic_star"] < rep["kinetic_original"]
        assert rep["kinetic_original"] / rep["kinetic_star"] == pytest.approx(
            3.0**alpha, rel=1e-10)
        assert rep["violation"] == 0.0


def test_star_and_hash_energies_agree():
    rep = polya_szego_check(random_real(13), 1.5, n=512)
    assert rep["star_hash_gap"] <= 1e-12 * rep["kinetic_original"]
    assert rep["antiperiodic_defect"] < 1e-13


def test_kinetic_never_increases_over_random_fields():
    for alpha in (1.2, 1.5, 2.0):
        for seed in range(100):
            rep = polya_szego_check(random_real(seed, n_modes=10), alpha, n=512)
            assert rep["satisfied"]
            assert rep["violation"] <= rep["eps_rearr"]


def test_grid_defect_shrinks_linearly_with_resolution():
    sizes = (256, 512, 1024)
    mean = {n: 0.0 for n in sizes}
    for seed in range(6):
        f = random_real(seed)
        for n in sizes:
            mean[n] += polya_szego_check(f, 1.5, n)["evenness_defect"] / 6
    # one-cell asymmetry halves per doubling (allow generous slack)
    assert mean[512] < mean[256] / 1.4
    assert mean[1024] < mean[512] / 1.4
    # the documented budget is exactly linear in 1/N
    f = random_real(0)
    b = [polya_szego_check(f, 1.5, n)["eps_rearr"] for n in sizes]
    assert b[1] == pytest.approx(b[0] / 2, rel=1e-15)
    assert b[2] == pytest.approx(b[1] / 2, rel=1e-15)


def test_potential_ordering_nonincreasing_uses_hash():
    n = 512
    x = 2 * T * np.arange(n) / n
    rep = potential_ordering_check(grid_of(np.cos(2 * np.pi * x / T)), 100, seed=11)
    assert rep["direction"] == "nonincreasing"
    assert rep["violations"] == 0
    assert rep["min_gap"] > 0      # strict on generic fields
    assert rep["satisfied"]


def test_potential_ordering_nondecreasing_uses_star():
    n = 512
    x = 2 * T * np.arange(n) / n
    rep = potential_ordering_check(grid_of(-np.cos(2 * np.pi * x / T)), 100, seed=11)
    assert rep["direction"] == "nondecreasing"
    assert rep["violations"] == 0
    assert rep["min_gap"] > 0


def test_constant_potential_gives_equality():
    rep = potential_ordering_check(grid_of(np.full(256, 0.7)), 25)
    assert rep["direction"] == "constant"
    assert abs(rep["min_gap"]) < 1e-12
    assert rep["violations"] == 0


def test_nonmonotone_potential_is_refused():
    n = 256
    x = 2 * T * np.arange(n) / n
    with pytest.raises(MonotonicityUnverified):
        potential_ordering_check(grid_of(np.cos(4 * np.pi * x / T)), 5)


def test_potential_shape_validation():
    n = 256
    x = 2 * T * np.arange(n) / n
    with pytest.raises(ValidationError, match="even"):
        potential_ordering_check(grid_of(np.sin(2 * np.pi * x / T) + 2.0), 5)
    with pytest.raises(ValidationError, match="periodic"):
        potential_ordering_check(grid_of(np.cos(np.pi * x / T)), 5)
    with pytest.raises(ValidationError):
        potential_ordering_check(grid_of(np.full(n, 1.0)), 0)
    with pytest.raises(SamplingError,
                       match=r"^potential grid must be a multiple of 4, got 10$"):
        potential_ordering_check(grid_of(np.full(10, 1.0)), 5)


@functools.lru_cache(maxsize=None)
def defoc_profile():
    params = ProblemParams(alpha=1.5, sigma=1.0, gamma=-1, half_period=T)
    return solve_defocusing(params, mu=1.0, n_modes=48, tol=1e-9)


def even_sector_field(vec, half_period):
    # even-sector coordinates v_j against sqrt(1/T) cos((2j+1) pi x/T)
    m = len(vec)
    coeff = np.zeros(2 * m, dtype=complex)
    coeff[m:] = vec / (2.0 * np.sqrt(half_period))
    coeff[:m] = coeff[m:][::-1]
    return AntiperiodicField(half_period, coeff)


def test_ground_state_ordering_chain_through_rearrangement():
    # hash rearrangement of the even-sector ground eigenfunction must not
    # raise the kinetic-plus-potential Rayleigh quotient, which is how
    # the odd sector ends up below the even one for a defocusing profile
    prof = defoc_profile()
    spectra = sector_spectra(prof, 96)
    ev = spectra[("L_minus", "even")]
    g = even_sector_field(ev.eigenvectors[:, 0], T)

    n = 1024
    h = 2 * T / n
    vpot = np.abs(to_grid(prof.field, n).values.real) ** 2  # -gamma phi^2, gamma = -1
    gv = to_grid(g, n).values.real

    def quotient(samples, kin):
        # all three pieces over the full [0, 2T) period: the kinetic
        # functional integrates over [0, T], hence the factor 4
        return (4.0 * kin + h * float(vpot @ samples**2)) / (h * float(samples @ samples))

    r_even = quotient(gv, kinetic(g, 1.5))
    # consistency with the eigenvalue this vector came from
    assert r_even == pytest.approx(ev.eigenvalues[0] - prof.omega, abs=1e-6)

    hsh = rearrange_hash(GridSamples(T, gv))
    r_hash = quotient(hsh.values.real, kinetic(to_modes(hsh), 1.5))
    assert r_hash <= r_even + polya_szego_check(g, 1.5, n)["eps_rearr"]

    # and the quotient bound is consistent with the sector ordering
    odd = spectra[("L_minus", "odd")]
    assert odd.eigenvalues[0] <= ev.eigenvalues[0] + 1e-12


def _same_bits(a, b):
    """== and the same sign bit for floats, == for everything else."""
    if isinstance(a, float):
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("n", [8, 1024, 4096])
@pytest.mark.parametrize("trials", [1, 63, 64, 65, 130])
def test_polya_szego_trials_match_one_field_at_a_time(trials, n):
    n_modes = min(16, n // 4)
    block = polya_szego_trials(T, 1.5, n_modes, n, trials,
                               np.random.default_rng(trials))
    rng = np.random.default_rng(trials)
    fields = [real_part(random_field(T, n_modes, rng)) for _ in range(trials)]
    assert len(block) == trials
    for chk, f in zip(block, fields):
        for ref in (polya_szego_check(f, 1.5, n),
                    oracles.polya_szego_reference(f, 1.5, n)):
            assert chk.keys() == ref.keys()
            assert all(_same_bits(chk[key], ref[key]) for key in chk), f


@pytest.mark.parametrize("n", [8, 1024, 4096])
@pytest.mark.parametrize("trials", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_potential_ordering_matches_one_field_at_a_time(trials, n, sign):
    x = 2 * T * np.arange(n) / n
    vals = sign * np.cos(2 * np.pi * x / T)
    n_modes = min(16, n // 4)
    rep = potential_ordering_check(grid_of(vals), trials, n_modes, seed=trials)
    ref = oracles.potential_ordering_reference(vals, T, trials, n_modes, trials)
    assert rep.keys() == ref.keys()
    assert all(_same_bits(rep[key], ref[key]) for key in rep)


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_star_and_hash_rows_match_one_vector_at_a_time(n):
    rng = np.random.default_rng(n)
    # quantized samples: many ties, which the stable sort must break the
    # same way in every row as for one vector alone
    quantized = np.round(4.0 * rng.standard_normal((9, n))) / 4.0
    quantized[0] = 0.0
    smooth = rng.standard_normal((9, n))
    for vals in (quantized, smooth):
        star, hsh = _star_rows(vals), _hash_rows(vals)
        for row, s, h in zip(vals, star, hsh):
            assert np.array_equal(s, oracles.star_reference(row))
            assert np.array_equal(h, oracles.hash_reference(row))
            assert np.array_equal(rearrange_star(grid_of(row)).values.real, s)
            assert np.array_equal(rearrange_hash(grid_of(row)).values.real, h)


def test_rearrange_command_peak_memory_is_bounded():
    # the block is bounded by _BLOCK_SAMPLES; one unchunked 500 x 1024
    # block peaks near 43 MB under tracemalloc
    cfg = parse_config(f"""
[problem]
alpha = 1.5
sigma = 1
gamma = -1
half_period = {T!r}

[run]
command = rearrange
seed = 1

[rearrange]
trials = 500
n_modes = 16
n_grid = 1024
""")
    tracemalloc.start()
    try:
        cli._cmd_rearrange(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
