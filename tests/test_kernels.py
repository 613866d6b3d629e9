import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fnlslab.kernels as kernels
from fnlslab.errors import (PositivityViolation, SamplingError, UnderResolved,
                            ValidationError)
from fnlslab.fields import random_field, real_part, to_grid
from fnlslab.kernels import (KernelSamples, kernel_ka, kernel_kp,
                             positivity_report)
from oracles import (gaussian_lattice_kernel, kernel_ka_reference,
                     pair_tensor_dense, poisson_closed_form,
                     poisson_lattice_kernel, positivity_report_reference)

T = np.pi


def offset(ka):
    # off[m] = K_a(2T m / N), modular index
    return np.roll(ka.grid, -(ka.n // 2))


def test_kernel_mass_is_one():
    for alpha, t in [(2.0, 0.1), (1.5, 0.3), (1.0, 0.5), (0.7, 1.0)]:
        kp = kernel_kp(alpha, T, t, 512)
        assert abs(np.mean(kp.grid) * 2 * T - 1.0) < 1e-14


def test_kernel_is_even():
    kp = kernel_kp(1.3, T, 0.4, 256)
    j = np.arange(256)
    assert np.max(np.abs(kp.grid[j] - kp.grid[(256 - j) % 256])) < 1e-15


def test_large_time_kernel_flattens_to_uniform():
    # only the constant mode survives (pi/T)^alpha t = 40
    kp = kernel_kp(1.5, T, 40.0, 128)
    assert np.max(np.abs(kp.grid - 1.0 / (2 * T))) < 1e-15


def test_gaussian_kernel_matches_lattice_sum():
    for t in (0.1, 0.5, 2.0):
        kp = kernel_kp(2.0, T, t, 256)
        ref = gaussian_lattice_kernel(kp.x, t, T)
        assert np.max(np.abs(kp.grid - ref)) < 1e-12


def test_cauchy_kernel_matches_lattice_sum():
    for t in (0.1, 0.5, 2.0):
        kp = kernel_kp(1.0, T, t, 1024)
        ref = poisson_lattice_kernel(kp.x, t, T)
        assert np.max(np.abs(kp.grid - ref)) < 1e-10


def test_cauchy_kernel_matches_closed_form():
    for t in (0.1, 0.5, 2.0):
        kp = kernel_kp(1.0, T, t, 1024)
        ref = poisson_closed_form(kp.x, t, T)
        assert np.max(np.abs(kp.grid - ref)) < 1e-12


def test_antiperiodized_kernel_structure():
    ka = kernel_ka(kernel_kp(1.5, T, 0.5, 512))
    off = offset(ka)
    n = ka.n
    # antiperiodic under half-grid shift, zero at T/2, odd about T/2
    assert np.max(np.abs(off + np.roll(off, -n // 2))) < 1e-15
    assert abs(off[n // 4]) < 1e-15
    m = np.arange(1, n // 4)
    assert np.max(np.abs(off[n // 4 + m] + off[n // 4 - m])) < 1e-15
    # peak at the origin
    assert np.argmax(off) == 0


def test_semigroup_matches_kernel_quadrature():
    # convolution against K_a over half a period equals the spectral
    # semigroup; the integrand is T-periodic so the rectangle rule is
    # exponentially accurate
    n = 512
    alpha, t = 1.5, 0.4
    f = real_part(random_field(T, 24, np.random.default_rng(7)))
    fvals = to_grid(f, n).values.real
    heat = np.exp(-np.abs(np.pi * f.wavenumbers / T) ** alpha * t)
    out = to_grid(f.with_coeff(f.coeff * heat), n).values.real
    off = offset(kernel_ka(kernel_kp(alpha, T, t, n)))
    h = 2 * T / n
    j = np.arange(n // 2)
    conv = h * np.array([off[(i - j) % n] @ fvals[: n // 2] for i in range(n)])
    assert np.max(np.abs(conv - out)) < 1e-10


def test_fundamental_mode_decays_at_symbol_rate():
    n = 512
    for alpha, t in [(1.1, 0.3), (1.5, 0.7), (2.0, 1.0)]:
        off = offset(kernel_ka(kernel_kp(alpha, T, t, n)))
        x = 2 * T * np.arange(n) / n
        fvals = np.cos(np.pi * x / T)
        h = 2 * T / n
        j = np.arange(n // 2)
        conv = h * np.array([off[(i - j) % n] @ fvals[: n // 2] for i in range(n)])
        lam = np.exp(-((np.pi / T) ** alpha) * t)
        assert np.max(np.abs(conv - lam * fvals)) < 1e-12


def test_small_time_on_coarse_grid_is_refused():
    with pytest.raises(UnderResolved, match="grid points"):
        kernel_kp(1.0, T, 1e-3, 64)


def test_argument_validation():
    with pytest.raises(ValidationError):
        kernel_kp(2.5, T, 0.5, 256)
    with pytest.raises(ValidationError):
        kernel_kp(0.0, T, 0.5, 256)
    with pytest.raises(ValidationError):
        kernel_kp(1.5, T, -0.5, 256)
    with pytest.raises(ValidationError):
        kernel_kp(1.5, -T, 0.5, 256)
    with pytest.raises(SamplingError):
        kernel_kp(1.5, T, 0.5, 250)


@pytest.mark.parametrize("planted, refused", [(2e-15, False), (2e-13, True)])
def test_kernel_synthesis_that_loses_the_even_symmetry_is_refused(
        monkeypatch, planted, refused):
    # a real synthesis keeps |Im| below 2e-16 of the peak; an imaginary
    # part above 1e-14 of max(1, peak) (0.35 here) is refused
    synth = kernels.synthesize
    monkeypatch.setattr(kernels, "synthesize",
                        lambda *args: synth(*args) + 2j * T * planted)
    if not refused:
        assert kernel_kp(1.5, T, 0.5, 256).kind == "Kp"
        return
    with pytest.raises(SamplingError, match=re.escape(
            "kernel synthesis lost the even symmetry")):
        kernel_kp(1.5, T, 0.5, 256)


def test_kernel_ka_antiperiodizes_the_kernel_it_is_given():
    # the same samples as a K_a built from parameters with its own K_p
    kp = kernel_kp(1.5, T, 0.5, 256)
    ka = kernel_ka(kp)
    ref = kernel_ka_reference(1.5, T, 0.5, 256)
    assert ka.grid.tobytes() == ref.grid.tobytes()
    assert (ka.alpha, ka.half_period, ka.t, ka.kind) == (1.5, T, 0.5, "Ka")
    assert not ka.grid.flags.writeable and kp.kind == "Kp"


def test_kernel_ka_refuses_a_kernel_that_is_not_kp():
    ka = kernel_ka(kernel_kp(1.5, T, 0.5, 256))
    with pytest.raises(ValidationError, match=re.escape(
            "kernel_ka needs a Kp kernel, got Ka")):
        kernel_ka(ka)


def test_positivity_report_margins_are_positive():
    for alpha in (1.1, 1.5, 2.0):
        t = 0.5 * (T / np.pi) ** alpha
        rep = positivity_report(kernel_ka(kernel_kp(alpha, T, t, 512)))
        assert rep["interior_min"] > 0
        assert rep["decrease_min"] > 0
        assert rep["even_pair_min"] > 0
        assert rep["odd_pair_min"] > 0


def test_positivity_report_rejects_periodic_kernel():
    kp = kernel_kp(1.5, T, 0.5, 256)
    with pytest.raises(ValidationError):
        positivity_report(kp)


def test_doctored_kernel_trips_the_certificate():
    ka = kernel_ka(kernel_kp(1.5, T, 0.5, 256))
    bad = dataclasses.replace(ka, grid=-ka.grid)
    with pytest.raises(PositivityViolation):
        positivity_report(bad)


def doctored(ka, index, value):
    """ka with K_a at the modular offset index (x = index * step) set to value."""
    grid = ka.grid.copy()
    grid[(index + ka.n // 2) % ka.n] = value
    return dataclasses.replace(ka, grid=grid)


@pytest.mark.parametrize("t", [30.0, 100.0])
def test_margins_at_the_cancellation_floor_are_under_resolved(t):
    # K_a = K_p(x) - K_p(x - T) cancels two values near 1/2T down to about
    # e^(-t) 2/T, so past t = 20.3 at N = 1024 its smallest margins fall to
    # the roundoff floor N u max K_p: a resolution fault, the interior
    # margin first
    value = {30.0: "3.330669e-16", 100.0: "0.000000e+00"}[t]
    ka = kernel_ka(kernel_kp(1.5, T, t, 1024))
    with pytest.raises(UnderResolved, match=(
            rf"^K_a at x = -1\.564660: value {re.escape(value)} is within the "
            r"roundoff floor 1\.8e-14 of "
            rf"K_p\(x\) - K_p\(x - T\) at N = 1024; t = {t:g} is past t = 20\.3, "
            r"the largest this grid resolves$")):
        positivity_report(ka)
    # a negative margin above the floor is still a violation
    with pytest.raises(PositivityViolation, match="value -1.000000e-06 is not positive"):
        positivity_report(doctored(ka, 5, -1e-6))


@pytest.mark.parametrize("n, t, x, value, floor, t_max", [
    (1024, 21.0, "+0.006136", "9.076073e-15", "1.8e-14", "20.3"),
    (1024, 23.0, "+0.006136", "1.193490e-15", "1.8e-14", "20.3"),
    (1024, 25.0, "+0.006136", "1.665335e-16", "1.8e-14", "20.3"),
    (4096, 17.0, "+0.001534", "3.097522e-14", "7.2e-14", "16.2"),
    (4096, 22.0, "+0.001534", "1.665335e-16", "7.2e-14", "16.2")])
def test_positive_margins_within_the_floor_past_t_max_are_under_resolved(
        n, t, x, value, floor, t_max):
    # past t_max a positive margin below the floor certifies nothing: its
    # sign is the rounding's, so it fails as the zero margins do
    with pytest.raises(UnderResolved, match="^" + re.escape(
            f"monotone decrease of K_a at x = {x}: value {value} is within the "
            f"roundoff floor {floor} of K_p(x) - K_p(x - T) at N = {n}; "
            f"t = {t:g} is past t = {t_max}, the largest this grid resolves") + "$"):
        positivity_report(kernel_ka(kernel_kp(1.5, T, t, n)))


def test_positive_margins_within_the_floor_pass_at_a_resolved_t():
    # at t <= t_max the floor does not apply: a decrease margin of one ulp
    # (the floor is 4.5e-15 at N = 256) still certifies
    ka = kernel_ka(kernel_kp(1.5, T, 0.5, 256))
    j = 3 * ka.n // 8
    bad = doctored(ka, j, np.nextafter(offset(ka)[j - 1], -np.inf))
    drop = offset(bad)[j - 1] - offset(bad)[j]
    assert 0.0 < drop < 1e-16
    assert positivity_report(bad)["decrease_min"] == drop


def test_interior_certificate_names_the_first_minimum():
    ka = kernel_ka(kernel_kp(1.5, T, 0.5, 256))
    n, step = ka.n, 2 * T / ka.n
    bad = doctored(ka, n - 5, -1e-3)                 # x = -5 step
    off = offset(bad)
    half = np.arange(-n // 4 + 1, n // 4)
    i = int(np.argmin(off[half % n]))
    assert half[i] == -5
    with pytest.raises(PositivityViolation, match=re.escape(
            f"K_a at x = {half[i] * step:+.6f}: value {off[half[i] % n]:.6e}")):
        positivity_report(bad)


def test_decrease_certificate_names_the_first_minimum():
    ka = kernel_ka(kernel_kp(1.5, T, 0.5, 256))
    n, step = ka.n, 2 * T / ka.n
    j = 3 * n // 8                                   # in (T/2, T): no interior point
    bad = doctored(ka, j, offset(ka)[j - 1])         # a flat step on the ramp
    drops = -np.diff(offset(bad)[: n // 2 + 1])
    i = int(np.argmin(drops))
    assert i + 1 == j
    with pytest.raises(PositivityViolation, match=re.escape(
            f"monotone decrease of K_a at x = {(i + 1) * step:+.6f}: "
            f"value {drops[i]:.6e}")):
        positivity_report(bad)


@pytest.mark.parametrize("parity, index, factor", [
    # x = -T + 10 step: only the pair tensors see it, the even one first;
    # the even minimum sits off the diagonal, tied with its transpose
    ("even", 138, -10.0),
    # x = -T + step: only the odd pair tensor sees it (as x + y)
    ("odd", 129, 10.0),
])
def test_pair_certificates_name_the_first_oracle_minimum(parity, index, factor):
    ka = kernel_ka(kernel_kp(1.5, T, 0.5, 256))
    step = 2 * T / ka.n
    bad = doctored(ka, index, factor * np.max(np.abs(ka.grid)))
    if parity == "odd":
        assert np.min(pair_tensor_dense(offset(bad), "even")[0]) > 0
    tensor, idx = pair_tensor_dense(offset(bad), parity)
    xi, yi = np.unravel_index(int(np.argmin(tensor)), tensor.shape)
    with pytest.raises(PositivityViolation, match=re.escape(
            f"{parity} pair kernel at x = {idx[xi] * step:+.6f}, "
            f"y = {idx[yi] * step:+.6f}: value {tensor[xi, yi]:.6e}")):
        positivity_report(bad)


@pytest.mark.parametrize("case", ["nan", "tie"])
def test_pair_certificates_name_the_dense_argmin_in_row_order(case):
    # each case puts the dense argmin where only the order of the rows
    # finds it: behind rows of finite entries, or tied with a later row
    ka = kernel_ka(kernel_kp(1.5, T, 0.5, 1024))
    n, step = ka.n, 2 * T / ka.n
    big = np.max(np.abs(ka.grid))
    if case == "nan":
        # +inf at x = -T + 186 and 188 steps: the even tensor only sees
        # inf + finite, the odd one inf - inf = nan from row 186 on, after
        # rows whose entries are finite and positive
        parity, bad = "odd", doctored(doctored(ka, 698, np.inf), 700, np.inf)
    else:
        # an exactly even line with a deep dip at x = -T + 212 steps: the
        # even minimum sits at (0, 210), tied with its transpose (210, 0)
        off = offset(ka)
        m = np.arange(1, n // 2)
        off[n - m] = off[m]
        parity, bad = "even", doctored(
            dataclasses.replace(ka, grid=np.roll(off, n // 2)), 724, -10 * big)
    with np.errstate(invalid="ignore"):
        tensor, idx = pair_tensor_dense(offset(bad), parity)
    xi, yi = np.unravel_index(int(np.argmin(tensor)), tensor.shape)
    if case == "nan":
        assert xi == 186 and np.isnan(tensor[xi, yi])
        assert not np.any(np.isnan(tensor[:xi])) and np.min(tensor[:xi]) > 0
    else:
        assert (xi, yi) == (0, 210)
        assert tensor[yi, xi].tobytes() == tensor[xi, yi].tobytes()
    with pytest.raises(PositivityViolation, match=re.escape(
            f"{parity} pair kernel at x = {idx[xi] * step:+.6f}, "
            f"y = {idx[yi] * step:+.6f}: value {tensor[xi, yi]:.6e}")), \
            np.errstate(invalid="ignore"):
        positivity_report(bad)


@pytest.mark.parametrize("n", [4, 6, 10, 14, 18])
def test_positivity_report_refuses_grids_kernel_kp_refuses(n):
    # cos(pi x / T) passes all four certificates on any grid, but the
    # interior index set only covers (-T/2, T/2) when 4 divides N
    x = -T + 2 * T * np.arange(n) / n
    ka = KernelSamples(alpha=1.5, half_period=T, t=0.5,
                       grid=np.cos(np.pi * x / T), kind="Ka")
    with pytest.raises(SamplingError, match=re.escape(
            f"kernel grid must be a multiple of 4, >= 8, got {n}")):
        positivity_report(ka)


@settings(max_examples=100)
@given(quarter=st.integers(2, 550), seed=st.integers(0, 2**32 - 1),
       zeros=st.integers(0, 8))
@example(quarter=2, seed=1, zeros=2)                 # the smallest grid, N = 8
@example(quarter=550, seed=2, zeros=3)               # the largest, N = 2200
# both tensors positive, and a window mixing both parities of x + y
# would read a lower even minimum
@example(quarter=3, seed=19, zeros=0)
def test_pair_tensors_match_dense_oracle(quarter, seed, zeros):
    # A random offset line that passes the interior and decrease checks:
    # positive decreasing on [0, T/2), decreasing on to T, positive on
    # (-T/2, 0), free with planted +0.0 and -0.0 entries on (-T, -T/2].
    rng = np.random.default_rng(seed)
    n = 4 * quarter
    drops = rng.uniform(0.5, 1.5, n // 2)
    off = np.empty(n)
    off[: n // 2 + 1] = (np.sum(drops[: n // 4])
                         - np.concatenate([[0.0], np.cumsum(drops)]))
    off[n // 4] = np.copysign(0.0, rng.standard_normal())
    free = rng.standard_normal(n // 4)
    free[rng.integers(0, n // 4, zeros)] = np.copysign(
        0.0, rng.standard_normal(zeros))
    off[n // 2 + 1: 3 * n // 4 + 1] = free
    off[3 * n // 4 + 1:] = rng.uniform(0.1, 1.0, n // 4 - 1)
    ka = KernelSamples(alpha=1.5, half_period=T, t=0.5,
                       grid=np.roll(off, n // 2), kind="Ka")

    # each minimum is the dense tensor's first in row order, by its bytes;
    # the first one that is not positive is named instead
    step = 2 * T / n
    lows = {}
    for parity in ("even", "odd"):
        tensor, idx = pair_tensor_dense(off, parity)
        xi, yi = np.unravel_index(int(np.argmin(tensor)), tensor.shape)
        if not tensor[xi, yi] > 0:
            with pytest.raises(PositivityViolation, match=re.escape(
                    f"{parity} pair kernel at x = {idx[xi] * step:+.6f}, "
                    f"y = {idx[yi] * step:+.6f}: value {tensor[xi, yi]:.6e} ")):
                positivity_report(ka)
            return
        lows[f"{parity}_pair_min"] = tensor[xi, yi].tobytes()
    rep = positivity_report(ka)
    assert {key: np.float64(rep[key]).tobytes() for key in lows} == lows


def outcome(report, ka):
    """A report's values by their bytes, or its error's class and text."""
    try:
        with np.errstate(invalid="ignore"):
            return {key: np.float64(value).tobytes()
                    for key, value in report(ka).items()}
    except PositivityViolation as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n, alpha, t", [
    (8, 1.5, 5.0), (12, 2.0, 2.0), (64, 1.1, 1.0), (256, 1.5, 0.5),
    (1024, 1.9, 0.05), (4096, 1.5, 1.0), (16384, 0.8, 0.3)])
def test_pair_certificates_match_the_tile_scan(n, alpha, t):
    # against the row-tile scan the line minima replaced: every margin by
    # its bytes and every message, on the kernel and on copies with a
    # NaN, +-inf, +-0.0 or negative sample planted on (-T, -T/2], where
    # only the pair tensors read it (at one point, or two)
    ka = kernel_ka(kernel_kp(alpha, T, t, n))
    rng = np.random.default_rng(n)
    cases = [ka]
    for value in (np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-3):
        for count in (1, 2):
            bad = ka
            for index in rng.integers(n // 2 + 1, 3 * n // 4 + 1, count):
                bad = doctored(bad, index, value)
            cases.append(bad)
    for case in cases:
        assert outcome(positivity_report, case) == outcome(
            positivity_report_reference, case)
    assert isinstance(outcome(positivity_report, ka), dict)


def test_positivity_report_holds_one_pair_tensor():
    # O(N) lines only; a whole pair tensor is 34 MB at N = 4096 and
    # 537 MB at N = 16384
    for n in (4096, 16384):
        ka = kernel_ka(kernel_kp(1.5, T, 1.0, n))
        tracemalloc.start()
        try:
            positivity_report(ka)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 21


def test_pair_minima_coincide_under_half_period_shift():
    # G_odd(x + T/2, y + T/2) = G_even(x, y) since K_a flips sign under
    # a T shift; the two tensor minima are the same number
    rep = positivity_report(kernel_ka(kernel_kp(1.3, T, 0.7, 512)))
    assert rep["even_pair_min"] == pytest.approx(rep["odd_pair_min"], rel=1e-12)


def test_kernel_samples_are_read_only():
    kp = kernel_kp(1.5, T, 0.5, 256)
    with pytest.raises(ValueError):
        kp.grid[0] = 0.0
    assert isinstance(kp, KernelSamples)
    assert kp.n == 256
    assert kp.x[0] == -T
