import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial import polynomial as npoly

from conftest import (
    AR2_COEFFS,
    FS,
    ar2_coeffs,
    ar2_fixture_series,
    predictable_windows,
    random_stable_model,
    reference_burg_warped,
    reference_horner_tf,
)
from lipcot import lpc_core, testkit
from lipcot.errors import (
    DegenerateInputError,
    FrequencyOutOfRangeError,
    InvalidArgumentError,
    InvalidLambdaError,
    InvalidOrderError,
    NonConvergenceError,
    UnstableModelError,
)


@st.composite
def stable_pole_sets(draw, max_order=32, max_radius=0.95, max_repeats=3):
    """Orders 1-32 of real poles and conjugate pairs of radius up to 0.95,
    each repeated 1-3 times (by default).
    """
    order = draw(st.integers(1, max_order))
    pole_set = []
    while len(pole_set) < order:
        radius = draw(st.floats(0.0, max_radius))
        if order - len(pole_set) >= 2 and draw(st.booleans()):
            pole = radius * np.exp(1j * draw(st.floats(0.0, np.pi)))
            group = [pole, pole.conjugate()]
        else:
            group = [complex(draw(st.sampled_from([radius, -radius])))]
        for _ in range(draw(st.integers(1, max_repeats))):
            if len(pole_set) + len(group) <= order:
                pole_set.extend(group)
    return pole_set


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def horner_models(draw):
    """Orders 1-24 and |lam| < 0.9 (exact 0.0 and -0.0 included); coefficients
    with exact zeros of either sign, ending in a run of 0 to order zeros.
    """
    order = draw(st.integers(1, 24))
    coeffs = draw(hnp.arrays(float, order, elements=st.one_of(SIGNED_ZEROS, st.floats(-4, 4))))
    zeros = draw(st.integers(0, order))
    coeffs[order - zeros :] = draw(hnp.arrays(float, zeros, elements=SIGNED_ZEROS))
    lam = draw(st.one_of(SIGNED_ZEROS, st.floats(-0.9, 0.9, exclude_min=True, exclude_max=True)))
    return lpc_core.LpcModel(order, coeffs, 1.0, lam, FS)


@st.composite
def mixed_size_rows(draw):
    """2-6 coefficient rows, each cut to its own companion size (0 to the order)."""
    order = draw(st.integers(1, 12))
    rows = draw(st.integers(2, 6))
    element = st.one_of(SIGNED_ZEROS, st.floats(-1.5, 1.5))
    coeffs = draw(hnp.arrays(float, (rows, order), elements=element))
    for row in range(rows):
        coeffs[row, draw(st.integers(0, order)) :] = draw(SIGNED_ZEROS)
    return coeffs


@st.composite
def burg_rows(draw):
    """(rows, order, lam): zero-mean noise, walk, alternating and constant rows.

    Each row peaks at 1, then is scaled by 1, 1e150 or 1e-150.
    """
    order = draw(st.integers(1, 20))
    n = draw(st.integers(order + 1, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    kinds = st.sampled_from(["noise", "walk", "alt", "const"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=4)):
        row = {
            "noise": lambda: rng.standard_normal(n),
            "walk": lambda: np.cumsum(rng.standard_normal(n)),
            "alt": lambda: np.resize([1.0, -1.0], n),
            "const": lambda: np.full(n, 0.1),
        }[kind]()
        row = row / np.max(np.abs(row)) * draw(st.sampled_from([1.0, 1e150, 1e-150]))
        rows.append(row - row.mean())
    return np.array(rows), order, draw(st.floats(-0.6, 0.6))


class TestTypes:
    def test_segment_rejects_nan(self):
        with pytest.raises(ValueError):
            lpc_core.Segment([0.0, np.nan], FS)

    def test_segment_needs_two_samples(self):
        with pytest.raises(ValueError):
            lpc_core.Segment([1.0], FS)

    def test_model_rejects_bad_lambda(self):
        with pytest.raises(InvalidLambdaError):
            lpc_core.LpcModel(1, [0.5], 1.0, 1.0, FS)

    def test_model_checks_coefficient_count(self):
        with pytest.raises(ValueError):
            lpc_core.LpcModel(3, [0.5], 1.0, 0.0, FS)

    def test_model_order_below_one(self):
        with pytest.raises(InvalidOrderError):
            lpc_core.LpcModel(0, [], 1.0, 0.0, FS)

    def test_pole_set_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            lpc_core.PoleSet(np.zeros((2, 2)))

    @pytest.mark.parametrize("pole", [np.nan, np.inf, complex(0.5, np.nan), complex(-np.inf, 0.5)])
    def test_pole_set_must_be_finite(self, pole):
        # a NaN pole made a set that was not equal to itself
        with pytest.raises(InvalidArgumentError, match="finite"):
            lpc_core.PoleSet([0.5, pole])


class TestFitBurgWarped:
    def test_all_zero_segment_is_degenerate(self):
        seg = lpc_core.Segment(np.zeros(100), FS)
        with pytest.raises(DegenerateInputError):
            lpc_core.fit_burg_warped(seg, 16, 0.2)

    def test_constant_segment_is_degenerate(self):
        # so is a segment predicted without error: its log noise power is -inf
        for samples in (np.full(100, 3.7), *predictable_windows(100)):
            seg = lpc_core.Segment(samples, FS)
            with pytest.raises(DegenerateInputError):
                lpc_core.fit_burg_warped(seg, 4, 0.0)

    def test_huge_constant_rows_are_refused_without_arithmetic(self):
        # a mean or a Burg stage over 1e306 overflows; any RuntimeWarning fails this test
        rng = np.random.default_rng(5)
        windows = np.vstack([np.full((2, 2500), 1e306), rng.standard_normal((1, 2500))])
        coeffs, noise_power, ok = lpc_core.fit_windows(windows, 4, 0.2)
        assert ok.tolist() == [False, False, True]
        solo = lpc_core.fit_windows(windows[2], 4, 0.2)
        assert coeffs[2].tobytes() == solo[0].tobytes()
        assert noise_power[2] == solo[1]
        with pytest.raises(DegenerateInputError):
            lpc_core.fit_burg_warped(lpc_core.Segment(windows[0], FS), 4, 0.2)

    @pytest.mark.parametrize(
        "first, error, message",
        [
            (1.2e154, None, None),
            (
                1.5e154,
                InvalidArgumentError,
                "noise_power must be a finite non-negative number, got np.float64(inf)",
            ),
            (1e155, DegenerateInputError, "constant segment, or one predicted without error"),
        ],
        ids=["fits", "power-overflows", "power-nan"],
    )
    def test_an_overflowing_fit_is_refused(self, first, error, message):
        # at 1.5e154 the window's power overflows to inf while its
        # reflections stay finite, so the model refuses the noise power; at
        # 1e155 the power is NaN, and the fit is degenerate
        samples = np.random.default_rng(0).standard_normal(100)
        samples[0] = first
        segment = lpc_core.Segment(samples, FS)
        with np.errstate(over="ignore", invalid="ignore"):
            if error is None:
                model = lpc_core.fit_burg_warped(segment, 16, 0.2)
                assert np.all(np.isfinite(model.coeffs)) and np.isfinite(model.noise_power)
                return
            with pytest.raises(error) as caught:
                lpc_core.fit_burg_warped(segment, 16, 0.2)
        assert type(caught.value) is error and str(caught.value) == message

    @pytest.mark.parametrize(
        "order, lam", [(16, 0.2), (np.int64(16), np.float64(0.2))], ids=["python", "numpy"]
    )
    def test_a_fitted_model_is_the_checked_one(self, order, lam):
        # fit_burg_warped builds its model without re-running the constructor's checks
        samples = np.random.default_rng(3).standard_normal(100)
        model = lpc_core.fit_burg_warped(lpc_core.Segment(samples, FS), order, lam)
        coeffs, noise_power, _ = lpc_core.fit_windows(samples, order, lam)
        checked = lpc_core.LpcModel(order, coeffs, noise_power, lam, FS)
        assert model == checked and repr(model) == repr(checked)
        assert [type(model.order), type(model.noise_power), type(model.lam)] == [int, float, float]

    def test_order_must_be_below_length(self):
        seg = lpc_core.Segment(np.arange(8.0), FS)
        with pytest.raises(InvalidOrderError):
            lpc_core.fit_burg_warped(seg, 8, 0.0)
        with pytest.raises(InvalidOrderError):
            lpc_core.fit_burg_warped(seg, 0, 0.0)

    def test_lambda_bound(self):
        seg = lpc_core.Segment(np.random.default_rng(0).normal(size=64), FS)
        with pytest.raises(InvalidLambdaError):
            lpc_core.fit_burg_warped(seg, 2, 1.0)

    def test_recovers_seeded_ar2(self):
        x = ar2_fixture_series(seed=42)
        model = lpc_core.fit_burg_warped(lpc_core.Segment(x, FS), 2, 0.0)
        assert abs(model.coeffs[0] - AR2_COEFFS[0]) <= 0.05
        assert abs(model.coeffs[1] - AR2_COEFFS[1]) <= 0.05
        assert abs(model.noise_power - 1.0) <= 0.10

    def test_matches_reference_burg_at_lambda_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.normal(size=512)
            for order in (2, 8, 16):
                model = lpc_core.fit_burg_warped(lpc_core.Segment(x, FS), order, 0.0)
                ref_coeffs, ref_power = testkit.reference_burg(x, order)
                assert np.max(np.abs(model.coeffs - ref_coeffs)) < 1e-8
                assert abs(model.noise_power - ref_power) < 1e-8

    def test_stage_power_monotone_and_reflections_bounded(self):
        rng = np.random.default_rng(11)
        for lam in (0.0, 0.2, -0.4):
            for _ in range(20):
                x = rng.normal(size=256)
                _, _, powers, reflections = lpc_core.warped_burg(x - x.mean(), 12, lam)
                assert np.all(np.diff(powers) <= 1e-12)
                assert np.all(np.abs(reflections) <= 1.0 + 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(burg_rows())
    def test_derived_powers_match_the_sequential_rule(self, case):
        # warped_burg forms stage powers from the reflections after its loop;
        # the reference updates the power stage by stage
        rows, order, lam = case
        stacked = lpc_core.warped_burg(rows, order, lam)
        for r, x in enumerate(rows):
            reference = reference_burg_warped(x, order, lam)
            if reference[1] > 0.0:
                want = [np.asarray(v).tobytes() for v in reference]
                for got in ([v[r] for v in stacked], lpc_core.warped_burg(x, order, lam)):
                    assert [np.asarray(v).tobytes() for v in got] == want

    @pytest.mark.parametrize(
        "shape, order, lam, rows",
        [
            ((0, 50), 16, 0.2, "mixed"),
            ((2, 3, 40), 6, 0.3, "mixed"),
            ((4, 30), 1, 0.2, "mixed"),  # one stage: no lattice update runs
            ((4, 30), 29, 0.2, "mixed"),  # the last stage is one sample long
            ((6, 64), 8, -0.5, "mixed"),
            ((3, 40), 6, 0.0, "alternating"),
            ((3, 40), 8, 0.2, "tiny"),
        ],
        ids=[
            "0-rows", "2x3-stack", "order-1", "order-n-1", "half-zero-negative-lam",
            "alternating-lam-0", "subnormal-powers",
        ],
    )
    def test_stack_equals_its_rows_byte_for_byte(self, shape, order, lam, rows):
        # a stack fits in reused buffers, one window in fresh arrays with its
        # k, Levinson step and stage powers in plain floats; the bytes,
        # signed zeros included, are those of the plain recursion
        windows = np.random.default_rng(order).standard_normal(shape)
        windows[..., ::2, shape[-1] // 2 :] = 0.0
        windows[..., 1::2, : shape[-1] // 2] = -0.0
        if rows == "alternating":
            windows[..., 1:, :] = np.resize([1.0, -1.0], shape[-1])
        elif rows == "tiny":
            windows[..., 1:, :] *= 1e-160
        windows[..., :1, :] = np.eye(1, shape[-1])  # an impulse: k is -0.0 at every stage
        stacked = lpc_core.warped_burg(windows, order, lam)
        assert np.all(np.signbit(stacked[3][..., :1, :]))
        if rows == "alternating":  # k is exactly 1: the gain clamps to 0, and so does the power
            assert np.all(stacked[3][1:, 0] == 1.0) and np.all(stacked[1][1:] == 0.0)
        elif rows == "tiny":  # the stage powers are subnormal
            powers = stacked[2][1:]
            assert np.all((0.0 < powers) & (powers < np.finfo(float).smallest_normal))
        assert [v.shape for v in stacked] == [
            shape[:-1] + (order,), shape[:-1], shape[:-1] + (order + 1,), shape[:-1] + (order,)
        ]
        for index in np.ndindex(shape[:-1]):
            x = windows[index]
            want = [np.asarray(v).tobytes() for v in lpc_core.warped_burg(x, order, lam)]
            assert [np.asarray(v[index]).tobytes() for v in stacked] == want
            reference = reference_burg_warped(x, order, lam)
            assert [np.asarray(v).tobytes() for v in reference] == want
        if len(shape) == 2:
            coeffs, noise_power, ok = lpc_core.fit_windows(windows, order, lam)
            assert coeffs.shape == (shape[0], order) and noise_power.shape == ok.shape == shape[:1]

    def test_fit_holds_less_than_eight_chunks(self):
        # the chunk pipeline._fit_cells cuts for 1000-sample windows
        chunk = np.random.default_rng(9).standard_normal((32, 1000))
        lpc_core.fit_windows(chunk, 16, 0.2)  # first-call set-up is not the fit's
        tracemalloc.start()
        try:
            lpc_core.fit_windows(chunk, 16, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * chunk.nbytes, f"peak {peak} bytes for a {chunk.nbytes}-byte chunk"

    def test_mean_is_removed_before_fitting(self):
        x = ar2_fixture_series(seed=5)
        a = lpc_core.fit_burg_warped(lpc_core.Segment(x, FS), 2, 0.0)
        b = lpc_core.fit_burg_warped(lpc_core.Segment(x + 100.0, FS), 2, 0.0)
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-9)


class TestPoles:
    def test_single_real_pole(self):
        model = lpc_core.LpcModel(1, [-0.5], 1.0, 0.0, FS)
        np.testing.assert_allclose(lpc_core.poles(model).poles, [0.5 + 0j])

    def test_conjugate_pair_recovered_exactly(self):
        pole = 0.9 * np.exp(2j * np.pi * 10.0 / FS)
        coeffs = lpc_core.poles_to_coeffs([pole, pole.conjugate()]).real
        model = lpc_core.LpcModel(2, coeffs, 1.0, 0.0, FS)
        found = lpc_core.poles(model).poles
        expected = np.sort_complex(np.array([pole, pole.conjugate()]))
        np.testing.assert_allclose(found, expected, atol=1e-9)

    def test_ar2_fixture_pole_geometry(self):
        model = lpc_core.LpcModel(2, list(AR2_COEFFS), 1.0, 0.0, FS)
        found = lpc_core.poles(model).poles
        np.testing.assert_allclose(np.abs(found), 0.9, atol=1e-9)
        hz = FS / (2 * np.pi) * np.angle(found)
        np.testing.assert_allclose(np.sort(hz), [-10.0, 10.0], atol=0.01)

    def test_closed_under_conjugation(self):
        rng = np.random.default_rng(3)
        for order in (2, 5, 8, 16):
            model = random_stable_model(rng, order)
            found = lpc_core.poles(model).poles
            for pole in found:
                assert np.min(np.abs(found - np.conj(pole))) < 1e-6

    def test_reexpansion_matches_coefficients(self):
        rng = np.random.default_rng(4)
        for order in (2, 7, 16):
            model = random_stable_model(rng, order)
            found = lpc_core.poles(model).poles
            back = lpc_core.poles_to_coeffs(found).real
            assert np.max(np.abs(back - model.coeffs)) < 1e-6

    def test_trailing_zero_coefficients_become_origin_poles(self):
        model = lpc_core.LpcModel(3, [-0.5, 0.0, 0.0], 1.0, 0.0, FS)
        found = np.sort_complex(lpc_core.poles(model).poles)
        np.testing.assert_allclose(found, [0.0, 0.0, 0.5], atol=1e-12)

    def test_pole_matrix_rows_equal_np_roots(self):
        rng = np.random.default_rng(9)
        coeffs = np.stack([random_stable_model(rng, 6).coeffs for _ in range(12)])
        coeffs[3, 4:] = 0.0
        coeffs[4, 1:] = 0.0
        coeffs[5] = 0.0
        coeffs[6, 5] = 0.0
        for row, found in zip(coeffs, lpc_core.pole_matrix(coeffs)):
            roots = np.roots(np.concatenate(([1.0], row))).astype(complex)
            roots = np.where(np.abs(roots.imag) < 1e-9, roots.real + 0.0j, roots)
            assert found.tobytes() == np.sort_complex(roots).tobytes()

    def test_all_zero_coefficients(self):
        model = lpc_core.LpcModel(4, np.zeros(4), 1.0, 0.2, FS)
        np.testing.assert_array_equal(lpc_core.poles(model).poles, np.zeros(4, complex))

    def test_triple_root_is_resolved(self):
        # (1 - 0.5 z^-1)^3: a multiplicity-3 root spreads by about eps^(1/3),
        # yet the poles re-expand to the coefficients to rounding error
        coeffs = npoly.polypow([1.0, -0.5], 3)[1:]
        model = lpc_core.LpcModel(3, coeffs, 1.0, 0.0, FS)
        found = lpc_core.poles(model).poles
        assert np.max(np.abs(found - 0.5)) < 1e-4
        back = lpc_core.poles_to_coeffs(found)
        assert np.max(np.abs(back - coeffs)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(stable_pole_sets())
    def test_conjugate_closed_and_reexpands(self, pole_set):
        coeffs = lpc_core.poles_to_coeffs(pole_set).real
        model = lpc_core.LpcModel(len(pole_set), coeffs, 1.0, 0.0, FS)
        found = lpc_core.poles(model).poles
        np.testing.assert_array_equal(np.sort_complex(np.conj(found)), found)
        # piled-up repeated poles give coefficients in the thousands, so
        # the bound scales with the largest one
        back = lpc_core.poles_to_coeffs(found)
        assert np.max(np.abs(back - coeffs)) <= 1e-10 * max(1.0, np.max(np.abs(coeffs)))

    @settings(max_examples=300, deadline=None)
    @given(mixed_size_rows())
    def test_one_model_equals_its_row_of_a_stack(self, coeffs):
        stacked = lpc_core.pole_matrix(coeffs)
        for row, want in zip(coeffs, stacked):
            model = lpc_core.LpcModel(row.size, row, 1.0, 0.0, FS)
            assert lpc_core.poles(model).poles.tobytes() == want.tobytes()

    def test_eigenvalue_failure_surfaces_nonconvergence(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        model = lpc_core.LpcModel(2, list(AR2_COEFFS), 1.0, 0.0, FS)
        with pytest.raises(NonConvergenceError):
            lpc_core.poles(model)


class TestPowerSpectrum:
    def test_white_model_is_flat(self):
        model = lpc_core.LpcModel(4, np.zeros(4), 2.0, 0.0, FS)
        psd = lpc_core.power_spectrum(model, np.linspace(0, FS / 2, 64))
        np.testing.assert_allclose(psd, 2.0)

    def test_ar2_fixture_peak_matches_resonance_formula(self):
        # textbook AR(2) resonance: cos(theta_peak) = (1+r^2)/(2r) * cos(theta_pole);
        # at radius 0.9 and a 10 Hz pole the spectrum tops out near 5.5 Hz
        model = lpc_core.LpcModel(2, list(AR2_COEFFS), 1.0, 0.0, FS)
        grid = np.arange(2501) * 0.1
        peak = grid[np.argmax(lpc_core.power_spectrum(model, grid))]
        radius = np.sqrt(AR2_COEFFS[1])
        pole_angle = np.arccos(-AR2_COEFFS[0] / (2 * radius))
        expected = np.arccos((1 + radius**2) / (2 * radius) * np.cos(pole_angle))
        expected_hz = expected * FS / (2 * np.pi)
        assert abs(peak - expected_hz) <= 0.1

    def test_peak_power_decomposes_over_poles(self):
        # log P at the pole angle equals log s2 - 2 log(1-A) minus the
        # conjugate-pole term; the -2 log(1-A) part is the pole's contribution
        f_pole = 35.0
        for radius in (0.9, 0.99, 0.999):
            model = lpc_core.LpcModel(2, list(ar2_coeffs(f_pole, radius)), 1.3, 0.0, FS)
            psd = lpc_core.power_spectrum(model, np.array([f_pole]))[0]
            conj_term = np.log(
                abs(1 + radius**2 - 2 * radius * np.cos(4 * np.pi * f_pole / FS))
            )
            expected = np.log(1.3) - 2 * np.log(1 - radius) - conj_term
            assert abs(np.log(psd) - expected) < 1e-9

    def test_rejects_frequencies_beyond_nyquist(self):
        model = lpc_core.LpcModel(1, [-0.5], 1.0, 0.0, FS)
        with pytest.raises(FrequencyOutOfRangeError):
            lpc_core.power_spectrum(model, [FS / 2 + 1.0])

    def test_rejects_a_nan_frequency(self):
        model = lpc_core.LpcModel(1, [-0.5], 1.0, 0.0, FS)
        with pytest.raises(FrequencyOutOfRangeError):
            lpc_core.power_spectrum(model, [np.nan, 10.0])

    def test_matches_expanded_rational_form(self):
        rng = np.random.default_rng(12)
        for lam in (0.0, 0.2, -0.35, 0.6):
            model = random_stable_model(rng, 6, lam=lam)
            grid = np.linspace(0, FS / 2, 512)
            psd = lpc_core.power_spectrum(model, grid)
            num, den = lpc_core.to_conventional_tf(model)
            z_inv = np.exp(-2j * np.pi * grid / FS)
            response = npoly.polyval(z_inv, num) / npoly.polyval(z_inv, den)
            direct = model.noise_power * np.abs(response) ** 2
            np.testing.assert_allclose(psd, direct, rtol=1e-9)


class TestWarpFrequency:
    def test_identity_at_lambda_zero(self):
        assert lpc_core.warp_frequency(123.0, 0.0, FS) == pytest.approx(123.0, abs=1e-12)

    def test_zero_maps_to_zero(self):
        for lam in (-0.7, -0.2, 0.0, 0.5):
            assert lpc_core.warp_frequency(0.0, lam, FS) == 0.0

    def test_nyquist_is_fixed_point(self):
        assert lpc_core.warp_frequency(250.0, 0.2, FS) == pytest.approx(250.0, abs=1e-9)

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, FS / 2, 2001)
        for lam in (-0.5, 0.0, 0.2, 0.7):
            warped = lpc_core.warp_frequency(grid, lam, FS)
            assert np.all(np.diff(warped) > 0)

    def test_input_validation(self):
        with pytest.raises(InvalidLambdaError):
            lpc_core.warp_frequency(10.0, -1.0, FS)
        with pytest.raises(FrequencyOutOfRangeError):
            lpc_core.warp_frequency(300.0, 0.2, FS)
        with pytest.raises(FrequencyOutOfRangeError):
            lpc_core.warp_frequency(np.nan, 0.2, FS)


def _from_reflections(ks) -> np.ndarray:
    """The step-up (Levinson) polynomial a_1..a_L of reflection coefficients ks."""
    a = np.ones(1)
    for k in ks:
        padded = np.append(a, 0.0)
        a = padded + k * padded[::-1]
    return a[1:]


@st.composite
def model_rows(draw):
    """(coeffs, lam): 1-8 rows of one order 1-23, each built from reflection
    coefficients with |k| up to 1, from roots near ``CERTIFIED_RADIUS``, from
    one clustered root, or drawn at random; the last 0 to 3 coefficients of
    every row set to exact zeros of either sign; lam 0, 0.2, -0.5 or random.
    """
    order = draw(st.integers(1, 23))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["reflections", "near-radius", "clustered", "random"]))
        if kind == "reflections":
            edge = st.sampled_from([1.0, -1.0, 1.0 - 1e-12])
            k = st.one_of(edge, st.floats(-1.0, 1.0), st.floats(-0.3, 0.3))
            row = _from_reflections(draw(st.lists(k, min_size=order, max_size=order)))
        elif kind == "random":
            row = draw(hnp.arrays(float, order, elements=st.floats(-3.0, 3.0)))
            row *= draw(st.sampled_from([1.0, 0.1, 0.01]))
        else:
            radius = lpc_core.CERTIFIED_RADIUS * (1.0 + draw(st.floats(-1e-6, 1e-6)))
            if kind == "clustered":
                angles = [draw(st.floats(0.0, np.pi))] * order
            else:
                angles = draw(st.lists(st.floats(0.0, np.pi), min_size=order, max_size=order))
            poles = radius * np.exp(1j * np.array(angles))
            pairs = np.concatenate([poles[: order // 2], poles[: order // 2].conj()])
            row = lpc_core.poles_to_coeffs(np.append(pairs, [radius] * (order % 2))).real
        zeros = draw(st.integers(0, min(3, order)))
        row[order - zeros :] = draw(SIGNED_ZEROS)
        rows.append(row)
    lam = draw(st.one_of(
        st.sampled_from([0.0, 0.2, -0.5]), st.floats(-0.9, 0.9, exclude_min=True, exclude_max=True)
    ))
    return np.array(rows), lam


class TestRowForms:
    """The whole-book forms give each row the scalar forms' verdicts and bytes."""

    @settings(max_examples=400, deadline=None)
    @given(model_rows())
    def test_certified_rows_is_certified_stable_row_by_row(self, case):
        coeffs, _ = case
        got = lpc_core.certified_rows(coeffs)
        assert got.tolist() == [lpc_core.certified_stable(row.tolist()) for row in coeffs]

    @settings(max_examples=400, deadline=None)
    @given(model_rows())
    def test_conventional_rows_is_to_conventional_tf_row_by_row(self, case):
        coeffs, lam = case
        numerator, denominators = lpc_core.conventional_rows(coeffs, lam)
        assert len(denominators) == len(coeffs)
        for row, denominator in zip(coeffs, denominators):
            model = lpc_core.LpcModel(row.size, row, 1.0, lam, FS)
            want = lpc_core.to_conventional_tf(model)
            assert (numerator.tobytes(), denominator.tobytes()) == tuple(w.tobytes() for w in want)

    def test_a_row_past_float_range_or_on_the_circle_is_refused_without_a_warning(self):
        coeffs = np.array([[0.5, 0.1], [1e308, 1e308], [-1.0, 0.0], [0.0, 0.0]])
        with np.errstate(all="raise"):
            got = lpc_core.certified_rows(coeffs)
        assert got.tolist() == [lpc_core.certified_stable(row.tolist()) for row in coeffs]
        assert got.tolist() == [True, False, False, True]


def reference_conventional_tf(model):
    """to_conventional_tf as one numpy.polynomial product per term."""
    up = np.array([1.0, -model.lam])
    down = np.array([-model.lam, 1.0])
    a_full = np.concatenate(([1.0], model.coeffs))
    denominator = np.zeros(model.order + 1)
    for k in range(model.order + 1):
        term = npoly.polymul(npoly.polypow(down, k), npoly.polypow(up, model.order - k))
        denominator[: term.size] += a_full[k] * term
    return (
        lpc_core._trim_trailing_zeros(npoly.polypow(up, model.order)),
        lpc_core._trim_trailing_zeros(denominator),
    )


class TestToConventionalTf:
    @pytest.mark.parametrize("lam", [0.0, 0.2, -0.5, 0.7])
    def test_matches_term_by_term_expansion(self, lam):
        rng = np.random.default_rng(31)
        models = [random_stable_model(rng, order, lam=lam) for order in range(1, 25)]
        if lam == 0.0:
            # exact trailing zeros are trimmed from the denominator
            models.append(lpc_core.LpcModel(4, [-0.5, 0.1, 0.0, 0.0], 1.0, lam, FS))
        for model in models:
            expected = reference_conventional_tf(model)
            for got, want in zip(lpc_core.to_conventional_tf(model), expected):
                # both sum rounded products, so tiny coefficients are compared
                # relative to the largest one
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @settings(max_examples=500, deadline=None)
    @given(horner_models())
    def test_bytes_equal_the_convolve_expansion(self, model):
        got = lpc_core.to_conventional_tf(model)
        want = reference_horner_tf(model)
        assert [part.tobytes() for part in got] == [part.tobytes() for part in want]

    def test_lambda_zero_passthrough(self):
        model = lpc_core.LpcModel(1, [-0.5], 1.0, 0.0, FS)
        num, den = lpc_core.to_conventional_tf(model)
        np.testing.assert_allclose(num, [1.0])
        np.testing.assert_allclose(den, [1.0, -0.5])

    def test_first_order_hand_expansion(self):
        # (1 - lam z^-1) + a1 (z^-1 - lam) with lam = 0.2
        a1 = -0.5
        model = lpc_core.LpcModel(1, [a1], 1.0, 0.2, FS)
        num, den = lpc_core.to_conventional_tf(model)
        np.testing.assert_allclose(num, [1.0, -0.2])
        np.testing.assert_allclose(den, [1.0 - 0.2 * a1, a1 - 0.2])


class TestSynthesisFilter:
    @pytest.mark.parametrize("lam", [0.0, 0.2, -0.5])
    def test_certified_model_is_its_conventional_filter(self, monkeypatch, lam):
        def no_poles(model):
            raise AssertionError("poles was called")

        model = lpc_core.LpcModel(2, list(AR2_COEFFS), 1.0, lam, FS)
        expected = lpc_core.to_conventional_tf(model)
        monkeypatch.setattr(lpc_core, "poles", no_poles)
        for got, want in zip(lpc_core.synthesis_filter(model), expected):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("coeff", [-1.0, -(1.0 + 5e-10)], ids=["on-circle", "within-tol"])
    def test_root_on_the_unit_circle_gives_the_clamped_filter(self, coeff):
        model = lpc_core.LpcModel(1, [coeff], 1.0, 0.0, FS)
        numerator, denominator = lpc_core.synthesis_filter(model)
        unclamped = lpc_core.to_conventional_tf(model)[1]
        assert numerator.tolist() == [1.0]
        assert denominator.tobytes() != unclamped.tobytes()
        assert denominator[0] == 1.0
        assert denominator[1] == pytest.approx(-lpc_core.MAX_POLE_RADIUS, rel=0.0, abs=1e-15)

    def test_root_past_the_tolerance_is_refused(self):
        model = lpc_core.LpcModel(1, [-(1.0 + 2e-9)], 1.0, 0.0, FS)
        with pytest.raises(UnstableModelError, match="pole radius 1.000000002"):
            lpc_core.synthesis_filter(model)


class TestSynthesize:
    def test_seeded_determinism(self):
        model = lpc_core.LpcModel(2, list(AR2_COEFFS), 1.0, 0.0, FS)
        a = lpc_core.synthesize(model, 1000, seed=9)
        b = lpc_core.synthesize(model, 1000, seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert len(a) == 1000
        checked = lpc_core.Segment(a.samples, a.sample_rate)
        assert a == checked and repr(a) == repr(checked)

    def test_an_overflowing_realization_is_refused(self):
        # a stable warped model of order 24 at lam 0.9 expands into a
        # conventional filter whose direct form diverges in float64
        angles = np.linspace(0.2, 2.9, 12)
        pole_set = np.concatenate([0.9 * np.exp(1j * angles), 0.9 * np.exp(-1j * angles)])
        model = lpc_core.LpcModel(24, lpc_core.poles_to_coeffs(pole_set).real, 1.0, 0.9, FS)
        with pytest.raises(InvalidArgumentError) as caught:
            lpc_core.synthesize(model, 5000, seed=0)
        assert type(caught.value) is InvalidArgumentError
        assert str(caught.value) == "samples must be finite"

    def test_refit_recovers_source_model(self):
        model = lpc_core.LpcModel(2, list(AR2_COEFFS), 1.0, 0.0, FS)
        segment = lpc_core.synthesize(model, 10000, seed=3)
        refit = lpc_core.fit_burg_warped(segment, 2, 0.0)
        assert np.max(np.abs(refit.coeffs - model.coeffs)) <= 0.05

    def test_white_model_passes_noise_through(self):
        model = lpc_core.LpcModel(3, np.zeros(3), 4.0, 0.0, FS)
        segment = lpc_core.synthesize(model, 10000, seed=21)
        assert abs(segment.samples.var() - 4.0) <= 0.6

    def test_white_model_variance_survives_warping(self):
        model = lpc_core.LpcModel(3, np.zeros(3), 4.0, 0.3, FS)
        segment = lpc_core.synthesize(model, 20000, seed=22)
        assert abs(segment.samples.var() - 4.0) <= 0.6

    def test_unstable_model_is_rejected(self):
        coeffs = lpc_core.poles_to_coeffs([1.1, 0.3]).real
        model = lpc_core.LpcModel(2, coeffs, 1.0, 0.0, FS)
        with pytest.raises(UnstableModelError):
            lpc_core.synthesize(model, 100, seed=0)

    def test_one_sample_is_refused(self):
        model = lpc_core.LpcModel(1, [-0.5], 1.0, 0.0, FS)
        with pytest.raises(ValueError, match="synthesis needs at least two samples"):
            lpc_core.synthesize(model, 1, seed=0)

    def test_fidelity_across_random_stable_models(self):
        # pole radii <= 0.95, both warped and unwarped; a 10k-sample
        # synthesis must refit back to the source coefficients
        rng = np.random.default_rng(2)
        worst = 0.0
        for trial in range(20):
            lam = (0.0, 0.2, -0.3, 0.5)[trial % 4]
            model = random_stable_model(rng, 6, lam=lam)
            segment = lpc_core.synthesize(model, 10000, seed=100 + trial)
            refit = lpc_core.fit_burg_warped(segment, 6, lam)
            worst = max(worst, float(np.max(np.abs(refit.coeffs - model.coeffs))))
        assert worst <= 0.1

    @pytest.mark.parametrize("coeff", [-1.0, -(1.0 + 5e-10)], ids=["on-circle", "within-tol"])
    def test_root_on_the_unit_circle_is_clamped(self, coeff):
        # the step-down refuses both, so the eigenvalue path clamps the root
        model = lpc_core.LpcModel(1, [coeff], 1.0, 0.0, FS)
        assert not lpc_core.certified_stable([coeff])
        segment = lpc_core.synthesize(model, 500, seed=4)
        assert np.all(np.isfinite(segment.samples))

    def test_root_past_the_tolerance_is_refused(self):
        model = lpc_core.LpcModel(1, [-(1.0 + 2e-9)], 1.0, 0.0, FS)
        with pytest.raises(UnstableModelError, match="pole radius 1.000000002"):
            lpc_core.synthesize(model, 100, seed=0)

    def test_certified_model_skips_the_eigenvalue_problem(self, monkeypatch):
        def no_poles(model):
            raise AssertionError("poles was called")

        model = lpc_core.LpcModel(2, list(AR2_COEFFS), 1.0, 0.0, FS)
        monkeypatch.setattr(lpc_core, "poles", no_poles)
        assert np.all(np.isfinite(lpc_core.synthesize(model, 100, seed=0).samples))

    @pytest.mark.parametrize(
        "pole_set",
        [[0.99995], [0.9999 * np.exp(0.3j), 0.9999 * np.exp(-0.3j)], [0.99] * 8],
        ids=["past-radius", "pair-past-radius", "eight-fold"],
    )
    def test_roots_near_the_radius_or_clustered_are_not_certified(self, pole_set):
        # the companion eigenvalues of the eight-fold root at 0.99 reach 1.009
        assert not lpc_core.certified_stable(lpc_core.poles_to_coeffs(pole_set).real.tolist())

    @settings(max_examples=300, deadline=None)
    @given(
        stable_pole_sets(max_order=24, max_radius=0.99999, max_repeats=4),
        st.floats(-0.9, 0.9, exclude_min=True, exclude_max=True),
    )
    def test_certified_model_synthesizes_as_the_eigenvalue_path_does(self, pole_set, lam):
        coeffs = lpc_core.poles_to_coeffs(pole_set).real
        if not lpc_core.certified_stable(coeffs.tolist()):
            return
        model = lpc_core.LpcModel(len(pole_set), coeffs, 1.0, lam, FS)
        assert np.abs(lpc_core.poles(model).poles).max() <= lpc_core.MAX_POLE_RADIUS
        fast = lpc_core.synthesize(model, 64, seed=5).samples
        with mock.patch.object(lpc_core, "certified_stable", return_value=False):
            slow = lpc_core.synthesize(model, 64, seed=5).samples
        assert fast.tobytes() == slow.tobytes()
