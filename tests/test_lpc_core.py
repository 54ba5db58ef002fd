import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from conftest import (
    AR2_COEFFS,
    FS,
    ar2_coeffs,
    ar2_fixture_series,
    predictable_windows,
    random_stable_model,
)
from lipcot import lpc_core, testkit
from lipcot.errors import (
    DegenerateInputError,
    FrequencyOutOfRangeError,
    InvalidLambdaError,
    InvalidOrderError,
    NonConvergenceError,
    UnstableModelError,
)


@st.composite
def stable_pole_sets(draw):
    """Orders 1-32 of real poles and conjugate pairs, each repeated 1-3 times."""
    order = draw(st.integers(1, 32))
    pole_set = []
    while len(pole_set) < order:
        radius = draw(st.floats(0.0, 0.95))
        if order - len(pole_set) >= 2 and draw(st.booleans()):
            pole = radius * np.exp(1j * draw(st.floats(0.0, np.pi)))
            group = [pole, pole.conjugate()]
        else:
            group = [complex(draw(st.sampled_from([radius, -radius])))]
        for _ in range(draw(st.integers(1, 3))):
            if len(pole_set) + len(group) <= order:
                pole_set.extend(group)
    return pole_set


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

    def test_eigenvalue_failure_surfaces_nonconvergence(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np, "roots", fail)
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


class TestSynthesize:
    def test_seeded_determinism(self):
        model = lpc_core.LpcModel(2, list(AR2_COEFFS), 1.0, 0.0, FS)
        a = lpc_core.synthesize(model, 1000, seed=9)
        b = lpc_core.synthesize(model, 1000, seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert len(a) == 1000

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
