import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import FS, random_stable_model, reference_cepstrum_to_lpc
from lipcot import codebook as cb
from lipcot import latent, lpc_core, testkit
from lipcot.errors import (
    DimensionMismatchError,
    InsufficientCoefficientsError,
    LipcotError,
    NonRealizableError,
    ZeroNoisePowerError,
)


def model_from(coeffs, noise_power=1.0, lam=0.0, fs=FS):
    return lpc_core.LpcModel(len(coeffs), list(coeffs), noise_power, lam, fs)


class TestLpcCoeffFeatures:
    def test_unit_weights(self):
        vec = latent.features(model_from([0.3, -0.2]), latent.LatentMethod.lpc_coeff())
        np.testing.assert_allclose(vec.values, [0.3, -0.2, 0.0])

    def test_dimension_is_order_plus_one(self):
        rng = np.random.default_rng(0)
        for order in (1, 4, 16):
            vec = latent.features(random_stable_model(rng, order), latent.LatentMethod.lpc_coeff())
            assert vec.dimension == order + 1

    def test_zero_noise_power_rejected(self):
        with pytest.raises(ZeroNoisePowerError):
            latent.features(model_from([0.3], noise_power=0.0), latent.LatentMethod.lpc_coeff())


class TestCepstrum:
    def test_first_two_elements(self):
        rng = np.random.default_rng(1)
        model = random_stable_model(rng, 5)
        vec = latent.features(model, latent.LatentMethod.cepstrum(8))
        assert vec.values[0] == pytest.approx(math.log(model.noise_power))
        assert vec.values[1] == pytest.approx(-model.coeffs[0])

    def test_single_pole_power_series(self):
        # pole at p: c_n = p^n / n, so the weighted third entry is sqrt(2)*0.125
        vec = latent.features(model_from([-0.5]), latent.LatentMethod.cepstrum(2))
        np.testing.assert_allclose(vec.values, [0.0, 0.5, math.sqrt(2) * 0.125])

    def test_recursion_agrees_with_pole_power_sums(self):
        rng = np.random.default_rng(2)
        for order in (2, 4, 7):
            model = random_stable_model(rng, order)
            pole_values = lpc_core.poles(model).poles
            by_recursion = latent.lpc_to_cepstrum(model.coeffs, model.noise_power, 12)
            by_poles = testkit.cepstrum_from_poles(pole_values, model.noise_power, 12)
            np.testing.assert_allclose(by_recursion, by_poles, atol=1e-8)

    def test_inverse_single_term(self):
        coeffs, noise_power = latent.cepstrum_to_lpc([0.0, 0.5], 1)
        np.testing.assert_allclose(coeffs, [-0.5])
        assert noise_power == pytest.approx(1.0)

    def test_inverse_recovers_noise_power(self):
        _, noise_power = latent.cepstrum_to_lpc([math.log(4.0), 0.1], 1)
        assert noise_power == pytest.approx(4.0)

    def test_round_trip_through_raw_cepstrum(self):
        rng = np.random.default_rng(3)
        for order in (1, 3, 6):
            model = random_stable_model(rng, order)
            raw = latent.lpc_to_cepstrum(model.coeffs, model.noise_power, 2 * order)
            coeffs, noise_power = latent.cepstrum_to_lpc(raw, order)
            np.testing.assert_allclose(coeffs, model.coeffs, atol=1e-9)
            assert noise_power == pytest.approx(model.noise_power, rel=1e-9)

    def test_too_few_coefficients(self):
        with pytest.raises(InsufficientCoefficientsError):
            latent.cepstrum_to_lpc([0.0, 0.5], 2)

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_inverse_bytes_equal_the_numpy_scalar_loop(self, data):
        order = data.draw(st.integers(1, 24))
        count = data.draw(st.integers(order + 1, order + 4))
        element = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
        ceps = data.draw(hnp.arrays(float, count, elements=element))
        coeffs, noise_power = latent.cepstrum_to_lpc(ceps, order)
        want_coeffs, want_power = reference_cepstrum_to_lpc(ceps, order)
        assert coeffs.tobytes() == want_coeffs.tobytes()
        assert noise_power == want_power


@st.composite
def stacked_models(draw):
    """Coefficient rows with many exact zeros of either sign, their powers,
    and a method for them: lpc, cepstrum with a term count below, equal to
    or above the order, or dsc.
    """
    order = draw(st.integers(1, 10))
    rows = draw(st.integers(2, 40))
    element = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.5, 1.5))
    coeffs = draw(hnp.arrays(float, (rows, order), elements=element))
    for row in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        coeffs[row] = draw(st.sampled_from([0.0, -0.0]))
    powers = draw(hnp.arrays(float, rows, elements=st.floats(1e-6, 1e6)))
    method = draw(st.one_of(
        st.just(latent.LatentMethod.lpc_coeff()),
        st.integers(1, max(1, order - 1)).map(latent.LatentMethod.cepstrum),
        st.just(latent.LatentMethod.cepstrum(order)),
        st.integers(order + 1, 3 * order).map(latent.LatentMethod.cepstrum),
        st.just(latent.LatentMethod.dsc()),
    ))
    return coeffs, powers, method


class TestBatchMatchesOneRow:
    @settings(max_examples=300, deadline=None)
    @given(stacked_models())
    def test_feature_matrix_rows_are_one_row_features(self, case):
        # the README's contract: a window maps to the same bytes alone or in a batch
        coeffs, powers, method = case
        matrix = latent.feature_matrix(coeffs, powers, method, FS)
        for row, power, values in zip(coeffs, powers, matrix):
            one = latent.features(model_from(row, power), method).values
            assert one.tobytes() == values.tobytes()
        if method.tag == latent.TAG_CEPSTRUM:
            count = method.n_cepstra
            raw = latent._cepstrum_rows(coeffs, latent._log_powers(powers), count)
            for row, power, values in zip(coeffs, powers, raw):
                assert latent.lpc_to_cepstrum(row, power, count).tobytes() == values.tobytes()


class TestMethodPayload:
    """The ``method`` object of a ``book.json``, read by ``codebook.load_codebook``."""

    @staticmethod
    def load_with_method(tmp_path, method):
        # three values per centroid at order 1: the dsc space, which the payload's method replaces
        path = tmp_path / "book.json"
        book = cb.Codebook(
            k=1, centroids=np.zeros((1, 3)), norm_stats=cb.NormStats(np.zeros(3), np.ones(3)),
            method=latent.LatentMethod.dsc(), order=1, lam=0.0, seed=0,
        )
        cb.save_codebook(book, path)
        payload = json.loads(path.read_text())
        payload["method"] = method
        path.write_text(json.dumps(payload))
        return cb.load_codebook(path)

    @pytest.mark.parametrize(
        "tag, fields",
        [
            ("cepstrum", {}),
            ("cepstrum", {"n_cepstra": 0}),
            ("cepstrum", {"n_cepstra": 4, "weights": [1.0]}),
            ("lpc", {"n_cepstra": 4}),
            ("lpc", {"weights": [1.0, 0.0]}),
            ("lpc", {"weights": [1.0, 1.0]}),
            ("dsc", {"n_cepstra": 4}),
            ("dsc", {"weights": [1.0]}),
        ],
        ids=[
            "cepstrum-without-count", "cepstrum-zero-count", "cepstrum-with-weights",
            "lpc-with-count", "lpc-zero-weight", "lpc-with-weights", "dsc-with-count",
            "dsc-with-weights",
        ],
    )
    def test_method_refuses_fields_its_map_does_not_read(self, tmp_path, tag, fields):
        # a codebook's method payload: weights, of any map, are refused too
        with pytest.raises(LipcotError, match="malformed codebook"):
            self.load_with_method(tmp_path, {"tag": tag, **fields})

    def test_retired_reduced_flag(self, tmp_path):
        # older codebooks store "reduced": false, which still loads; reduced
        # dominant-spectral mode no longer exists, so true is refused
        payload = {"tag": "dsc", "weights": None, "n_cepstra": None, "reduced": False}
        assert self.load_with_method(tmp_path, payload).method == latent.LatentMethod.dsc()
        with pytest.raises(LipcotError, match="reduced dominant-spectral"):
            self.load_with_method(tmp_path, dict(payload, reduced=True))


class TestDominantSpectral:
    def test_conjugate_pair_example(self):
        pole = 0.9 * np.exp(2j * np.pi * 10.0 / FS)
        coeffs = lpc_core.poles_to_coeffs([pole, pole.conjugate()]).real
        vec = latent.features(model_from(coeffs), latent.LatentMethod.dsc())
        np.testing.assert_allclose(
            vec.values, [-10.0, 10.0, 4.60517019, 4.60517019, 0.0], atol=1e-6
        )

    def test_single_real_pole(self):
        vec = latent.features(model_from([-0.5]), latent.LatentMethod.dsc())
        np.testing.assert_allclose(vec.values, [0.0, 1.38629436, 0.0], atol=1e-6)

    def test_full_dimension(self):
        rng = np.random.default_rng(4)
        for order in (2, 5, 16):
            vec = latent.features(random_stable_model(rng, order), latent.LatentMethod.dsc())
            assert vec.dimension == 2 * order + 1

    def test_frequency_magnitudes_are_sorted(self):
        rng = np.random.default_rng(5)
        for order in (4, 9, 16):
            vec = latent.features(random_stable_model(rng, order), latent.LatentMethod.dsc())
            magnitudes = np.abs(vec.values[:order])
            assert np.all(np.diff(magnitudes) >= -1e-12)

    def test_conjugate_pairs_put_negative_frequency_first(self):
        # exact conjugate poles tie on |u|, so the signed tiebreak decides
        # and every pair reads (-f, +f) in every window
        rng = np.random.default_rng(6)
        for _ in range(40):
            model = random_stable_model(rng, 16)  # eight conjugate pairs
            u = latent.features(model, latent.LatentMethod.dsc()).values[:16]
            assert np.all(u[0::2] < 0.0)
            np.testing.assert_array_equal(u[1::2], -u[0::2])

    def test_sampling_rate_scales_only_frequencies(self):
        rng = np.random.default_rng(7)
        base = random_stable_model(rng, 4, fs=500.0)
        doubled = lpc_core.LpcModel(4, base.coeffs, base.noise_power, 0.0, 1000.0)
        left = latent.features(base, latent.LatentMethod.dsc()).values
        right = latent.features(doubled, latent.LatentMethod.dsc()).values
        np.testing.assert_allclose(right[:4], 2.0 * left[:4])
        np.testing.assert_allclose(right[4:], left[4:])


class TestLatentToModel:
    def test_identity_weights_inverse(self):
        vec = latent.LatentVector(latent.LatentMethod.lpc_coeff(), [0.3, -0.2, 0.0])
        model = latent.latent_to_model(vec, 2, 0.0, FS)
        np.testing.assert_allclose(model.coeffs, [0.3, -0.2])
        assert model.noise_power == pytest.approx(1.0)

    def test_dsc_inverse_example(self):
        log_radius_term = -2.0 * math.log(1.0 - 0.9)
        vec = latent.LatentVector(
            latent.LatentMethod.dsc(),
            [-10.0, 10.0, log_radius_term, log_radius_term, 0.0],
        )
        model = latent.latent_to_model(vec, 2, 0.0, FS)
        expected_a1 = -2 * 0.9 * math.cos(2 * math.pi * 10.0 / FS)
        np.testing.assert_allclose(model.coeffs, [expected_a1, 0.81], atol=1e-9)
        assert model.noise_power == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("tag", ["lpc", "cepstrum", "dsc"])
    def test_round_trip_on_random_models(self, tag):
        rng = np.random.default_rng(8)
        for trial in range(50):
            order = int(rng.choice([2, 4, 6]))
            model = random_stable_model(rng, order)
            if tag == "lpc":
                method = latent.LatentMethod.lpc_coeff()
            elif tag == "cepstrum":
                method = latent.LatentMethod.cepstrum(2 * order)
            else:
                method = latent.LatentMethod.dsc()
            vec = latent.features(model, method)
            back = latent.latent_to_model(vec, order, model.lam, model.sample_rate)
            np.testing.assert_allclose(back.coeffs, model.coeffs, atol=1e-6)
            assert math.log(back.noise_power) == pytest.approx(
                math.log(model.noise_power), abs=1e-9
            )

    @pytest.mark.parametrize(
        "method, values, order",
        [
            (latent.LatentMethod.lpc_coeff(), [0.3, 0.0], 2),
            (latent.LatentMethod.dsc(), [10.0, 0.1, 0.2, 0.0], 2),  # even size
            (latent.LatentMethod.dsc(), [10.0, -10.0, 0.1, 0.1, 0.0], 3),  # order 2's size
            (latent.LatentMethod.cepstrum(5), [0.1] * 9, 4),  # not n_cepstra + 1 values
        ],
        ids=["lpc", "dsc-even-size", "dsc-wrong-order", "cepstrum-wrong-count"],
    )
    def test_dimension_mismatch(self, method, values, order):
        vec = latent.LatentVector(method, values)
        expected = f"expected {method.dimension(order)} values for order {order}, got {len(values)}"
        with pytest.raises(DimensionMismatchError, match=expected):
            latent.latent_to_model(vec, order, 0.0, FS)

    def test_non_conjugate_dsc_point_is_rejected(self):
        # two poles at +10 and +20 Hz have no conjugate partners: the
        # expansion leaves complex coefficients behind
        vec = latent.LatentVector(
            latent.LatentMethod.dsc(), [10.0, 20.0, 1.0, 1.0, 0.0]
        )
        with pytest.raises(NonRealizableError):
            latent.latent_to_model(vec, 2, 0.0, FS)


class TestDistances:
    def test_cepstral_distance_grows_with_term_count(self):
        rng = np.random.default_rng(10)
        model_a = random_stable_model(rng, 4)
        model_b = random_stable_model(rng, 4)
        previous = 0.0
        for count in (2, 4, 8, 16, 32):
            d = np.linalg.norm(
                latent.features(model_a, latent.LatentMethod.cepstrum(count)).values
                - latent.features(model_b, latent.LatentMethod.cepstrum(count)).values
            )
            assert d >= previous - 1e-12
            previous = d
