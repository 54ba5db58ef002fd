import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    FS,
    random_stable_model,
    reference_cepstrum_to_lpc,
    reference_latent_to_model,
)
from lipcot import codebook as cb
from lipcot import latent, lpc_core, testkit
from lipcot.errors import (
    DimensionMismatchError,
    InsufficientCoefficientsError,
    InvalidArgumentError,
    InvalidOrderError,
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
            one = latent.features(model_from(row, power), method)
            assert one == latent.LatentVector(method, one.values)
            assert one.values.tobytes() == values.tobytes()
        if method.tag == latent.TAG_CEPSTRUM:
            count = method.n_cepstra
            raw = latent._cepstrum_rows(coeffs, latent._log_powers(powers), count)
            for row, power, values in zip(coeffs, powers, raw):
                assert latent.lpc_to_cepstrum(row, power, count).tobytes() == values.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_row_cepstrum_is_its_row_in_a_stack(self, data):
        # one row runs the recursion over plain floats, a stack over one
        # array per coefficient index; both read the held weight table
        order = data.draw(st.integers(1, 20))
        count = data.draw(st.one_of(
            st.integers(0, order - 1), st.just(order), st.integers(order + 1, 40)
        ))
        rows = data.draw(st.integers(2, 6))
        element = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.5, 1.5))
        coeffs = data.draw(hnp.arrays(float, (rows, order), elements=element))
        coeffs[data.draw(st.integers(0, rows - 1))] = data.draw(st.sampled_from([0.0, -0.0]))
        power = st.one_of(st.just(1.0), st.floats(1e-6, 1e6))  # 1.0: a log power of 0.0
        powers = data.draw(hnp.arrays(float, rows, elements=power))
        log_power = latent._log_powers(powers)
        stacked = latent._cepstrum_rows(coeffs, log_power, count)
        for r in range(rows):
            one = latent._cepstrum_rows(coeffs[r : r + 1], log_power[r : r + 1], count)
            assert one.shape == (1, count + 1)
            alone = latent.lpc_to_cepstrum(coeffs[r], powers[r], count)
            assert one[0].tobytes() == alone.tobytes() == stacked[r].tobytes()


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
            checked = latent.LatentVector(method, vec.values)
            assert vec == checked and repr(vec) == repr(checked)
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


def latent_points(rng, method, order, rows):
    """Latent rows for ``model_matrix``: points of stable models, random points,
    and points that the inverse refuses.

    About one row in six has a log power past ``math.exp``'s range. Random
    rows at the largest scale expand past float64's range in the cepstrum
    recursion; a random dominant-spectral row's poles are not
    conjugate-closed, so its expansion leaves an imaginary residue.
    """
    points = []
    for _ in range(rows):
        if rng.random() < 0.5:
            model = random_stable_model(rng, order)
            points.append(latent.features(model, method).values)
        else:
            scale = rng.choice([0.5, 3.0, 60.0, 1e40])
            points.append(scale * rng.normal(size=method.dimension(order)))
    points = np.array(points)
    huge = rng.random(rows) < 1 / 6
    log_power = 0 if method.tag == latent.TAG_CEPSTRUM else -1  # c_0 is log sigma^2
    points[huge, log_power] = rng.choice([709.8, 800.0, 1e300], size=huge.sum())
    return points


METHODS = {
    "lpc": lambda order: latent.LatentMethod.lpc_coeff(),
    "cepstrum": lambda order: latent.LatentMethod.cepstrum(2 * order),
    "dsc": lambda order: latent.LatentMethod.dsc(),
}


class TestModelMatrix:
    @pytest.mark.parametrize("tag", sorted(METHODS))
    def test_rows_match_the_per_point_inverse(self, tag):
        rng = np.random.default_rng(27)
        refused = set()
        for _ in range(60):
            order = int(rng.integers(1, 13))
            method = METHODS[tag](order)
            rate = float(rng.choice([250.0, FS, 1000.0]))
            points = latent_points(rng, method, order, int(rng.integers(1, 12)))
            coeffs, noise_power, refusals = latent.model_matrix(points, method, order, rate)
            assert coeffs.shape == (len(points), order) and noise_power.shape == (len(points),)
            for row, values in enumerate(points):
                want = reference_latent_to_model(values, method, order, rate)
                if isinstance(want, str):
                    assert refusals[row] == want
                    refused.add(want.split(" ", 3)[2])
                    with pytest.raises(NonRealizableError) as raised:
                        latent.latent_to_model(latent.LatentVector(method, values), order, 0.0, rate)
                    assert str(raised.value) == want
                    continue
                assert refusals[row] is None
                assert coeffs[row].tobytes() == want[0].tobytes()
                assert noise_power[row].tobytes() == np.float64(want[1]).tobytes()
                model = latent.latent_to_model(latent.LatentVector(method, values), order, 0.0, rate)
                assert model.coeffs.tobytes() == want[0].tobytes()
                assert model.noise_power == want[1]
        # every map overflows somewhere; only dominant-spectral points leave a residue
        assert refused == ({"maps", "leaves"} if tag == "dsc" else {"maps"})

    def test_non_finite_points_are_refused_without_a_warning(self):
        points = np.array([[np.inf, 0.0, 0.0], [0.1, np.nan, 0.0], [0.1, 0.2, -np.inf]])
        for method in (latent.LatentMethod.lpc_coeff(), latent.LatentMethod.cepstrum(2)):
            _, _, refusals = latent.model_matrix(points, method, 2, FS)
            assert refusals[:2] == ["latent point maps to a model beyond float64's range"] * 2

    def test_no_rows(self):
        for method in (latent.LatentMethod.lpc_coeff(), latent.LatentMethod.dsc()):
            points = np.empty((0, method.dimension(3)))
            coeffs, noise_power, refusals = latent.model_matrix(points, method, 3, FS)
            assert coeffs.shape == (0, 3) and noise_power.shape == (0,) and refusals == []

    def test_more_terms_than_the_cepstrum_holds(self):
        vec = latent.LatentVector(latent.LatentMethod.cepstrum(2), [0.0, 0.1, 0.2])
        with pytest.raises(InsufficientCoefficientsError, match="need at least 5"):
            latent.latent_to_model(vec, 4, 0.0, FS)


@pytest.mark.parametrize(
    "call",
    [
        lambda: latent.model_matrix(np.zeros((2, 1)), latent.LatentMethod.lpc_coeff(), 0, FS),
        lambda: latent.cepstrum_to_lpc([0.0, 0.5], 0),
        lambda: latent.cepstrum_to_lpc([0.0, 0.5], -1),
    ],
    ids=["model-matrix-0", "cepstrum-to-lpc-0", "cepstrum-to-lpc-minus-1"],
)
def test_an_order_below_one_is_refused(call):
    # model_matrix gave zero-width models at order 0, and cepstrum_to_lpc
    # gave (array([]), 1.0) at orders 0 and -1
    with pytest.raises(InvalidOrderError, match="order must be at least 1"):
        call()


LPC = latent.LatentMethod.lpc_coeff()


@pytest.mark.parametrize(
    ("call", "refusal"),
    [
        (lambda: latent.model_matrix(np.zeros(3), LPC, 2, FS), InvalidArgumentError),
        (lambda: latent.feature_matrix(np.zeros(3), [1.0], LPC, FS), InvalidArgumentError),
        (lambda: latent.feature_matrix(np.zeros((2, 3)), [1.0], LPC, FS), InvalidArgumentError),
        (lambda: latent.cepstrum_to_lpc([1000.0, 0.5], 1), NonRealizableError),
        (lambda: latent.cepstrum_to_lpc([0.0, 1e200, 1e200], 2), NonRealizableError),
        (lambda: latent.cepstrum_to_lpc([[0.0, 0.5]], 1), InvalidArgumentError),
        (lambda: latent.lpc_to_cepstrum([0.5], 1.0, -1), InvalidArgumentError),
        (lambda: latent.lpc_to_cepstrum([0.5], 1.0, 2.5), InvalidArgumentError),
        (
            lambda: latent.features(model_from([1e200, 1e200]), latent.LatentMethod.cepstrum(8)),
            InvalidArgumentError,
        ),
    ],
    ids=[
        "model-matrix-1d", "feature-matrix-1d", "feature-matrix-powers", "cepstrum-power-overflow",
        "cepstrum-coeffs-overflow", "cepstrum-2d", "cepstrum-count-negative",
        "cepstrum-count-fraction", "features-cepstrum-overflow",
    ],
)
def test_a_bad_latent_input_is_one_lipcot_error(call, refusal):
    # these ended in IndexError, AxisError, OverflowError, a RuntimeWarning, a
    # silently flattened input, ValueError and TypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LipcotError) as raised:
            call()
    assert type(raised.value) is refusal


@pytest.mark.parametrize(
    ("call", "value"),
    [
        (lambda: latent.lpc_to_cepstrum([0.5], -1.0, 3), "-1.0"),
        (lambda: latent.lpc_to_cepstrum([0.5], "x", 3), "'x'"),
        (lambda: latent.feature_matrix([[0.5]], [-2.0], LPC, FS), "-2.0"),
    ],
    ids=["cepstrum-negative", "cepstrum-non-numeric", "feature-matrix-negative"],
)
def test_a_negative_or_non_numeric_noise_power_is_not_called_zero(call, value):
    # each was refused as ZeroNoisePowerError("... sigma^2 = 0")
    with pytest.raises(InvalidArgumentError) as raised:
        call()
    assert str(raised.value).endswith(f"got {value}")
    with pytest.raises(ZeroNoisePowerError):
        latent.lpc_to_cepstrum([0.5], 0.0, 3)


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: latent.lpc_to_cepstrum([0.5], True, 3), "True"),
        (lambda: latent.lpc_to_cepstrum([0.5], "2.0", 3), "'2.0'"),
        (lambda: latent.feature_matrix([[0.5]], [True], LPC, FS), "[True]"),
        (
            lambda: latent.feature_matrix([[0.5]], np.array(["2.0"]), LPC, FS),
            "array(['2.0'], dtype='<U3')",
        ),
    ],
    ids=["cepstrum-bool", "cepstrum-string", "feature-matrix-bool", "feature-matrix-string-array"],
)
def test_a_bool_or_string_noise_power_is_refused(call, value):
    # each was read as a number: log power 0 for True, log 2 for "2.0"
    with pytest.raises(InvalidArgumentError) as raised:
        call()
    assert str(raised.value) == f"noise power must be a number, got {value}"


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
