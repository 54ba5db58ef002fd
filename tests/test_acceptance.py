"""Acceptance gate: one property per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-property
lines. ``07 spectrum`` checks the fixture's model spectrum against the
closed-form AR(2) resonance, which lies below the pole angle. Only ``08
codebook-separability`` is known to fail; the reasons are worked out in the
test's comment and in its printed detail.
"""

import math

import numpy as np
import pytest

from conftest import (
    AR2_COEFFS,
    AR2_SPECTRUM_SEED,
    FS,
    ar2_coeffs,
    ar2_fixture_series,
    purity,
    random_segments,
    random_stable_model,
)
from lipcot import cli
from lipcot import codebook as cb
from lipcot import latent, lpc_core, pipeline, testkit

# Pole angles (Hz) of the three regimes, passed to ``ar2_coeffs``; at radius
# 0.9 each regime's spectral peak sits below its pole angle.
REGIME_FREQS = (5.0, 15.0, 40.0)
REGIME_WINDOW = 2500  # 5 s at 500 Hz
REGIME_SEGMENTS = 200
CODEBOOK_SEED = 8


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def regime_corpus():
    """600 warped L=16 fits over three AR regimes with poles at 5, 15 and 40 Hz."""
    method = latent.LatentMethod.lpc_coeff()
    vectors, labels = [], []
    for regime, f0 in enumerate(REGIME_FREQS):
        spec = testkit.ArSpec(ar2_coeffs(f0), 1.0, seed=1000 + regime)
        series = testkit.generate_ar(spec, REGIME_SEGMENTS * REGIME_WINDOW)
        for w in range(REGIME_SEGMENTS):
            segment = lpc_core.Segment(
                series[w * REGIME_WINDOW : (w + 1) * REGIME_WINDOW], FS
            )
            model = lpc_core.fit_burg_warped(segment, 16, 0.2)
            vectors.append(latent.features(model, method))
            labels.append(regime)
    return vectors, np.array(labels)


@pytest.fixture(scope="module")
def regime_codebook(regime_corpus):
    vectors, labels = regime_corpus
    book = cb.train_codebook(vectors, 3, seed=CODEBOOK_SEED, order=16, lam=0.2)
    return book, vectors, labels


def test_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=512)
        for order in (2, 8, 16):
            model = lpc_core.fit_burg_warped(lpc_core.Segment(x, FS), order, 0.0)
            ref_coeffs, _ = testkit.reference_burg(x, order)
            worst = max(worst, float(np.max(np.abs(model.coeffs - ref_coeffs))))
    _report("01 oracle-equivalence", worst < 1e-8, f"max coeff diff {worst:.2e}")


def test_02_ar_recovery():
    passes = 0
    for seed in range(20):
        x = ar2_fixture_series(seed=seed)
        model = lpc_core.fit_burg_warped(lpc_core.Segment(x, FS), 2, 0.0)
        ok = (
            abs(model.coeffs[0] - AR2_COEFFS[0]) <= 0.05
            and abs(model.coeffs[1] - AR2_COEFFS[1]) <= 0.05
            and abs(model.noise_power - 1.0) <= 0.10
        )
        passes += ok
    _report("02 ar-recovery", passes >= 19, f"{passes}/20 seeds within tolerance")


def test_03_stability():
    rng = np.random.default_rng(103)
    kinds = ("noise", "near-constant", "impulse", "tone", "walk")
    max_radius = 0.0
    monotone = True
    for i, segment in enumerate(random_segments(rng, 1000, kinds=kinds)):
        lam = 0.2 if i % 2 else 0.0
        x = segment.samples - segment.samples.mean()
        coeffs, power, stage_powers, _ = lpc_core.warped_burg(x, 16, lam)
        monotone &= bool(np.all(np.diff(stage_powers) <= 1e-12))
        model = lpc_core.LpcModel(16, coeffs, power, lam, FS)
        max_radius = max(max_radius, float(np.abs(lpc_core.poles(model).poles).max()))
    ok = monotone and max_radius <= 1.0 + 1e-9
    _report(
        "03 stability",
        ok,
        f"max pole radius {max_radius:.12f}, stage powers monotone: {monotone}",
    )


def test_04_cepstrum_round_trip():
    rng = np.random.default_rng(104)
    worst_inverse = 0.0
    worst_cross = 0.0
    for _ in range(50):
        order = int(rng.choice([2, 4, 6, 8]))
        model = random_stable_model(rng, order)
        raw = latent.lpc_to_cepstrum(model.coeffs, model.noise_power, 2 * order)
        coeffs, noise_power = latent.cepstrum_to_lpc(raw, order)
        worst_inverse = max(
            worst_inverse,
            float(np.max(np.abs(coeffs - model.coeffs))),
            abs(math.log(noise_power) - math.log(model.noise_power)),
        )
        pole_values = lpc_core.poles(model).poles
        by_poles = testkit.cepstrum_from_poles(pole_values, model.noise_power, 2 * order)
        worst_cross = max(worst_cross, float(np.max(np.abs(raw - by_poles))))
    ok = worst_inverse < 1e-9 and worst_cross < 1e-8
    _report(
        "04 cepstrum-round-trip",
        ok,
        f"inverse err {worst_inverse:.2e}, recursion-vs-pole-sum {worst_cross:.2e}",
    )


def test_05_dsc_round_trip():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        order = int(rng.choice([2, 4, 6]))
        model = random_stable_model(rng, order)
        vec = latent.features_dsc(model)
        back = latent.latent_to_model(vec, order, model.lam, model.sample_rate)
        worst = max(worst, float(np.max(np.abs(back.coeffs - model.coeffs))))
    _report("05 dsc-round-trip", worst < 1e-6, f"max coeff err {worst:.2e}")


def test_06_warping_map():
    grid = np.linspace(0.0, FS / 2, 4001)
    ok = True
    details = []
    for lam in (-0.5, 0.0, 0.2, 0.7):
        warped = lpc_core.warp_frequency(grid, lam, FS)
        increasing = bool(np.all(np.diff(warped) > 0))
        endpoints = abs(warped[0]) < 1e-9 and abs(warped[-1] - FS / 2) < 1e-9
        ok &= increasing and endpoints
        details.append(f"lam={lam}: monotone={increasing}")
    identity_err = float(np.max(np.abs(lpc_core.warp_frequency(grid, 0.0, FS) - grid)))
    ok &= identity_err < 1e-12
    _report("06 warping-map", ok, f"identity err {identity_err:.1e}")


def test_07_spectrum():
    # The pinned resonance (pole radius 0.9 at a 10 Hz angle, 500 Hz rate)
    # tops out near 5.5 Hz, not at its pole angle: the maximum of an AR(2)
    # spectrum satisfies cos(theta_peak) = (1+r^2)/(2r) * cos(theta_pole), and
    # this close to DC the conjugate pole drags it down by ~4.5 Hz. The exact
    # model's peak is checked against that closed form, computed here from the
    # fixture's coefficients alone.
    radius = math.sqrt(AR2_COEFFS[1])
    pole_angle = math.acos(-AR2_COEFFS[0] / (2.0 * radius))
    peak_angle = math.acos((1.0 + radius**2) / (2.0 * radius) * math.cos(pole_angle))
    pole_hz = pole_angle * FS / (2.0 * math.pi)
    expected_peak = peak_angle * FS / (2.0 * math.pi)

    grid = np.arange(2501) * 0.1
    exact = lpc_core.LpcModel(2, list(AR2_COEFFS), 1.0, 0.0, FS)
    exact_peak = float(grid[np.argmax(lpc_core.power_spectrum(exact, grid))])
    near_resonance = abs(exact_peak - expected_peak) <= 1.0

    x = ar2_fixture_series(seed=AR2_SPECTRUM_SEED)
    fitted = lpc_core.fit_burg_warped(lpc_core.Segment(x, FS), 2, 0.0)
    fitted_peak = float(grid[np.argmax(lpc_core.power_spectrum(fitted, grid))])
    freqs, power = testkit.periodogram(x - x.mean(), FS)
    periodogram_peak = float(freqs[np.argmax(power)])
    near_periodogram = abs(fitted_peak - periodogram_peak) <= 1.0

    rng = np.random.default_rng(107)
    tf_grid = np.linspace(0.0, FS / 2, 512)
    worst_rel = 0.0
    for lam in (0.2, -0.35):
        model = random_stable_model(rng, 8, lam=lam)
        psd = lpc_core.power_spectrum(model, tf_grid)
        num, den = lpc_core.to_conventional_tf(model)
        z_inv = np.exp(-2j * np.pi * tf_grid / FS)
        from numpy.polynomial import polynomial as npoly

        direct = model.noise_power * np.abs(
            npoly.polyval(z_inv, num) / npoly.polyval(z_inv, den)
        ) ** 2
        worst_rel = max(worst_rel, float(np.max(np.abs(psd - direct) / direct)))
    tf_match = worst_rel < 1e-9

    ok = near_resonance and near_periodogram and tf_match
    _report(
        "07 spectrum",
        ok,
        f"model peak {exact_peak:.1f} Hz vs expected resonance "
        f"{expected_peak:.2f} Hz (pole angle {pole_hz:.2f} Hz); "
        f"|fitted {fitted_peak:.1f} - periodogram {periodogram_peak:.1f}| <= 1: "
        f"{near_periodogram}; tf match {worst_rel:.1e}: {tf_match}",
    )


def test_08_codebook_separability(regime_codebook):
    # Known to fall short: at radius 0.9 each regime's resonance is about
    # 16 Hz wide, so the 5 and 15 Hz regimes overlap heavily. Their warped
    # L=16 coefficient vectors sit ~0.06 apart (verified against an analytic
    # warped Yule-Walker solution) while the shared z-score normalization is
    # dominated by the 40 Hz regime, leaving a normalized gap of ~0.6. Lloyd
    # iterations gain more inertia by splitting noise dimensions than by
    # separating those two regimes (it drifts away even when initialized at
    # the true regime means), capping purity near 2/3 for every seed tried.
    book, vectors, labels = regime_codebook
    assignments = np.array([cb.encode_vector(book, vec) for vec in vectors])
    achieved = purity(labels, assignments, book.k)
    _report(
        "08 codebook-separability",
        achieved >= 0.95,
        f"token/regime purity {achieved:.3f} (ceiling ~0.69 over 40 seeds)",
    )


def test_09_stochastic_decode_round_trip(regime_codebook):
    book, _, _ = regime_codebook
    trials = 300
    recovered = 0
    for trial in range(trials):
        token = trial % book.k
        model = cb.decode_token(book, token, FS)
        segment = lpc_core.synthesize(model, REGIME_WINDOW, seed=5000 + trial)
        refit = lpc_core.fit_burg_warped(segment, book.order, book.lam)
        vec = latent.features(refit, book.method)
        recovered += cb.encode_vector(book, vec) == token
    rate = recovered / trials
    _report(
        "09 stochastic-decode-round-trip",
        rate >= 0.80,
        f"recovered {recovered}/{trials} tokens, rate {rate:.3f}",
    )


def test_10_default_configuration_smoke_run(tmp_path):
    rng = np.random.default_rng(110)
    n_channels, seconds = 59, 60
    n_samples = int(seconds * FS)
    data = []
    for c in range(n_channels):
        f0 = REGIME_FREQS[c % 3]
        spec = testkit.ArSpec(ar2_coeffs(f0), 1.0, seed=int(rng.integers(1 << 30)))
        data.append(testkit.generate_ar(spec, n_samples))
    names = [f"ch{c}" for c in range(n_channels)]
    csv_path = tmp_path / "series.csv"
    csv_path.write_text(pipeline.format_series_csv(names, np.stack(data)))

    books, token_files = [], []
    for run in range(2):
        book_path = tmp_path / f"book{run}.json"
        status = cli.main([
            "train", str(csv_path), "--out", str(book_path),
            "--order", "16", "--lambda", "0.2", "--k", "64",
            "--window-sec", "5", "--seed", "0", "--sample-rate", "500",
        ])
        assert status == 0
        tokens_path = tmp_path / f"tokens{run}.txt"
        status = cli.main([
            "encode", str(csv_path), "--codebook", str(book_path),
            "--out", str(tokens_path), "--layout", "positions",
            "--window-sec", "5", "--sample-rate", "500",
        ])
        assert status == 0
        books.append(book_path.read_bytes())
        token_files.append(tokens_path.read_bytes())

    lines = token_files[0].decode().splitlines()
    vocab = (tmp_path / "book0.json.vocab").read_text().splitlines()
    shape_ok = len(lines) == 12 and all(len(line.split()) == 59 for line in lines)
    vocab_ok = len(vocab) == 69
    deterministic = books[0] == books[1] and token_files[0] == token_files[1]
    ok = shape_ok and vocab_ok and deterministic
    _report(
        "10 default-configuration-smoke-run",
        ok,
        f"12x59 sequences: {shape_ok}, 69-word vocabulary: {vocab_ok}, "
        f"byte-identical reruns: {deterministic}",
    )
