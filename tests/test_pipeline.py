import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import oracle_simulate_frame
import radiofp
from radiofp import pipeline
from radiofp.classify import derive_seed
from radiofp.errors import SyncNotFoundError
from radiofp.pipeline import ImpairmentProfile


def test_transnoise_first_digits():
    first16 = pipeline.gen_transnoise(16)
    digits = np.round((first16 + 1.0) * 9 / 2).astype(int)
    assert digits.tolist() == [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3]


def test_transnoise_example_values():
    np.testing.assert_allclose(
        pipeline.gen_transnoise(4),
        [-1 / 3, -7 / 9, -1 / 9, -7 / 9],
        rtol=1e-15,
    )


def test_transnoise_endpoint_mapping():
    # digit 0 -> -1, digit 9 -> +1; pi's digit stream contains both within
    # the first 50 digits (0 at position 33, 9 at position 5, 1-based)
    seq = pipeline.gen_transnoise(50)
    assert seq.min() == -1.0
    assert seq.max() == 1.0


def test_transnoise_deterministic():
    a = pipeline.gen_transnoise(256)
    b = pipeline.gen_transnoise(256)
    np.testing.assert_array_equal(a, b)


def test_transnoise_cap():
    assert pipeline.MAX_FRAME_LEN == 8192
    assert pipeline.gen_transnoise(8192).size == 8192
    for length in (0, 8193):
        with pytest.raises(ValueError):
            pipeline.gen_transnoise(length)


def _digits(length):
    """The pi digits of ``gen_transnoise(length)``, as text."""
    seq = pipeline.gen_transnoise(length)
    return "".join(map(str, np.round((seq + 1.0) * 4.5).astype(int)))


# sha256 of the 8192-digit text that earlier versions embedded as a table;
# the etalon of every golden digest was made from it
PI_8192_SHA256 = (
    "92b32934d48848ffc23bd44a261dba37760235d6af657a2d8de6679466891c9d")


def test_transnoise_digits_equal_the_former_table():
    digits = _digits(8192)
    assert hashlib.sha256(digits.encode("ascii")).hexdigest() == PI_8192_SHA256


def test_transnoise_digits_equal_mpmath_pi():
    import mpmath

    with mpmath.workdps(8250):
        # 8230 significant digits: the rounded last ones are not compared
        text = mpmath.nstr(mpmath.pi, 8230, strip_zeros=False)
    assert _digits(8192) == text.replace(".", "")[:8192]


def test_transnoise_digits_are_prefixes():
    # 755..775 straddle the six 9s from decimal place 762; 4300 is Python's
    # default int-to-str digit limit
    full = _digits(8192)
    for length in (*range(755, 776), 4300, 4301, 8191):
        assert _digits(length) == full[:length], length


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_transnoise_under_the_lowest_int_str_digit_limit():
    script = ("import hashlib, sys\n"
              "from radiofp.pipeline import gen_transnoise\n"
              "print(sys.get_int_max_str_digits())\n"
              "print(hashlib.sha256(gen_transnoise(8192).tobytes()).hexdigest())")
    src = str(Path(radiofp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-c", script],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    expected = hashlib.sha256(pipeline.gen_transnoise(8192).tobytes())
    assert out == ["640", expected.hexdigest()]


def test_simulate_identity_profile():
    etalon = pipeline.transnoise_etalon(256)
    out = pipeline.simulate_device(etalon, ImpairmentProfile(), [1, 2, 3])
    np.testing.assert_array_equal(out, np.tile(etalon, (3, 1)))


def test_simulate_snr_calibration():
    rng = np.random.default_rng(0)
    frame = rng.normal(size=512) + 1j * rng.normal(size=512)
    frame /= np.sqrt(np.mean(np.abs(frame) ** 2))  # unit power
    profile = ImpairmentProfile(snr_db=20.0)
    noisy = pipeline.simulate_device(frame, profile, range(100))
    powers = np.mean(np.abs(noisy - frame) ** 2, axis=1)
    assert np.mean(powers) == pytest.approx(0.01, rel=0.10)


def test_simulate_distinct_profiles_differ():
    etalon = pipeline.transnoise_etalon(128)
    p1 = ImpairmentProfile(cubic_nonlinearity=0.02, snr_db=25.0)
    p2 = ImpairmentProfile(cubic_nonlinearity=0.05, snr_db=25.0)
    out1 = pipeline.simulate_device(etalon, p1, [3])
    out2 = pipeline.simulate_device(etalon, p2, [3])
    assert not np.array_equal(out1, out2)


def test_simulate_deterministic():
    etalon = pipeline.transnoise_etalon(128)
    p = ImpairmentProfile(phase_noise_rms=0.01, snr_db=15.0)
    np.testing.assert_array_equal(
        pipeline.simulate_device(etalon, p, [9]),
        pipeline.simulate_device(etalon, p, [9]),
    )


_ALL_IMPAIRMENTS = ImpairmentProfile(
    gain_imbalance=-0.05, quadrature_error=-0.05, phase_noise_rms=0.12,
    cubic_nonlinearity=0.25, dc_offset=-0.008 + 0.015j, snr_db=10.0)

# each impairment alone, all of them, none, all but the noise, all but the
# jitter
_SIMULATE_PROFILES = {
    "cubic": ImpairmentProfile(cubic_nonlinearity=0.05),
    "gain": ImpairmentProfile(gain_imbalance=0.03),
    "quadrature": ImpairmentProfile(quadrature_error=0.03),
    "dc_offset": ImpairmentProfile(dc_offset=0.010 + 0.005j),
    "jitter": ImpairmentProfile(phase_noise_rms=0.02),
    "noise": ImpairmentProfile(snr_db=20.0),
    "all": _ALL_IMPAIRMENTS,
    "identity": ImpairmentProfile(),
    "no_noise": dataclasses.replace(_ALL_IMPAIRMENTS, snr_db=None),
    "no_jitter": dataclasses.replace(_ALL_IMPAIRMENTS, phase_noise_rms=0.0),
}


@pytest.mark.parametrize("length", [67, 1024])
@pytest.mark.parametrize("n", [1, 7, 32])
@pytest.mark.parametrize("name", list(_SIMULATE_PROFILES))
def test_simulate_device_rows_match_per_frame_reference(name, n, length):
    """Row r of one block call has the bytes of the per-frame simulation of
    seeds[r]; 67 samples leave a tail after any SIMD width."""
    profile = _SIMULATE_PROFILES[name]
    etalon = pipeline.transnoise_etalon(1024)[:length]
    seeds = [derive_seed(11, 1, m) for m in range(n)]
    got = pipeline.simulate_device(etalon, profile, seeds)
    assert got.shape == (n, length)
    assert got.dtype == np.complex128
    for row, seed in zip(got, seeds):
        assert row.tobytes() == \
            oracle_simulate_frame(etalon, profile, seed).tobytes()


def test_profile_validation():
    with pytest.raises(ValueError):
        ImpairmentProfile(phase_noise_rms=-0.1)
    bad = float("inf"), float("-inf"), float("nan")
    for field in ("gain_imbalance", "quadrature_error", "phase_noise_rms",
                  "cubic_nonlinearity", "snr_db"):
        for value in bad:
            with pytest.raises(ValueError, match=field):
                ImpairmentProfile(**{field: value})
    for value in bad:
        for dc in (complex(value, 0.0), complex(0.0, value)):
            with pytest.raises(ValueError, match="dc_offset"):
                ImpairmentProfile(dc_offset=dc)


def test_profile_json_round_trip():
    p = ImpairmentProfile(
        gain_imbalance=0.02, quadrature_error=-0.01, phase_noise_rms=0.005,
        cubic_nonlinearity=0.03, dc_offset=0.001 - 0.002j, snr_db=20.0,
    )
    assert ImpairmentProfile.from_json_dict(p.to_json_dict()) == p


def _sync(stream, etalon, threshold=pipeline.DEFAULT_SYNC_THRESHOLD):
    """The sample offsets of the frames `run_capture_pipeline` syncs to."""
    return pipeline.run_capture_pipeline(stream, etalon, threshold)[3]


def test_synchronize_delay_17():
    etalon = pipeline.transnoise_etalon(256)
    stream = np.concatenate([np.zeros(17, dtype=complex), etalon])
    lags = _sync(stream, etalon)
    assert len(lags) == 1
    assert lags[0] == 17
    np.testing.assert_array_equal(stream[lags[0]:lags[0] + 256], etalon)


def test_synchronize_zero_delay():
    etalon = pipeline.transnoise_etalon(256)
    lags = _sync(etalon, etalon)
    assert len(lags) == 1
    assert lags[0] == 0


def test_synchronize_recovers_all_integer_delays():
    length = 64
    etalon = pipeline.transnoise_etalon(length)
    for delay in range(length):
        stream = np.concatenate([np.zeros(delay, dtype=complex), etalon])
        lags = _sync(stream, etalon)
        assert lags[0] == delay, delay


def test_synchronize_noisy_delay_40():
    length = 256
    etalon = pipeline.transnoise_etalon(length)
    profile = ImpairmentProfile(snr_db=20.0)
    for noisy in pipeline.simulate_device(etalon, profile, range(100)):
        stream = np.concatenate([np.zeros(40, dtype=complex), noisy])
        lags = _sync(stream, etalon)
        assert lags[0] == 40


def test_synchronize_multiple_repetitions():
    etalon = pipeline.transnoise_etalon(128)
    stream = np.tile(etalon, 7)
    lags = _sync(stream, etalon)
    assert len(lags) == 7
    assert lags.tolist() == [128 * i for i in range(7)]


def test_synchronize_rejects_noise():
    rng = np.random.default_rng(5)
    etalon = pipeline.transnoise_etalon(256)
    noise = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    with pytest.raises(SyncNotFoundError):
        _sync(noise, etalon, threshold=20.0)
    with pytest.raises(SyncNotFoundError, match="shorter than one frame"):
        _sync(etalon[:255], etalon)


def _correlation_mag(stream, etalon):
    """Every |c| of a stream: the correlation batches, concatenated."""
    mags, lags = [], 0
    for first, _, mag in pipeline._cross_correlation_mag(stream, etalon):
        assert first == lags
        mags.append(mag)
        lags += mag.size
    return np.concatenate(mags)


def _synchronize_reference(stream, etalon, threshold):
    """The quadratic search: every test re-averages the outside lags."""
    e = pipeline._check_etalon(etalon)
    x = np.asarray(stream, dtype=complex)
    length = e.size
    if x.size < length:
        raise SyncNotFoundError(
            f"stream of {x.size} samples is shorter than one frame ({length})")
    mag = _correlation_mag(x, e)

    def ratio(k):
        outside = np.concatenate([mag[: max(0, k - 2)], mag[k + 3 :]])
        if outside.size == 0:
            return math.inf if mag[k] > 0 else 0.0
        mean_mag = float(outside.mean())
        return math.inf if mean_mag == 0.0 else float(mag[k]) / mean_mag

    k0 = int(np.argmax(mag[: min(length, mag.size)]))
    if ratio(k0) < threshold:
        raise SyncNotFoundError(
            f"peak-to-mean ratio {ratio(k0):.2f} below {threshold}")
    lags = []
    k = k0
    while k + length <= x.size:
        lags.append(k)
        expected = k + length
        if expected + length > x.size:
            break
        lo = max(0, expected - 8)
        k_next = lo + int(np.argmax(mag[lo:min(mag.size, expected + 9)]))
        if ratio(k_next) < threshold:
            break
        k = k_next
    return np.array(lags, dtype=np.int64)


def _random_sync_stream(rng, etalon, kind):
    """Noisy etalon repetitions with lead-ins, gaps and partial frames."""
    length = etalon.size

    def noise(n, sigma):
        return sigma * (rng.normal(size=n) + 1j * rng.normal(size=n))

    def gap(n):  # zeros or noise
        return np.zeros(n, dtype=complex) if rng.random() < 0.5 \
            else noise(n, rng.uniform(0.1, 2.0))

    if kind == 0:  # L .. L+4 samples: the outside set is empty or tiny
        n = length + int(rng.integers(0, 5))
        shift = int(rng.integers(0, n - length + 1))
        stream = noise(n, rng.uniform(0.0, 0.5))
        if rng.random() < 0.8:
            stream[shift:shift + length] += etalon
        return stream
    if kind == 1:  # noise alone
        return noise(int(rng.integers(length, 12 * length)), 1.0)
    parts = [gap(int(rng.integers(0, 2 * length)))]
    for _ in range(int(rng.integers(1, 16))):
        sigma = rng.choice([0.05, 0.5, 1.0, 2.0, 4.0])
        parts.append(etalon + noise(length, sigma))
        if kind == 3 and rng.random() < 0.15:
            parts.append(gap(int(rng.integers(1, 3 * length))))
    parts.append(etalon[: int(rng.integers(0, length))])  # partial frame
    return np.concatenate(parts)


def test_synchronize_matches_quadratic_reference():
    rng = np.random.default_rng(2024)
    etalon = pipeline.transnoise_etalon(64)
    seen = {"lags": 0, "early stop": 0, "error": 0}
    for trial in range(600):
        stream = _random_sync_stream(rng, etalon, trial % 4)
        threshold = float(rng.uniform(1.5, 5.0))
        outcomes = []
        for sync in (_sync, _synchronize_reference):
            try:
                outcomes.append(sync(stream, etalon, threshold).tolist())
            except SyncNotFoundError as exc:
                outcomes.append((type(exc), str(exc)))
        got, want = outcomes
        assert got == want, (trial, threshold, got, want)
        if isinstance(want, tuple):
            seen["error"] += 1
        else:
            seen["lags"] += 1
            seen["early stop"] += (want[-1] + 2 * etalon.size <= stream.size)
    assert min(seen.values()) > 50, seen


def _synchronize_whole_array(stream, etalon, threshold, ratios=None):
    """The linear search over every |c| of the stream at once: one pairwise
    sum of the magnitudes, then the peak walk with its threshold tests.
    Each ratio tested is appended to ``ratios`` when given."""
    e = pipeline._check_etalon(etalon)
    x = np.asarray(stream, dtype=complex)
    length = e.size
    if x.size < length:
        raise SyncNotFoundError(
            f"stream of {x.size} samples is shorter than one frame ({length})")
    mag = _correlation_mag(x, e)
    total = float(mag.sum())

    def ratio(k):
        lo, hi = max(0, k - 2), min(mag.size, k + 3)
        count = mag.size - (hi - lo)
        if count == 0:
            return math.inf if mag[k] > 0 else 0.0
        mean_mag = (total - float(mag[lo:hi].sum())) / count
        r = math.inf if mean_mag <= 0.0 else float(mag[k]) / mean_mag
        if ratios is not None:
            ratios.append(r)
        return r

    k0 = int(np.argmax(mag[: min(length, mag.size)]))
    first = ratio(k0)
    if first < threshold:
        raise SyncNotFoundError(
            f"peak-to-mean ratio {first:.2f} below {threshold}")
    lags = []
    k = k0
    while k + length <= x.size:
        lags.append(k)
        expected = k + length
        if expected + length > x.size:
            break
        lo = max(0, expected - 8)
        hi = min(mag.size, expected + 9)
        k_next = lo + int(np.argmax(mag[lo:hi]))
        if ratio(k_next) < threshold:
            break
        k = k_next
    return np.array(lags, dtype=np.int64)


def _sync_outcome(sync, stream, etalon, threshold):
    try:
        return sync(stream, etalon, threshold).tobytes()
    except SyncNotFoundError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("windows_per_batch", [1, 2])
def test_synchronize_streamed_equals_whole_array_walker(windows_per_batch,
                                                        monkeypatch):
    """With 65-lag correlation windows, one or two to a batch, the streamed
    walk gives the whole-array walk's lags byte for byte, and its errors.
    Search windows and five-lag neighbourhoods straddle batch ends, and the
    streams include ones that end mid-batch, lose sync in a noise gap, fail
    at the first peak, or hold exactly L samples."""
    monkeypatch.setattr(pipeline, "_CORR_MIN_NFFT", 128)  # step 65 lags
    monkeypatch.setattr(pipeline, "_CORR_BATCH_BYTES",
                        windows_per_batch * 16 * 128)
    batch = windows_per_batch * 65
    rng = np.random.default_rng(77)
    etalon = pipeline.transnoise_etalon(64)

    def frames(count, sigma=0.05):
        return np.concatenate([etalon + sigma * (rng.normal(size=64)
                                                 + 1j * rng.normal(size=64))
                               for _ in range(count)])

    noise = 0.5 * (rng.normal(size=400) + 1j * rng.normal(size=400))
    cases = {
        "exactly L": (etalon, 3.0),
        "mid-batch end": (np.concatenate([noise[:5], frames(9),
                                          etalon[:20]]), 3.0),
        "gap": (np.concatenate([noise[:11], frames(6), noise, frames(5)]),
                3.0),
        "first peak fails": (np.concatenate([noise, frames(3)]), 3.0),
        "noise": (noise, 2.5),
    }
    for trial in range(120):
        cases[f"random {trial}"] = (_random_sync_stream(rng, etalon,
                                                        trial % 4),
                                    float(rng.uniform(1.5, 5.0)))
    outcomes = {}
    for name, (stream, threshold) in cases.items():
        got = _sync_outcome(_sync, stream, etalon, threshold)
        want = _sync_outcome(_synchronize_whole_array, stream, etalon,
                             threshold)
        assert got == want, name
        outcomes[name] = got
    assert outcomes["exactly L"] == bytes(8)
    assert outcomes["gap"] == np.arange(11, 11 + 6 * 64, 64).tobytes()
    assert isinstance(outcomes["first peak fails"], tuple)
    lags = np.frombuffer(b"".join(v for v in outcomes.values()
                                  if not isinstance(v, tuple)), np.int64)
    # search windows (+-8 lags) and neighbourhoods (+-2) across batch ends
    straddles = np.count_nonzero((lags - 10) // batch != (lags + 10) // batch)
    errors = sum(isinstance(v, tuple) for v in outcomes.values())
    assert straddles > 30 and errors > 20, (straddles, errors)


@pytest.mark.parametrize("windows_per_batch", [1, 2])
def test_synchronize_streamed_ratios_at_window_edges(windows_per_batch,
                                                     monkeypatch):
    """Frames spaced L - 8 .. L + 8 apart put each next peak at or near an
    edge of its search window, so its five-lag neighbourhood reaches past
    the window, often across a batch end.  A threshold a relative 1e-9
    either side of each peak-to-mean ratio of the whole-array walk gives
    the same outcome streamed: every candidate's neighbourhood sum is the
    whole-array one, only the sum of all lags may round apart."""
    monkeypatch.setattr(pipeline, "_CORR_MIN_NFFT", 128)  # step 65 lags
    monkeypatch.setattr(pipeline, "_CORR_BATCH_BYTES",
                        windows_per_batch * 16 * 128)
    rng = np.random.default_rng(31)
    etalon = pipeline.transnoise_etalon(64)
    tested = 0
    for spacing in (56, 57, 61, 67, 71, 72):
        for sigma in (0.1, 0.4):
            n = 5 + 7 * spacing + 64 + 20
            stream = sigma * (rng.normal(size=n) + 1j * rng.normal(size=n))
            for m in range(8):
                stream[5 + m * spacing:5 + m * spacing + 64] += etalon
            ratios = []
            _synchronize_whole_array(stream, etalon, 1e-9, ratios)
            for r in ratios:
                if not 0 < r < math.inf:
                    continue
                for threshold in (r * (1 - 1e-9), r * (1 + 1e-9)):
                    assert _sync_outcome(_sync, stream, etalon,
                                         threshold) == \
                        _sync_outcome(_synchronize_whole_array, stream,
                                      etalon, threshold), (spacing, sigma)
                    tested += 1
    assert tested > 150, tested


@pytest.mark.parametrize("length", [64, 1024])
@pytest.mark.parametrize("blocks_per_batch", [1, 2, None])
def test_cross_correlation_matches_np_correlate(length, blocks_per_batch,
                                                monkeypatch):
    """Overlap-save |c| equals direct correlation at every block and batch
    boundary: streams of L and L+1 samples, and streams whose lag count is
    a multiple of the block step or one off it."""
    nfft = 8192
    step = nfft - length + 1
    monkeypatch.setattr(pipeline, "_CORR_MIN_NFFT", nfft)
    if blocks_per_batch is not None:
        monkeypatch.setattr(pipeline, "_CORR_BATCH_BYTES",
                            blocks_per_batch * 16 * nfft)
    rng = np.random.default_rng(length)
    etalon = rng.normal(size=length) + 1j * rng.normal(size=length)
    lag_counts = [1, 2] + [k * step + d for k in (1, 2, 3) for d in (-1, 0, 1)]
    for lag_count in lag_counts + [5 * step + 77]:
        n = lag_count + length - 1
        stream = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = _correlation_mag(stream, etalon)
        want = np.abs(np.correlate(stream, etalon, "valid"))
        assert got.shape == want.shape, n
        np.testing.assert_allclose(got, want, rtol=1e-10,
                                   atol=1e-12 * want.max(), err_msg=str(n))


def test_error_phase_pure_gain_absorbed():
    etalon = pipeline.transnoise_etalon(256)
    frame = 2.0 * np.exp(1j * np.pi / 3) * etalon
    phases, dropped = pipeline.error_phase(frame[None], etalon)
    assert not dropped.any()
    np.testing.assert_array_equal(phases, np.zeros((1, 256)))


def test_error_phase_small_perturbation_closed_form():
    # perpendicular perturbation with alternating sign: the least-squares
    # gain absorbs almost none of it, so the phases match the direct
    # complex arithmetic arg(perturbation - (g-1)*etalon)
    etalon = pipeline.transnoise_etalon(256)
    eps = 1e-3
    pattern = np.where(np.arange(256) % 2 == 0, 1.0, -1.0)
    frame = etalon + 1j * eps * pattern * etalon
    energy = np.vdot(etalon, etalon).real
    gain = np.vdot(etalon, frame) / energy
    expected = np.angle(frame / gain - etalon)
    got = pipeline.error_phase(frame[None], etalon)[0][0]
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_error_phase_gain_invariance():
    rng = np.random.default_rng(11)
    etalon = pipeline.transnoise_etalon(512)
    frame = pipeline.simulate_device(
        etalon, ImpairmentProfile(cubic_nonlinearity=0.02, snr_db=20.0), [2]
    )[0]
    base = pipeline.error_phase(frame[None], etalon)[0][0]
    for mag in (1e-6, 1e-2, 1.0, 37.5, 1e6):
        c = mag * np.exp(1j * rng.uniform(-np.pi, np.pi))
        scaled = pipeline.error_phase(c * frame[None], etalon)[0][0]
        diff = np.angle(np.exp(1j * (scaled - base)))
        assert np.max(np.abs(diff)) < 1e-12


def test_error_phase_zero_gain():
    etalon = pipeline.transnoise_etalon(128)
    phases, dropped = pipeline.error_phase(np.zeros((1, 128), dtype=complex),
                                           etalon)
    assert dropped.tolist() == [True]
    assert phases.shape == (0, 128)


def test_error_phase_range():
    etalon = pipeline.transnoise_etalon(256)
    frames = pipeline.simulate_device(etalon, ImpairmentProfile(snr_db=5.0),
                                      [4])
    phases, _ = pipeline.error_phase(frames, etalon)
    assert np.all(phases > -np.pi)
    assert np.all(phases <= np.pi)


def test_capture_pipeline_clean_repetitions():
    etalon = pipeline.transnoise_etalon(128)
    stream = np.tile(etalon, 10)
    values, failed, dropped, _ = pipeline.run_capture_pipeline(stream, etalon)
    assert len(values) == 10
    assert not dropped.any()
    # every error phase is all zeros: mean (P1) 0, range (P2) 0, so each
    # row fails at P2
    np.testing.assert_array_equal(values[:, :2], np.zeros((10, 2)))
    assert failed.tolist() == [1] * 10


def test_capture_pipeline_simulated_devices():
    etalon = pipeline.transnoise_etalon(128)
    profile = ImpairmentProfile(quadrature_error=0.02, snr_db=20.0)
    frames = pipeline.simulate_device(etalon, profile, range(10))
    values, _, _, _ = pipeline.run_capture_pipeline(frames.ravel(), etalon)
    assert len(values) == 10
    assert np.all(values[:, 1] > 0)  # no error phase is constant


def _blocked_extract_stream(rng, etalon, kind):
    """A noise lead-in, 30 frames (every 7th noise-free, which fails at
    P2) and a partial frame.  ``gap`` puts noise that loses sync after frame
    24; ``tiny`` scales it all down until every gain is numerically zero."""
    length = etalon.size
    parts = [0.3 * rng.normal(size=37) + 0j]
    for m in range(30):
        sigma = 0.0 if m % 7 == 3 else 0.05
        gain = 1j ** m * 2.0 ** (m % 2)  # exact in float32
        parts.append(gain * etalon + sigma * (
            rng.normal(size=length) + 1j * rng.normal(size=length)))
        if kind == "gap" and m == 23:
            parts.append(0.3 * (rng.normal(size=3 * length)
                                + 1j * rng.normal(size=3 * length)))
    parts.append(etalon[:length // 3])
    stream = np.concatenate(parts)
    return 1e-14 * stream if kind == "tiny" else stream


@pytest.mark.parametrize("kind", ["gap", "no_gap", "tiny"])
def test_run_capture_pipeline_blocks_match_whole_matrix(kind, tmp_path,
                                                        monkeypatch):
    """Streamed from an .iq file in small correlation, read and frame
    blocks, extract equals the whole-array sync, error_phase and
    feature_matrix run once on the whole stream and frame matrix, byte for
    byte."""
    from radiofp import dataio
    from radiofp.features import feature_matrix

    dataio.write_iq(tmp_path / "etalon.iq", pipeline.transnoise_etalon(64))
    etalon = dataio.read_iq(tmp_path / "etalon.iq")
    path = tmp_path / "stream.iq"
    dataio.write_iq(path, _blocked_extract_stream(np.random.default_rng(8),
                                                  etalon, kind))
    stream = dataio.read_iq(path)
    lags = _synchronize_whole_array(stream, etalon,
                                    pipeline.DEFAULT_SYNC_THRESHOLD)
    phases, dropped = pipeline.error_phase(
        stream[lags[:, None] + np.arange(etalon.size)], etalon)
    values, failed = feature_matrix(phases)

    monkeypatch.setattr(pipeline, "_CORR_MIN_NFFT", 128)  # step 65 lags
    monkeypatch.setattr(pipeline, "_CORR_BATCH_BYTES", 2 * 16 * 128)
    monkeypatch.setattr(pipeline, "_FRAME_BLOCK_BYTES", 7 * 16 * 64)
    got = pipeline.run_capture_pipeline(dataio.IqFile(path), etalon)

    assert stream.size - etalon.size + 1 > 3 * 2 * 65  # >= 3 batches
    assert lags.size > 3 * 7  # >= 4 frame blocks
    assert lags[-1] + 2 * etalon.size > stream.size or kind == "gap"
    if kind == "gap":
        assert lags.size == 24
    assert failed.tolist().count(1) >= 3 or kind == "tiny"
    assert dropped.all() == (kind == "tiny")
    for name, want, have in zip(("values", "failed", "dropped", "lags"),
                                (values, failed, dropped, lags), got):
        assert have.dtype == want.dtype, name
        assert have.tobytes() == want.tobytes(), name


def test_error_phase_matrix_masks_zero_gain_row():
    etalon = pipeline.transnoise_etalon(256)
    profile = ImpairmentProfile(cubic_nonlinearity=0.05, snr_db=15.0)
    frames = pipeline.simulate_device(etalon, profile, range(4))
    frames[2] = 0.0
    phases, dropped = pipeline.error_phase(frames, etalon)
    assert dropped.tolist() == [False, False, True, False]
    assert phases.shape == (3, 256)
    for got, row in zip(phases, frames[[0, 1, 3]]):
        one, one_dropped = pipeline.error_phase(row[None], etalon)
        assert not one_dropped.any()
        assert got.tobytes() == one[0].tobytes()


def _two_pass(stream, etalon, threshold=pipeline.DEFAULT_SYNC_THRESHOLD):
    """extract in two passes over the stream: the whole-array sync, then
    error_phase and feature_matrix on the whole frame matrix, read again by
    lag; or the sync error."""
    from radiofp.features import feature_matrix

    try:
        lags = _synchronize_whole_array(stream, etalon, threshold)
    except SyncNotFoundError as exc:
        return type(exc), str(exc)
    phases, dropped = pipeline.error_phase(
        stream[lags[:, None] + np.arange(etalon.size)], etalon)
    values, failed = feature_matrix(phases)
    return values, failed, dropped, lags


def _one_pass(stream, etalon, threshold=pipeline.DEFAULT_SYNC_THRESHOLD):
    try:
        return pipeline.run_capture_pipeline(stream, etalon, threshold)
    except SyncNotFoundError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("windows_per_batch", [1, 2])
def test_run_capture_pipeline_one_pass_equals_two_pass(windows_per_batch,
                                                       tmp_path,
                                                       monkeypatch):
    """extract's single pass, from an .iq file and from an array, gives the
    two-pass result byte for byte, or its sync error.  With 65-lag
    correlation windows, one or two to a batch, many frames start in one
    batch and are completed in the next, so they come from the samples
    carried over; the streams also hold lead-ins, a sync loss mid-stream
    (whose later candidates are featurized, then dropped), a failing first
    peak, frames at the edges of their search windows, and random ones."""
    from radiofp import dataio

    monkeypatch.setattr(pipeline, "_CORR_MIN_NFFT", 128)  # step 65 lags
    monkeypatch.setattr(pipeline, "_CORR_BATCH_BYTES",
                        windows_per_batch * 16 * 128)
    monkeypatch.setattr(pipeline, "_FRAME_BLOCK_BYTES", 5 * 16 * 64)
    batch = windows_per_batch * 65
    rng = np.random.default_rng(15)
    etalon = pipeline.transnoise_etalon(64)

    def frames(count, sigma=0.05):
        return np.concatenate([etalon + sigma * (rng.normal(size=64)
                                                 + 1j * rng.normal(size=64))
                               for _ in range(count)])

    def noise(n):
        return 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))

    def jittered(count):  # 0-8 noise samples after each frame
        return np.concatenate([np.concatenate([frame, 0.05 * noise(gap)])
                               for frame, gap in zip(
                                   frames(count).reshape(count, 64),
                                   rng.integers(0, 9, size=count))])

    spaced = 0.1 * noise(5 + 7 * 71 + 84)
    for m in range(8):
        spaced[5 + m * 71:5 + m * 71 + 64] += etalon
    cases = {
        "exactly L": (etalon, 3.0),
        "--lead-in zeros": (np.concatenate([np.zeros(40), frames(20),
                                         etalon[:30]]), 3.0),
        "noise lead-in": (np.concatenate([noise(63), frames(20)]), 3.0),
        "short lead-in": (np.concatenate([noise(3), frames(20)]), 3.0),
        "sync lost": (np.concatenate([noise(11), frames(12), noise(300),
                                      frames(10)]), 3.0),
        "first peak fails": (np.concatenate([noise(400), frames(3)]), 3.0),
        "window edges": (spaced, 2.0),
        "jittered": (np.concatenate([noise(20), jittered(60)]), 3.0),
        "jittered, sync lost": (np.concatenate([jittered(50), noise(500),
                                                jittered(30)]), 3.0),
    }
    for trial in range(40):
        cases[f"random {trial}"] = (_random_sync_stream(rng, etalon,
                                                        trial % 4),
                                    float(rng.uniform(1.5, 5.0)))
    carried = errors = 0
    for name, (samples, threshold) in cases.items():
        path = tmp_path / "stream.iq"
        dataio.write_iq(path, samples)
        stream = dataio.read_iq(path)
        want = _two_pass(stream, etalon, threshold)
        for got in (_one_pass(dataio.IqFile(path), etalon, threshold),
                    _one_pass(stream, etalon, threshold)):
            assert len(got) == len(want), name
            for have, expect in zip(got, want):
                if isinstance(expect, np.ndarray):
                    assert have.dtype == expect.dtype, name
                    assert have.tobytes() == expect.tobytes(), name
                else:
                    assert have == expect, name
        if len(want) == 2:
            errors += 1
            continue
        # the lag whose arrival completes frame i's search window
        lags, size = want[3], stream.size - 63
        ends = np.minimum(size - 1, np.append(64, lags[:-1] + 64 + 9) + 1)
        carried += np.count_nonzero(lags // batch < ends // batch)
    assert len(_two_pass(cases["sync lost"][0], etalon)[3]) == 12
    assert len(_two_pass(cases["jittered, sync lost"][0], etalon)[3]) == 50
    assert isinstance(_two_pass(cases["first peak fails"][0], etalon)[0],
                      type)
    assert carried >= 10 and errors > 5, (carried, errors)


@pytest.mark.parametrize("length", [64, 256])
def test_run_capture_pipeline_memory_does_not_grow_with_stream(length,
                                                              tmp_path):
    """extract of an .iq file of 4N samples peaks within 1 MB of extract of
    N samples: it holds no array of the whole stream, which would take 16
    bytes per sample, 6 MB more at 4N, nor a |c| array of it, 3 MB more.
    Only the per-frame state grows: the candidates and the feature rows,
    about 0.2 MB more at 4N with L=256 and 0.6 MB with L=64."""
    from radiofp import dataio

    etalon = pipeline.transnoise_etalon(length)
    n = 1 << 17
    rng = np.random.default_rng(5)
    paths = [tmp_path / "n.iq", tmp_path / "4n.iq"]
    for path, frames in zip(paths, (n // length, 4 * n // length)):
        stream = np.tile(etalon, frames)
        dataio.write_iq(path, stream + 0.05 * rng.normal(size=stream.size))
    del stream
    peaks = []
    tracemalloc.start()
    try:
        for path in paths:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = pipeline.run_capture_pipeline(dataio.IqFile(path),
                                                   etalon)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            assert result[3].size == dataio.IqFile(path).size // length
            del result
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20, peaks


def _error_phase_reference(frames, etalon):
    """error_phase as first written: a copy of the kept rows, a new array
    for the subtraction, and |err| of every sample."""
    e = np.asarray(etalon, dtype=complex)
    f = np.asarray(frames, dtype=complex)
    energy = float(np.vdot(e, e).real)
    gain = np.array([np.vdot(e, row) / energy for row in f], dtype=complex)
    etalon_rms = math.sqrt(energy / e.size)
    dropped = np.abs(gain) < 1e-12 * etalon_rms
    err = f[~dropped] / gain[~dropped, None] - e
    phases = np.angle(err)
    phases[phases == -np.pi] = np.pi
    phases[np.abs(err) <= 1e-12 * etalon_rms] = 0.0
    return phases, dropped


def test_error_phase_matches_reference_formula():
    """Bit for bit, with and without dropped rows: noisy frames, exact
    multiples of the etalon (every error sample zero or a rounding
    residue), and error samples whose parts sit either side of the 1e-12
    RMS floor, alone or together, with either sign."""
    rng = np.random.default_rng(9)
    etalon = pipeline.transnoise_etalon(256)
    floor = 1e-12 * math.sqrt(float(np.vdot(etalon, etalon).real) / 256)
    noisy = etalon + 0.1 * (rng.normal(size=(4, 256))
                            + 1j * rng.normal(size=(4, 256)))
    exact = np.array([etalon, -etalon, (0.3 - 2j) * etalon, 1e-9 * etalon])
    near = np.tile(etalon, (3, 1)).astype(complex)
    steps = rng.choice([0.5, 0.999, 1.0, 1.001, 2.0, 0.0], size=(3, 256, 2))
    signs = rng.choice([-1.0, 1.0], size=(3, 256, 2))
    near += floor * (steps * signs) @ np.array([1.0, 1j])
    cases = [noisy, exact, near, np.concatenate([noisy, exact, near])]
    with_zero = np.concatenate([noisy[:2], np.zeros((1, 256)), near])
    for frames in cases + [with_zero]:
        got = pipeline.error_phase(frames, etalon)
        want = _error_phase_reference(frames, etalon)
        for have, expect in zip(got, want):
            assert have.dtype == expect.dtype
            assert have.tobytes() == expect.tobytes()
    # an etalon with zero samples: where the frame equals it elsewhere, the
    # gain is exactly 1, so each error sample there is the frame's own,
    # with parts at, just above and just below the floor
    holes = etalon.copy()
    holes[::4] = 0.0
    floor = 1e-12 * math.sqrt(float(np.vdot(holes, holes).real) / 256)
    parts = floor * np.array([0.0, 0.5, np.nextafter(1.0, 0.0), 1.0,
                              np.nextafter(1.0, 2.0)])
    parts = np.concatenate([parts, -parts])
    re, im = np.meshgrid(parts, parts)
    frames = np.tile(holes, (2, 1))
    frames[:, ::4] = np.resize(re + 1j * im, (2, 64))  # all 100 pairs
    got = pipeline.error_phase(frames, holes)
    assert got[0].tobytes() == _error_phase_reference(frames,
                                                      holes)[0].tobytes()
    assert 0 < np.count_nonzero(got[0][:, ::4] == 0.0) < 128
    assert pipeline.error_phase(with_zero, etalon)[1].tolist() == \
        [False, False, True, False, False, False]
    phases = pipeline.error_phase(near, etalon)[0]
    assert 0 < np.count_nonzero(phases == 0.0) < phases.size
