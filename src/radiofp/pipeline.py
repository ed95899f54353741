"""Baseband pipeline: reference waveform, device simulation, sync, error phase.

The reference ("etalon") waveform is trans-noise: decimal digits of pi mapped
linearly onto DAC amplitude levels, digit 0 at -1 and digit 9 at +1.  A
received stream is aligned to the etalon by cross-correlation, normalized by
a complex least-squares gain, and the etalon is subtracted; the per-sample
phase of the remaining error signal is the trendless sequence handed to
feature extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DigitTableExhaustedError,
    InvalidEtalonError,
    SyncNotFoundError,
)
from .pi_digits import PI_DIGITS

DEFAULT_FRAME_LEN = 1024
MIN_ETALON_LEN = 64
DEFAULT_SYNC_THRESHOLD = 3.0


def gen_transnoise(frame_index: int, length: int) -> np.ndarray:
    """Real amplitude sequence from one frame's worth of pi digits.

    ``frame_index`` 0 takes digits 1..L, 1 takes digits L+1..2L (the digit
    stream starts "3, 1, 4, 1, 5, ..." with the decimal point skipped).
    Digit d maps to amplitude ``-1 + 2*d/9``.
    """
    if frame_index not in (0, 1):
        raise ValueError("frame_index must be 0 or 1")
    if length < 1:
        raise ValueError("length must be positive")
    stop = (frame_index + 1) * length
    if stop > len(PI_DIGITS):
        raise DigitTableExhaustedError(
            f"need {stop} digits, table holds {len(PI_DIGITS)}"
        )
    chunk = PI_DIGITS[frame_index * length : stop]
    digits = np.frombuffer(chunk.encode("ascii"), dtype=np.uint8) - ord("0")
    return -1.0 + 2.0 * digits / 9.0


def transnoise_etalon(length: int = DEFAULT_FRAME_LEN,
                      frame_index: int = 0) -> np.ndarray:
    """Complex baseband etalon carrying the trans-noise amplitudes."""
    return gen_transnoise(frame_index, length).astype(complex)


@dataclass(frozen=True)
class ImpairmentProfile:
    """Analog front-end imperfections of one simulated transmitter.

    ``snr_db=None`` disables additive noise entirely (an ideal channel);
    when set it must be finite.
    """

    gain_imbalance: float = 0.0
    quadrature_error: float = 0.0
    phase_noise_rms: float = 0.0
    cubic_nonlinearity: float = 0.0
    dc_offset: complex = 0j
    snr_db: float | None = None

    def __post_init__(self):
        if self.phase_noise_rms < 0:
            raise ValueError("phase_noise_rms must be >= 0")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite (or None to disable)")

    def to_json_dict(self) -> dict:
        return {
            "gain_imbalance": self.gain_imbalance,
            "quadrature_error": self.quadrature_error,
            "phase_noise_rms": self.phase_noise_rms,
            "cubic_nonlinearity": self.cubic_nonlinearity,
            "dc_offset": [self.dc_offset.real, self.dc_offset.imag],
            "snr_db": self.snr_db,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ImpairmentProfile":
        dc = d.get("dc_offset", [0.0, 0.0])
        return cls(
            gain_imbalance=float(d.get("gain_imbalance", 0.0)),
            quadrature_error=float(d.get("quadrature_error", 0.0)),
            phase_noise_rms=float(d.get("phase_noise_rms", 0.0)),
            cubic_nonlinearity=float(d.get("cubic_nonlinearity", 0.0)),
            dc_offset=complex(dc[0], dc[1]),
            snr_db=None if d.get("snr_db") is None else float(d["snr_db"]),
        )


def simulate_device(clean, profile: ImpairmentProfile, seed: int) -> np.ndarray:
    """Pass a clean frame through a simulated imperfect transmitter.

    Applies, in order: cubic nonlinearity ``x + c*x*|x|^2``, I/Q gain and
    quadrature imbalance, DC offset, per-sample Gaussian phase jitter, and
    AWGN at the configured SNR.  Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(clean, dtype=complex).copy()

    if profile.cubic_nonlinearity != 0.0:
        x = x + profile.cubic_nonlinearity * x * np.abs(x) ** 2

    g = profile.gain_imbalance
    phi = profile.quadrature_error
    if g != 0.0 or phi != 0.0:
        i = x.real
        q = x.imag
        x = (1.0 + 0.5 * g) * i + 1j * (
            (1.0 - 0.5 * g) * (np.cos(phi) * q + np.sin(phi) * i)
        )

    if profile.dc_offset != 0:
        x = x + profile.dc_offset

    if profile.phase_noise_rms > 0.0:
        jitter = rng.normal(0.0, profile.phase_noise_rms, x.size)
        x = x * np.exp(1j * jitter)

    if profile.snr_db is not None:
        p_sig = float(np.mean(np.abs(x) ** 2))
        p_noise = p_sig * 10.0 ** (-profile.snr_db / 10.0)
        sigma = math.sqrt(p_noise / 2.0)
        x = x + sigma * (rng.normal(size=x.size) + 1j * rng.normal(size=x.size))

    return x


def _cross_correlation_mag(stream: np.ndarray, etalon: np.ndarray) -> np.ndarray:
    """|c[k]| with c[k] = sum_m stream[k+m] * conj(etalon[m]), k = 0..n-L."""
    n = stream.size
    length = etalon.size
    nfft = 1 << (n + length - 1).bit_length()
    spec = np.fft.fft(stream, nfft) * np.conj(np.fft.fft(etalon, nfft))
    corr = np.fft.ifft(spec)[: n - length + 1]
    return np.abs(corr)


def _check_etalon(etalon) -> np.ndarray:
    e = np.asarray(etalon, dtype=complex)
    if e.size < MIN_ETALON_LEN:
        raise InvalidEtalonError(
            f"etalon must have at least {MIN_ETALON_LEN} samples")
    if not np.any(e):
        raise InvalidEtalonError("etalon has zero energy")
    return e


def synchronize(stream, etalon, threshold: float = DEFAULT_SYNC_THRESHOLD,
                search_width: int = 8) -> np.ndarray:
    """Sample offsets (``int64``) of the etalon-aligned frames of a stream.

    The first repetition is located by the strongest correlation peak within
    the first L lags; subsequent frames re-synchronize inside a
    ``search_width`` window around last lag + L so a slow sampling-clock
    offset cannot accumulate.  Each accepted peak must exceed ``threshold``
    times the mean correlation magnitude; the first peak that does not ends
    the search.
    """
    e = _check_etalon(etalon)
    x = np.asarray(stream, dtype=complex)
    length = e.size
    if x.size < length:
        raise ValueError("stream shorter than one frame")

    mag = _cross_correlation_mag(x, e)

    def ratio(k: int) -> float:
        # mean magnitude outside the peak's immediate neighbourhood; with no
        # outside lags left (stream barely longer than one frame) the test
        # degenerates and any non-zero peak is accepted
        outside = np.concatenate([mag[: max(0, k - 2)], mag[k + 3 :]])
        if outside.size == 0:
            return math.inf if mag[k] > 0 else 0.0
        mean_mag = float(outside.mean())
        return math.inf if mean_mag == 0.0 else float(mag[k]) / mean_mag

    k0 = int(np.argmax(mag[: min(length, mag.size)]))
    if ratio(k0) < threshold:
        raise SyncNotFoundError(
            f"peak-to-mean ratio {ratio(k0):.2f} below {threshold}"
        )

    lags = []
    k = k0
    while k + length <= x.size:
        lags.append(k)
        expected = k + length
        if expected + length > x.size:
            break
        lo = max(0, expected - search_width)
        hi = min(mag.size, expected + search_width + 1)
        k_next = lo + int(np.argmax(mag[lo:hi]))
        if ratio(k_next) < threshold:
            break
        k = k_next
    return np.array(lags, dtype=np.int64)


def error_phase(frames, etalon) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample phase of the gain-normalized error signal of each frame.

    Each row of the ``(n, L)`` matrix ``frames`` is divided by its complex
    least-squares gain ``g = <frame, etalon> / <etalon, etalon>`` (which
    absorbs any channel gain and carrier rotation) and the etalon subtracted;
    the result is the wrapped principal argument in (-pi, pi].  Error samples
    whose magnitude is below 1e-12 of the etalon RMS carry only rounding
    noise, so their phase is reported as 0.  Returns ``(phases, dropped)``:
    ``dropped`` masks the rows whose gain is numerically zero, and ``phases``
    holds the other rows in order.
    """
    e = _check_etalon(etalon)
    f = np.asarray(frames, dtype=complex)
    if f.ndim != 2 or f.shape[1] != e.size:
        raise ValueError("frames must be an (n, L) matrix, L the etalon length")
    energy = float(np.vdot(e, e).real)
    # one vdot per row: a matrix product rounds the gains differently
    gain = np.array([np.vdot(e, row) / energy for row in f], dtype=complex)
    etalon_rms = math.sqrt(energy / e.size)
    dropped = np.abs(gain) < 1e-12 * etalon_rms
    err = f[~dropped] / gain[~dropped, None] - e
    phases = np.angle(err)
    # np.angle maps a negative-real value with -0.0 imaginary part to -pi;
    # fold it back into (-pi, pi]
    phases[phases == -np.pi] = np.pi
    phases[np.abs(err) <= 1e-12 * etalon_rms] = 0.0
    return phases, dropped


def run_capture_pipeline(stream, etalon,
                         threshold: float = DEFAULT_SYNC_THRESHOLD):
    """synchronize + error_phase over a whole stream, in stream order.

    Returns ``(phases, dropped, lags)``: the `error_phase` result for the
    matrix of synchronized frames, and the sample offset of each frame.
    """
    e = _check_etalon(etalon)
    x = np.asarray(stream, dtype=complex)
    lags = synchronize(x, e, threshold=threshold)
    phases, dropped = error_phase(x[lags[:, None] + np.arange(e.size)], e)
    return phases, dropped, lags
