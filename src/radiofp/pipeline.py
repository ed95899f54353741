"""Baseband pipeline: reference waveform, device simulation, sync, error phase.

The reference ("etalon") waveform is trans-noise: decimal digits of pi mapped
linearly onto DAC amplitude levels, digit 0 at -1 and digit 9 at +1.  A
received stream is aligned to the etalon by cross-correlation, normalized by
a complex least-squares gain, and the etalon is subtracted; the per-sample
phase of the remaining error signal is the trendless sequence handed to
feature extraction.
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DigitTableExhaustedError,
    InvalidEtalonError,
    SyncNotFoundError,
)
from .features import feature_matrix
from .pi_digits import PI_DIGITS

DEFAULT_FRAME_LEN = 1024
MIN_ETALON_LEN = 64
DEFAULT_SYNC_THRESHOLD = 3.0

# block sizes of the streamed extract and gen-dataset, in bytes of complex
# samples; 1 MB stays in a core's L2 cache.  The frame blocks change no
# output byte, and the correlation batches only the rounding of the
# correlation magnitudes and of their sum.
_CORR_MIN_NFFT = 8192  # correlation FFT: a power of two, >= this and >= 2L
_CORR_BATCH_BYTES = 1 << 20  # FFT windows per batch
_FRAME_BLOCK_BYTES = 1 << 20  # frames simulated, or phased and featurized


def frames_per_block(length: int) -> int:
    """Frames of ``length`` complex samples in one block of about
    ``_FRAME_BLOCK_BYTES``, at least 1."""
    return max(1, _FRAME_BLOCK_BYTES // (16 * length))


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

    Every field must be finite.  ``snr_db=None`` disables additive noise
    entirely (an ideal channel).
    """

    gain_imbalance: float = 0.0
    quadrature_error: float = 0.0
    phase_noise_rms: float = 0.0
    cubic_nonlinearity: float = 0.0
    dc_offset: complex = 0j
    snr_db: float | None = None

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not (value is None and field.name == "snr_db"
                    or cmath.isfinite(value)):
                raise ValueError(f"{field.name} must be finite")
        if self.phase_noise_rms < 0:
            raise ValueError("phase_noise_rms must be >= 0")

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


def _as_stream(stream):
    """The samples of a stream: a complex array, unless ``stream`` reads
    them on demand (``size`` and slicing, as `dataio.IqFile` does)."""
    if isinstance(stream, np.ndarray) or not hasattr(stream, "size"):
        return np.asarray(stream, dtype=complex)
    return stream


def _cross_correlation_mag(stream, etalon: np.ndarray):
    """Yield ``(first, mag)`` batches: ``mag[i] = |c[first + i]|`` with
    c[k] = sum_m stream[k+m] * conj(etalon[m]), k = 0..n-L, in lag order.

    Overlap-save (Oppenheim & Schafer, *Discrete-Time Signal Processing*,
    ch. 8): window b of the stream starts at sample b*step and holds nfft
    samples, zero-padded past the end; its circular correlation with the
    etalon is exact for the first ``step = nfft - L + 1`` lags, which are
    lags b*step .. b*step + step - 1 of the stream.  The windows go through
    the FFT in batches of about ``_CORR_BATCH_BYTES``, so memory stays
    bounded whatever the stream length.
    """
    n, length = stream.size, etalon.size
    nfft = 1 << (max(_CORR_MIN_NFFT, 2 * length) - 1).bit_length()
    step = nfft - length + 1
    taps = np.conj(np.fft.fft(etalon, nfft))
    size = n - length + 1
    batch = step * max(1, _CORR_BATCH_BYTES // (16 * nfft))
    for first in range(0, size, batch):
        lags = min(batch, size - first)
        blocks = -(-lags // step)
        seg = np.zeros(blocks * step + length - 1, dtype=complex)
        samples = stream[first:first + seg.size]
        seg[:samples.size] = samples
        windows = np.lib.stride_tricks.sliding_window_view(seg, nfft)[::step]
        corr = np.fft.ifft(np.fft.fft(windows, axis=1) * taps, axis=1)
        yield first, np.abs(corr[:, :step]).reshape(-1)[:lags]


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
    (finite and > 0) times the mean correlation magnitude outside the peak's
    five-lag neighbourhood; the first peak that does not ends the search.

    The candidate peaks do not depend on that mean, so they are found as
    the correlation batches arrive, keeping only the lags the next search
    window and its neighbourhood can reach; each candidate keeps its
    magnitude and its neighbourhood sum.  The magnitudes are summed once,
    batch by batch, and the threshold is applied to the candidates in order
    after the last batch.  So the search is linear in the stream length, and
    its memory grows only with the frame count.  ``stream`` is array-like or
    a block reader such as `dataio.IqFile`; only the correlation reads it.
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError("sync threshold must be finite and > 0, "
                         f"not {threshold}")
    e = _check_etalon(etalon)
    x = _as_stream(stream)
    n, length = x.size, e.size
    if n < length:
        raise SyncNotFoundError(
            f"stream of {n} samples is shorter than one frame ({length})")

    size = n - length + 1  # lags
    ks, peaks, sums = array("q"), array("d"), array("d")  # the candidates
    total = 0.0
    held, base = np.empty(0), 0  # |c| of lags base .. base + held.size - 1
    lo, hi = 0, min(length, size)  # the next candidate's search window
    walking = True
    for first, mag in _cross_correlation_mag(x, e):
        total += float(mag.sum())
        if not walking:
            continue
        held = np.concatenate([held, mag])
        end = first + mag.size
        # take each candidate once its window and the five-lag
        # neighbourhood of any lag in it have arrived
        while walking and min(size, hi + 2) <= end:
            k = lo + int(np.argmax(held[lo - base:hi - base]))
            near = held[max(0, k - 2) - base:min(size, k + 3) - base]
            ks.append(k)
            peaks.append(float(held[k - base]))
            sums.append(float(near.sum()))
            expected = k + length
            walking = expected + length <= n
            lo = max(0, expected - search_width)
            hi = min(size, expected + search_width + 1)
        # keep the lags from the next window's neighbourhood on
        keep = min(end, max(base, lo - 2))
        held, base = held[keep - base:], keep

    def ratio(i: int) -> float:
        # mean magnitude outside the peak's immediate neighbourhood; with
        # no outside lags left (stream barely longer than one frame) the
        # test degenerates and any non-zero peak is accepted.  Where every
        # outside lag is zero, the subtraction can leave a rounding residue
        # of either sign, hence <= 0.
        k = ks[i]
        count = size - (min(size, k + 3) - max(0, k - 2))
        if count == 0:
            return math.inf if peaks[i] > 0 else 0.0
        mean_mag = (total - sums[i]) / count
        return math.inf if mean_mag <= 0.0 else peaks[i] / mean_mag

    first_ratio = ratio(0)
    if first_ratio < threshold:
        raise SyncNotFoundError(
            f"peak-to-mean ratio {first_ratio:.2f} below {threshold}")
    found = next((i for i in range(1, len(ks)) if ratio(i) < threshold),
                 len(ks))
    return np.frombuffer(ks, dtype=np.int64, count=found).copy()


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
    """synchronize, error_phase and feature_matrix over a stream.

    ``stream`` is array-like or a block reader such as `dataio.IqFile`.  The
    synchronized frames are gathered, phased and featurized a block of
    frames at a time (the rows are independent, so the result does not
    depend on the block size), and only the frame offsets, sync's
    candidate peaks and the feature rows live for the whole stream.  Returns
    ``(values, failed, dropped, lags)``: the `feature_matrix` result for the
    frames `error_phase` keeps, in stream order, its ``dropped`` mask over
    all synchronized frames, and the sample offset of each frame.
    """
    e = _check_etalon(etalon)
    x = _as_stream(stream)
    lags = synchronize(x, e, threshold=threshold)
    per_block = frames_per_block(e.size)
    values, failed, dropped = [], [], []
    for first in range(0, lags.size, per_block):
        block = lags[first:first + per_block]
        span = x[block[0]:block[-1] + e.size]
        frames = span[(block - block[0])[:, None] + np.arange(e.size)]
        phases, block_dropped = error_phase(frames, e)
        block_values, block_failed = feature_matrix(phases)
        values.append(block_values)
        failed.append(block_failed)
        dropped.append(block_dropped)
    return (np.concatenate(values), np.concatenate(failed),
            np.concatenate(dropped), lags)
