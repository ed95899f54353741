"""Baseband pipeline: reference waveform, device simulation, sync, error phase.

The reference ("etalon") waveform is trans-noise: decimal digits of pi mapped
linearly onto DAC amplitude levels, digit 0 at -1 and digit 9 at +1.  The
digits are computed with Machin's formula in Python integers, up to
`MAX_FRAME_LEN` of them.  A received stream is aligned to the etalon by
cross-correlation, normalized by a complex least-squares gain, and the
etalon is subtracted; the per-sample phase of the remaining error signal is
the trendless sequence handed to feature extraction.  `run_capture_pipeline`
runs the sync, the error phase and feature extraction in one pass over a
stream.
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import InvalidEtalonError, SyncNotFoundError
from .features import feature_matrix

DEFAULT_FRAME_LEN = 1024
MIN_ETALON_LEN = 64
# a stated cap on the etalon's pi digits.  `_pi_digits` sums Machin's series
# to 20 guard digits; each of its under 8000 terms is a floor, off by less
# than one unit, so 16 arctan(1/5) - 4 arctan(1/239) errs by less than 10^6
# units of the last guard digit.  A kept digit can then be wrong only where
# 14 or more 9s or 0s follow it.  Pi's first 8212 digits hold no such run
# longer than 6 (the six 9s from decimal place 762), so every length up to
# the cap is exact
MAX_FRAME_LEN = 8192
DEFAULT_SYNC_THRESHOLD = 3.0
_SEARCH_WIDTH = 8  # lags either side of where the next frame is expected

# block sizes of the streamed extract and gen-dataset, in bytes of complex
# samples.  The frame blocks change no output byte, and the correlation
# batches only the rounding of the correlation magnitudes and of their sum.
# The feature stage's temporaries take a few times its block: at 512 KB
# they are reused from block to block, where 1 MB blocks had them handed
# back to the OS and faulted in again (about 13k minor page faults per
# 2000-frame stream at L=1024, a quarter or more of the stage's time).
_CORR_MIN_NFFT = 8192  # correlation FFT: a power of two, >= this and >= 2L
_CORR_BATCH_BYTES = 1 << 20  # FFT windows per batch
_FRAME_BLOCK_BYTES = 1 << 19  # frames simulated, or phased and featurized


def frames_per_block(length: int) -> int:
    """Frames of ``length`` complex samples in one block of about
    ``_FRAME_BLOCK_BYTES``, at least 1."""
    return max(1, _FRAME_BLOCK_BYTES // (16 * length))


def _pi_digits(n: int) -> str:
    """The first ``n`` decimal digits of pi, "31415...", from Machin's
    formula pi/4 = 4 arctan(1/5) - arctan(1/239) in integer fixed point.

    The integer becomes text 512 digits at a time, as Python refuses longer
    int-to-str conversions when `sys.set_int_max_str_digits` is at its
    floor of 640.
    """
    guard = 10**20  # 20 guard digits, see MAX_FRAME_LEN
    unit = 10 ** (n - 1) * guard

    def arctan_inv(x):  # arctan(1/x) * unit
        total = power = unit // x
        k, sign = 1, 1
        while power:
            power //= x * x
            k, sign = k + 2, -sign
            total += sign * (power // k)
        return total

    scaled = 4 * (4 * arctan_inv(5) - arctan_inv(239)) // guard
    chunk, chunks = 10**512, []
    while scaled >= chunk:
        scaled, low = divmod(scaled, chunk)
        chunks.append(f"{low:0512d}")
    return str(scaled) + "".join(reversed(chunks))


def gen_transnoise(length: int) -> np.ndarray:
    """Real amplitude sequence from the first ``length`` digits of pi.

    The digit stream starts "3, 1, 4, 1, 5, ..." with the decimal point
    skipped.  Digit d maps to amplitude ``-1 + 2*d/9``.  ``length`` must
    lie in 1..`MAX_FRAME_LEN`.
    """
    if not 1 <= length <= MAX_FRAME_LEN:
        raise ValueError(f"length must lie in 1..{MAX_FRAME_LEN}, not {length}")
    digits = np.frombuffer(_pi_digits(length).encode("ascii"),
                           dtype=np.uint8) - ord("0")
    return -1.0 + 2.0 * digits / 9.0


def transnoise_etalon(length: int = DEFAULT_FRAME_LEN) -> np.ndarray:
    """Complex baseband etalon carrying the trans-noise amplitudes."""
    return gen_transnoise(length).astype(complex)


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
        d = asdict(self)
        d["dc_offset"] = [self.dc_offset.real, self.dc_offset.imag]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ImpairmentProfile":
        """The profile of a `to_json_dict` object.  A missing field takes
        its default.  An unknown field, a value that is not a JSON number
        (a boolean is not), or a ``dc_offset`` that is not a list of two
        numbers raises `TypeError` naming the field."""
        kw = dict(d)
        for name, value in d.items():
            if name == "dc_offset":
                if not (isinstance(value, list) and len(value) == 2):
                    raise TypeError("dc_offset must be a list of 2 numbers")
                kw[name] = complex(*(_json_number(name, v) for v in value))
            elif name != "snr_db" or value is not None:
                kw[name] = _json_number(name, value)
        return cls(**kw)


def _json_number(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, not {value!r}")
    return float(value)


def simulate_device(clean, profile: ImpairmentProfile, seeds) -> np.ndarray:
    """Pass a clean frame through a simulated imperfect transmitter once per
    seed: row r of the ``(len(seeds), L)`` result is the frame of
    ``seeds[r]``.

    Applies, in order: cubic nonlinearity ``x + c*x*|x|^2``, I/Q gain and
    quadrature imbalance, DC offset, per-sample Gaussian phase jitter, and
    AWGN at the configured SNR.  The first three are the same for every
    row and run once.  Row r's jitter, then its noise I and Q, are drawn
    from ``np.random.default_rng(seeds[r])``, and every later step works
    element by element or row by row, so a row's bytes depend on its seed
    alone, not on the other seeds or their number.
    """
    x = np.asarray(clean, dtype=complex)

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

    shape = (len(seeds), x.size)
    jitter = np.empty(shape) if profile.phase_noise_rms > 0.0 else None
    noise = None if profile.snr_db is None else np.empty((2,) + shape)
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        if jitter is not None:
            jitter[row] = rng.normal(0.0, profile.phase_noise_rms, x.size)
        if noise is not None:
            noise[0, row] = rng.normal(size=x.size)
            noise[1, row] = rng.normal(size=x.size)

    if jitter is not None:
        x = x * np.exp(1j * jitter)

    if noise is not None:
        # a power beyond float range leaves samples that dataio refuses
        # when they are written, naming the sample
        with np.errstate(over="ignore"):
            p_sig = np.mean(np.abs(x) ** 2, axis=-1, keepdims=True)
        p_noise = p_sig * 10.0 ** (-profile.snr_db / 10.0)
        sigma = np.sqrt(p_noise / 2.0)
        x = x + sigma * (noise[0] + 1j * noise[1])

    return np.tile(x, (shape[0], 1)) if x.ndim == 1 else x


def _as_stream(stream):
    """The samples of a stream: a complex array, unless ``stream`` reads
    them on demand (``size`` and ``read_into``, as `dataio.IqFile` does)."""
    if isinstance(stream, np.ndarray) or not hasattr(stream, "size"):
        return np.asarray(stream, dtype=complex)
    return stream


def _read_into(stream, start: int, out: np.ndarray) -> None:
    """Fill ``out`` with the samples of ``stream`` from ``start`` on."""
    if isinstance(stream, np.ndarray):
        out[:] = stream[start:start + out.size]
    else:
        stream.read_into(start, out)


def _cross_correlation_mag(stream, etalon: np.ndarray):
    """Yield ``(first, samples, mag)`` batches: ``mag[i] = |c[first + i]|``
    with c[k] = sum_m stream[k+m] * conj(etalon[m]), k = 0..n-L, in lag
    order, and ``samples`` the stream samples ``first .. first + mag.size +
    L - 2`` that those lags reach.

    Overlap-save (Oppenheim & Schafer, *Discrete-Time Signal Processing*,
    ch. 8): window b of the stream starts at sample b*step and holds nfft
    samples, zero-padded past the end; its circular correlation with the
    etalon is exact for the first ``step = nfft - L + 1`` lags, which are
    lags b*step .. b*step + step - 1 of the stream.  The windows go through
    the FFT in batches of about ``_CORR_BATCH_BYTES``, so memory stays
    bounded whatever the stream length.  Every batch's samples go into one
    buffer, so ``samples`` holds only until the next batch; consecutive
    batches share L - 1 samples, which are moved rather than read again,
    so each sample is read once.
    """
    n, length = stream.size, etalon.size
    nfft = 1 << (max(_CORR_MIN_NFFT, 2 * length) - 1).bit_length()
    step = nfft - length + 1
    taps = np.conj(np.fft.fft(etalon, nfft))
    size = n - length + 1
    batch = step * max(1, _CORR_BATCH_BYTES // (16 * nfft))
    buf = np.empty(-(-min(batch, size) // step) * step + length - 1,
                   dtype=complex)
    for first in range(0, size, batch):
        lags = min(batch, size - first)
        seg = buf[:-(-lags // step) * step + length - 1]
        stop = lags + length - 1  # samples of the stream; zeros after them
        # the previous (whole) batch ends with this one's first L - 1
        shared = 0 if first == 0 else length - 1
        seg[:shared] = buf[batch:batch + shared]
        _read_into(stream, first + shared, seg[shared:stop])
        seg[stop:] = 0.0
        windows = np.lib.stride_tricks.sliding_window_view(seg, nfft)[::step]
        # no FFT temporary outlives the expression
        yield first, seg[:stop], np.abs(np.fft.ifft(
            np.fft.fft(windows, axis=1) * taps, axis=1)[:, :step]
        ).reshape(-1)[:lags]


def _check_etalon(etalon) -> np.ndarray:
    e = np.asarray(etalon, dtype=complex)
    if e.size < MIN_ETALON_LEN:
        raise InvalidEtalonError(
            f"etalon must have at least {MIN_ETALON_LEN} samples")
    if not np.any(e):
        raise InvalidEtalonError("etalon has zero energy")
    return e


def _check_threshold(threshold: float) -> None:
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError("sync threshold must be finite and > 0, "
                         f"not {threshold}")


def _synced_count(ks, peaks, sums, total: float, size: int,
                  threshold: float) -> int:
    """How many of the candidates, in order, pass the threshold test of
    `run_capture_pipeline`; a failing first one raises `SyncNotFoundError`.
    ``ks``, ``peaks`` and ``sums`` are each candidate's offset, |c| and
    five-lag neighbourhood sum, ``total`` the sum of |c| over all ``size``
    lags of the stream."""

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
    return next((i for i in range(1, len(ks)) if ratio(i) < threshold),
                len(ks))


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
    floor = 1e-12 * math.sqrt(energy / e.size)  # of the etalon RMS
    dropped = np.abs(gain) < floor
    if dropped.any():
        f, gain = f[~dropped], gain[~dropped]
    err = f / gain[:, None]
    err -= e
    phases = np.arctan2(err.imag, err.real)  # np.angle's own expression
    # arctan2 maps a negative-real value with -0.0 imaginary part to -pi;
    # fold it back into (-pi, pi]
    phases[phases == -np.pi] = np.pi
    # |err| <= floor only where |re| and |im| are (hypot(x, y) >= max(|x|,
    # |y|)): |re| is tested on every sample, |im| and the magnitude only on
    # the few that pass.  NaN fails and -0.0 passes each test
    parts = err.reshape(-1)
    near = np.flatnonzero(np.abs(parts.real) <= floor)
    near = near[np.abs(parts.imag[near]) <= floor]
    phases.flat[near[np.abs(parts[near]) <= floor]] = 0.0
    return phases, dropped


def run_capture_pipeline(stream, etalon,
                         threshold: float = DEFAULT_SYNC_THRESHOLD):
    """Synchronize a stream to the etalon, then error_phase and
    feature_matrix over its frames, in one pass over its samples.

    The first frame is located by the strongest correlation peak within the
    first L lags; each next frame re-synchronizes inside a window of
    ``_SEARCH_WIDTH`` (8) lags either side of last lag + L, so a slow
    sampling-clock offset cannot accumulate.  Each accepted peak must exceed
    ``threshold`` (finite and > 0) times the mean correlation magnitude
    outside the peak's five-lag neighbourhood; the first peak that does not
    ends the search.

    The candidate peaks do not depend on that mean, so they are found as
    the correlation batches arrive, keeping only the lags the next search
    window and its neighbourhood can reach; each candidate keeps its
    magnitude and its neighbourhood sum.  The magnitudes are summed once,
    batch by batch, and the threshold is applied to the candidates in order
    after the last batch.  So the search is linear in the stream length, and
    its memory grows only with the frame count.

    ``stream`` is array-like or a block reader such as `dataio.IqFile`; each
    sample is read once, a correlation batch at a time.  Each candidate
    frame is copied from the batch that completed it (or from the few
    samples carried over from the batch before), and the candidates are
    phased and featurized a block of frames at a time (the rows are
    independent, so the result does not depend on the block size); the
    rows of any candidates after a sync loss are dropped.  Returns
    ``(values, failed, dropped, lags)``: the `feature_matrix` result for the
    frames `error_phase` keeps, in stream order, its ``dropped`` mask over
    all synchronized frames, and the sample offset (``int64``) of each
    frame.
    """
    _check_threshold(threshold)
    e = _check_etalon(etalon)
    x = _as_stream(stream)
    n, length = x.size, e.size
    if n < length:
        raise SyncNotFoundError(
            f"stream of {n} samples is shorter than one frame ({length})")
    size = n - length + 1  # lags
    frames = np.empty((frames_per_block(length), length), dtype=complex)
    filled = 0
    values, failed, dropped = [], [], []

    def featurize(block):
        phases, block_dropped = error_phase(block, e)
        block_values, block_failed = feature_matrix(phases)
        values.append(block_values)
        failed.append(block_failed)
        dropped.append(block_dropped)

    ks, peaks, sums = array("q"), array("d"), array("d")  # the candidates
    total = 0.0
    held, base = np.empty(0), 0  # |c| of lags base .. base + held.size - 1
    lo, hi = 0, min(length, size)  # the next candidate's search window
    walking = True
    # samples tail_first .. of the batch before, for a frame that starts
    # before the current batch
    tail, tail_first = None, 0
    for first, samples, mag in _cross_correlation_mag(x, e):
        total += float(mag.sum())
        if not walking:
            continue
        held = np.concatenate([held, mag])
        end = first + mag.size
        # take each candidate once its window and the five-lag
        # neighbourhood of any lag in it have arrived
        while walking and min(size, hi + 2) <= end:
            k = lo + int(held[lo - base:hi - base].argmax())
            ks.append(k)
            peaks.append(float(held[k - base]))
            sums.append(float(
                held[max(0, k - 2) - base:min(size, k + 3) - base].sum()))
            src, at = (samples, k - first) if k >= first \
                else (tail, k - tail_first)
            frames[filled] = src[at:at + length]
            filled += 1
            if filled == len(frames):
                featurize(frames)
                filled = 0
            expected = k + length
            walking = expected + length <= n
            lo = max(0, expected - _SEARCH_WIDTH)
            hi = min(size, expected + _SEARCH_WIDTH + 1)
        # keep the lags from the next window's neighbourhood on, as a copy,
        # so the batch's magnitudes are not held past the batch
        keep = min(end, max(base, lo - 2))
        held, base = held[keep - base:].copy(), keep
        # a next candidate starts at lag lo or after, and lo is in this
        # batch or after it: a window still open when a batch ends reaches
        # to within two lags of that end, and it spans at most L lags (2 *
        # _SEARCH_WIDTH + 1 <= L) of the batch's at least L + 1.  A frame
        # that starts before the next batch ends within this batch's
        # samples.
        tail, tail_first = samples[lo - first:].copy(), lo
    found = _synced_count(ks, peaks, sums, total, size, threshold)
    if filled:
        featurize(frames[:filled])
    dropped = np.concatenate(dropped)[:found]
    kept = found - np.count_nonzero(dropped)
    return (np.concatenate(values)[:kept], np.concatenate(failed)[:kept],
            dropped, np.frombuffer(ks, dtype=np.int64, count=found).copy())
