"""Deterministic signal-processing primitives.

The paper's one preprocessing as module constants (WINDOW_MS, TARGET_HZ,
BAND_HZ, BAND_ORDER), its Butterworth band-pass and anti-alias low-pass
(scipy SOS arrays), the banded Toeplitz matrices of a kernel set, the cached
linear operator that composes window, anti-alias low-pass, decimation and
band-pass for `data.preprocess`, real Morlet wavelet construction with
analytic parameter gradients, and a Hann-windowed STFT for diagnostics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

from .errors import DataError, NumericalError, numpy_faults

WAVELET_FREQ_MIN = 8.0
WAVELET_FREQ_MAX = 30.0
WAVELET_WIDTH_MIN = 1e-3

# the paper's preprocessing, which every dataset gets alike
WINDOW_MS = (1000, 3500)
TARGET_HZ = 100
BAND_HZ = (8.0, 30.0)
BAND_ORDER = 5
_ANTIALIAS_ORDER = 12   # Butterworth order of the decimation guard filter


def design_bandpass() -> np.ndarray:
    """The BAND_ORDER Butterworth band-pass over BAND_HZ at TARGET_HZ as an
    n x 6 SOS array (b0 b1 b2 1 a1 a2 per row)."""
    return sps.butter(BAND_ORDER, BAND_HZ, btype="bandpass", fs=TARGET_HZ, output="sos")


def design_antialias(fs: int) -> np.ndarray:
    """Low-pass guard filter for decimation from fs to TARGET_HZ.

    Cut at 0.36 * TARGET_HZ, order 12: steep enough to suppress the first
    alias region by >90% while keeping a 30 Hz band edge above 99%.
    """
    return sps.butter(_ANTIALIAS_ORDER, 0.36 * TARGET_HZ, btype="lowpass", fs=fs,
                      output="sos")


def _impulse_response(sos: np.ndarray, n: int) -> np.ndarray:
    """First n samples of a causal SOS cascade's impulse response."""
    impulse = np.zeros(n)
    impulse[0] = 1.0
    return sps.sosfilt(sos, impulse)


def toeplitz_bands(kernels: np.ndarray, t_len: int) -> np.ndarray:
    """K x T x T banded matrices B with (x @ B[k])[t] = sum_w xpad[t + w] kernels[k, w].

    B[k, s, t] = kernels[k, s - t + pad_l], read from a strided view of each
    kernel zero-padded to 2T - 1 taps.
    """
    n_maps, klen = kernels.shape
    lead = t_len - 1 - (klen - 1) // 2
    padded = np.zeros((n_maps, 2 * t_len - 1))
    padded[:, lead:lead + klen] = kernels
    # windows[k, a, t] = padded[k, 2T - 2 - a - t]; a = T - 1 - s gives B[k, s, t]
    windows = np.lib.stride_tricks.sliding_window_view(padded[:, ::-1], t_len, axis=1)
    return np.ascontiguousarray(windows[:, ::-1])


@functools.lru_cache(maxsize=8)
def preprocess_operator(fs: int, n_timepoints: int) -> tuple[int, int, np.ndarray]:
    """Time window, anti-alias low-pass, decimation and band-pass as one matrix.

    Every stage (the WINDOW_MS window, the anti-alias low-pass, decimation by
    f = fs / TARGET_HZ and the band-pass) is linear and causal with zero
    initial state, so a channel row x of a trial with `n_timepoints` samples
    at a positive `fs` maps to x[start:stop] @ P, which equals filtering the
    window stage by stage with `sosfilt`. The rows of P are the samples that
    reach an output, [start, start + (T_out - 1) f + 1).

    P is built from one impulse response per filter in polyphase form:
    P[q f - r, i] = g_r[i - q] with g_r = h_aa[r::f] * h_bp (convolution).
    Calls with the same key share one read-only P. A rate that is not a
    multiple of TARGET_HZ, or trials too short for the window, is a `DataError`.
    """
    if fs % TARGET_HZ != 0:
        raise DataError(f"{fs} Hz not divisible by target {TARGET_HZ} Hz")
    start, end = (int(round(ms * fs / 1000)) for ms in WINDOW_MS)
    if end > n_timepoints:
        raise DataError(
            f"window {WINDOW_MS} ms exceeds trial length {n_timepoints} samples")
    factor = fs // TARGET_HZ
    n_out = -(-(end - start) // factor)
    # factor 1 has no anti-alias stage: its impulse response is a unit impulse
    h_aa = (_impulse_response(design_antialias(fs), n_out * factor)
            if factor > 1 else np.eye(1, n_out)[0])
    h_bp = _impulse_response(design_bandpass(), n_out)
    op = np.zeros(((n_out - 1) * factor + 1, n_out))
    for r in range(factor):
        g = np.convolve(h_aa[r::factor], h_bp)[:n_out]
        # g reversed and zero-padded to 2 n_out - 1 taps: block[q, i] = g[i - q], i >= q
        block = toeplitz_bands(np.concatenate([g[::-1], np.zeros(n_out - 1)])[None], n_out)[0]
        # rows q f - r for q >= 1, and q = 0 too when r = 0
        op[(factor - r) % factor::factor] = block[1 if r else 0:]
    op.setflags(write=False)
    return start, start + len(op), op


@dataclass
class MorletParams:
    """Trainable real Morlet wavelet parameters."""

    f: float          # center frequency, Hz
    h: float          # Gaussian full width at half maximum, s
    c: float          # Gaussian exponent coefficient
    kernel_len: int
    fs: float

    def time_grid(self) -> np.ndarray:
        k = self.kernel_len
        return (np.arange(k) - k // 2) / self.fs


def _width_power(h: float, n: int) -> float:
    """h ** n, or inf where that overflows a float: so wide an envelope is
    flat across the kernel, and a quotient by it is zero."""
    try:
        return h ** n
    except OverflowError:
        return math.inf


def build_morlet(params: MorletParams) -> np.ndarray:
    """w[n] = cos(2 pi f t[n]) * exp(-c t[n]^2 / h^2) on the centered grid."""
    if params.h <= 0:
        raise NumericalError(f"wavelet width must be positive, got {params.h}")
    t = params.time_grid()
    with numpy_faults(f"wavelet kernel is not finite for {params}"):
        return np.cos(2 * np.pi * params.f * t) * np.exp(
            -params.c * t ** 2 / _width_power(params.h, 2))


def morlet_gradients(params: MorletParams,
                     upstream: np.ndarray) -> tuple[float, float, float]:
    """Analytic partials of the kernel w.r.t. (f, h, c), contracted upstream."""
    kernel = build_morlet(params)
    upstream = np.asarray(upstream, dtype=np.float64)
    t = params.time_grid()
    h2 = _width_power(params.h, 2)
    with numpy_faults(f"wavelet gradient in f is not finite for {params}"):
        dw_df = -2 * np.pi * t * np.sin(2 * np.pi * params.f * t) * np.exp(
            -params.c * t ** 2 / h2)
    with numpy_faults(f"wavelet gradient in h is not finite for {params}"):
        dw_dh = kernel * (2 * params.c * t ** 2 / _width_power(params.h, 3))
    with numpy_faults(f"wavelet gradient in c is not finite for {params}"):
        dw_dc = kernel * (-t ** 2 / h2)
    return (float(upstream @ dw_df), float(upstream @ dw_dh), float(upstream @ dw_dc))


def stft(x: np.ndarray, window_len: int, hop: int,
         fs: float = 1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hann-windowed short-time Fourier magnitude.

    Returns (magnitudes [bins x frames], freqs_hz, frame_start_times_s).
    """
    x = np.asarray(x, dtype=np.float64)
    if hop <= 0:
        raise NumericalError("hop must be positive")
    if window_len > x.shape[-1]:
        raise NumericalError("window longer than the signal")
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(window_len) / window_len)
    starts = np.arange(0, x.shape[-1] - window_len + 1, hop)
    frames = np.stack([x[s:s + window_len] * window for s in starts], axis=1)
    mags = np.abs(np.fft.rfft(frames, axis=0))
    freqs = np.fft.rfftfreq(window_len, d=1.0 / fs)
    return mags, freqs, starts / fs
