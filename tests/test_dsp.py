import numpy as np
import pytest
from scipy import signal as sps

from ccspnet import data, dsp
from ccspnet.errors import DataError, NumericalError

from oracles import sos_magnitude, energy_by_quadrature, central_difference, rel_err


def preprocess_rows(rows, fs):
    """`data.preprocess` of one trial whose channel rows are `rows` (at fs Hz)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    one = np.ones(1, dtype=np.uint8)
    raw = data.TrialSet(rows[None], one - 1, one, one, one - 1, float(fs))
    return data.preprocess(raw).trials[0]


def band_pass(x):
    """The 8-30 Hz band-pass alone, applied from rest along the last axis."""
    return sps.sosfilt(dsp.design_bandpass(), x)


class TestDesignBandpass:
    def test_passband_center_near_unity(self):
        sos = dsp.design_bandpass()
        center = np.sqrt(8 * 30)
        mag = sos_magnitude(sos, center, 100)[0]
        assert 0.99 <= mag <= 1.0

    def test_band_edges_at_minus_3db(self):
        sos = dsp.design_bandpass()
        for edge in (8, 30):
            assert abs(sos_magnitude(sos, edge, 100)[0] - 1 / np.sqrt(2)) < 0.05

    def test_stopband_one_octave_below(self):
        sos = dsp.design_bandpass()
        # oracle: independent polynomial evaluation of the cascade on the unit circle
        assert sos_magnitude(sos, 4.0, 100)[0] < 0.03

    def test_all_sections_stable(self):
        sos = dsp.design_bandpass()
        assert sos.shape == (5, 6)
        for _, _, _, _, a1, a2 in sos:
            assert np.all(np.abs(np.roots([1.0, a1, a2])) < 1.0)

    def test_deterministic(self):
        a = dsp.design_bandpass()
        b = dsp.design_bandpass()
        assert np.array_equal(a, b)

    def test_oracle_magnitude_matches_scipy(self):
        sos = dsp.design_bandpass()
        freqs = np.linspace(0.5, 49.5, 200)
        _, h = sps.sosfreqz(sos, worN=2 * np.pi * freqs / 100)
        assert np.allclose(sos_magnitude(sos, freqs, 100), np.abs(h), atol=1e-10)


class TestPreprocessBandPass:
    """The band-pass stage of `data.preprocess`: its filter alone, and 100 Hz
    input, where decimation by 1 has no anti-alias stage."""

    def test_zeros_stay_zeros(self):
        out = band_pass(np.zeros(250))
        assert np.array_equal(out, np.zeros(250))

    def test_dc_rejected(self):
        out = band_pass(np.ones(600))
        assert np.all(np.abs(out[200:]) < 1e-3)

    def test_impulse_energy_matches_quadrature(self):
        impulse = np.zeros(1024)
        impulse[0] = 1.0
        response = band_pass(impulse)
        energy = float(np.sum(response ** 2))
        oracle = energy_by_quadrature(dsp.design_bandpass(), 100)
        assert abs(energy - oracle) < 1e-3

    def test_sinusoid_steady_state_amplitude(self):
        t = np.arange(1000) / 100
        out = band_pass(np.sin(2 * np.pi * 15 * t))
        steady = np.max(np.abs(out[600:]))
        expected = sos_magnitude(dsp.design_bandpass(), 15.0, 100)[0]
        assert abs(steady - expected) / expected < 0.02

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=300), rng.normal(size=300)
        lhs = band_pass(2.5 * x - 1.25 * y)
        rhs = 2.5 * band_pass(x) - 1.25 * band_pass(y)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_nonfinite_sample_reports_index(self):
        x = np.zeros(400)
        x[137] = np.nan
        with pytest.raises(NumericalError, match="sample 137"):
            preprocess_rows(x, 100)

    @pytest.mark.parametrize("shape", [(0, 400), (1, 0)])
    def test_empty_input_rejected(self, shape):
        with pytest.raises(DataError):
            preprocess_rows(np.zeros(shape), 100)


class TestToeplitzBands:
    @pytest.mark.parametrize("t_len, klen", [(1, 1), (5, 2), (8, 3), (16, 16)])
    def test_entries_are_the_kernel_taps(self, t_len, klen):
        kernels = np.random.default_rng(klen).normal(size=(3, klen))
        s, t = np.indices((t_len, t_len))
        w = s - t + (klen - 1) // 2
        inside = (w >= 0) & (w < klen)
        expected = np.where(inside, kernels[:, np.clip(w, 0, klen - 1)], 0.0)
        np.testing.assert_array_equal(dsp.toeplitz_bands(kernels, t_len), expected)

    @pytest.mark.parametrize("n", [1, 2, 5, 64, 250, 251])
    def test_reversed_padded_kernel_gives_the_upper_triangular_block(self, n):
        # the polyphase blocks of preprocess_operator: block[q, i] = g[i - q], i >= q
        g = np.random.default_rng(n).normal(size=n)
        q, i = np.indices((n, n))
        expected = np.where(i >= q, g[np.abs(i - q)], 0.0)
        block = dsp.toeplitz_bands(np.concatenate([g[::-1], np.zeros(n - 1)])[None], n)[0]
        np.testing.assert_array_equal(block, expected)


class TestPreprocessDecimation:
    """Window, anti-alias low-pass and decimation of `data.preprocess`, over
    input rates of 100 Hz (factor 1, no anti-alias stage), 200, 500 and 1000 Hz."""

    def test_paper_shape(self):
        trial = np.random.default_rng(1).normal(size=(62, 4000))
        out = preprocess_rows(trial, 1000)
        assert out.shape == (62, 250)

    def test_input_at_target_rate_is_band_pass_alone(self):
        trial = np.random.default_rng(2).normal(size=(4, 400))
        out = preprocess_rows(trial, 100)
        assert np.abs(out - band_pass(trial[:, 100:350])).max() < 1e-10

    def test_antialias_band_behaviour(self):
        t = np.arange(4000) / 1000
        keep = np.sin(2 * np.pi * 10 * t)
        kill = np.sin(2 * np.pi * 45 * t)
        out_keep = preprocess_rows(keep, 1000)[0]
        out_kill = preprocess_rows(kill, 1000)[0]
        # oracle: anti-alias filter response at the two tones
        sos = dsp.design_antialias(1000)
        assert abs(np.max(np.abs(out_keep[100:])) - 1.0) < 0.02
        assert sos_magnitude(sos, 45, 1000)[0] < 0.1
        assert np.max(np.abs(out_kill[100:])) < 0.1

    @pytest.mark.parametrize("fs", [200, 500, 1000])
    def test_antialias_at_every_decimating_rate(self, fs):
        # the 36 Hz cutoff lies below Nyquist at every rate that decimates
        sos = dsp.design_antialias(fs)
        for _, _, _, _, a1, a2 in sos:
            assert np.all(np.abs(np.roots([1.0, a1, a2])) < 1.0)
        assert sos_magnitude(sos, 30, fs)[0] > 0.99
        assert sos_magnitude(sos, 50, fs)[0] < 0.03

    def test_output_length_exact(self):
        # factors 1, 2, 5 and 10
        for fs in (100, 200, 500, 1000):
            assert preprocess_rows(np.zeros((3, 4 * fs)), fs).shape == (3, 250)

    def test_window_out_of_range(self):
        with pytest.raises(DataError, match="exceeds trial length 3000 samples"):
            preprocess_rows(np.zeros((2, 3000)), 1000)


class TestMorlet:
    def test_center_sample_is_one(self):
        for k in (31, 32, 65):
            params = dsp.MorletParams(f=12.0, h=0.3, c=2.0, kernel_len=k, fs=100)
            w = dsp.build_morlet(params)
            assert w[k // 2] == pytest.approx(1.0)

    def test_zero_exponent_gives_pure_cosine(self):
        params = dsp.MorletParams(f=10.0, h=0.25, c=0.0, kernel_len=64, fs=100)
        w = dsp.build_morlet(params)
        assert np.allclose(w, np.cos(2 * np.pi * 10 * params.time_grid()))

    def test_fwhm_with_standard_coefficient(self):
        # c = 4 ln 2 makes the envelope hit exactly 1/2 at t = +/- h/2
        f, h = 10.0, 0.25
        params = dsp.MorletParams(f=f, h=h, c=4 * np.log(2), kernel_len=101, fs=200)
        w = dsp.build_morlet(params)
        t = params.time_grid()
        idx = np.argmin(np.abs(t - h / 2))
        assert t[idx] == pytest.approx(h / 2)
        assert abs(abs(w[idx]) - 0.5 * abs(np.cos(2 * np.pi * f * h / 2))) < 1e-12

    def test_even_symmetry_on_odd_grid(self):
        params = dsp.MorletParams(f=14.0, h=0.2, c=3.0, kernel_len=33, fs=100)
        w = dsp.build_morlet(params)
        center = 33 // 2
        for k in range(1, center + 1):
            assert w[center - k] == pytest.approx(w[center + k])

    def test_nonpositive_width_rejected(self):
        with pytest.raises(NumericalError):
            dsp.build_morlet(dsp.MorletParams(10, 0.0, 1.0, 32, 100))

    @pytest.mark.parametrize("h", [1e103, 1e300])
    def test_huge_width_gives_a_flat_envelope(self, h):
        # h ** 2 overflows a float above ~1.3e154
        params = dsp.MorletParams(f=10.0, h=h, c=2.0, kernel_len=32, fs=100)
        np.testing.assert_array_equal(dsp.build_morlet(params),
                                      np.cos(2 * np.pi * 10 * params.time_grid()))


    @pytest.mark.parametrize("h, c", [(0.01, -1e308), (1e-200, 2.0)])
    def test_kernel_that_cannot_be_finite_is_a_numerical_error(self, h, c):
        # exp overflows for the first; h ** 2 underflows to 0 for the second
        params = dsp.MorletParams(f=10.0, h=h, c=c, kernel_len=32, fs=100)
        with pytest.raises(NumericalError, match="wavelet kernel is not finite"):
            dsp.build_morlet(params)
        with pytest.raises(NumericalError, match="wavelet kernel is not finite"):
            dsp.morlet_gradients(params, np.ones(32))


class TestMorletGradients:
    @pytest.mark.parametrize("h, c", [(1e308, -1e308), (1e-160, 0.0)])
    def test_gradient_that_cannot_be_finite_names_its_parameter(self, h, c):
        # the kernel is finite, but 2 c overflows for the first and h ** 3
        # underflows to 0 for the second
        params = dsp.MorletParams(f=30.0, h=h, c=c, kernel_len=8, fs=100)
        assert np.isfinite(dsp.build_morlet(params)).all()
        with pytest.raises(NumericalError, match="wavelet gradient in h is not finite"):
            dsp.morlet_gradients(params, np.ones(8))

    def test_dc_gradient_vanishes_at_center(self):
        params = dsp.MorletParams(f=10.0, h=0.25, c=2.0, kernel_len=33, fs=100)
        upstream = np.zeros(33)
        upstream[33 // 2] = 1.0
        _, _, dc = dsp.morlet_gradients(params, upstream)
        assert dc == 0.0

    def test_zero_upstream_gives_zero(self):
        params = dsp.MorletParams(f=10.0, h=0.25, c=2.0, kernel_len=32, fs=100)
        assert dsp.morlet_gradients(params, np.zeros(32)) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("h", [1e103, 1e300])
    def test_huge_width_has_finite_gradients(self, h):
        # h ** 3 overflows a float above ~5.6e102; the envelope is flat, so
        # neither h nor c moves the kernel
        params = dsp.MorletParams(f=10.0, h=h, c=2.0, kernel_len=32, fs=100)
        upstream = np.random.default_rng(0).normal(size=32)
        df, dh, dc = dsp.morlet_gradients(params, upstream)
        flat = dsp.MorletParams(f=10.0, h=1.0, c=0.0, kernel_len=32, fs=100)
        assert df == dsp.morlet_gradients(flat, upstream)[0]
        assert dh == 0.0
        assert abs(dc) < 1e-200

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        f, h, c = rng.uniform(8, 30), rng.uniform(0.1, 0.5), rng.uniform(0.5, 5)
        upstream = rng.normal(size=32)

        def loss(theta):
            p = dsp.MorletParams(theta[0], theta[1], theta[2], 32, 100)
            return float(upstream @ dsp.build_morlet(p))

        fd = central_difference(loss, np.array([f, h, c]))
        analytic = dsp.morlet_gradients(dsp.MorletParams(f, h, c, 32, 100), upstream)
        assert rel_err(np.array(analytic), fd) < 1e-5


class TestStft:
    def test_single_tone_concentration(self):
        t = np.arange(512) / 100
        mags, freqs, _ = dsp.stft(np.sin(2 * np.pi * 10 * t), 64, 16, fs=100)
        peak_freqs = freqs[np.argmax(mags, axis=0)]
        # bin width is 100/64 = 1.5625 Hz; nearest bins to 10 Hz are 9.375 and 10.9375
        assert np.all((np.round(peak_freqs, 1) >= 9.4) & (np.round(peak_freqs, 1) <= 10.9))

    def test_zeros_give_zero_grid(self):
        mags, _, _ = dsp.stft(np.zeros(256), 64, 32)
        assert np.all(mags == 0)

    def test_two_tone_local_maxima(self):
        t = np.arange(1024) / 100
        x = np.sin(2 * np.pi * 10 * t) + np.sin(2 * np.pi * 25 * t)
        mags, freqs, _ = dsp.stft(x, 128, 64, fs=100)
        for frame in mags.T:
            maxima = [i for i in range(1, len(frame) - 1)
                      if frame[i] > frame[i - 1] and frame[i] > frame[i + 1]
                      and frame[i] > 0.1 * frame.max()]
            assert len(maxima) == 2
            assert abs(freqs[maxima[0]] - 10) < 1.0
            assert abs(freqs[maxima[1]] - 25) < 1.0

    def test_bad_hop_rejected(self):
        with pytest.raises(NumericalError):
            dsp.stft(np.zeros(128), 64, 0)
