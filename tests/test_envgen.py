"""Envelope kernels, peak normalization, and 16-bit I/Q packing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubicforge import EnvelopeError
from qubicforge.envgen import (
    FULL_SCALE,
    Envelope,
    EnvelopeSpec,
    generate,
    iq_lanes,
    iq_words,
    pack,
    unpack,
    unpack_words,
)

DT = 1e-9


def gen(kind, twidth=96e-9, **params):
    return generate(EnvelopeSpec(kind=kind, params=params), twidth, DT)


class TestSampling:
    def test_sample_count(self):
        assert len(gen("square").samples) == 96

    def test_inexact_float_product_tolerated(self):
        # 120e-9 * 1e9 is 119.99999999999999 in binary floating point;
        # the sample count must still come out to exactly 120.
        assert 120e-9 * 1e9 != 120.0
        assert len(gen("gaussian", twidth=120e-9).samples) == 120

    def test_non_integer_width_rejected(self):
        with pytest.raises(EnvelopeError):
            gen("square", twidth=96.5e-9)

    def test_zero_width_rejected(self):
        with pytest.raises(EnvelopeError):
            gen("square", twidth=0.0)


class TestKernels:
    def test_square_is_flat(self):
        env = gen("square")
        assert np.all(env.samples == 1.0)

    def test_gaussian_peak_at_center_sample(self):
        # t_k = k*dt with mean twidth/2: for 96 samples the peak lands
        # exactly on sample 48.
        env = gen("gaussian", sigma_fraction=0.25)
        assert env.samples[48] == 1.0
        assert np.argmax(np.abs(env.samples)) == 48

    def test_gaussian_frozen_value(self):
        # sample 24 sits one sigma from the mean: exp(-1/2).
        env = gen("gaussian", sigma_fraction=0.25)
        assert env.samples[24].real == pytest.approx(math.exp(-0.5), abs=1e-15)
        assert env.samples[24].real == pytest.approx(0.6065306597126334, abs=1e-15)

    def test_gaussian_symmetry(self):
        env = gen("gaussian", sigma_fraction=0.25)
        # Symmetric about sample 48 (sample 0 has no mirror partner).
        assert np.allclose(env.samples[1:48].real, env.samples[95:48:-1].real)

    def test_drag_real_part_is_gaussian(self):
        g = gen("gaussian", sigma_fraction=0.25)
        d = gen("DRAG", sigma_fraction=0.25, alpha=0.5)
        peak = np.max(np.abs(d.samples))
        assert peak <= 1.0 + 1e-12
        assert np.allclose(d.samples.real / np.max(d.samples.real), g.samples.real)

    def test_drag_frozen_value(self):
        # Before normalization, imag(e)[24] = -alpha*((t-mu)/sigma)*g(t)
        # = -0.5 * (-1) * exp(-0.5) = 0.3032653298563167.  The peak of
        # |e| stays at the center where imag = 0 and real = 1, so
        # normalization leaves the value intact.
        d = gen("DRAG", sigma_fraction=0.25, alpha=0.5)
        assert d.samples[24].imag == pytest.approx(0.3032653298563167, abs=1e-15)
        assert d.samples[48] == pytest.approx(1.0, abs=1e-15)

    def test_drag_derivative_matches_finite_difference(self):
        d = gen("DRAG", sigma_fraction=0.25, alpha=0.5)
        g = gen("gaussian", sigma_fraction=0.25).samples.real
        sigma = 0.25 * 96e-9
        # Central difference of the analytic gaussian, scaled by
        # alpha*sigma, should match the imaginary part away from edges.
        dgdt = np.gradient(g, DT)
        expected = 0.5 * sigma * dgdt
        assert np.allclose(d.samples.imag[2:-2], expected[2:-2], atol=2e-4)

    def test_drag_antisymmetric_imag(self):
        d = gen("DRAG", sigma_fraction=0.25, alpha=0.5)
        assert d.samples[48].imag == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(d.samples.imag[1:48], -d.samples.imag[95:48:-1])

    def test_drag_zero_alpha_is_gaussian(self):
        d = gen("DRAG", sigma_fraction=0.25, alpha=0.0)
        g = gen("gaussian", sigma_fraction=0.25)
        assert np.array_equal(d.samples, g.samples)

    def test_cos_edge_square(self):
        env = gen("cos_edge_square", edge_fraction=0.25)
        # Flat top at unity through the middle half.
        assert np.all(env.samples[24:72].real == 1.0)
        assert env.samples[0].real == pytest.approx(0.0, abs=1e-12)
        # Raised-cosine edge: half amplitude midway up the ramp.
        assert env.samples[12].real == pytest.approx(0.5, abs=1e-12)

    def test_cos_edge_zero_fraction_is_square(self):
        env = gen("cos_edge_square", edge_fraction=0.0)
        assert np.all(env.samples == 1.0)

    def test_custom_samples(self):
        vals = [0.5, 0.25 + 0.25j, -0.1]
        spec = EnvelopeSpec(kind="custom_samples", samples=tuple(vals))
        env = generate(spec, 3e-9, DT)
        # Peak-normalized by 0.5.
        assert env.samples[0] == 1.0
        assert env.samples[1] == pytest.approx(0.5 + 0.5j)

    @pytest.mark.parametrize(
        "bad", [math.nan, complex(0.5, math.nan), math.inf], ids=["nan", "nan-imag", "inf"]
    )
    def test_non_finite_custom_sample_rejected(self, bad):
        with pytest.raises(EnvelopeError, match="^custom samples must be finite$"):
            EnvelopeSpec(kind="custom_samples", samples=(0.5, bad, 0.25))

    def test_custom_samples_length_mismatch(self):
        spec = EnvelopeSpec(kind="custom_samples", samples=(0.5, 0.5))
        with pytest.raises(EnvelopeError):
            generate(spec, 3e-9, DT)

    def test_unknown_kind(self):
        with pytest.raises(EnvelopeError):
            EnvelopeSpec(kind="triangle")

    def test_unknown_param(self):
        with pytest.raises(EnvelopeError):
            EnvelopeSpec(kind="gaussian", params={"mean": 1.0})

    def test_peak_normalization_universal(self):
        for kind, params in [
            ("gaussian", {"sigma_fraction": 0.17}),
            ("DRAG", {"sigma_fraction": 0.21, "alpha": 2.5}),
            ("cos_edge_square", {"edge_fraction": 0.4}),
        ]:
            env = gen(kind, **params)
            assert np.max(np.abs(env.samples)) == pytest.approx(1.0, abs=1e-12)


class TestPacking:
    def test_full_scale_is_symmetric(self):
        env = Envelope(np.array([1.0 + 0j, -1.0 + 0j]), DT)
        words = pack(env).words
        assert words[0] >> 16 == 0x7FFF
        assert words[1] >> 16 == 0x8001  # two's complement -32767

    def test_iq_lanes(self):
        env = Envelope(np.array([0.5 + 0.25j]), DT)
        word = pack(env).words[0]
        i = word >> 16
        q = word & 0xFFFF
        assert i == round(0.5 * FULL_SCALE) or i == math.floor(0.5 * FULL_SCALE + 0.5)
        assert q == math.floor(0.25 * FULL_SCALE + 0.5)

    def test_acq_word_roundtrip(self):
        arr = np.array([[0, 0], [32767, -32768], [-1, 1], [-12345, 4321]], dtype=np.int32)
        assert np.array_equal(np.stack(iq_lanes(iq_words(*arr.T)), axis=1), arr)

    def test_round_half_away_from_zero(self):
        half_lsb = 0.5 / FULL_SCALE
        env = Envelope(np.array([half_lsb + 0j, -half_lsb + 0j]), DT)
        words = pack(env).words
        assert words[0] >> 16 == 1
        assert (words[1] >> 16) - (1 << 16) == -1

    def test_roundtrip_error_within_half_lsb(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(-1, 1, 256) + 1j * rng.uniform(-1, 1, 256)
        vals /= np.max(np.abs(vals))
        env = Envelope(vals, DT)
        back = unpack(pack(env), DT)
        err = np.abs(back.samples - env.samples)
        assert np.max(err) <= (0.5 / FULL_SCALE) * math.sqrt(2) + 1e-12

    def test_unpack_words_sign_extension(self):
        vals = unpack_words([0x8001_8001])
        assert vals[0] == pytest.approx(-1.0 - 1.0j)
        for bad in (-1, 1 << 32, 1 << 63):
            with pytest.raises(EnvelopeError, match=f"{bad:#x} does not fit 32 bits"):
                unpack_words([0x8001_8001, bad])

    @given(
        st.lists(
            st.tuples(st.floats(-1, 1), st.floats(-1, 1)).map(lambda t: complex(*t)),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=200)
    def test_pack_unpack_property(self, vals):
        arr = np.array(vals, dtype=complex)
        peak = np.max(np.abs(arr))
        if peak > 1:
            arr = arr / peak
        env = Envelope(arr, DT)
        back = unpack(pack(env), DT)
        assert np.max(np.abs(back.samples - env.samples)) <= (0.5 / FULL_SCALE) * math.sqrt(2) + 1e-12


class TestDedupKey:
    def test_equal_specs_share_key(self):
        a = EnvelopeSpec(kind="gaussian", params={"sigma_fraction": 0.25})
        b = EnvelopeSpec(kind="gaussian", params={"sigma_fraction": 0.25})
        assert a.dedup_key() == b.dedup_key()

    def test_param_changes_key(self):
        a = EnvelopeSpec(kind="gaussian", params={"sigma_fraction": 0.25})
        b = EnvelopeSpec(kind="gaussian", params={"sigma_fraction": 0.26})
        assert a.dedup_key() != b.dedup_key()
