"""Complex baseband envelope generation and 16-bit I/Q packing.

Envelopes are the amplitude-modulation shapes stored point-by-point in
each processing element's memory.  Every generated kernel is
peak-normalized (max magnitude 1) before any amplitude scaling; storage
packs each sample into one 32-bit word with the real part in the upper
16 bits and the imaginary part in the lower 16 bits, as signed
fixed-point with symmetric full scale +/-32767.

Kernels
-------
square
    Constant 1.
gaussian
    Unit-peak Gaussian centered at twidth/2, truncated to [0, twidth).
    ``sigma_fraction`` sets sigma as a fraction of twidth.
DRAG
    gaussian plus ``1j * alpha * sigma * dg/dt`` in the quadrature,
    keeping ``alpha`` dimensionless and order-1.
cos_edge_square
    Flat top with raised-cosine rise/fall edges; ``edge_fraction`` is
    the fraction of twidth spent in each edge.
custom_samples
    Caller-provided complex samples, validated for length and magnitude.

Sample ``k`` of an N-sample envelope sits at ``t = k * dt``, so even-N
symmetric kernels place one sample exactly on the peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EnvelopeError

FULL_SCALE = 2**15 - 1  # symmetric fixed point; -32768 is never produced

ENVELOPE_KINDS = ("square", "gaussian", "DRAG", "cos_edge_square", "custom_samples")

# Parameters each kind requires (others are rejected as unknown).
_KIND_PARAMS = {
    "square": (),
    "gaussian": ("sigma_fraction",),
    "DRAG": ("sigma_fraction", "alpha"),
    "cos_edge_square": ("edge_fraction",),
    "custom_samples": (),
}

_PARAM_DEFAULTS = {"sigma_fraction": 0.25, "alpha": 0.0, "edge_fraction": 0.25}


def _to_float(value):
    """``float(value)``, infinite for an integer beyond float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class EnvelopeSpec:
    """Declarative description of an envelope shape."""

    kind: str
    params: dict = field(default_factory=dict)
    samples: tuple = ()  # only for kind == "custom_samples"

    def __post_init__(self):
        if self.kind not in ENVELOPE_KINDS:
            raise EnvelopeError(f"unknown envelope kind {self.kind!r}")
        allowed = _KIND_PARAMS[self.kind]
        for name, value in self.params.items():
            if name not in allowed:
                raise EnvelopeError(f"envelope kind {self.kind!r} takes no parameter {name!r}")
            if not (isinstance(value, (int, float)) and math.isfinite(_to_float(value))):
                raise EnvelopeError(f"envelope parameter {name!r} must be finite, got {value!r}")
        if self.kind == "custom_samples":
            if len(self.samples) == 0:
                raise EnvelopeError("custom_samples requires a non-empty sample list")
            magnitudes = [abs(complex(s)) for s in self.samples]
            if not all(map(math.isfinite, magnitudes)):
                raise EnvelopeError("custom samples must be finite")
            if max(magnitudes) > 1 + 1e-12:
                raise EnvelopeError("custom sample magnitude exceeds 1")
        elif self.samples:
            raise EnvelopeError(f"envelope kind {self.kind!r} takes no explicit samples")
        # normalize params storage so equal specs hash/compare equal
        object.__setattr__(self, "samples", tuple(complex(s) for s in self.samples))

    def param(self, name):
        return float(self.params.get(name, _PARAM_DEFAULTS[name]))

    def dedup_key(self):
        """Hashable identity used by the compiler's envelope deduplication."""
        return (self.kind, tuple(sorted(self.params.items())), self.samples)


@dataclass(frozen=True)
class Envelope:
    """Generated complex samples at the DAC rate; ``dt`` seconds apart."""

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 1:
            raise EnvelopeError("envelope must hold at least one sample")
        # Two LSB of headroom: quantizing I and Q separately can push the
        # magnitude of a full-scale sample slightly past 1.
        if np.max(np.abs(samples)) > 1 + 2.0 / FULL_SCALE:
            raise EnvelopeError("envelope magnitude exceeds 1")

    def __len__(self):
        return self.samples.size


@dataclass(frozen=True)
class PackedEnvelope:
    """Envelope quantized into 32-bit (I<<16 | Q) memory words."""

    words: tuple

    def __len__(self):
        return len(self.words)


def _sample_count(twidth: float, dt: float) -> int:
    if twidth <= 0 or dt <= 0:
        raise EnvelopeError(f"twidth and dt must be positive, got {twidth}, {dt}")
    ratio = twidth / dt
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-6 * max(ratio, 1.0):
        raise EnvelopeError(
            f"twidth {twidth} is not a whole number of {dt}-second samples"
        )
    return n


def _gaussian(t: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    return np.exp(-0.5 * ((t - mu) / sigma) ** 2)


def generate(spec: EnvelopeSpec, twidth: float, dt: float) -> Envelope:
    """Sample ``spec`` over [0, twidth) at spacing ``dt``.

    ``twidth/dt`` must be a whole number; the compiler rounds pulse
    widths up to whole DAC samples before calling here.
    """
    n = _sample_count(twidth, dt)
    t = np.arange(n) * dt

    if spec.kind == "square":
        e = np.ones(n, dtype=np.complex128)
    elif spec.kind in ("gaussian", "DRAG"):
        sigma = spec.param("sigma_fraction") * twidth
        if sigma <= 0:
            raise EnvelopeError("sigma_fraction must be positive")
        mu = twidth / 2
        g = _gaussian(t, mu, sigma)
        if spec.kind == "DRAG":
            alpha = spec.param("alpha")
            # dg/dt scaled by sigma keeps alpha dimensionless
            dg_dt = -((t - mu) / sigma**2) * g
            e = g + 1j * alpha * sigma * dg_dt
        else:
            e = g.astype(np.complex128)
    elif spec.kind == "cos_edge_square":
        edge = spec.param("edge_fraction")
        if not 0 <= edge <= 0.5:
            raise EnvelopeError("edge_fraction must be in [0, 0.5]")
        e = np.ones(n, dtype=np.complex128)
        t_edge = edge * twidth
        if t_edge > 0:
            rising = t < t_edge
            falling = t > twidth - t_edge
            e[rising] = 0.5 * (1 - np.cos(np.pi * t[rising] / t_edge))
            e[falling] = 0.5 * (1 - np.cos(np.pi * (twidth - t[falling]) / t_edge))
    elif spec.kind == "custom_samples":
        if len(spec.samples) != n:
            raise EnvelopeError(
                f"custom_samples holds {len(spec.samples)} samples, pulse needs {n}"
            )
        e = np.asarray(spec.samples, dtype=np.complex128)
    else:  # pragma: no cover - EnvelopeSpec already rejects unknown kinds
        raise EnvelopeError(f"unknown envelope kind {spec.kind!r}")

    peak = np.max(np.abs(e))
    if peak == 0:
        raise EnvelopeError("envelope is identically zero")
    return Envelope(samples=e / peak, dt=dt)


def _quantize(values: np.ndarray) -> np.ndarray:
    # round half away from zero, matching the pack convention
    return np.copysign(np.floor(np.abs(values) * FULL_SCALE + 0.5), values).astype(np.int64)


def pack(envelope: Envelope) -> PackedEnvelope:
    """Quantize to 16-bit I/Q and pack as (I << 16) | Q words."""
    i = _quantize(envelope.samples.real)
    q = _quantize(envelope.samples.imag)
    if np.max(np.abs(i)) > FULL_SCALE or np.max(np.abs(q)) > FULL_SCALE:
        raise EnvelopeError("sample magnitude exceeds full scale after quantization")
    return PackedEnvelope(words=tuple(iq_words(i, q).tolist()))


def iq_words(i, q) -> np.ndarray:
    """(I << 16) | Q int64 words of signed 16-bit lanes; inverts ``iq_lanes``."""
    return ((np.asarray(i, np.int64) & 0xFFFF) << 16) | (np.asarray(q, np.int64) & 0xFFFF)


def iq_lanes(words) -> tuple:
    """Signed 16-bit I (upper half) and Q (lower half) of 32-bit words.

    ``words`` must lie in [0, 2**32); returns two int64 arrays.
    """
    w = np.asarray(words, dtype=np.int64)
    i = ((w >> 16) ^ 0x8000) - 0x8000
    q = ((w & 0xFFFF) ^ 0x8000) - 0x8000
    return i, q


def u32_array(words) -> np.ndarray:
    """``words`` as an int64 array, each checked to lie in [0, 2**32).

    Raises ValueError naming the first word that does not fit.
    """
    try:
        arr = np.asarray(words, dtype=np.int64)
    except OverflowError:  # a Python int beyond int64
        arr = None
    # a word outside [0, 2**32) keeps nonzero bits above bit 31
    if arr is None or (arr >> 32).any():
        bad = next(int(w) for w in words if not 0 <= int(w) <= 0xFFFFFFFF)
        raise ValueError(f"word {bad:#x} does not fit 32 bits")
    return arr


def unpack_words(words) -> np.ndarray:
    """Decode packed words into complex samples normalized to full scale."""
    try:
        words = u32_array(words)
    except ValueError as exc:
        raise EnvelopeError(f"envelope {exc}") from None
    i, q = iq_lanes(words)
    # Divide each lane on its own: numpy's complex-by-real division
    # multiplies by a reciprocal and can differ in the last bit.
    return i / FULL_SCALE + 1j * (q / FULL_SCALE)


def unpack(packed: PackedEnvelope, dt: float) -> Envelope:
    return Envelope(samples=unpack_words(packed.words), dt=dt)
