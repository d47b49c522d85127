"""Reference computations for the benchmark's output checks.

Nothing here imports qubicforge.  Command words are decoded with shifts
at the offsets documented for the 128-bit command, envelope words are
unpacked by hand, and the DAC waveform, the accumulator entries and the
RB composition property are computed in float arithmetic.  Each check
returns a short failure message, or None when the output passes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import wilcoxon

FULL_SCALE = 32767
ACC_REL_TOL = 1e-4  # of the reference entry's magnitude
RB_TOL = 1e-9  # on P(|0>) after a whole RB sequence

# (name, offset, width) of the command fields, LSB upward.
FIELDS = (
    ("trig_t", 0, 24),
    ("element", 24, 8),
    ("phase_word", 32, 14),
    ("length", 46, 12),
    ("start", 58, 12),
    ("destination", 70, 2),
    ("freq_word", 72, 24),
    ("condition", 96, 1),
)
RESERVED_OFFSET = 97


def decode_word(word: int) -> dict:
    """Fields of one 128-bit command word."""
    word = int(word)
    if not 0 <= word < 1 << 128 or word >> RESERVED_OFFSET:
        raise ValueError(f"command word {word:#x} is not a valid 128-bit command")
    return {name: (word >> off) & ((1 << width) - 1) for name, off, width in FIELDS}


def envelope_samples(words) -> np.ndarray:
    """Packed (I << 16 | Q) words as complex samples at full scale 1.0."""
    arr = np.asarray([int(w) for w in words], dtype=np.int64)
    i = (arr >> 16) & 0xFFFF
    q = arr & 0xFFFF
    i = i - ((i & 0x8000) << 1)
    q = q - ((q & 0x8000) << 1)
    return (i + 1j * q) / FULL_SCALE


def carrier(fields: dict, n: np.ndarray) -> np.ndarray:
    """exp(j*phase) of a command's carrier at absolute sample indices n."""
    turns = fields["phase_word"] / 2.0**14 + fields["freq_word"] * n / 2.0**24
    return np.exp(2j * np.pi * (turns % 1.0))


def synthesize(commands, envelopes, repeat_cycles, n_up, n_pairs, spc) -> dict:
    """Float DAC output per pair over one shot, saturated at full scale.

    ``commands`` are 128-bit words, ``envelopes`` maps an up element to
    its envelope memory words, ``spc`` is DAC samples per DSP cycle.
    """
    n_samples = repeat_cycles * spc
    out = {p: np.zeros(n_samples, dtype=complex) for p in range(n_pairs)}
    for word in commands:
        f = decode_word(word)
        if f["element"] >= n_up or f["length"] == 0:
            continue
        n0 = f["trig_t"] * spc
        n = np.arange(n0, n0 + f["length"])
        stored = envelopes.get(f["element"], ())[f["start"] : f["start"] + f["length"]]
        env = np.zeros(f["length"], dtype=complex)
        env[: len(stored)] = envelope_samples(stored)
        out[f["destination"]][n0 : n0 + f["length"]] += env * carrier(f, n)
    for p, wave in out.items():
        out[p] = np.clip(wave.real, -1, 1) + 1j * np.clip(wave.imag, -1, 1)
    return out


def demodulate(commands, waves, n_up, spc, delay=0) -> dict:
    """Reference accumulator entry per down command, in raw units.

    The ADC of a pair sees its own DAC ``delay`` samples late.  Each
    entry is the sum over its window of adc * conj(carrier), scaled so
    a full-scale tone integrates to 32767 per sample; returns
    element -> complex array, one entry per window in trigger order.
    """
    out = {}
    for word in sorted(commands, key=lambda w: decode_word(w)["trig_t"]):
        f = decode_word(word)
        if f["element"] < n_up:
            continue
        n0 = f["trig_t"] * spc
        n = np.arange(n0, n0 + f["length"])
        wave = waves[f["destination"]]
        src = n - delay
        adc = np.where(src >= 0, wave[np.clip(src, 0, len(wave) - 1)], 0)
        entry = FULL_SCALE * np.sum(adc * np.conj(carrier(f, n)))
        out.setdefault(f["element"], []).append(entry)
    return {e: np.array(v) for e, v in out.items()}


def check_acc(acc: dict, ref: dict, shots: int):
    """Every shot's accumulator entries match the float demodulation.

    ``acc`` maps a down element to an (entries, 2) integer array holding
    ``shots`` consecutive shots; ``ref`` gives one shot's entries.
    """
    if sorted(acc) != sorted(ref):
        return f"accumulator elements {sorted(acc)} != reference {sorted(ref)}"
    for element, entries in ref.items():
        got = np.asarray(acc[element], dtype=np.float64)
        if got.shape != (shots * len(entries), 2):
            return (
                f"element {element}: {got.shape[0]} accumulator entries, "
                f"expected {shots} shots x {len(entries)}"
            )
        got = (got[:, 0] + 1j * got[:, 1]).reshape(shots, len(entries))
        err = np.abs(got - entries[np.newaxis, :])
        scale = np.maximum(np.abs(entries), 1.0)[np.newaxis, :]
        worst = float(np.max(err / scale))
        if worst > ACC_REL_TOL:
            return f"element {element}: accumulator entry off by {worst:.3g} relative"
    return None


def x90_about(phi: float) -> np.ndarray:
    """A pi/2 rotation about the equatorial axis at angle phi."""
    c = math.cos(math.pi / 4)
    s = math.sin(math.pi / 4)
    return np.array(
        [[c, -1j * s * complex(math.cos(phi), -math.sin(phi))],
         [-1j * s * complex(math.cos(phi), math.sin(phi)), c]]
    )


def check_rb_composition(commands, drive_pair: int, n_up: int, expected_x90: int):
    """The drive pulses on ``drive_pair``, taken as pi/2 rotations about
    their phase-word axes in trigger order, return |0> to |0>."""
    pulses = sorted(
        (f["trig_t"], f["phase_word"])
        for f in map(decode_word, commands)
        if f["element"] < n_up and f["destination"] == drive_pair
    )
    if len(pulses) != expected_x90:
        return f"{len(pulses)} X90 commands, the Clifford words hold {expected_x90}"
    state = np.array([1.0 + 0j, 0.0])
    for _, phase_word in pulses:
        state = x90_about(2 * math.pi * phase_word / 2**14) @ state
    p0 = abs(state[0]) ** 2
    if abs(1.0 - p0) > RB_TOL:
        return f"RB sequence leaves P(0) = {p0:.12f}, not 1"
    return None


def check_fidelity(decay: float, p_dep: float, window: float = 1e-3):
    """1q average fidelity (1 + p) / 2 from the fitted decay is within
    ``window`` of 1 - p_dep / 2."""
    fidelity = (1.0 + decay) / 2.0
    target = 1.0 - p_dep / 2.0
    if not abs(fidelity - target) <= window:
        return f"fitted fidelity {fidelity:.6f} outside {target} +- {window}"
    return None


def check_rc(bare_tvd, rc_tvd, alpha: float = 0.01):
    """RC lowers the mean TVD, paired one-sided p < alpha, TVDs in [0, 1]."""
    bare = np.asarray(bare_tvd, dtype=float)
    rc = np.asarray(rc_tvd, dtype=float)
    for name, arr in (("bare", bare), ("rc", rc)):
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            return f"a {name} TVD lies outside [0, 1]"
    if not rc.mean() < bare.mean():
        return f"RC mean TVD {rc.mean():.4f} is not below bare {bare.mean():.4f}"
    p = wilcoxon(bare - rc, alternative="greater", method="approx").pvalue
    if not p < alpha:
        return f"paired one-sided Wilcoxon p = {p:.3g} is not below {alpha}"
    return None
