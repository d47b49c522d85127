"""Inputs of the benchmark workloads, made from the seed alone.

The chip, gate set and hardware are the shipped example configuration
(configs/*.json), copied here so that the workloads stay fixed when the
example files change.  Circuits are JSON documents in the form
``load_circuit`` parses, built with numpy's seeded generator.
"""

from __future__ import annotations

import math

CHIP = {
    "qubits": {
        "Q6": {"drive_freq": 5.5e9, "readout_freq": 6.52e9},
        "Q7": {"drive_freq": 5.32e9, "readout_freq": 6.6e9},
    }
}


def _drive(dest, twidth, amp, pcarrier=0.0, kind="gaussian", **params):
    return {
        "dest": dest,
        "t0": 0.0,
        "twidth": twidth,
        "fcarrier": dest.split(".")[0] + ".freq",
        "pcarrier": pcarrier,
        "amp": amp,
        "env": {"kind": kind, "params": {"sigma_fraction": 0.25, **params}},
    }


GATES = {
    "gates": {
        "Q6X90": [_drive("Q6.qdrv", 32e-9, 0.45)],
        "Q6Y180": [_drive("Q6.qdrv", 96e-9, 0.873, "pi/2", "DRAG", alpha=0.5)],
        "Q7X90": [_drive("Q7.qdrv", 32e-9, 0.5)],
        "Q6read": [
            {
                "dest": "Q6.rdrv",
                "t0": 0.0,
                "twidth": 512e-9,
                "fcarrier": "Q6.readfreq",
                "pcarrier": 0.0,
                "amp": 0.25,
                "env": {"kind": "cos_edge_square", "params": {"edge_fraction": 0.1}},
            },
            {
                "dest": "Q6.read",
                "t0": 0.0,
                "twidth": 512e-9,
                "fcarrier": "Q6.readfreq",
                "pcarrier": 0.0,
                "amp": 1.0,
                "env": {"kind": "square"},
            },
        ],
    }
}

HARDWARE = {
    "dac_sample_rate": 1e9,
    "dsp_clock": 250e6,
    "n_processing_elements_up": 16,
    "n_processing_elements_down": 4,
    "n_dac_pairs": 4,
    "envelope_buffer_depth": 1024,
    "command_buffer_depth": 65536,
    "acc_buffer_depth": 1000,
    "acq_buffer_depth": 8192,
    "channel_map": {
        "Q6.qdrv": {"element": 0, "destination": 0, "direction": "up"},
        "Q7.qdrv": {"element": 1, "destination": 1, "direction": "up"},
        "Q6.rdrv": {"element": 2, "destination": 3, "direction": "up"},
        "Q7.rdrv": {"element": 3, "destination": 3, "direction": "up"},
        "Q6.read": {"element": 16, "destination": 3, "direction": "down"},
        "Q7.read": {"element": 17, "destination": 3, "direction": "down"},
    },
}

N_UP = HARDWARE["n_processing_elements_up"]
N_PAIRS = HARDWARE["n_dac_pairs"]
SPC = round(HARDWARE["dac_sample_rate"] / HARDWARE["dsp_clock"])
Q6_DRIVE_PAIR = HARDWARE["channel_map"]["Q6.qdrv"]["destination"]


def _gate(name, qubit):
    return {"gate": name, "qubits": [qubit]}


def _vz(qubit, phase):
    return {"virtual_z": {"qubit": qubit, "phase": phase}}


# rb_sequence_loading: 100 lengths spread evenly over 1..64, dealt into
# four rounds of 25 with the same spread, so the pool's make-up is the
# same for every seed and every round; the seed picks the Cliffords and
# the order within a round.
RB_LOAD_LENGTHS = tuple(1 + 63 * k // 99 for k in range(100))
RB_LOAD_ROUNDS = 4


def rb_load_rounds(rng) -> list:
    """The RB sequence lengths of each round, in the order they run.

    Lengths are dealt back and forth (0, 1, 2, 3, 3, 2, 1, 0, ...) so
    that every round gets nearly the same total length.
    """
    rounds = [[] for _ in range(RB_LOAD_ROUNDS)]
    for k, m in enumerate(sorted(RB_LOAD_LENGTHS)):
        r = k % (2 * RB_LOAD_ROUNDS)
        rounds[min(r, 2 * RB_LOAD_ROUNDS - 1 - r)].append(m)
    return [[int(m) for m in rng.permutation(lengths)] for lengths in rounds]


def rb_circuit(indices, words) -> tuple:
    """A Clifford sequence as Q6 X90 pulses and virtual-Z, then a readout.

    A Z90 letter is a frame rotation: it adds -pi/2 to the phase of the
    X90 pulses after it.  Returns (circuit, number of X90 letters).
    """
    ops = []
    x90 = 0
    for idx in indices:
        # words apply left to right in time order
        for letter in words[idx]:
            if letter == "X90":
                ops.append(_gate("X90", "Q6"))
                x90 += 1
            else:
                ops.append(_vz("Q6", -math.pi / 2))
    ops.append(_gate("read", "Q6"))
    return {"ops": ops}, x90
