"""Single-qubit Clifford group machinery.

The 24 elements are generated as words in {X90, Z90} by breadth-first
search, deduplicated up to global phase.  Index 0 is the identity and
the ordering is deterministic, so composition and inverse tables are
reproducible across runs.  Two-qubit helpers cover the CNOT and the
sixteen Pauli pairs needed for randomized compiling.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import AnalysisError

_SQ2 = 1.0 / np.sqrt(2.0)

IDENTITY = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

X90 = np.array([[_SQ2, -1j * _SQ2], [-1j * _SQ2, _SQ2]], dtype=complex)
Z90 = np.array([[np.exp(-1j * np.pi / 4), 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)


def _canonical_key(u: np.ndarray) -> tuple:
    """Hashable fingerprint of a 2x2 unitary, global phase removed.

    The phase reference is the first entry whose magnitude clears a
    threshold sitting below 1/sqrt(2), the smallest nonzero entry any
    Clifford has, so roundoff can never switch the pivot.
    """
    flat = u.ravel()
    pivot = flat[int(np.argmax(np.abs(flat) > 0.3))]
    v = flat * (abs(pivot) / pivot)
    return tuple(complex(np.round(z, 9)) for z in v)


def _build_group():
    mats = [IDENTITY]
    words = [()]
    index_of = {_canonical_key(IDENTITY): 0}
    head = 0
    while head < len(mats):
        base = mats[head]
        for name, gen in (("X90", X90), ("Z90", Z90)):
            m = gen @ base
            key = _canonical_key(m)
            if key not in index_of:
                index_of[key] = len(mats)
                mats.append(m)
                words.append(words[head] + (name,))
        head += 1
    return tuple(mats), tuple(words), index_of


CLIFFORD_MATS, CLIFFORD_WORDS, _KEY_TO_INDEX = _build_group()
N_CLIFFORDS = len(CLIFFORD_MATS)
assert N_CLIFFORDS == 24


def clifford_index(u: np.ndarray) -> int:
    """Index of a 2x2 unitary in the table (equality up to phase)."""
    key = _canonical_key(np.asarray(u, dtype=complex))
    idx = _KEY_TO_INDEX.get(key)
    if idx is None:
        raise AnalysisError("matrix is not a single-qubit Clifford")
    return idx


def _compose_tables():
    compose = np.empty((N_CLIFFORDS, N_CLIFFORDS), dtype=np.int64)
    inverse = np.empty(N_CLIFFORDS, dtype=np.int64)
    for i, a in enumerate(CLIFFORD_MATS):
        inverse[i] = clifford_index(a.conj().T)
        for j, b in enumerate(CLIFFORD_MATS):
            compose[i, j] = clifford_index(a @ b)
    return compose, inverse


COMPOSE, INVERSE = _compose_tables()

PAULI_INDEX = {
    "I": clifford_index(IDENTITY),
    "X": clifford_index(PAULI_X),
    "Y": clifford_index(PAULI_Y),
    "Z": clifford_index(PAULI_Z),
}
PAULI_MATS = {"I": IDENTITY, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def net_index(indices) -> int:
    """Index of the product of a time-ordered Clifford sequence."""
    acc = 0
    for idx in indices:
        acc = COMPOSE[idx, acc]
    return int(acc)


def sequence_inverse(indices) -> int:
    """Index of the Clifford undoing a time-ordered sequence."""
    return int(INVERSE[net_index(indices)])


def axis_angle(u: np.ndarray):
    """Rotation axis and angle of a 2x2 unitary, phase stripped.

    Returns (axis, angle) with angle in [0, pi] and axis a unit
    3-vector; the identity returns ((0, 0, 1), 0).
    """
    u = np.asarray(u, dtype=complex)
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    su = u / np.sqrt(det)
    a = (su[0, 0] + su[1, 1]) / 2.0
    if a.real < 0:
        su = -su
        a = -a
    bx = (1j * (su[0, 1] + su[1, 0]) / 2.0).real
    by = ((su[1, 0] - su[0, 1]) / 2.0).real
    bz = (1j * (su[0, 0] - su[1, 1]) / 2.0).real
    b = np.array([bx, by, bz])
    norm = np.linalg.norm(b)
    angle = 2.0 * np.arctan2(norm, a.real)
    if norm < 1e-12:
        return np.array([0.0, 0.0, 1.0]), 0.0
    return b / norm, float(angle)


def rotation(axis, angle) -> np.ndarray:
    """exp(-i angle/2 axis.sigma) for a unit 3-vector axis."""
    nx, ny, nz = axis
    gen = nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z
    return np.cos(angle / 2.0) * IDENTITY - 1j * np.sin(angle / 2.0) * gen


def overrotated(u: np.ndarray, delta: float) -> np.ndarray:
    """The unitary with its rotation angle stretched by delta radians.

    The identity has no axis, so it is returned unchanged; a coherent
    overrotation cannot act on a gate that does nothing.
    """
    axis, angle = axis_angle(u)
    if angle == 0.0:
        return np.asarray(u, dtype=complex)
    return rotation(axis, angle + delta)


def bloch_rotation(u: np.ndarray) -> np.ndarray:
    """SO(3) action of a 2x2 unitary on Bloch vectors."""
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    u = np.asarray(u, dtype=complex)
    ud = u.conj().T
    out = np.empty((3, 3))
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            out[i, j] = 0.5 * np.trace(si @ u @ sj @ ud).real
    return out


# ---------------------------------------------------------------------------
# Two-qubit helpers

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


@functools.cache
def pair_tables():
    """Two read-only (24, 24, 4, 4) tables of 4x4 unitaries, built on first use.

    ``kron[a, b]`` is ``np.kron(CLIFFORD_MATS[a], CLIFFORD_MATS[b])``
    and ``after_cnot[a, b]`` is that times ``CNOT``: an easy layer
    following a hard cycle.  Fancy indexing with arrays of ``a`` and
    ``b`` gathers a stack of layers in one step.  Both tables are
    read-only, since every caller shares them.
    """
    kron = np.array([[np.kron(a, b) for b in CLIFFORD_MATS] for a in CLIFFORD_MATS])
    return _frozen(kron), _frozen(kron @ CNOT)


PAULI_NAMES = ("I", "X", "Y", "Z")
PAULI_PAIRS = tuple(
    (a, b, np.kron(PAULI_MATS[a], PAULI_MATS[b]))
    for a in PAULI_NAMES
    for b in PAULI_NAMES
)


def _match_pauli_pair(m: np.ndarray):
    for a, b, pm in PAULI_PAIRS:
        flat = pm.ravel()
        pivot = np.argmax(np.abs(flat))
        phase = m.ravel()[pivot] / flat[pivot]
        if abs(abs(phase) - 1.0) < 1e-9 and np.allclose(m, phase * pm, atol=1e-9):
            return a, b
    raise AnalysisError("matrix is not a Pauli pair up to phase")


def _cnot_frame_table():
    table = {}
    for a, b, pm in PAULI_PAIRS:
        conj = CNOT @ pm @ CNOT
        table[(a, b)] = _match_pauli_pair(conj)
    return table


# (Pa, Pb) -> the Pauli pair equal to CNOT (Pa x Pb) CNOT up to phase
CNOT_FRAME = _cnot_frame_table()

# CNOT_FRAME by Pauli code 0..3 (I, X, Y, Z): PAULI_CODE_INDEX[c] is the
# Clifford index of Pauli c, and CNOT_FRAME_INDEX[ca, cb] the Clifford
# indices of the pair CNOT (Pa x Pb) CNOT, so stacks of frames twirl by
# table lookup
PAULI_CODE_INDEX = _frozen(np.array([PAULI_INDEX[n] for n in PAULI_NAMES]))
CNOT_FRAME_INDEX = _frozen(
    np.array(
        [
            [[PAULI_INDEX[q] for q in CNOT_FRAME[(a, b)]] for b in PAULI_NAMES]
            for a in PAULI_NAMES
        ]
    )
)
