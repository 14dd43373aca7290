"""Referee entanglement operators and named two-qubit states."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, _is_rank_one, _require_real, _require_tol, commutator, is_unitary, tensor
from .strategies import classical_gate

Y_TENSOR_Y = tensor(classical_gate("Y"), classical_gate("Y"))
# Y x I and I x Y: one player flips, the other plays the identity
_CLASSICAL_FLIPS = [tensor(classical_gate(a), classical_gate(b)) for a, b in ("YI", "IY")]

_FAMILIES = ("j1", "j2", "identity")
# partial_state's carrier families and the entangler whose J|00> each is
_PARTIAL_FAMILIES = {"psi_plus": "j1", "T": "j2"}


@dataclass(frozen=True)
class EntanglerSpec:
    """Entangler family ("j1", "j2" or "identity") plus angle beta.

    beta runs over [0, pi/2] with beta=pi/2 maximally entangling.
    family="identity" checks beta against [0, pi/2] (ValueError outside
    it), then stores beta = 0, so every identity spec is equal.
    """

    family: str
    beta: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown entangler family {self.family!r}")
        object.__setattr__(self, "beta", _require_real(self.beta, "beta"))
        if not (0.0 <= self.beta <= math.pi / 2 + 1e-12):
            raise ValueError(f"beta out of range [0, pi/2]: {self.beta}")
        if self.family == "identity":
            object.__setattr__(self, "beta", 0.0)


def build_entangler(spec: EntanglerSpec) -> np.ndarray:
    """The 4x4 entanglement operator for a family and angle.

    J1(beta) = cos(beta/2) I + i sin(beta/2) (Y x Y) = exp(i (beta/2) Y x Y);
    J1(0) is the identity and J1(pi/2)|00> = (|00> + i|11>)/sqrt(2).
    J2(beta) is the orthogonal matrix with J2(pi/2)|00> = (|01> + |10>)/sqrt(2),
    the triplet state. An identity spec stores beta = 0 and is built as
    J1(0), which is np.eye(4, dtype=complex) bit for bit.
    """
    return _entangler(spec.family, spec.beta)


def _entangler(family: str, beta: float) -> np.ndarray:
    """J1(beta) for "j1" and "identity", J2(beta) for "j2"; beta unchecked."""
    c = math.cos(beta / 2.0)
    s = math.sin(beta / 2.0)
    if family in ("j1", "identity"):
        return c * np.eye(4, dtype=complex) + 1j * s * Y_TENSOR_Y
    return np.array(
        [
            [0, c, 0, -s],
            [c, 0, -s, 0],
            [s, 0, c, 0],
            [0, s, 0, c],
        ],
        dtype=complex,
    )


def entangler_matrix(j) -> np.ndarray:
    """j as a complex array; ValueError unless it is a unitary 4x4 matrix."""
    j = np.asarray(j, dtype=complex)
    if j.shape != (4, 4) or not is_unitary(j):
        raise ValueError("entangler must be a unitary 4x4 matrix")
    return j


def bell_state(which: str) -> np.ndarray:
    """One of the four maximally entangled Bell states as a 4-vector.

    psi_plus/psi_minus = (|00> +/- i|11>)/sqrt(2); T = (|01> + |10>)/sqrt(2);
    S = (|01> - |10>)/sqrt(2).
    """
    r = 1.0 / math.sqrt(2.0)
    states = {
        "psi_plus": [r, 0, 0, 1j * r],
        "psi_minus": [r, 0, 0, -1j * r],
        "T": [0, r, r, 0],
        "S": [0, r, -r, 0],
    }
    if which not in states:
        raise ValueError(f"unknown Bell state {which!r}")
    return np.array(states[which], dtype=complex)


def partial_state(family: str, gamma: float) -> np.ndarray:
    """The carrier J(gamma)|00>: the first column of J1(gamma) or J2(gamma).

    Family "psi_plus" (J1): cos(gamma/2)|00> + i sin(gamma/2)|11>, |00> at
    gamma=0. Family "T" (J2): cos(gamma/2)|01> + sin(gamma/2)|10>, |01> at 0
    and |10> at pi. gamma runs over [0, pi], past EntanglerSpec's [0, pi/2].
    At pi/2 the cos(pi/4) amplitude is one ulp above the 1/sqrt(2) of
    bell_state("psi_plus") or bell_state("T").
    """
    gamma = _require_real(gamma, "gamma")
    if not (0.0 <= gamma <= math.pi):
        raise ValueError(f"gamma out of range [0, pi]: {gamma}")
    if family not in _PARTIAL_FAMILIES:
        raise ValueError(f"unknown partial state family {family!r}")
    return _entangler(_PARTIAL_FAMILIES[family], gamma)[:, 0].copy()


def is_classically_commensurate(j: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff J commutes with Y x I and with I x Y, each commutator within tol.

    Then J commutes with U1 x U2 for every pair of classical gates {I, Y},
    so played inside the quantum protocol they reproduce the classical game
    outcomes (Eisert, Wilkens and Lewenstein, PRL 1999). Commuting with
    Y x Y alone is not enough: SWAP does, and swaps the outcomes of (I, Y)
    and (Y, I). J must pass entangler_matrix (ValueError otherwise); tol
    bounds only the commutators.
    """
    tol = _require_tol(tol)
    j = entangler_matrix(j)
    return all(np.abs(commutator(g, j)).max() <= tol for g in _CLASSICAL_FLIPS)


def is_product_state(s: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff the two-qubit state a|00>+b|01>+c|10>+d|11> is unentangled.

    The state is a tensor product of two single qubits exactly when the 2x2
    coefficient matrix [[a, b], [c, d]] has rank 1, i.e. |ad - bc| <= tol.
    """
    tol = _require_tol(tol)
    return _is_rank_one(np.asarray(s, dtype=complex).reshape(2, 2), tol)
