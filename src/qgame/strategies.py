"""Player strategy parametrizations.

A qubit strategy is an SU(2) matrix built from three Euler angles
(phi, alpha, theta); a qutrit strategy is an SU(3) matrix built from eight
angles through a product of structured exponentials of Gell-Mann matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import GELL_MANN, _require_real, expm_structured

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class StrategyAngles:
    """Euler angle triple (phi, alpha, theta) of a single-qubit strategy.

    Ranges: phi, alpha in [0, 2*pi], theta in [0, pi]. The triple is kept
    as given, the endpoints 0 and 2*pi distinct. At the poles one phase
    still acts: theta=0 gives diag(e^{i phi}, e^{-i phi}) and theta=pi the
    off-diagonal [[0, e^{i alpha}], [-e^{-i alpha}, 0]].
    """

    phi: float
    alpha: float
    theta: float

    def __post_init__(self):
        # plain floats need no conversion, and the range checks refuse NaN and inf
        if not (type(self.phi) is type(self.alpha) is type(self.theta) is float):
            for name in ("phi", "alpha", "theta"):
                object.__setattr__(self, name, _require_real(getattr(self, name), name))
        if not (0.0 <= self.phi <= TWO_PI):
            raise ValueError(f"phi out of range [0, 2*pi]: {self.phi}")
        if not (0.0 <= self.alpha <= TWO_PI):
            raise ValueError(f"alpha out of range [0, 2*pi]: {self.alpha}")
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError(f"theta out of range [0, pi]: {self.theta}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.phi, self.alpha, self.theta)


def su2_from_angles(g: StrategyAngles) -> np.ndarray:
    """The general SU(2) strategy matrix for an angle triple.

        [[ e^{i phi} cos(theta/2),   e^{i alpha} sin(theta/2)],
         [-e^{-i alpha} sin(theta/2), e^{-i phi} cos(theta/2)]]

    Unitary with determinant exactly 1 by construction.
    """
    c = math.cos(g.theta / 2.0)
    s = math.sin(g.theta / 2.0)
    ephi = complex(math.cos(g.phi), math.sin(g.phi))
    ealpha = complex(math.cos(g.alpha), math.sin(g.alpha))
    return np.array(
        [
            [ephi * c, ealpha * s],
            [-s / ealpha, c / ephi],
        ],
        dtype=complex,
    )


def classical_gate(which: str) -> np.ndarray:
    """The two classical bit gates as matrices: identity and the bit flip Y.

    Y = [[0, 1], [-1, 0]] flips the bit value; the -1 entry keeps Y in
    SU(2), so Y|0> = -|1> carries an irrelevant sign while Y|1> = |0>.
    """
    if which == "I":
        return np.eye(2, dtype=complex)
    if which == "Y":
        return np.array([[0, 1], [-1, 0]], dtype=complex)
    raise ValueError(f"unknown classical gate {which!r}")


def bloch_coords(a: complex, b: complex) -> tuple[float, float, float]:
    """Bloch sphere coordinates of the qubit a|0> + b|1>.

    The global phase is removed so that the |0> amplitude is real and
    non-negative, then theta = 2*arccos(|a|) and phi = arg(b) - arg(a).
    Returns (sin(theta)cos(phi), sin(theta)sin(phi), cos(theta)).
    """
    norm2 = abs(a) ** 2 + abs(b) ** 2
    if not abs(norm2 - 1.0) <= 1e-9:  # a NaN norm is not 1
        raise ValueError(f"qubit amplitudes are not normalized: |a|^2+|b|^2 = {norm2}")
    theta = 2.0 * math.acos(min(1.0, abs(a)))
    phi = math.atan2(b.imag, b.real) - math.atan2(a.imag, a.real) if b != 0 else 0.0
    st = math.sin(theta)
    return (st * math.cos(phi), st * math.sin(phi), math.cos(theta))


# The eight-factor Euler product for SU(3). lambda_2, lambda_3, lambda_5
# satisfy A^3 = A; lambda_8 is diagonal, so every factor has a closed-form
# exponential.
_SU3_FACTORS = (
    (GELL_MANN[2], "cubic"),
    (GELL_MANN[1], "cubic"),
    (GELL_MANN[2], "cubic"),
    (GELL_MANN[4], "cubic"),
    (GELL_MANN[2], "cubic"),
    (GELL_MANN[1], "cubic"),
    (GELL_MANN[2], "cubic"),
    (GELL_MANN[7], "diagonal"),
)


def su3_from_angles(angles) -> np.ndarray:
    """SU(3) matrix from eight Euler angles.

    Computes the product
        e^{i a1 l3} e^{i a2 l2} e^{i a3 l3} e^{i a4 l5}
        e^{i a5 l3} e^{i a6 l2} e^{i a7 l3} e^{i a8 l8}
    where l_k are Gell-Mann matrices. Unitary with det 1 (each factor has a
    traceless generator). ValueError unless there are eight finite angles.
    """
    angles = [_require_real(a, "su3 angle") for a in angles]
    if len(angles) != 8:
        raise ValueError(f"su3_from_angles needs 8 angles, got {len(angles)}")
    u = np.eye(3, dtype=complex)
    for a, (gen, kind) in zip(angles, _SU3_FACTORS):
        u = u @ expm_structured(gen, 1j * a, kind)
    return u
