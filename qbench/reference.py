"""Independent reference for the protocol J^dag (U1 x U2) J |00>.

Everything here is derived from the written definitions: the SU(2)
strategy matrix, the two entangler formulas and the mesh layout. Nothing
is imported from qgame, so the benchmark's correctness checks do not share
code with the program they check.

Basis order is |q1 q2> = |00>, |01>, |10>, |11>; a game table u[r][c]
weights the squared amplitude of |r c>.
"""

from __future__ import annotations

import math

import numpy as np

TIE_TOL = 1e-9  # the program's tie tolerance, a documented constant

Y = np.array([[0, 1], [-1, 0]], dtype=complex)

# The two built-in games as published: (u1, u2) with u[r][c] for player 1
# playing gate r and player 2 gate c (0 = identity, 1 = flip).
GAMES = {
    "prisoner_dilemma": (((-4, -6), (-2, -5)), ((-4, -2), (-6, -5))),
    "da_brother": (((0, -10), (-1, -5)), ((-2, -1), (-10, -5))),
}


def su2(angles: np.ndarray) -> np.ndarray:
    """(n, 2, 2) strategy matrices for rows (phi, alpha, theta)."""
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    phi, alpha, theta = angles[:, 0], angles[:, 1], angles[:, 2]
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    u = np.empty((len(angles), 2, 2), dtype=complex)
    u[:, 0, 0] = np.exp(1j * phi) * c
    u[:, 0, 1] = np.exp(1j * alpha) * s
    u[:, 1, 0] = -np.exp(-1j * alpha) * s
    u[:, 1, 1] = np.exp(-1j * phi) * c
    return u


def entangler(family: str, beta: float) -> np.ndarray:
    """J1(b) = cos(b/2) I + i sin(b/2) Y x Y; J2(b) the real rotation to the triplet."""
    c, s = math.cos(beta / 2), math.sin(beta / 2)
    if family == "identity":
        return np.eye(4, dtype=complex)
    if family == "j1":
        return c * np.eye(4) + 1j * s * np.kron(Y, Y)
    if family == "j2":
        return np.array(
            [[0, c, 0, -s], [c, 0, -s, 0], [s, 0, c, 0], [0, s, 0, c]], dtype=complex
        )
    raise ValueError(f"unknown entangler family {family!r}")


def mesh_angles(n_theta: int, n_phi: int, n_alpha: int) -> np.ndarray:
    """Mesh strategies in 1-based index order, as (N, 3) rows (phi, alpha, theta).

    Index 1 is the theta=0 pole, index N the theta=pi pole; interior points
    run theta slowest, then phi, then alpha, each on an inclusive grid.
    """
    rows = [(0.0, 0.0, 0.0)]
    for kt in range(1, n_theta - 1):
        theta = math.pi * kt / (n_theta - 1)
        for kp in range(n_phi):
            phi = 0.0 if n_phi == 1 else 2 * math.pi * kp / (n_phi - 1)
            for ka in range(n_alpha):
                alpha = 0.0 if n_alpha == 1 else 2 * math.pi * ka / (n_alpha - 1)
                rows.append((phi, alpha, theta))
    rows.append((0.0, 0.0, math.pi))
    return np.array(rows)


def amplitudes(j: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """(m, n, 4) final amplitudes for every pair of m row and n column strategies."""
    v = j[:, 0].reshape(2, 2)  # J|00> as coefficients v[a, b] of |a b>
    # (U1 x U2) acting on v is U1 v U2^T
    state = np.einsum("iab,bc,jdc->ijad", u1, v, u2).reshape(len(u1), len(u2), 4)
    return state @ j.conj()  # J^dag s, written as s @ conj(J)


def payoff_block(j, u1, u2, game) -> tuple[np.ndarray, np.ndarray]:
    """Payoff tables (m, n) of players 1 and 2 for strategy blocks u1, u2."""
    w = np.abs(amplitudes(j, u1, u2)) ** 2
    g1, g2 = (np.asarray(t, dtype=float).reshape(4) for t in game)
    return w @ g1, w @ g2


class MeshReference:
    """Rows and columns of one game's payoff tables on one mesh, computed on demand."""

    def __init__(self, game, family: str, beta: float, mesh):
        self.game = game
        self.j = entangler(family, beta)
        self.u = su2(mesh_angles(*mesh))
        self.n = len(self.u)
        self._rows2: dict[int, np.ndarray] = {}
        self._cols1: dict[int, np.ndarray] = {}

    def pair(self, i: int, j: int) -> tuple[float, float]:
        """Payoffs at the 1-based pair (i, j)."""
        p1, p2 = payoff_block(self.j, self.u[i - 1 : i], self.u[j - 1 : j], self.game)
        return float(p1[0, 0]), float(p2[0, 0])

    def row2(self, i: int) -> np.ndarray:
        """Player 2's payoffs against row strategy i, over all columns."""
        if i not in self._rows2:
            self._rows2[i] = payoff_block(self.j, self.u[i - 1 : i], self.u, self.game)[1][0]
        return self._rows2[i]

    def col1(self, j: int) -> np.ndarray:
        """Player 1's payoffs against column strategy j, over all rows."""
        if j not in self._cols1:
            self._cols1[j] = payoff_block(self.j, self.u, self.u[j - 1 : j], self.game)[0][:, 0]
        return self._cols1[j]

    def is_mutual_best_response(self, i: int, j: int) -> bool:
        p1, p2 = self.pair(i, j)
        return p2 >= self.row2(i).max() - TIE_TOL and p1 >= self.col1(j).max() - TIE_TOL

    def best_replies(self, responder: int, opponent: int) -> set[int]:
        """1-based responder indices within TIE_TOL of the best reply to `opponent`."""
        vals = self.row2(opponent) if responder == 2 else self.col1(opponent)
        return {int(k) + 1 for k in np.nonzero(vals >= vals.max() - TIE_TOL)[0]}

    def all_ne(self) -> list[tuple[int, int]]:
        """Brute-force pure NE set over the full tables (small meshes only)."""
        p1, p2 = payoff_block(self.j, self.u, self.u, self.game)
        mask = (p2 >= p2.max(axis=1, keepdims=True) - TIE_TOL) & (
            p1 >= p1.max(axis=0, keepdims=True) - TIE_TOL
        )
        return [(int(i) + 1, int(j) + 1) for i, j in np.argwhere(mask)]


def bayes_grid(mu: float, mesh, types) -> tuple[np.ndarray, float]:
    """Player 1's mu-weighted payoff over the mesh against fixed type replies.

    `types` holds ((u1, u2), reply_angles) for type I and type II; the game
    is played at maximal J1 entanglement. Returns the payoff vector over
    the mesh (index 1 first) and the payoff at the identity strategy.
    """
    j = entangler("j1", math.pi / 2)
    u = su2(mesh_angles(*mesh))
    total = np.zeros(len(u))
    for weight, (game, reply) in zip((mu, 1.0 - mu), types):
        p1, _ = payoff_block(j, u, su2([reply]), game)
        total += weight * p1[:, 0]
    return total, float(total[0])


def qutrit_amplitudes(beta: float) -> np.ndarray:
    """exp(i beta Z)|00> for Z = X + X^T, X the tensor square of the 3-cycle.

    Computed by eigendecomposition of the real symmetric Z, independently of
    the closed-form coefficients.
    """
    c = np.zeros((3, 3))
    for k in range(3):
        c[(k + 1) % 3, k] = 1.0  # |k> -> |k+1>
    x = np.kron(c, c)
    z = x + x.T
    evals, evecs = np.linalg.eigh(z)
    e0 = np.zeros(9)
    e0[0] = 1.0
    return evecs @ (np.exp(1j * beta * evals) * (evecs.T @ e0))
