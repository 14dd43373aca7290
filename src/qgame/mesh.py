"""Discretization of the strategy space into a finite indexed mesh.

theta takes n_theta equally spaced values on [0, pi]; phi and alpha take
n_phi and n_alpha equally spaced values on [0, 2*pi] including both
endpoints. The poles theta=0 and theta=pi each carry the single strategy
(0, 0, theta), so the mesh has (n_theta-2)*n_phi*n_alpha + 2 strategies.

Strategies are numbered 1..N_S in lexicographic order: index 1 is the
theta=0 pole, index N_S the theta=pi pole, and interior indices run with
theta slowest, then phi, then alpha fastest, all ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import payoff_classes
from .linalg import _require_integer, _require_tol
from .strategies import TWO_PI, StrategyAngles


@dataclass(frozen=True)
class MeshSpec:
    n_theta: int
    n_phi: int
    n_alpha: int

    def __post_init__(self):
        for name in ("n_theta", "n_phi", "n_alpha"):
            object.__setattr__(self, name, _require_integer(getattr(self, name), "mesh size"))
        if self.n_theta < 3:
            raise ValueError("n_theta must be at least 3")
        if self.n_phi < 1 or self.n_alpha < 1:
            raise ValueError("n_phi and n_alpha must be at least 1")

    @property
    def n_strategies(self) -> int:
        return (self.n_theta - 2) * self.n_phi * self.n_alpha + 2

    def theta_value(self, k: int) -> float:
        return _axis_value(math.pi, self.n_theta, k)

    def phi_value(self, k: int) -> float:
        return _axis_value(TWO_PI, self.n_phi, k)

    def alpha_value(self, k: int) -> float:
        return _axis_value(TWO_PI, self.n_alpha, k)


def _axis_value(stop: float, n: int, k: int) -> float:
    """Value k of n equally spaced on [0, stop], bit for bit as np.linspace gives it."""
    if n == 1:
        return 0.0
    return stop if k == n - 1 else k * (stop / (n - 1))


def index_to_angles(mesh: MeshSpec, index: int) -> StrategyAngles:
    """The angle triple of 1-based strategy index `index`."""
    index = _require_integer(index, "strategy index")
    n = mesh.n_strategies
    if not (1 <= index <= n):
        raise ValueError(f"strategy index {index} out of range [1, {n}]")
    if index == 1:
        return StrategyAngles(0.0, 0.0, 0.0)
    if index == n:
        return StrategyAngles(0.0, 0.0, math.pi)
    k = index - 2
    per_theta = mesh.n_phi * mesh.n_alpha
    k_theta, rem = divmod(k, per_theta)
    k_phi, k_alpha = divmod(rem, mesh.n_alpha)
    return StrategyAngles(
        mesh.phi_value(k_phi), mesh.alpha_value(k_alpha), mesh.theta_value(k_theta + 1)
    )


def angles_to_index(mesh: MeshSpec, g: StrategyAngles, tol: float = 1e-9) -> int:
    """Inverse of index_to_angles; the triple must lie on the mesh within tol.

    The mesh holds one strategy per pole, with both phases 0. A triple with
    theta within tol of a pole maps to it when the phase that acts there is
    0 mod 2*pi within tol: phi at theta=0 and alpha at theta=pi (the other
    phase drops out of the matrix). Any other pole triple is off the mesh.
    """
    tol = _require_tol(tol)
    if g.theta <= tol or g.theta >= math.pi - tol:
        index, phase = (1, g.phi) if g.theta <= tol else (mesh.n_strategies, g.alpha)
        if min(phase, TWO_PI - phase) > tol:
            raise ValueError(f"angles {g} do not lie on the mesh")
        return index
    k_theta = round(g.theta * (mesh.n_theta - 1) / math.pi)
    k_phi = 0 if mesh.n_phi == 1 else round(g.phi * (mesh.n_phi - 1) / TWO_PI)
    k_alpha = 0 if mesh.n_alpha == 1 else round(g.alpha * (mesh.n_alpha - 1) / TWO_PI)
    if (
        not (1 <= k_theta <= mesh.n_theta - 2)
        or abs(mesh.theta_value(k_theta) - g.theta) > tol
        or abs(mesh.phi_value(k_phi) - g.phi) > tol
        or abs(mesh.alpha_value(k_alpha) - g.alpha) > tol
    ):
        raise ValueError(f"angles {g} do not lie on the mesh")
    return 2 + (k_theta - 1) * mesh.n_phi * mesh.n_alpha + k_phi * mesh.n_alpha + k_alpha


def mesh_angle_array(mesh: MeshSpec) -> np.ndarray:
    """All mesh strategies as an (N_S, 3) array of (phi, alpha, theta) rows."""
    thetas = [mesh.theta_value(k) for k in range(1, mesh.n_theta - 1)]
    phis = [mesh.phi_value(k) for k in range(mesh.n_phi)]
    alphas = [mesh.alpha_value(k) for k in range(mesh.n_alpha)]
    n = mesh.n_strategies
    out = np.zeros((n, 3))
    tt, pp, aa = np.meshgrid(thetas, phis, alphas, indexing="ij")
    out[1:-1, 0] = pp.ravel()
    out[1:-1, 1] = aa.ravel()
    out[1:-1, 2] = tt.ravel()
    out[-1, 2] = math.pi
    return out


def mesh_classes(mesh: MeshSpec):
    """Payoff classes of the mesh as (reps, inverse), 0-based.

    reps holds the lowest index of each class, ascending; inverse[i] is the
    class of index i, so reps[inverse] maps every index to its
    representative. The classes are _kernels.payoff_classes of the mesh's
    angle array; the search's class layout (search._class_layout) reads them
    here, so find_pure_ne and best_response_table run on these classes.
    """
    return payoff_classes(mesh_angle_array(mesh))
