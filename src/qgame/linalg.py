"""Small dense complex matrix helpers, fixed matrix constants and the number rule.

Everything here operates on plain numpy arrays (complex128). Matrices are
tiny (at most 9x9), so there is no attempt at sparse storage or performance
tuning; clarity and exactness of the structural predicates are what matter.

Every number that enters qgame from outside, tolerances and sizes too,
passes _require_real or _require_integer. They live here, below every other
module.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

DEFAULT_TOL = 1e-12


class StructureError(ValueError):
    """A matrix does not have the algebraic structure an operation requires."""


def _require_real(value, what: str) -> float:
    """value as a float; ValueError unless it is a finite real number.

    numpy numbers count; bool, strings, complex numbers and integers
    beyond the float range do not. Every number that enters qgame from
    outside passes this rule or _require_integer.
    """
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{what} is not a number: {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"{what} is not finite: an integer beyond the float range") from None
    if not math.isfinite(value):
        raise ValueError(f"{what} is not finite: {value!r}")
    return value


def _require_integer(value, what: str) -> int:
    """value as an int; ValueError unless it is an integer: numpy integers count, bool does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} takes integers only, got {value!r}")
    return int(value)


def _require_seed(seed) -> int:
    """seed as an int; ValueError unless _require_integer accepts it and it is non-negative."""
    seed = _require_integer(seed, "seed")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return seed


def _require_tol(tol) -> float:
    """tol as a float; ValueError unless _require_real accepts it and it is positive."""
    tol = _require_real(tol, "tol")
    if tol <= 0:
        raise ValueError("tol must be positive")
    return tol


# Pauli matrices sigma_1, sigma_2, sigma_3.
SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_1, SIGMA_2, SIGMA_3)

# Gell-Mann matrices lambda_1 .. lambda_8 (generators of SU(3)).
GELL_MANN = tuple(
    np.array(m, dtype=complex)
    for m in [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
        [[1 / np.sqrt(3), 0, 0], [0, 1 / np.sqrt(3), 0], [0, 0, -2 / np.sqrt(3)]],
    ]
)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor (Kronecker) product of two matrices or column vectors."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def dagger(m: np.ndarray) -> np.ndarray:
    """Hermitian adjoint (conjugate transpose)."""
    return np.asarray(m, dtype=complex).conj().T


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff M M^dag and M^dag M deviate from the identity by at most tol.

    Deviation is measured entrywise (max absolute difference). Non-square
    input is rejected.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"is_unitary requires a square matrix, got shape {m.shape}")
    tol = _require_tol(tol)
    return bool(_unitarity_error(m) <= tol and _unitarity_error(dagger(m)) <= tol)


def _unitarity_error(m: np.ndarray) -> float:
    """max |M M^dag - I|, entrywise, of a square complex array M."""
    return np.abs(m @ dagger(m) - np.eye(m.shape[0])).max()


def _is_rank_one(m: np.ndarray, tol: float) -> bool:
    """True iff every 2x2 minor of m is within tol of 0 (a NaN minor is not): rank at most one."""
    rows, cols = m.shape
    for r1, r2 in itertools.combinations(range(rows), 2):
        for c1, c2 in itertools.combinations(range(cols), 2):
            if not abs(m[r1, c1] * m[r2, c2] - m[r1, c2] * m[r2, c1]) <= tol:
                return False
    return True


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] = AB - BA for square matrices of equal dimension."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"commutator needs equal square shapes, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def expm_structured(a: np.ndarray, x: complex, kind: str) -> np.ndarray:
    """exp(x*A) for matrices with special algebraic structure.

    kind="involution"  requires A^2 = I:   exp(xA) = cosh(x) I + sinh(x) A
    kind="cubic"       requires A^3 = A:   exp(xA) = I + sinh(x) A + (cosh(x)-1) A^2
    kind="diagonal"    requires A diagonal: elementwise exponential

    Structural violations raise StructureError; shape problems raise ValueError.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm_structured requires a square matrix, got shape {a.shape}")
    n = a.shape[0]
    eye = np.eye(n)
    if kind == "involution":
        if np.abs(a @ a - eye).max() > DEFAULT_TOL:
            raise StructureError("matrix is not an involution (A^2 != I)")
        return np.cosh(x) * eye + np.sinh(x) * a
    if kind == "cubic":
        a2 = a @ a
        if np.abs(a2 @ a - a).max() > DEFAULT_TOL:
            raise StructureError("matrix does not satisfy A^3 = A")
        return eye + np.sinh(x) * a + (np.cosh(x) - 1) * a2
    if kind == "diagonal":
        if np.abs(a - np.diag(np.diag(a))).max() > DEFAULT_TOL:
            raise StructureError("matrix has nonzero off-diagonal entries")
        return np.diag(np.exp(x * np.diag(a)))
    raise ValueError(f"unknown kind {kind!r}")
