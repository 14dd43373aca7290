"""Qutrit strategies, the two-qutrit entangler and the impossibility check.

Classical trit gates are the six 3x3 permutation matrices (the group S3).
The two-qutrit entangler J(beta) = exp(i beta Z) is built from
Z = X + X^T with X the tensor square of the three-cycle; its closed-form
coefficients follow from Z^2 = Z + 2I, and so does the maximally
entangling angle 2*pi/9. commutant_is_scalar computes the dimension of the
joint commutant of a set of gates, the executable form of Schur's lemma.
For the transpositions {S12, S13} that commutant is two-dimensional,
spanned by the identity and the all-ones matrix, because the permutation
representation of S3 is reducible.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .linalg import DEFAULT_TOL, _is_rank_one, _require_integer, _require_real, _require_tol, tensor

_PERMS = {
    "I3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "S12": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    "S13": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    "S23": [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
    # C123 cycles |0> -> |1> -> |2> -> |0>; C132 is its inverse.
    "C123": [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
    "C132": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
}


def perm_matrix(which: str) -> np.ndarray:
    """One of the six 3x3 permutation matrices (trit gates)."""
    if which not in _PERMS:
        raise ValueError(f"unknown permutation {which!r}")
    return np.array(_PERMS[which], dtype=complex)


def build_Z() -> np.ndarray:
    """The 9x9 symmetric generator Z = X + X^T with X = C x C.

    C is the three-cycle sending |0> -> |1> -> |2> -> |0>, so
    Z|00> = |11> + |22> and Z satisfies Z^2 = Z + 2I exactly.
    """
    c = perm_matrix("C123")
    x = tensor(c, c)
    return x + x.T


def _entangler_coeffs(beta: float) -> tuple[complex, complex]:
    """Coefficients (a, b) with exp(i beta Z) = a I + b Z.

    Z has eigenvalues 2 and -1 (from Z^2 = Z + 2I), so matching the
    exponential on both eigenspaces gives
    a = exp(-i beta) (exp(3 i beta) + 2) / 3 and
    b = exp(-i beta) (exp(3 i beta) - 1) / 3.
    """
    beta = _require_real(beta, "beta")
    if not math.isfinite(3.0 * beta):
        raise ValueError(f"beta is too large: 3*beta is not finite: {beta!r}")
    e3 = cmath.exp(3j * beta)
    em = cmath.exp(-1j * beta)
    return em * (e3 + 2.0) / 3.0, em * (e3 - 1.0) / 3.0


def qutrit_entangler(beta: float) -> np.ndarray:
    """The two-qutrit entangler J(beta) = exp(i beta Z), unitary; ValueError unless beta is finite."""
    a, b = _entangler_coeffs(beta)
    return a * np.eye(9, dtype=complex) + b * build_Z()


def entangled_initial_state(beta: float) -> np.ndarray:
    """J(beta)|00> = a|00> + b|11> + b|22>, the first column of J(beta); ValueError unless beta is finite."""
    return qutrit_entangler(beta)[:, 0]


def max_entangling_beta() -> float:
    """The smallest beta > 0 at which J(beta)|00> is maximally entangled.

    The three nonzero amplitudes a, b, b have equal magnitude when
    |exp(3 i beta) + 2| = |exp(3 i beta) - 1|. Squared, that reads
    5 + 4 cos(3 beta) = 2 - 2 cos(3 beta), i.e. cos(3 beta) = -1/2, whose
    smallest positive root is 3 beta = 2*pi/3: beta = 2*pi/9, where all three
    amplitudes have magnitude 1/sqrt(3).
    """
    return 2.0 * math.pi / 9.0


def commutant_is_scalar(generators, dim: int) -> tuple[bool, int]:
    """Dimension of the joint commutant {A : [A, G] = 0 for all G}.

    Solves the stacked linear system over the dim^2 matrix entries and
    returns (scalar_only, dimension) where scalar_only is true iff the
    solution space is exactly the span of the identity. The identity always
    commutes, so that is dimension == 1. A one-dimensional commutant is the
    executable content of Schur's lemma for an irreducible set of
    generators.
    """
    dim = _require_integer(dim, "dim")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    eye = np.eye(dim)
    rows = []
    for g in generators:
        g = np.asarray(g, dtype=complex)
        if g.shape != (dim, dim):
            raise ValueError(f"generator shape {g.shape} does not match dim {dim}")
        # row-major vec: vec([A, G]) = (I kron G^T - G kron I) vec(A)
        rows.append(tensor(eye, g.T) - tensor(g, eye))
    if not rows:  # no generators: every dim x dim matrix commutes
        return dim == 1, dim * dim
    sv = np.linalg.svd(np.vstack(rows), compute_uv=False)
    dimension = dim * dim - int((sv >= 1e-10).sum())
    return dimension == 1, dimension


def qutrit_tensor(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Tensor product of two single-qutrit states (row-major |ij> layout)."""
    return tensor(np.reshape(q1, 3), np.reshape(q2, 3))


def is_qutrit_product(state: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff a two-qutrit state factors into two single-qutrit states.

    The 3x3 coefficient matrix must have rank 1, i.e. all 2x2 minors
    vanish within tol.
    """
    tol = _require_tol(tol)
    return _is_rank_one(np.asarray(state, dtype=complex).reshape(3, 3), tol)
