"""The payoff kernel behind the mesh equilibrium search.

A strategy U(phi, alpha, theta) is linear in the unit quaternion

    q = (c cos(phi), c sin(phi), s cos(alpha), s sin(alpha)),  c, s = cos, sin(theta/2),

namely U = q0 I + q1 diag(i, -i) + q2 [[0, 1], [-1, 0]] + q3 [[0, i], [i, 0]].
Each final amplitude of the protocol J^dag (U1 x U2) J |00> is therefore
bilinear, A_k = q1^T C_k q2, with complex 4x4 matrices C_k fixed by J, and
every payoff sum_k u_k |A_k|^2 is a real bilinear form f(q1)^T W_u f(q2) in
the ten products f(q) = (q_a q_b, a <= b). W_u is a 10x10 matrix fixed by J
and a row u of outcome payoffs, and weights(J, u) is the one place where the
two meet: a caller builds W once per (J, table) and passes it to
payoff_block, pair_payoffs and pure_ne_pairs, which only multiply features
by it; best_response_table alone builds it once per row block, on purpose
(ROADMAP open item). The payoffs of N strategies against each other are
the single matrix product F W_u F^T, for any 4x4 entangler J. A stack of
rows u, such as GameTable.outcome_payoffs(), gives a stack of W, whose W[p]
is bit for bit the W of row p alone, and one leading axis of payoffs per W:
one call, both players.

A strategy reaches a payoff only through f(q), so payoff_classes groups
strategies by their features, and the search runs on one per class.
Results are deterministic: every reduction is per row of a fixed block.
"""

from __future__ import annotations

import numpy as np

USE_NUMBA = False  # there is no compiled backend; kept for tools that report the backend

# Strategy rows per block of the streaming equilibrium search; one block of
# one player's payoffs (BLOCK_ROWS x N doubles) stays in cache.
BLOCK_ROWS = 128

TIE_TOL = 1e-9

# U = sum_a q_a _BASIS[a]
_BASIS = np.array(
    [np.eye(2), [[1j, 0], [0, -1j]], [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]], dtype=complex
)
# (B_a x B_b) as _PRODUCTS[a, b]
_PRODUCTS = np.einsum("aij,bkl->abikjl", _BASIS, _BASIS).reshape(4, 4, 4, 4)
_PAIRS = np.triu_indices(4)  # the ten (a, b) with a <= b
_PAIR_COUNT = np.where(_PAIRS[0] == _PAIRS[1], 1.0, 2.0)  # q_a q_b appears twice if a != b


def _features(angles: np.ndarray) -> np.ndarray:
    """(N, 10) products q_a q_b, a <= b, of each strategy's quaternion."""
    phi, alpha, theta = angles[:, 0], angles[:, 1], angles[:, 2]
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    q = np.stack([c * np.cos(phi), c * np.sin(phi), s * np.cos(alpha), s * np.sin(alpha)], axis=1)
    return q[:, _PAIRS[0]] * q[:, _PAIRS[1]]


def weights(j, u) -> np.ndarray:
    """The 10x10 W with payoff f(q1)^T W f(q2) under entangler j, for each row of u."""
    j = np.asarray(j, dtype=complex)
    # c[k, a, b] = <k| J^dag (B_a x B_b) J |00>, so A_k = sum_ab q1_a q2_b c[k, a, b]
    c = np.einsum("lk,ablm,m->kab", j.conj(), _PRODUCTS, j[:, 0])
    # payoff = sum_{a,c,b,d} q1_a q1_c q2_b q2_d t[a, c, b, d]; the imaginary
    # parts cancel in the sum, and only the parts symmetric in (a, c) and
    # in (b, d) reach it
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.einsum("...k,kab,kcd->...acbd", np.asarray(u, dtype=float), c, c.conj()).real
        t = (t + t.swapaxes(-4, -3)) / 2.0
        t = (t + t.swapaxes(-2, -1)) / 2.0
        a, b = _PAIRS
        w = t[..., a, b, :, :][..., a, b] * np.outer(_PAIR_COUNT, _PAIR_COUNT)
    # finite payoffs near the float limit overflow W's sums; every payoff from such a W is NaN
    if not np.isfinite(w).all():
        raise ValueError("payoffs too large: the payoff form W of the table overflows")
    # row-major, so that each W of a stack multiplies bit for bit as a single W
    return np.ascontiguousarray(w)


def payoff_block(angles1, angles2, w) -> np.ndarray:
    """Payoffs under each W of w of every strategy of angles1 against every one of angles2."""
    return _features(angles1) @ w @ _features(angles2).T


def pair_payoffs(angles1, angles2, w) -> np.ndarray:
    """Payoffs under each W of w of row i of angles1 against row i of angles2, for each i."""
    return np.einsum("...ij,ij->...i", _features(angles1) @ w, _features(angles2))


def best_replies(p, best=None) -> np.ndarray:
    """The entries of payoffs p within TIE_TOL of best, each row's maximum unless given.

    best broadcasts against p: a caller that knows the best payoff of each
    entry passes it. This is the one place TIE_TOL is compared.
    """
    return p >= (p.max(axis=-1, keepdims=True) if best is None else best) - TIE_TOL


def pure_ne_pairs(angles, w):
    """Mutual-best-response pairs without materializing the full tables.

    Two passes over row blocks: the first accumulates the column maxima of
    player 1's table (the row maxima of P1^T), the second computes player
    2's rows, keeps their best replies and evaluates player 1's payoff only
    at those pairs, keeping the best replies to player 1's column maxima.
    Returns the pairs as two 0-based index arrays (rows, cols), ordered
    lexicographically. w is the (2, 10, 10) stack of both players' W.
    """
    f = _features(angles)
    n = f.shape[0]
    w1, w2 = w
    h1 = f @ w1
    colmax1 = np.empty(n)
    for i0 in range(0, n, BLOCK_ROWS):
        colmax1[i0 : i0 + BLOCK_ROWS] = (f[i0 : i0 + BLOCK_ROWS] @ h1.T).max(axis=1)
    g2 = w2 @ f.T
    rows, cols = [], []
    for i0 in range(0, n, BLOCK_ROWS):
        p2 = f[i0 : i0 + BLOCK_ROWS] @ g2
        # flat indices are row-major, so the pairs come out in lexicographic order
        i, k = np.divmod(np.flatnonzero(best_replies(p2)), n)
        keep = best_replies(np.einsum("ij,ij->i", h1[i0 + i], f[k]), colmax1[k])
        rows.append(i0 + i[keep])
        cols.append(k[keep])
    return np.concatenate(rows), np.concatenate(cols)


def payoff_classes(angles):
    """Payoff classes of the rows of angles as (reps, inverse), 0-based.

    Rows whose features agree to 10 decimals form one class, represented by
    its lowest row; reps holds those rows ascending and inverse[i] is the
    class of row i, so reps[inverse] maps every row to its representative.
    f(q) is equal exactly for q' = +-q, and two such rows agree to 1e-15, so
    rounding splits a true class only for a value within 1e-15 of a rounding
    boundary. A split is a refinement: the search runs one more
    representative and lists the same pairs.
    """
    f = np.round(_features(angles), 10)
    _, first, inverse = np.unique(f, axis=0, return_index=True, return_inverse=True)
    reps = np.sort(first)
    return reps, np.searchsorted(reps, first[inverse])
