import inspect
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame import _kernels, bayes, games, search
from qgame.entanglers import EntanglerSpec, build_entangler
from qgame.games import (
    DA_BROTHER,
    PRISONER_DILEMMA,
    closed_form_amplitudes_partial,
    final_state,
    payoffs,
)
from qgame.mesh import MeshSpec, index_to_angles, mesh_angle_array
from qgame.strategies import StrategyAngles

MESH = MeshSpec(5, 9, 9)
U = DA_BROTHER.outcome_payoffs()

angle_triples = st.tuples(
    st.floats(0, 2 * math.pi),
    st.floats(0, 2 * math.pi),
    st.floats(0, math.pi),
)
betas = st.floats(0, math.pi / 2)
payoff_tables_4 = st.lists(st.floats(-10, 10), min_size=4, max_size=4).map(np.array)
# both players' outcome payoffs, as GameTable.outcome_payoffs() gives them
outcome_tables = st.lists(st.floats(-10, 10), min_size=8, max_size=8).map(
    lambda v: np.reshape(v, (2, 4))
)


def _random_unitary(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


entanglers = st.one_of(
    betas.map(lambda b: build_entangler(EntanglerSpec("j1", b))),
    betas.map(lambda b: build_entangler(EntanglerSpec("j2", b))),
    st.just(np.eye(4, dtype=complex)),
    st.integers(0, 2**32 - 1).map(_random_unitary),
)


def _pair_payoffs(j, t1, t2, u):
    """Kernel payoffs (P1, P2) of raw angle triple t1 against t2."""
    return _kernels.payoff_block(np.array([t1]), np.array([t2]), _kernels.weights(j, u))[:, 0, 0]


def test_payoff_tables_match_protocol_pointwise():
    angles = mesh_angle_array(MESH)
    j = build_entangler(EntanglerSpec("j1", 0.8))
    p1, p2 = _kernels.payoff_block(angles, angles, _kernels.weights(j, U))
    rng = np.random.default_rng(0)
    for _ in range(25):
        i, k = rng.integers(1, MESH.n_strategies + 1, size=2)
        g1 = index_to_angles(MESH, int(i))
        g2 = index_to_angles(MESH, int(k))
        ref = payoffs(final_state(j, g1, g2), DA_BROTHER)
        assert abs(p1[i - 1, k - 1] - ref.p1) < 1e-12
        assert abs(p2[i - 1, k - 1] - ref.p2) < 1e-12


def test_matrix_path_matches_closed_form_kernels():
    # the public J1 closed form of games.py against the kernel's tables
    angles = mesh_angle_array(MESH)
    beta = 0.9
    j = build_entangler(EntanglerSpec("j1", beta))
    p1, p2 = _kernels.payoff_block(angles, angles, _kernels.weights(j, U))
    rng = np.random.default_rng(1)
    for i, k in rng.integers(0, MESH.n_strategies, size=(200, 2)):
        w = np.abs(
            closed_form_amplitudes_partial(
                beta, StrategyAngles(*angles[i]), StrategyAngles(*angles[k])
            )
        ) ** 2
        assert abs(p1[i, k] - w @ U[0]) < 1e-12
        assert abs(p2[i, k] - w @ U[1]) < 1e-12


@given(entanglers, angle_triples, angle_triples, outcome_tables)
@settings(max_examples=200, deadline=None)
def test_table_entries_match_protocol(j, t1, t2, u):
    g1, g2 = StrategyAngles(*t1), StrategyAngles(*t2)
    w = np.abs(final_state(j, g1, g2)) ** 2
    assert np.abs(_pair_payoffs(j, g1.as_tuple(), g2.as_tuple(), u) - u @ w).max() < 1e-12


@given(entanglers, angle_triples, angle_triples, st.sampled_from(["phi", "alpha", "sign"]))
@settings(max_examples=200, deadline=None)
def test_payoffs_invariant_under_endpoint_and_sign(j, t1, t2, move):
    phi, alpha, theta = t1
    if move == "phi":
        before, after = (0.0, alpha, theta), (2 * math.pi, alpha, theta)
    elif move == "alpha":
        before, after = (phi, 0.0, theta), (phi, 2 * math.pi, theta)
    else:
        # U(phi + pi, alpha + pi, theta) = -U(phi, alpha, theta)
        before, after = t1, (phi + math.pi, alpha + math.pi, theta)
    ref = _pair_payoffs(j, before, t2, U)
    assert np.allclose(_pair_payoffs(j, after, t2, U), ref, rtol=0, atol=1e-12)
    assert np.allclose(
        _pair_payoffs(j, t2, after, U), _pair_payoffs(j, t2, before, U), rtol=0, atol=1e-12
    )


def _dense_ne_pairs(angles, j, u, tol=1e-9):
    p1, p2 = _kernels.payoff_block(angles, angles, _kernels.weights(j, u))
    mask = (p2 >= p2.max(axis=1)[:, None] - tol) & (p1 >= p1.max(axis=0)[None, :] - tol)
    return [(int(i), int(k)) for i, k in np.argwhere(mask)]


def _pairs(rows_cols):
    rows, cols = rows_cols
    return list(zip(rows.tolist(), cols.tolist()))


# integer tables: payoffs then tie exactly or differ far beyond rounding at
# the tie tolerance, so the two paths cannot disagree on a near-tie
integer_tables = st.lists(st.integers(-10, 10), min_size=8, max_size=8).map(
    lambda v: np.reshape(v, (2, 4))
)


@given(entanglers, integer_tables, st.sampled_from([(3, 5, 5), (4, 5, 9), (5, 9, 9)]))
@settings(max_examples=60, deadline=None)
def test_pure_ne_pairs_equal_dense_mask(j, u, mesh):
    angles = mesh_angle_array(MeshSpec(*mesh))
    w = _kernels.weights(j, u)
    assert _pairs(_kernels.pure_ne_pairs(angles, w)) == _dense_ne_pairs(angles, j, u)


def test_one_best_reply_rule(monkeypatch):
    # a reply within TIE_TOL of the best counts, one just beyond it does not
    assert _kernels.best_replies(np.array([-4.0, -4.000000001])).all()
    assert not _kernels.best_replies(np.array([-4.0, -4.0000000021])).all()
    assert list(inspect.signature(_kernels.pure_ne_pairs).parameters) == ["angles", "w"]
    # every caller that decides a tie asks the one rule; the default search
    # and the certificate also ask it with a best payoff of their own
    calls = []
    best_replies = _kernels.best_replies

    def counted(p, best=None):
        calls.append(best is not None)
        return best_replies(p, best)

    monkeypatch.setattr(_kernels, "best_replies", counted)
    spec = EntanglerSpec("j1", 0.8)
    for run, given_best in (
        (lambda: search.find_pure_ne(DA_BROTHER, spec, MeshSpec(3, 5, 5)), True),
        (lambda: search.find_pure_ne(DA_BROTHER, spec, MeshSpec(3, 5, 5), use_matrix=True), False),
        (lambda: search.best_response_table(DA_BROTHER, spec, MeshSpec(3, 5, 5), 1), False),
        (lambda: bayes.bayes_ne_check(0.1, MeshSpec(3, 5, 5)), False),
        (lambda: search.no_psne_certificate("psi_plus", 20, PRISONER_DILEMMA), True),
    ):
        calls.clear()
        run()
        assert calls and any(calls) == given_best


def test_best_replies_against_a_given_best():
    p = np.array([[-4.0, -4.000000001], [-4.0000000021, -3.0]])
    # a scalar best: both entries of the first row are within TIE_TOL of -4
    assert _kernels.best_replies(p, -4.0).tolist() == [[True, True], [False, True]]
    # a best per column, as pure_ne_pairs passes player 1's column maxima
    colmax = np.array([-4.0, -3.0])
    assert _kernels.best_replies(p, colmax).tolist() == [[True, False], [False, True]]
    assert np.array_equal(_kernels.best_replies(p, colmax), _kernels.best_replies(p.T).T)
    # a stack of best payoffs, as the certificate passes its replies' payoffs:
    # a payoff stays a best reply when within TIE_TOL of the reply's
    now = np.array([[-4.000000001, -4.0000000021], [1.0, 2.0]])
    replied = np.array([[-4.0, -4.0], [0.5, 3.0]])
    assert _kernels.best_replies(now, replied).tolist() == [[True, False], [True, False]]
    stacked = np.stack([replied, now], axis=-1)
    assert np.array_equal(_kernels.best_replies(now, replied), _kernels.best_replies(stacked)[..., 1])


def test_pure_ne_pairs_spans_several_blocks():
    # more strategies than one row block holds, so both passes cross blocks
    angles = mesh_angle_array(MeshSpec(5, 9, 17))
    assert angles.shape[0] > 2 * _kernels.BLOCK_ROWS
    for beta in (0.0, 0.6, 1.2, math.pi / 2):
        j = build_entangler(EntanglerSpec("j1", beta))
        w = _kernels.weights(j, U)
        assert _pairs(_kernels.pure_ne_pairs(angles, w)) == _dense_ne_pairs(angles, j, U)


@given(entanglers, payoff_tables_4, st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_pair_payoffs_are_the_diagonal_of_the_block(j, u, seed):
    rng = np.random.default_rng(seed)
    angles1 = rng.uniform(0, 2 * math.pi, size=(7, 3))
    angles2 = rng.uniform(0, 2 * math.pi, size=(7, 3))
    w = _kernels.weights(j, u)
    block = _kernels.payoff_block(angles1, angles2, w)
    pairs = _kernels.pair_payoffs(angles1, angles2, w)
    assert np.allclose(pairs, np.diag(block), rtol=0, atol=1e-12)


@given(entanglers, outcome_tables, st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_stacked_tables_equal_single_table_calls(j, u, seed):
    # a stack of rows evaluates each row exactly as a call with that row alone
    rng = np.random.default_rng(seed)
    n1, n2 = rng.integers(1, 300, size=2)
    angles1, angles2, angles3 = (rng.uniform(0, 2 * math.pi, size=(n, 3)) for n in (n1, n2, n1))
    w = _kernels.weights(j, u)
    block = _kernels.payoff_block(angles1, angles2, w)
    pairs = _kernels.pair_payoffs(angles1, angles3, w)
    assert block.shape == (2, n1, n2) and pairs.shape == (2, n1)
    for p in range(2):
        w_p = _kernels.weights(j, u[p])
        # callers take one player's W from the stack
        assert np.array_equal(w[p], w_p)
        assert np.array_equal(block[p], _kernels.payoff_block(angles1, angles2, w_p))
        assert np.array_equal(pairs[p], _kernels.pair_payoffs(angles1, angles3, w_p))


def test_each_caller_builds_w_once(monkeypatch):
    # W depends only on (J, table): a search, a certificate and a spec's
    # Bayesian payoffs build it once, not once per kernel call
    built = []
    weights = _kernels.weights

    def counted(j, u):
        built.append(1)
        return weights(j, u)

    monkeypatch.setattr(_kernels, "weights", counted)
    spec = EntanglerSpec("j1", 0.8)
    for use_matrix in (False, True):
        built.clear()
        search.find_pure_ne(DA_BROTHER, spec, MeshSpec(3, 5, 5), use_matrix=use_matrix)
        assert len(built) == 1
    built.clear()
    assert search.no_psne_certificate("psi_plus", 20, PRISONER_DILEMMA)
    assert len(built) == 1
    bayes._type_weights.cache_clear()
    built.clear()
    bspec = bayes.BayesSpec(0.3)
    prof = bayes.candidate_profile(StrategyAngles(0.1, 0.2, 0.3))
    for _ in range(100):
        bayes.bayes_payoffs(bspec, prof)
    assert len(built) <= 2
    # a mixed payoff: one W and one payoff_block for every support pair, no
    # matrix protocol
    blocks, states = [], []
    payoff_block = _kernels.payoff_block

    def counted_block(angles1, angles2, w):
        blocks.append(1)
        return payoff_block(angles1, angles2, w)

    monkeypatch.setattr(_kernels, "payoff_block", counted_block)
    monkeypatch.setattr(games, "final_state", lambda *args: states.append(1))
    built.clear()
    gs = [StrategyAngles(0.1 * k, 0.2 * k, 0.3 * k) for k in range(1, 5)]
    m1 = games.MixedStrategy.uniform(gs[:3])
    m2 = games.MixedStrategy(((gs[3], 0.25), (gs[0], 0.75)))
    games.mixed_payoff(m1, m2, build_entangler(spec), PRISONER_DILEMMA)
    assert (len(built), len(blocks), len(states)) == (1, 1, 0)
