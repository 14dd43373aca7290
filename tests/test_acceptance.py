"""End-to-end acceptance gate.

Each test pins one release criterion with its tolerance. Run times are
measured after one warm-up search per session.
"""

import math
import time

import numpy as np
import pytest

from qgame.bayes import (
    BayesSpec,
    bayes_ne_check,
    bayes_payoffs,
    candidate_profile,
    classical_threshold_mu,
)
from qgame.entanglers import EntanglerSpec, build_entangler
from qgame.games import (
    DA_BROTHER,
    PRISONER_DILEMMA,
    MixedStrategy,
    closed_form_sq_amplitudes,
    final_state,
    mixed_payoff,
)
from qgame.mesh import MeshSpec
from qgame.qutrits import (
    build_Z,
    commutant_is_scalar,
    entangled_initial_state,
    max_entangling_beta,
    perm_matrix,
)
from qgame.search import analytic_best_response, find_pure_ne, mixed_cycle, sweep_beta, threshold_beta
from qgame.strategies import TWO_PI, StrategyAngles
from qgame.verify import run_all

MESH = MeshSpec(9, 17, 17)
FINE_MESH = MeshSpec(9, 33, 33)


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # one small search first so timed criteria measure the search, not
    # first-call costs such as lazy imports and cache warm-up
    find_pure_ne(DA_BROTHER, EntanglerSpec("j1", 0.5), MeshSpec(3, 2, 2))


def test_criterion_01_mesh_size():
    assert MESH.n_strategies == 2025
    assert FINE_MESH.n_strategies == 7625


def test_criterion_02_classical_limit_recovers_classical_ne():
    start = time.monotonic()
    result = find_pure_ne(DA_BROTHER, EntanglerSpec("j1", 0.0), MESH)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    assert result.found
    pairs = {p[:2]: p[2] for p in result.pairs}
    assert (2025, 2025) in pairs
    pay = pairs[(2025, 2025)]
    assert abs(pay.p1 - (-5.0)) <= 1e-12
    assert abs(pay.p2 - (-5.0)) <= 1e-12


def test_criterion_03_intermediate_entanglement_equilibrium():
    result = find_pure_ne(DA_BROTHER, EntanglerSpec("j1", 1.0), MESH)
    assert result.found
    i1, i2, pay = result.first_pair
    assert (i1, i2) == (1760, 1868)
    assert abs(pay.p1 - (-1.45)) <= 0.05
    assert abs(pay.p2 - (-2.83)) <= 0.05


def test_criterion_04_maximal_entanglement_has_no_pure_ne():
    start = time.monotonic()
    for game in (DA_BROTHER, PRISONER_DILEMMA):
        for mesh in (MESH, FINE_MESH):
            result = find_pure_ne(game, EntanglerSpec("j1", math.pi / 2), mesh)
            assert not result.found, (game.name, mesh)
    assert time.monotonic() - start < 120.0


def test_criterion_05_beta_sweep_threshold_and_monotonicity():
    betas = np.linspace(0.0, math.pi / 2, 32)
    results = sweep_beta(DA_BROTHER, "j1", MESH, betas)
    bc = threshold_beta(results)
    assert bc is not None and 1.05 <= bc <= 1.20
    found = [r for r in results if r.found]
    # equilibria exist exactly on an initial beta segment
    assert [r.found for r in results] == [True] * len(found) + [False] * (
        len(results) - len(found)
    )
    p1s = [r.first_pair[2].p1 for r in found]
    p2s = [r.first_pair[2].p2 for r in found]
    assert all(b >= a - 1e-9 for a, b in zip(p1s, p1s[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(p2s, p2s[1:]))


def test_criterion_06_closed_forms_match_matrix_protocol():
    rng = np.random.default_rng(2024)
    j1 = build_entangler(EntanglerSpec("j1", math.pi / 2))
    j2 = build_entangler(EntanglerSpec("j2", math.pi / 2))
    worst = 0.0
    for _ in range(1000):
        g1 = StrategyAngles(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI), rng.uniform(0, math.pi))
        g2 = StrategyAngles(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI), rng.uniform(0, math.pi))
        for form, j in (("psi_plus", j1), ("triplet", j2)):
            ref = np.abs(final_state(j, g1, g2)) ** 2
            got = np.array(closed_form_sq_amplitudes(form, g1, g2))
            worst = max(worst, float(np.abs(ref - got).max()))
    assert worst <= 1e-10


def test_criterion_07_mixed_cycle_payoffs_and_closure():
    j = build_entangler(EntanglerSpec("j1", math.pi / 2))
    rng = np.random.default_rng(7)
    for _ in range(100):
        g1 = StrategyAngles(
            rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI), rng.uniform(0.05, math.pi - 0.05)
        )
        g2, g1p, g2p = mixed_cycle(g1)
        back = analytic_best_response(1, "psi_plus", g2p)
        assert np.abs(np.array(back.as_tuple()) - np.array(g1.as_tuple())).max() <= 1e-9
        pay = mixed_payoff(
            MixedStrategy.uniform([g1, g1p]),
            MixedStrategy.uniform([g2, g2p]),
            j,
            PRISONER_DILEMMA,
        )
        assert abs(pay.p1 - (-4.0)) <= 1e-12
        assert abs(pay.p2 - (-4.0)) <= 1e-12


def test_criterion_08_bayesian_verdicts():
    low = bayes_ne_check(0.1, MESH)
    assert low.verdict == "ne_at_origin"
    assert low.origin_p1 == -10.0 * 0.1
    pay = bayes_payoffs(BayesSpec(0.1), candidate_profile(StrategyAngles(0, 0, 0)))
    assert abs(pay.p2I - (-1.0)) <= 1e-12
    assert abs(pay.p2II - (-2.0)) <= 1e-12
    high = bayes_ne_check(0.5, MESH)
    assert high.verdict == "no_ne"
    assert classical_threshold_mu() == 1.0 / 6.0


def test_criterion_09_qutrit_entangler():
    beta = max_entangling_beta()
    assert abs(beta - 2.0 * math.pi / 9.0) <= 1e-12
    amps = entangled_initial_state(beta)
    assert np.abs(np.abs(amps[[0, 4, 8]]) - 1.0 / math.sqrt(3.0)).max() <= 1e-12
    z = build_Z()
    assert np.array_equal(z @ z, z + 2.0 * np.eye(9))


def test_criterion_10_transposition_commutant_is_scalar():
    scalar_only, dimension = commutant_is_scalar(
        [perm_matrix("S12"), perm_matrix("S13")], 3
    )
    assert dimension == 1
    assert scalar_only


def test_criterion_11_verification_suite_is_deterministic_and_passes():
    first = run_all(seed=0)
    second = run_all(seed=0)
    assert first == second
    assert all(r["passed"] for r in first)
