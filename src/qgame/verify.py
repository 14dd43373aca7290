"""Seeded self-verification suite behind the `qgame verify` command.

Each check returns (name, passed, detail); the suite is deterministic for
a fixed seed.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .entanglers import BETA_MAX, EntanglerSpec, build_entangler
from .games import CLOSED_FORMS, DA_BROTHER, closed_form_sq_amplitudes, final_state, payoffs
from .linalg import _require_seed, _unitarity_error, is_unitary
from .mesh import MeshSpec, mesh_angle_array
from .search import analytic_best_response, find_pure_ne
from .strategies import ANGLE_TOPS, TWO_PI, StrategyAngles, su2_from_angles, su3_from_angles


def _random_angles(rng) -> StrategyAngles:
    return StrategyAngles(*(rng.random(3) * ANGLE_TOPS).tolist())


def check_strategy_unitarity(rng):
    worst = 0.0
    for _ in range(200):
        u = su2_from_angles(_random_angles(rng))
        worst = max(worst, _unitarity_error(u))
        worst = max(worst, abs(np.linalg.det(u) - 1.0))
    for _ in range(50):
        v = su3_from_angles(rng.uniform(0, TWO_PI, size=8))
        worst = max(worst, _unitarity_error(v))
    return "strategy_unitarity", worst <= 1e-10, worst


def check_entangler_unitarity(rng):
    worst = 0.0
    for _ in range(100):
        beta = rng.uniform(0, BETA_MAX)
        for family in ("j1", "j2"):
            j = build_entangler(EntanglerSpec(family, beta))
            if not is_unitary(j, 1e-12):
                return "entangler_unitarity", False, float("inf")
            worst = max(worst, _unitarity_error(j))
    return "entangler_unitarity", worst <= 1e-12, worst


def check_norm_conservation(rng):
    worst = 0.0
    for _ in range(200):
        family = "j1" if rng.integers(2) == 0 else "j2"
        j = build_entangler(EntanglerSpec(family, rng.uniform(0, BETA_MAX)))
        amps = final_state(j, _random_angles(rng), _random_angles(rng))
        worst = max(worst, abs(float(np.abs(amps) ** 2 @ np.ones(4)) - 1.0))
    return "norm_conservation", worst <= 1e-12, worst


def check_closed_form_oracle(rng):
    worst = 0.0
    js = {form: build_entangler(spec) for form, spec in CLOSED_FORMS.items()}
    for _ in range(300):
        g1, g2 = _random_angles(rng), _random_angles(rng)
        for form, j in js.items():
            ref = np.abs(final_state(j, g1, g2)) ** 2
            got = np.array(closed_form_sq_amplitudes(form, g1, g2))
            worst = max(worst, float(np.abs(ref - got).max()))
    return "closed_form_oracle", worst <= 1e-10, worst


def _target_amplitude(responder: int, form: str, g_resp: StrategyAngles, g_opp: StrategyAngles) -> float:
    """The squared amplitude of the responder's target outcome: |01> for player 2, |10> for player 1."""
    if responder == 2:
        return closed_form_sq_amplitudes(form, g_opp, g_resp)[1]
    return closed_form_sq_amplitudes(form, g_resp, g_opp)[2]


def check_best_response_targets(rng):
    worst = 1.0
    for _ in range(250):
        g = _random_angles(rng)
        for form in CLOSED_FORMS:
            for responder in (1, 2):
                reply = analytic_best_response(responder, form, g)
                worst = min(worst, _target_amplitude(responder, form, reply, g))
    return "best_response_targets", worst >= 1.0 - 1e-10, worst


def check_search_determinism(rng):
    mesh = MeshSpec(5, 9, 9)
    first = find_pure_ne(DA_BROTHER, EntanglerSpec("j1", 0.8), mesh)
    second = find_pure_ne(DA_BROTHER, EntanglerSpec("j1", 0.8), mesh)
    # the search on the mesh's payoff classes lists the same pairs as the dense tables
    dense = find_pure_ne(DA_BROTHER, EntanglerSpec("j1", 0.8), mesh, use_matrix=True)
    same_pairs = [p[:2] for p in first.pairs] == [p[:2] for p in dense.pairs]
    worst = max(
        (abs(x - y) for a, b in zip(first.pairs, dense.pairs) for x, y in zip(a[2], b[2])),
        default=0.0,
    )
    # cross-check sampled kernel table entries against the operator protocol
    angles = mesh_angle_array(mesh)
    for family in ("j1", "j2"):
        j = build_entangler(EntanglerSpec(family, 0.8))
        w = _kernels.weights(j, DA_BROTHER.outcome_payoffs())
        p1, p2 = _kernels.payoff_block(angles, angles, w)
        for i, k in rng.integers(0, mesh.n_strategies, size=(100, 2)):
            ref = payoffs(
                final_state(j, StrategyAngles(*angles[i]), StrategyAngles(*angles[k])), DA_BROTHER
            )
            worst = max(worst, abs(p1[i, k] - ref.p1), abs(p2[i, k] - ref.p2))
    return "search_determinism", first == second and same_pairs and worst <= 1e-12, worst


ALL_CHECKS = (
    check_strategy_unitarity,
    check_entangler_unitarity,
    check_norm_conservation,
    check_closed_form_oracle,
    check_best_response_targets,
    check_search_determinism,
)


def run_all(seed: int = 0):
    """Run every check with a fresh seeded generator; returns result records."""
    seed = _require_seed(seed)
    results = []
    for check in ALL_CHECKS:
        rng = np.random.default_rng(seed)
        name, passed, worst = check(rng)
        results.append({"check": name, "passed": bool(passed), "worst": float(worst)})
    return results
