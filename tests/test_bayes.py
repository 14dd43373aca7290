import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame.bayes import (
    GAME_TYPE_I,
    GAME_TYPE_II,
    BayesProfile,
    BayesSpec,
    bayes_best_response_2I,
    bayes_best_response_2II,
    bayes_ne_check,
    bayes_payoffs,
    candidate_profile,
    classical_threshold_mu,
    p1_given_best_responses,
)
from qgame._kernels import TIE_TOL
from qgame.entanglers import EntanglerSpec
from qgame.games import GameTable, closed_form_sq_amplitudes
from qgame.mesh import MeshSpec
from qgame.search import analytic_best_response, best_response_table
from qgame.strategies import CLASSICAL_ANGLES, StrategyAngles, classical_gate, su2_from_angles

GRID = MeshSpec(9, 17, 17)
ORIGIN = StrategyAngles(0, 0, 0)
# the verdict switches near 1/6 + 1e-9, where the margin crosses TIE_TOL
VERDICT_MUS = [0.0, 0.1, 0.5, 1.0] + [1 / 6 + k * 1e-10 for k in range(-2, 21)]

angle_triples = st.tuples(
    st.floats(0, 2 * math.pi),
    st.floats(0, 2 * math.pi),
    st.floats(0.01, math.pi - 0.01),
)


class TestTables:
    def test_type_payoffs(self):
        assert GAME_TYPE_I.u1 == GAME_TYPE_II.u1 == ((0, -10), (-1, -5))
        assert GAME_TYPE_I.u2 == ((-2, -1), (-10, -5))
        assert GAME_TYPE_II.u2 == ((-2, -7), (-10, -11))

    def test_spec_validates_mu(self):
        with pytest.raises(ValueError):
            BayesSpec(mu=1.5)
        assert BayesSpec(mu=0.25).mu == 0.25


class TestBestResponses:
    @given(angle_triples)
    @settings(max_examples=100)
    def test_type_I_concentrates_on_01(self, triple):
        g1 = StrategyAngles(*triple)
        reply = bayes_best_response_2I(g1)
        w = closed_form_sq_amplitudes("psi_plus", g1, reply)
        assert abs(w[1] - 1.0) < 1e-12

    @given(angle_triples)
    @settings(max_examples=100)
    def test_type_II_concentrates_on_00(self, triple):
        g1 = StrategyAngles(*triple)
        reply = bayes_best_response_2II(g1)
        w = closed_form_sq_amplitudes("psi_plus", g1, reply)
        assert abs(w[0] - 1.0) < 1e-12

    @given(angle_triples)
    @settings(max_examples=100)
    def test_replies_attain_type_maxima(self, triple):
        # |01> is type I's best column entry, |00> type II's
        g1 = StrategyAngles(*triple)
        prof = BayesProfile(g1, bayes_best_response_2I(g1), bayes_best_response_2II(g1))
        pay = bayes_payoffs(BayesSpec(0.3), prof)
        assert abs(pay.p2I - (-1.0)) < 1e-11
        assert abs(pay.p2II - (-2.0)) < 1e-11

    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi, 4.0, 2 * math.pi])
    def test_type_I_reply_is_psi_plus_reply_at_alpha_2pi(self, phi):
        g1 = StrategyAngles(phi, 2 * math.pi, 1.0)
        assert bayes_best_response_2I(g1) == analytic_best_response(2, "psi_plus", g1)

    def test_replies_to_identity(self):
        # type I flips and type II keeps; each reply carries a phase that
        # does not act at its pole
        flip, keep = bayes_best_response_2I(ORIGIN), bayes_best_response_2II(ORIGIN)
        assert flip.as_tuple() == (3 * math.pi / 2, 0.0, math.pi)
        assert keep.as_tuple() == (0.0, 3 * math.pi / 2, 0.0)
        assert np.abs(su2_from_angles(flip) - classical_gate("Y")).max() <= 1e-15
        assert np.array_equal(su2_from_angles(keep), classical_gate("I"))

    def test_candidate_replies_are_the_classical_gates(self):
        prof = candidate_profile(ORIGIN)
        assert (prof.g2I.as_tuple(), prof.g2II.as_tuple()) == (CLASSICAL_ANGLES["Y"], CLASSICAL_ANGLES["I"])

    def test_mesh_replies_to_identity_are_unique(self):
        # on the mesh, type I's only best reply to the identity is the flip
        # (the last index) and type II's the identity (index 1); to most other
        # strategies each type has several best replies
        j = EntanglerSpec("j1", math.pi / 2)
        mesh = MeshSpec(5, 9, 9)
        flip = best_response_table(GAME_TYPE_I, j, mesh, 2)
        keep = best_response_table(GAME_TYPE_II, j, mesh, 2)
        assert flip[1] == {mesh.n_strategies} and keep[1] == {1}
        assert max(len(s) for s in flip[1:]) > 1 and max(len(s) for s in keep[1:]) > 1


class TestPayoffSurface:
    def test_candidate_profile_matches_closed_form_at_origin(self):
        pay = bayes_payoffs(BayesSpec(0.1), candidate_profile(ORIGIN))
        assert pay.p1 == p1_given_best_responses(0.1, ORIGIN) == -1.0
        assert pay.p2I == -1.0 and pay.p2II == -2.0

    @given(st.floats(0, 1), angle_triples, angle_triples, angle_triples)
    @settings(max_examples=100)
    def test_closed_form_matches_payoff_path(self, mu, triple, triple_i, triple_ii):
        # the kernel's payoffs against the psi_plus closed form weighted by the type tables
        spec = BayesSpec(mu)

        def expected(prof):
            w_i = np.array(closed_form_sq_amplitudes("psi_plus", prof.g1, prof.g2I))
            w_ii = np.array(closed_form_sq_amplitudes("psi_plus", prof.g1, prof.g2II))
            u_i, u_ii = spec.game_2I.outcome_payoffs(), spec.game_2II.outcome_payoffs()
            return (mu * (w_i @ u_i[0]) + (1.0 - mu) * (w_ii @ u_ii[0]), w_i @ u_i[1], w_ii @ u_ii[1])

        g1 = StrategyAngles(*triple)
        prof = BayesProfile(g1, StrategyAngles(*triple_i), StrategyAngles(*triple_ii))
        for got, want in zip(bayes_payoffs(spec, prof), expected(prof)):
            assert abs(got - want) < 1e-11
        assert abs(p1_given_best_responses(mu, g1) - expected(candidate_profile(g1))[0]) < 1e-11

    def test_origin_value_is_linear_in_mu(self):
        for mu in (0.0, 0.2, 0.7, 1.0):
            assert abs(p1_given_best_responses(mu, ORIGIN) - (-10.0 * mu)) < 1e-12

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            p1_given_best_responses(-0.1, ORIGIN)


class TestNeCheck:
    def test_small_mu_keeps_equilibrium(self):
        v = bayes_ne_check(0.1, GRID)
        assert v.verdict == "ne_at_origin"
        assert v.origin_p1 == -1.0
        assert v.margin <= 1e-9
        assert v.argmax == ORIGIN

    @pytest.mark.parametrize("grid", [MeshSpec(5, 9, 11), GRID])
    def test_tied_maximum_reports_identity(self, grid):
        # the flip (0, 0, pi) is the strict maximum by 6e-10, inside TIE_TOL:
        # the identity is a best reply and the lowest one
        v = bayes_ne_check(1 / 6 + 1e-10, grid)
        assert v.verdict == "ne_at_origin"
        assert v.argmax == ORIGIN

    def test_equilibrium_verdict_reports_identity(self):
        for mu in VERDICT_MUS:
            v = bayes_ne_check(mu, MeshSpec(5, 9, 11))
            assert v.verdict == "no_ne" or v.argmax == ORIGIN

    def test_argmax_is_a_best_reply(self):
        for mu in VERDICT_MUS:
            v = bayes_ne_check(mu, MeshSpec(5, 9, 11))
            # 1e-12 of slack: the two evaluations may round differently
            assert abs(p1_given_best_responses(mu, v.argmax) - v.max_p1) <= TIE_TOL + 1e-12

    def test_large_mu_destroys_equilibrium(self):
        v = bayes_ne_check(0.5, GRID)
        assert v.verdict == "no_ne"
        assert v.margin > 1e-9
        assert v.max_p1 > v.origin_p1

    def test_verdict_flips_with_mu(self):
        mus = np.linspace(0.0, 1.0, 21)
        verdicts = [bayes_ne_check(float(m), GRID).verdict for m in mus]
        # a single switch from holding to failing as mu grows
        assert verdicts[0] == "ne_at_origin" and verdicts[-1] == "no_ne"
        switch = verdicts.index("no_ne")
        assert all(v == "ne_at_origin" for v in verdicts[:switch])
        assert all(v == "no_ne" for v in verdicts[switch:])

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            bayes_ne_check(1.5, GRID)

    def test_custom_tables_change_the_verdict(self):
        # player 1 gains 5 whatever happens: the identity is a best reply
        const = GameTable(name="const", u1=((5, 5), (5, 5)), u2=GAME_TYPE_I.u2)
        const_ii = GameTable(name="const_II", u1=((5, 5), (5, 5)), u2=GAME_TYPE_II.u2)
        assert bayes_ne_check(0.3, GRID).verdict == "no_ne"
        v = bayes_ne_check(0.3, GRID, BayesSpec(0.3, const, const_ii))
        assert v.verdict == "ne_at_origin"
        assert abs(v.origin_p1 - 5.0) < 1e-12 and v.margin <= 1e-9

    def test_builtin_spec_matches_default(self):
        assert bayes_ne_check(0.4, GRID, BayesSpec(0.4)) == bayes_ne_check(0.4, GRID)

    def test_spec_mu_must_match(self):
        with pytest.raises(ValueError):
            bayes_ne_check(0.3, GRID, BayesSpec(0.4))

    def test_rejects_type_not_best_responding_at_candidate(self):
        # type II given type I's table prefers to flip, not to stay
        spec = BayesSpec(0.3, GAME_TYPE_I, GameTable("flipper", GAME_TYPE_II.u1, GAME_TYPE_I.u2))
        with pytest.raises(ValueError, match="not a best response"):
            bayes_ne_check(0.3, GRID, spec)


def test_classical_threshold():
    mu = classical_threshold_mu()
    assert mu == 1.0 / 6.0
    # indifference of the two classical payoff lines at the threshold
    assert abs(-10 * mu - (-5 * mu - (1 - mu))) < 1e-15
