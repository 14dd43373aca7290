import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame.entanglers import EntanglerSpec, build_entangler
from qgame.games import (
    BUILTIN_GAMES,
    CLOSED_FORMS,
    DA_BROTHER,
    PRISONER_DILEMMA,
    GameFormatError,
    GameTable,
    MixedStrategy,
    closed_form_amplitudes_partial,
    closed_form_sq_amplitudes,
    final_state,
    load_game,
    mixed_payoff,
    payoffs,
    resolve_game,
    save_game,
)
from qgame.strategies import StrategyAngles

J1_MAX = build_entangler(EntanglerSpec("j1", math.pi / 2))
J2_MAX = build_entangler(EntanglerSpec("j2", math.pi / 2))
ORIGIN = StrategyAngles(0, 0, 0)
FLIP = StrategyAngles(0, 0, math.pi)

angle_triples = st.tuples(
    st.floats(0, 2 * math.pi),
    st.floats(0, 2 * math.pi),
    st.floats(0, math.pi),
)


def _random_unitary(seed):
    """QR of a seeded complex Gaussian 4x4 matrix, with the phases of R's diagonal fixed."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _dyadic_mixture(gs, cuts):
    """gs weighted by the gaps between 0, the sorted cuts and 16, over 16: dyadic, summing to exactly 1."""
    bounds = [0, *sorted(cuts), 16]
    return MixedStrategy(
        tuple((StrategyAngles(*g), (b - a) / 16) for g, a, b in zip(gs, bounds, bounds[1:]))
    )


# supports of 1 to 4 strategies with distinct cuts, so every weight is positive
mixed_strategies = st.integers(1, 4).flatmap(
    lambda n: st.builds(
        _dyadic_mixture,
        st.lists(angle_triples, min_size=n, max_size=n),
        st.lists(st.integers(1, 15), min_size=n - 1, max_size=n - 1, unique=True),
    )
)
integer_grids = st.tuples(*[st.tuples(st.integers(-10, 10), st.integers(-10, 10))] * 2)
integer_tables = st.builds(GameTable, st.just("random_integer"), integer_grids, integer_grids)


class TestGameTable:
    def test_builtin_values(self):
        assert PRISONER_DILEMMA.u1 == ((-4, -6), (-2, -5))
        assert PRISONER_DILEMMA.u2 == ((-4, -2), (-6, -5))
        assert DA_BROTHER.u1 == ((0, -10), (-1, -5))
        assert DA_BROTHER.u2 == ((-2, -1), (-10, -5))
        assert set(BUILTIN_GAMES) == {"prisoner_dilemma", "da_brother"}

    def test_symmetry_of_prisoner_dilemma(self):
        u1, u2 = PRISONER_DILEMMA.outcome_payoffs().reshape(2, 2, 2)
        assert np.array_equal(u2, u1.T)

    def test_outcome_payoffs_rows(self):
        # row p-1: player p's payoffs for |00>, |01>, |10>, |11>
        assert DA_BROTHER.outcome_payoffs().tolist() == [[0, -10, -1, -5], [-2, -1, -10, -5]]

    @pytest.mark.parametrize(
        "u1",
        [
            ((1, 2), (3,)),
            ((1, 2),),
            (("a", 2), (3, 4)),
            ((math.inf, 2), (3, 4)),
            (("1", 2), (3, 4)),
            ((True, 2), (3, 4)),
            ("04", "25"),
            ((1j, 2), (3, 4)),
        ],
    )
    def test_rejects_malformed_grid(self, u1):
        with pytest.raises(GameFormatError):
            GameTable(name="bad", u1=u1, u2=((0, 0), (0, 0)))

    def test_accepts_numpy_numbers(self):
        game = GameTable(name="np", u1=np.array([[0, -10], [-1, -5]]), u2=((np.float64(-2.5), -1), (-10, -5)))
        assert game.u1 == ((0.0, -10.0), (-1.0, -5.0)) and game.u2[0] == (-2.5, -1.0)


class TestFinalState:
    def test_identity_protocol_origin(self):
        amps = final_state(np.eye(4), ORIGIN, ORIGIN)
        assert np.array_equal(amps, [1, 0, 0, 0])

    def test_classical_outcomes_pass_through_j1(self):
        # classical gate pairs give pure classical outcomes at full entanglement
        gates = {0: ORIGIN, 1: FLIP}
        for r in (0, 1):
            for c in (0, 1):
                w = np.abs(final_state(J1_MAX, gates[r], gates[c])) ** 2
                want = np.zeros(4)
                want[2 * r + c] = 1.0
                assert np.abs(w - want).max() < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            final_state(np.ones((4, 4)), ORIGIN, ORIGIN)

    def test_rejects_wrong_shape(self):
        # a unitary 3x3 is no two-qubit entangler
        with pytest.raises(ValueError, match="entangler must be a unitary 4x4 matrix"):
            final_state(np.eye(3), ORIGIN, ORIGIN)

    @given(angle_triples, angle_triples, st.floats(0, math.pi / 2))
    @settings(max_examples=80)
    def test_norm_conserved(self, t1, t2, beta):
        j = build_entangler(EntanglerSpec("j1", beta))
        amps = final_state(j, StrategyAngles(*t1), StrategyAngles(*t2))
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-12


class TestPayoffs:
    def test_pure_outcome(self):
        pay = payoffs(np.array([0, 1, 0, 0]), PRISONER_DILEMMA)
        assert pay == (-6.0, -2.0)

    def test_uniform_mix(self):
        pay = payoffs(np.full(4, 0.5), PRISONER_DILEMMA)
        assert abs(pay.p1 - (-4.25)) < 1e-12
        assert abs(pay.p2 - (-4.25)) < 1e-12


class TestClosedForms:
    @given(angle_triples, angle_triples, st.sampled_from(["psi_plus", "triplet"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_matrix_protocol(self, t1, t2, form):
        g1, g2 = StrategyAngles(*t1), StrategyAngles(*t2)
        j = J1_MAX if form == "psi_plus" else J2_MAX
        ref = np.abs(final_state(j, g1, g2)) ** 2
        got = np.array(closed_form_sq_amplitudes(form, g1, g2))
        assert np.abs(ref - got).max() < 1e-12

    @given(angle_triples, angle_triples, st.floats(0, math.pi / 2))
    @settings(max_examples=150, deadline=None)
    def test_partial_matches_matrix_protocol(self, t1, t2, beta):
        g1, g2 = StrategyAngles(*t1), StrategyAngles(*t2)
        j = build_entangler(EntanglerSpec("j1", beta))
        ref = np.abs(final_state(j, g1, g2)) ** 2
        got = np.abs(closed_form_amplitudes_partial(beta, g1, g2)) ** 2
        assert np.abs(ref - got).max() < 1e-12

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            closed_form_sq_amplitudes("bell", ORIGIN, ORIGIN)

    def test_each_form_names_its_spec(self):
        assert CLOSED_FORMS == {
            "psi_plus": EntanglerSpec("j1", math.pi / 2),
            "triplet": EntanglerSpec("j2", math.pi / 2),
        }

    def test_partial_beta_range(self):
        with pytest.raises(ValueError):
            closed_form_amplitudes_partial(2.0, ORIGIN, ORIGIN)


class TestMixedStrategy:
    def test_point(self):
        m = MixedStrategy.point(ORIGIN)
        assert m.support == ((ORIGIN, 1.0),)

    def test_uniform(self):
        m = MixedStrategy.uniform([ORIGIN, FLIP])
        assert all(p == 0.5 for _, p in m.support)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            MixedStrategy(((ORIGIN, 0.4), (FLIP, 0.4)))
        with pytest.raises(ValueError):
            MixedStrategy(((ORIGIN, -0.5), (FLIP, 1.5)))
        with pytest.raises(ValueError):
            MixedStrategy(())

    def test_rejects_nan_probability(self):
        with pytest.raises(ValueError):
            MixedStrategy(((ORIGIN, math.nan), (FLIP, 1.0)))
        with pytest.raises(ValueError):
            MixedStrategy(((ORIGIN, math.nan),))

    def test_uniform_needs_a_strategy(self):
        with pytest.raises(ValueError, match="non-empty support"):
            MixedStrategy.uniform([])

    def test_mixed_payoff_averages(self):
        m1 = MixedStrategy.uniform([ORIGIN, FLIP])
        m2 = MixedStrategy.point(ORIGIN)
        pay = mixed_payoff(m1, m2, np.eye(4), PRISONER_DILEMMA)
        # average of outcomes (0,0) and (1,0)
        assert abs(pay.p1 - (-3.0)) < 1e-12
        assert abs(pay.p2 - (-5.0)) < 1e-12

    @given(
        seed=st.integers(0, 2**32 - 1),
        m1=mixed_strategies,
        m2=mixed_strategies,
        game=st.one_of(st.sampled_from(list(BUILTIN_GAMES.values())), integer_tables),
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_payoff_matches_the_protocol(self, seed, m1, m2, game):
        # the kernel's expected payoff against the probability-weighted sum of
        # the matrix protocol's payoffs over every support pair
        j = _random_unitary(seed)
        pay = mixed_payoff(m1, m2, j, game)
        ref1 = ref2 = 0.0
        for g1, p1 in m1.support:
            for g2, p2 in m2.support:
                one = payoffs(final_state(j, g1, g2), game)
                ref1 += p1 * p2 * one.p1
                ref2 += p1 * p2 * one.p2
        assert type(pay.p1) is float and type(pay.p2) is float
        assert abs(pay.p1 - ref1) < 1e-12
        assert abs(pay.p2 - ref2) < 1e-12

    @pytest.mark.parametrize("j", [2 * np.eye(4), np.ones((4, 4)), np.eye(3), np.eye(8), np.eye(4)[:, :3]])
    def test_mixed_payoff_refuses_a_bad_entangler(self, j):
        m = MixedStrategy.uniform([ORIGIN, FLIP])
        with pytest.raises(ValueError, match="unitary 4x4"):
            mixed_payoff(m, m, j, PRISONER_DILEMMA)


class TestGameIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "g.json"
        save_game(DA_BROTHER, path)
        assert load_game(path) == DA_BROTHER

    def test_resolve_builtin_and_path(self, tmp_path):
        assert resolve_game("prisoner_dilemma") is PRISONER_DILEMMA
        path = tmp_path / "g.json"
        save_game(PRISONER_DILEMMA, path)
        assert resolve_game(str(path)) == PRISONER_DILEMMA

    def test_missing_field(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"name": "x", "u1": [[0,0],[0,0]]}')
        with pytest.raises(GameFormatError, match="u2"):
            load_game(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("not json")
        with pytest.raises(GameFormatError):
            load_game(path)

    def test_non_numeric_entry(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"name": "x", "u1": [[0,"a"],[0,0]], "u2": [[0,0],[0,0]]}')
        with pytest.raises(GameFormatError, match="u1"):
            load_game(path)

    @pytest.mark.parametrize("entry", ['"4"', "true", '"1e1"', "null"])
    def test_non_number_entry_is_refused(self, tmp_path, entry):
        path = tmp_path / "g.json"
        path.write_text(f'{{"name": "x", "u1": [[0,{entry}],[0,0]], "u2": [[0,0],[0,0]]}}')
        with pytest.raises(GameFormatError, match="u1"):
            load_game(path)

    def test_string_rows_are_refused(self, tmp_path):
        # "04" is a sequence of two characters, not the row (0, 4)
        path = tmp_path / "g.json"
        path.write_text('{"name": "x", "u1": ["04", "25"], "u2": [[0,0],[0,0]]}')
        with pytest.raises(GameFormatError, match="not a number"):
            load_game(path)

    def test_extra_field_is_refused(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"name": "x", "u1": [[0,0],[0,0]], "u2": [[0,0],[0,0]], "u3": 1}')
        with pytest.raises(GameFormatError, match=r"unknown fields \['u3'\]"):
            load_game(path)

    def test_non_object_is_refused(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("[1, 2]")
        with pytest.raises(GameFormatError, match="must be an object"):
            load_game(path)
