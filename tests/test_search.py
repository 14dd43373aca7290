import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgame import _kernels
from qgame._kernels import TIE_TOL
from qgame.bayes import bayes_best_response_2II
from qgame.entanglers import EntanglerSpec, build_entangler
from qgame.games import (
    CLOSED_FORMS,
    DA_BROTHER,
    PRISONER_DILEMMA,
    GameTable,
    closed_form_sq_amplitudes,
)
from qgame.mesh import MeshSpec, angles_to_index, index_to_angles, mesh_angle_array
from qgame.search import (
    _SNAP,
    NeResult,
    analytic_best_response,
    best_response_table,
    find_pure_ne,
    mixed_cycle,
    no_psne_certificate,
    sweep_beta,
    threshold_beta,
)
from qgame.strategies import StrategyAngles

SMALL = MeshSpec(5, 9, 9)
# |01> is both players' favorite outcome
COORDINATION = GameTable(name="coord", u1=((0, 5), (0, 0)), u2=((0, 5), (0, 0)))

angle_triples = st.tuples(
    st.floats(0, 2 * math.pi),
    st.floats(0, 2 * math.pi),
    st.floats(0, math.pi),
)


class TestFindPureNe:
    def test_unentangled_recovers_classical_ne(self):
        result = find_pure_ne(DA_BROTHER, EntanglerSpec("j1", 0.0), SMALL)
        assert result.found
        n = SMALL.n_strategies
        # the unique classical equilibrium is mutual confession (both flips)
        assert result.pairs[-1][:2] == (n, n)
        pay = result.pairs[-1][2]
        assert abs(pay.p1 - (-5.0)) < 1e-12 and abs(pay.p2 - (-5.0)) < 1e-12

    def test_max_entanglement_removes_ne(self):
        result = find_pure_ne(DA_BROTHER, EntanglerSpec("j1", math.pi / 2), SMALL)
        assert not result.found and result.pairs == ()

    def test_matrix_path_agrees_with_closed_form(self):
        spec = EntanglerSpec("j1", 0.8)
        a = find_pure_ne(DA_BROTHER, spec, SMALL)
        b = find_pure_ne(DA_BROTHER, spec, SMALL, use_matrix=True)
        assert [p[:2] for p in a.pairs] == [p[:2] for p in b.pairs]
        for pa, pb in zip(a.pairs, b.pairs):
            assert abs(pa[2].p1 - pb[2].p1) < 1e-10
            assert abs(pa[2].p2 - pb[2].p2) < 1e-10

    def test_pairs_are_mutual_best_responses(self):
        spec = EntanglerSpec("j1", 0.8)
        result = find_pure_ne(DA_BROTHER, spec, SMALL)
        br2 = best_response_table(DA_BROTHER, spec, SMALL, responder=2)
        br1 = best_response_table(DA_BROTHER, spec, SMALL, responder=1)
        assert result.found
        for i1, i2, _ in result.pairs:
            assert i2 in br2[i1]
            assert i1 in br1[i2]

    def test_pairs_sorted_lexicographically(self):
        result = find_pure_ne(DA_BROTHER, EntanglerSpec("j1", 0.8), SMALL)
        keys = [p[:2] for p in result.pairs]
        assert keys == sorted(keys)


small_meshes = st.builds(
    MeshSpec, n_theta=st.integers(3, 6), n_phi=st.integers(1, 9), n_alpha=st.integers(1, 9)
)
entangler_specs = st.one_of(
    st.floats(0, math.pi / 2).map(lambda b: EntanglerSpec("j1", b)),
    st.floats(0, math.pi / 2).map(lambda b: EntanglerSpec("j2", b)),
    st.just(EntanglerSpec("identity")),
)
# integer tables, so that no payoff sits within rounding of the tie tolerance
integer_games = st.tuples(
    st.lists(st.integers(-10, 10), min_size=4, max_size=4),
    st.lists(st.integers(-10, 10), min_size=4, max_size=4),
).map(lambda t: GameTable(name="drawn", u1=(t[0][:2], t[0][2:]), u2=(t[1][:2], t[1][2:])))


def _dense_best_responses(game, spec_or_j, mesh, responder):
    """best_response_table by argmax over the full tables of the whole mesh."""
    j = build_entangler(spec_or_j) if isinstance(spec_or_j, EntanglerSpec) else spec_or_j
    angles = mesh_angle_array(mesh)
    p1, p2 = _kernels.payoff_block(angles, angles, _kernels.weights(j, game.outcome_payoffs()))
    # rows: the opponent's strategy; columns: the responder's
    pay = p2 if responder == 2 else p1.T
    return [set()] + [{int(k) + 1 for k in np.flatnonzero(row >= row.max() - TIE_TOL)} for row in pay]


class TestSearchOnPayoffClasses:
    """The default search runs on one strategy per payoff class and lists every mesh index."""

    @given(integer_games, entangler_specs, small_meshes)
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_search(self, game, spec, mesh):
        got = find_pure_ne(game, spec, mesh)
        ref = find_pure_ne(game, spec, mesh, use_matrix=True)
        assert [p[:2] for p in got.pairs] == [p[:2] for p in ref.pairs]
        for a, b in zip(got.pairs, ref.pairs):
            assert abs(a[2].p1 - b[2].p1) <= 1e-12 and abs(a[2].p2 - b[2].p2) <= 1e-12

    @given(integer_games, entangler_specs, small_meshes, st.sampled_from([1, 2]))
    @settings(max_examples=80, deadline=None)
    def test_best_response_table_matches_dense_argmax(self, game, spec, mesh, responder):
        assert best_response_table(game, spec, mesh, responder) == _dense_best_responses(
            game, spec, mesh, responder
        )

    @pytest.mark.parametrize("game", [DA_BROTHER, COORDINATION])
    def test_many_blocks_of_classes(self, game):
        # 506 classes: both kernel passes and the reply table cross four
        # BLOCK_ROWS blocks; the coordination game's equilibria span all four
        mesh = MeshSpec(9, 13, 13)
        spec = EntanglerSpec("j2", 0.8)
        got = find_pure_ne(game, spec, mesh)
        ref = find_pure_ne(game, spec, mesh, use_matrix=True)
        assert [p[:2] for p in got.pairs] == [p[:2] for p in ref.pairs]
        for a, b in zip(got.pairs, ref.pairs):
            assert abs(a[2].p1 - b[2].p1) <= 1e-12 and abs(a[2].p2 - b[2].p2) <= 1e-12
        for responder in (1, 2):
            assert best_response_table(game, spec, mesh, responder) == _dense_best_responses(
                game, spec, mesh, responder
            )

    @pytest.mark.parametrize("responder", [1, 2])
    def test_explicit_unitary_over_many_blocks(self, responder):
        # a random unitary J on the 506 classes of (9, 13, 13): four BLOCK_ROWS blocks
        rng = np.random.default_rng(11)
        j, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        mesh = MeshSpec(9, 13, 13)
        assert best_response_table(DA_BROTHER, j, mesh, responder) == _dense_best_responses(
            DA_BROTHER, j, mesh, responder
        )

    def test_flat_game_lists_every_pair(self):
        # every pair of a game with equal payoffs is an equilibrium
        flat = GameTable(name="flat", u1=((1, 1), (1, 1)), u2=((1, 1), (1, 1)))
        n = SMALL.n_strategies
        result = find_pure_ne(flat, EntanglerSpec("j1", 0.8), SMALL)
        every_pair = [(i, k) for i in range(1, n + 1) for k in range(1, n + 1)]
        assert [p[:2] for p in result.pairs] == every_pair
        assert all(abs(p[2].p1 - 1) <= 1e-12 and abs(p[2].p2 - 1) <= 1e-12 for p in result.pairs)

    def test_repeated_searches_share_index_ints(self):
        # results kept from many searches on one mesh hold one int per index
        mesh = MeshSpec(9, 13, 13)
        a = find_pure_ne(DA_BROTHER, EntanglerSpec("j1", 0.9), mesh)
        b = find_pure_ne(DA_BROTHER, EntanglerSpec("j1", 0.9), mesh)
        assert a == b and len(a.pairs) > 0 and a.pairs[-1][0] > 256
        assert all(p[0] is q[0] and p[1] is q[1] for p, q in zip(a.pairs, b.pairs))
        t1 = best_response_table(DA_BROTHER, EntanglerSpec("j1", 0.9), mesh, 2)
        t2 = best_response_table(DA_BROTHER, EntanglerSpec("j1", 1.1), mesh, 2)
        # ints above 256 are not cached by Python itself
        big1 = {id(i) for s in t1 for i in s if i > 256}
        big2 = {id(i) for s in t2 for i in s if i > 256}
        assert big1 and big1 & big2

    def test_entries_are_distinct_sets(self):
        # members of one payoff class get equal replies, each in its own set
        table = best_response_table(DA_BROTHER, EntanglerSpec("j1", 0.8), SMALL, 2)
        assert len({id(s) for s in table}) == len(table)


class TestBestResponseTable:
    def test_shape_and_range(self):
        table = best_response_table(DA_BROTHER, EntanglerSpec("j1", 0.0), SMALL, 2)
        n = SMALL.n_strategies
        assert len(table) == n + 1 and table[0] == set()
        assert all(rs and min(rs) >= 1 and max(rs) <= n for rs in table[1:])

    def test_classical_dominant_strategy(self):
        # unentangled: type-standard brother always prefers to confess (flip)
        table = best_response_table(DA_BROTHER, EntanglerSpec("j1", 0.0), SMALL, 2)
        n = SMALL.n_strategies
        assert n in table[1] and n in table[n]

    def test_explicit_matrix_accepted(self):
        table = best_response_table(DA_BROTHER, np.eye(4), SMALL, 1)
        ref = best_response_table(DA_BROTHER, EntanglerSpec("identity"), SMALL, 1)
        assert table == ref

    def test_bad_responder(self):
        with pytest.raises(ValueError):
            best_response_table(DA_BROTHER, EntanglerSpec("j1", 0.0), SMALL, 3)

    @pytest.mark.parametrize("j", [np.zeros((4, 4)), 2 * np.eye(4), np.eye(3)], ids=["zero", "scaled", "3x3"])
    def test_explicit_matrix_must_be_unitary_4x4(self, j):
        with pytest.raises(ValueError, match="entangler must be a unitary 4x4 matrix"):
            best_response_table(DA_BROTHER, j, MeshSpec(3, 3, 3), 2)


class TestSweep:
    def test_monotone_disappearance(self):
        betas = np.linspace(0.0, math.pi / 2, 8)
        results = sweep_beta(DA_BROTHER, "j1", SMALL, betas)
        flags = [r.found for r in results]
        # once the equilibrium disappears it stays gone
        assert flags == sorted(flags, reverse=True)
        assert flags[0] and not flags[-1]

    def test_threshold_value(self):
        betas = np.linspace(0.0, math.pi / 2, 8)
        results = sweep_beta(DA_BROTHER, "j1", SMALL, betas)
        bc = threshold_beta(results)
        assert bc is not None and 0.0 < bc < math.pi / 2

    def test_threshold_is_the_largest_found_beta_in_any_order(self):
        results = [NeResult(1.0, True, ()), NeResult(0.5, True, ()), NeResult(1.2, False, ())]
        assert threshold_beta(results) == 1.0
        assert threshold_beta(results[::-1]) == 1.0

    def test_threshold_none_when_never_found(self):
        results = sweep_beta(DA_BROTHER, "j1", SMALL, [math.pi / 2])
        assert threshold_beta(results) is None

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            sweep_beta(DA_BROTHER, "j1", SMALL, [0.5, 0.1])

    def test_out_of_range_beta_is_refused_before_any_search(self, monkeypatch):
        searched = []
        monkeypatch.setattr("qgame.search.find_pure_ne", lambda *args: searched.append(args))
        with pytest.raises(ValueError, match=r"beta out of range \[0, pi/2\]: 1.575"):
            sweep_beta(DA_BROTHER, "j1", SMALL, np.linspace(1.5, 1.6, 5))
        assert searched == []


# the floats next to 0, pi/2, pi, 3*pi/2 and 2*pi inside [0, 2*pi]
NEXT_TO_QUARTERS = [
    v
    for k in range(5)
    for v in (math.nextafter(k * math.pi / 2, -1.0), math.nextafter(k * math.pi / 2, 7.0))
    if 0.0 <= v <= 2 * math.pi
]
phases_and_quarters = st.one_of(
    st.floats(0, 2 * math.pi),
    st.sampled_from([k * math.pi / 2 for k in range(5)] + NEXT_TO_QUARTERS),
)


def _circular_distance(a, b):
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def _cycle_closes(g1):
    """Player 1's reply to the end of mixed_cycle(g1) is g1, with 0 == 2*pi in phi and alpha.

    The payoffs cannot tell a phase 0 from 2*pi (tests/test_kernels.py), and
    the closed range [0, 2*pi] holds one phase value more than the circle:
    the quarter turns of the cycle send the four corners (0 or 2*pi, 0 or
    2*pi) to two strategies only, so no reply rule can return all four.
    """
    back = analytic_best_response(1, "psi_plus", mixed_cycle(g1)[2])
    return (
        _circular_distance(back.phi, g1.phi) <= 1e-9
        and _circular_distance(back.alpha, g1.alpha) <= 1e-9
        and abs(back.theta - g1.theta) <= 1e-9
    )


class TestAnalyticBestResponse:
    @given(angle_triples, st.sampled_from(["psi_plus", "triplet"]), st.sampled_from([1, 2]))
    @example((1.0, 2.0, 0.0), "psi_plus", 2)
    @example((1.0, 2.0, math.pi), "psi_plus", 1)
    @example((1.0, 2.0, 0.0), "triplet", 2)
    @example((1.0, 2.0, math.pi), "triplet", 1)
    @settings(max_examples=150)
    def test_target_amplitude_is_one(self, triple, form, responder):
        g_opp = StrategyAngles(*triple)
        reply = analytic_best_response(responder, form, g_opp)
        if responder == 2:
            w = closed_form_sq_amplitudes(form, g_opp, reply)
            assert abs(w[1] - 1.0) < 1e-12
        else:
            w = closed_form_sq_amplitudes(form, reply, g_opp)
            assert abs(w[2] - 1.0) < 1e-12

    @given(angle_triples)
    @settings(max_examples=150)
    def test_cycle_closes_in_four_steps(self, triple):
        assert _cycle_closes(StrategyAngles(*triple))

    @pytest.mark.parametrize(
        "triple",
        [
            (0.0, 0.0, 1.0),
            (0.0, 2 * math.pi, 1.0),
            (5e-324, 2 * math.pi, 1.0),
            (0.7, 2 * math.pi, 1.0),
            (2 * math.pi, 0.7, 1.0),
            (0.7, 0.0, 1.0),
            (0.0, 0.7, 1.0),
            (4.0, 2 * math.pi, 2.5),
            (2 * math.pi, 5.9, 0.2),
            (math.nextafter(2 * math.pi, 0.0), 3.0, 1.0),
            (3.0, math.nextafter(2 * math.pi, 0.0), 1.0),
            (5e-324, 0.7, 1.0),
        ],
    )
    def test_cycle_closes_at_phase_endpoints(self, triple):
        assert _cycle_closes(StrategyAngles(*triple))

    def test_corner_cycles_close(self):
        # the corners (0 or 2*pi, 0 or 2*pi) close; a phase 2*pi returns as 0
        corners = [(p, a, 1.0) for p in (0.0, 2 * math.pi) for a in (0.0, 2 * math.pi)]
        assert all(_cycle_closes(StrategyAngles(*c)) for c in corners)

    @pytest.mark.parametrize(
        "triple",
        [(math.pi, 0.7, 1.0), (0.7, math.pi, 1.0), (math.pi, math.pi, 2.0)]
        + [(v, 0.7, 1.0) for v in NEXT_TO_QUARTERS]
        + [(0.7, v, 1.0) for v in NEXT_TO_QUARTERS]
        + [(v, w, 1.0) for v in NEXT_TO_QUARTERS[::3] for w in NEXT_TO_QUARTERS[1::3]],
        ids=repr,
    )
    def test_cycle_closes_at_phase_pi_and_next_to_quarters(self, triple):
        assert _cycle_closes(StrategyAngles(*triple))

    def test_cycle_closes_on_ulp_windows_of_the_quarters(self):
        # every float within 40 ulps of a multiple of pi/2 and of the margin
        # around it inside which a phase counts as that multiple
        for centre in (k * math.pi / 2 + d for k in range(5) for d in (0.0, _SNAP, -_SNAP)):
            below = above = centre
            window = [centre]
            for _ in range(40):
                below, above = math.nextafter(below, -1.0), math.nextafter(above, 7.0)
                window += [below, above]
            for v in (v for v in window if 0.0 <= v <= 2 * math.pi):
                assert _cycle_closes(StrategyAngles(v, 0.7, 1.0)), v
                assert _cycle_closes(StrategyAngles(0.7, v, 1.0)), v

    @given(st.tuples(phases_and_quarters, phases_and_quarters, st.floats(0, math.pi)))
    # one ulp past pi/2 or 0, where a phase difference is a tiny negative number
    @example((0.1, math.nextafter(math.pi / 2, 7.0), 1.0))  # triplet, player 2
    @example((math.nextafter(math.pi / 2, 0.0), 0.1, 1.0))  # triplet, player 1
    @example((math.nextafter(0.0, 1.0), 0.3, 1.0))  # Bayesian type II
    @example((1e-17, 0.3, 1.0))  # Bayesian type II
    @settings(max_examples=150)
    def test_reply_phases_lie_in_half_open_turn(self, triple):
        g = StrategyAngles(*triple)
        replies = [analytic_best_response(r, f, g) for f in CLOSED_FORMS for r in (1, 2)]
        for reply in replies + [bayes_best_response_2II(g)]:
            assert 0.0 <= reply.phi < 2 * math.pi and 0.0 <= reply.alpha < 2 * math.pi

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            analytic_best_response(3, "psi_plus", StrategyAngles(0, 0, 0))
        with pytest.raises(ValueError):
            analytic_best_response(1, "bell", StrategyAngles(0, 0, 0))


class TestNoPsneCertificate:
    def test_holds_for_dilemma_games(self):
        assert no_psne_certificate("psi_plus", 200, PRISONER_DILEMMA)
        assert no_psne_certificate("psi_plus", 200, DA_BROTHER)
        assert no_psne_certificate("triplet", 200, PRISONER_DILEMMA)

    def test_fails_for_coordination_game(self):
        # the pair reaching |01> is a settlement point, so the certificate must refuse
        assert not no_psne_certificate("psi_plus", 50, COORDINATION)

    def test_deterministic_in_seed(self):
        assert no_psne_certificate("psi_plus", 50, seed=7) == no_psne_certificate(
            "psi_plus", 50, seed=7
        )

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            no_psne_certificate("psi_plus", 0)

    @pytest.mark.parametrize("samples", [2.5, 3.0, True])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(ValueError, match="integers"):
            no_psne_certificate("psi_plus", samples)

    def test_numpy_integer_samples_accepted(self):
        assert no_psne_certificate("psi_plus", np.int64(20))

    def test_rejects_unknown_form(self):
        with pytest.raises(ValueError, match="bell"):
            no_psne_certificate("bell", 10)


class TestMixedCycle:
    def test_origin_cycle_strategies(self):
        g1 = StrategyAngles(0, 0, 0)
        g2, g1p, g2p = mixed_cycle(g1)
        # replies alternate between the equator and swap theta across pi/2
        assert abs(g2.theta - math.pi) < 1e-12
        assert abs(g1p.theta - 0.0) < 1e-12
        assert abs(g2p.theta - math.pi) < 1e-12

    def test_origin_cycle_against_small_mesh(self):
        # g2 = (3pi/2, 0, pi) is the theta=pi pole of the mesh; g1' = diag(-i, i)
        # and g2' = [[0, -i], [-i, 0]] have acting pole phases, so lie on no mesh
        mesh = MeshSpec(9, 17, 17)
        g2, g1p, g2p = mixed_cycle(StrategyAngles(0, 0, 0))
        assert angles_to_index(mesh, g2) == mesh.n_strategies
        for g in (g1p, g2p):
            with pytest.raises(ValueError):
                angles_to_index(mesh, g)
