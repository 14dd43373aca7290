"""Every number that enters qgame passes linalg._require_real or
linalg._require_integer (re-exported by strategies): bool, strings and
non-finite values are refused with ValueError, numpy numbers are accepted
and stored as plain float and int, tolerances must be positive, and the
command line reports a refused input with exit 2.
"""

import json
import math

import numpy as np
import pytest

from qgame import cli, verify
from qgame.bayes import BayesSpec, bayes_ne_check
from qgame.entanglers import (
    EntanglerSpec,
    bell_state,
    build_entangler,
    is_classically_commensurate,
    is_product_state,
    partial_state,
)
from qgame.games import DA_BROTHER, GameFormatError, GameTable, MixedStrategy
from qgame.linalg import _require_integer, _require_real, is_unitary
from qgame.mesh import MeshSpec, angles_to_index, index_to_angles
from qgame.qutrits import commutant_is_scalar, is_qutrit_product, perm_matrix, qutrit_entangler
from qgame.search import (
    analytic_best_response,
    best_response_table,
    find_pure_ne,
    no_psne_certificate,
    sweep_beta,
)
from qgame.strategies import StrategyAngles, su3_from_angles

ORIGIN = StrategyAngles(0.0, 0.0, 0.0)
HUGE = 10**400  # a JSON integer beyond the float range
TYPE_I = {"name": "I", "u1": [[0, -10], [-1, -5]], "u2": [[-2, -1], [-10, -5]]}
TYPE_II = {"name": "II", "u1": [[0, -10], [-1, -5]], "u2": [[-2, -7], [-10, -11]]}


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestHelpers:
    @pytest.mark.parametrize("value", [True, False, "1", None, 1j, [1.0]])
    def test_real_refuses_non_numbers(self, value):
        with pytest.raises(ValueError, match="not a number"):
            _require_real(value, "x")

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, np.float64("nan"), HUGE, -HUGE],
        ids=["nan", "inf", "-inf", "np-nan", "huge", "-huge"],
    )
    def test_real_refuses_non_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            _require_real(value, "x")

    @pytest.mark.parametrize("value", [0, 2, 0.5, np.int64(3), np.float32(0.25), np.float64(-1.5)])
    def test_real_returns_a_plain_float(self, value):
        got = _require_real(value, "x")
        assert type(got) is float and got == value

    @pytest.mark.parametrize("value", [True, 2.0, "2", np.float64(2.0)])
    def test_integer_refuses_non_integers(self, value):
        with pytest.raises(ValueError, match="integers"):
            _require_integer(value, "n")

    @pytest.mark.parametrize("value", [3, np.int32(3), np.int64(3), np.uint8(3)])
    def test_integer_returns_a_plain_int(self, value):
        got = _require_integer(value, "n")
        assert type(got) is int and got == 3


REFUSED = [True, "1"]


class TestRefusedInputs:
    @pytest.mark.parametrize("bad", REFUSED)
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_strategy_angles(self, bad, position):
        triple = [0.0, 0.0, 0.0]
        triple[position] = bad
        with pytest.raises(ValueError):
            StrategyAngles(*triple)

    @pytest.mark.parametrize("bad", REFUSED)
    def test_entangler_spec(self, bad):
        with pytest.raises(ValueError):
            EntanglerSpec("j1", bad)

    @pytest.mark.parametrize("bad", REFUSED)
    def test_bayes_spec(self, bad):
        with pytest.raises(ValueError):
            BayesSpec(bad)

    @pytest.mark.parametrize("bad", REFUSED)
    def test_bayes_ne_check_mu_beside_a_spec(self, bad):
        with pytest.raises(ValueError):
            bayes_ne_check(bad, MeshSpec(3, 3, 3), BayesSpec(1.0))

    @pytest.mark.parametrize("bad", REFUSED)
    def test_mixed_strategy(self, bad):
        with pytest.raises(ValueError):
            MixedStrategy(((ORIGIN, bad),))

    @pytest.mark.parametrize("bad", REFUSED)
    def test_su3_from_angles(self, bad):
        with pytest.raises(ValueError):
            su3_from_angles([bad] * 8)

    @pytest.mark.parametrize("bad", REFUSED)
    def test_qutrit_entangler(self, bad):
        with pytest.raises(ValueError):
            qutrit_entangler(bad)

    @pytest.mark.parametrize("bad", REFUSED)
    def test_partial_state(self, bad):
        with pytest.raises(ValueError):
            partial_state("psi_plus", bad)

    @pytest.mark.parametrize("bad", REFUSED)
    def test_sweep_beta(self, bad):
        with pytest.raises(ValueError):
            sweep_beta(DA_BROTHER, "j1", MeshSpec(3, 3, 3), [bad])

    @pytest.mark.parametrize("entry", [HUGE, math.nan], ids=["huge", "nan"])
    def test_game_table_entry(self, entry):
        with pytest.raises(GameFormatError, match="u1"):
            GameTable("g", ((entry, 0), (0, 0)), ((0, 0), (0, 0)))

    @pytest.mark.parametrize("responder", [2.0, True])
    def test_best_response_table_responder(self, responder):
        with pytest.raises(ValueError, match="integers"):
            best_response_table(DA_BROTHER, EntanglerSpec("j1", 1.0), MeshSpec(3, 3, 3), responder)

    @pytest.mark.parametrize("responder", [2.0, True])
    def test_analytic_best_response_responder(self, responder):
        with pytest.raises(ValueError, match="integers"):
            analytic_best_response(responder, "psi_plus", ORIGIN)


# each tolerance predicate with an input on which a large tol would answer True
TOL_CALLS = {
    "is_unitary": lambda tol: is_unitary(2 * np.eye(2), tol),
    "is_product_state": lambda tol: is_product_state(bell_state("T"), tol),
    "is_qutrit_product": lambda tol: is_qutrit_product(np.eye(3).reshape(9) / math.sqrt(3), tol),
    "is_classically_commensurate": lambda tol: is_classically_commensurate(
        build_entangler(EntanglerSpec("j2", 1.0)), tol
    ),
    "angles_to_index": lambda tol: angles_to_index(MeshSpec(3, 3, 3), ORIGIN, tol),
}


class TestTolerancesAndSizes:
    @pytest.mark.parametrize("name", sorted(TOL_CALLS))
    @pytest.mark.parametrize("tol", [True, "x", None], ids=["true", "str", "none"])
    def test_tol_refuses_non_numbers(self, name, tol):
        with pytest.raises(ValueError, match="not a number"):
            TOL_CALLS[name](tol)

    @pytest.mark.parametrize("name", sorted(TOL_CALLS))
    @pytest.mark.parametrize(
        "tol", [0.0, -1.0, 0, math.nan, math.inf], ids=["0", "-1", "int0", "nan", "inf"]
    )
    def test_tol_refuses_non_positive_and_non_finite(self, name, tol):
        with pytest.raises(ValueError, match="positive|finite"):
            TOL_CALLS[name](tol)

    @pytest.mark.parametrize("name", sorted(TOL_CALLS))
    def test_tol_takes_numpy_numbers(self, name):
        assert TOL_CALLS[name](np.float64(1e-9)) == TOL_CALLS[name](1e-9)

    @pytest.mark.parametrize("dim", [3.0, True, "3"])
    def test_commutant_dim_refuses_non_integers(self, dim):
        with pytest.raises(ValueError, match="integers"):
            commutant_is_scalar([perm_matrix("S12")], dim)

    @pytest.mark.parametrize("dim", [0, -3])
    def test_commutant_dim_refuses_empty_spaces(self, dim):
        with pytest.raises(ValueError, match="at least 1"):
            commutant_is_scalar([], dim)

    def test_commutant_dim_takes_numpy_integers(self):
        gens = [perm_matrix("S12")]
        assert commutant_is_scalar(gens, np.int64(3)) == commutant_is_scalar(gens, 3)


SEED_CALLS = {
    "no_psne_certificate": lambda seed: no_psne_certificate("psi_plus", 5, seed=seed),
    "run_all": lambda seed: verify.run_all(seed=seed),
}


class TestSeeds:
    @pytest.mark.parametrize("name", sorted(SEED_CALLS))
    @pytest.mark.parametrize("seed", [1.5, True, "3", None], ids=["float", "true", "str", "none"])
    def test_refuses_non_integers(self, name, seed):
        with pytest.raises(ValueError, match="seed takes integers only"):
            SEED_CALLS[name](seed)

    @pytest.mark.parametrize("name", sorted(SEED_CALLS))
    def test_refuses_a_negative_seed(self, name):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SEED_CALLS[name](-1)

    @pytest.mark.parametrize("name", sorted(SEED_CALLS))
    def test_takes_numpy_integers(self, name):
        assert SEED_CALLS[name](np.int64(3)) == SEED_CALLS[name](3)


class TestNumpyNumbers:
    def test_index_to_angles_gives_plain_floats(self):
        mesh = MeshSpec(9, 17, 17)
        assert repr(index_to_angles(mesh, np.int64(5))) == repr(index_to_angles(mesh, 5))
        assert repr(index_to_angles(MeshSpec(np.int64(9), np.int64(17), 17), 40)) == repr(
            index_to_angles(mesh, 40)
        )

    def test_mesh_sizes_are_plain_ints(self):
        mesh = MeshSpec(np.int64(9), np.int32(17), 17)
        assert type(mesh.n_theta) is int and type(mesh.n_phi) is int
        assert mesh == MeshSpec(9, 17, 17)

    def test_fields_are_plain_floats(self):
        g = StrategyAngles(np.float64(0.5), np.float32(0.25), np.int64(1))
        assert all(type(x) is float for x in g.as_tuple()) and g == StrategyAngles(0.5, 0.25, 1.0)
        assert StrategyAngles(0, 0, 0).as_tuple() == (0.0, 0.0, 0.0)
        assert type(StrategyAngles(0, 0, 0).phi) is float
        assert type(EntanglerSpec("j1", np.float64(0.5)).beta) is float
        assert type(BayesSpec(np.int64(0)).mu) is float
        m = MixedStrategy(((ORIGIN, np.float64(0.5)), (ORIGIN, np.float32(0.5))))
        assert all(type(p) is float for _, p in m.support)
        game = GameTable("np", np.array([[0, -10], [-1, -5]]), ((np.float64(-2.5), 1), (-10, -5)))
        assert all(type(x) is float for row in game.u1 + game.u2 for x in row)

    def test_numpy_numbers_still_accepted(self):
        assert np.allclose(su3_from_angles(np.zeros(8)), np.eye(3))
        assert np.array_equal(qutrit_entangler(np.float64(0.3)), qutrit_entangler(0.3))
        assert np.array_equal(partial_state("T", np.float64(1.0)), partial_state("T", 1.0))
        spec = EntanglerSpec("j1", 1.0)
        mesh = MeshSpec(3, 3, 3)
        assert best_response_table(DA_BROTHER, spec, mesh, np.int64(2)) == best_response_table(
            DA_BROTHER, spec, mesh, 2
        )
        assert analytic_best_response(np.int64(1), "psi_plus", ORIGIN) == analytic_best_response(
            1, "psi_plus", ORIGIN
        )
        swept = sweep_beta(DA_BROTHER, "j1", mesh, np.array([0.0, 1.0]))
        assert [type(r.beta) for r in swept] == [float, float]

    def test_search_reports_a_float_beta(self):
        assert type(find_pure_ne(DA_BROTHER, EntanglerSpec("j1", 1), MeshSpec(3, 3, 3)).beta) is float


class TestCommandLine:
    def test_game_entry_beyond_float_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"name": "g", "u1": [[HUGE, 0], [5, 1]], "u2": [[3, 5], [0, 1]]}))
        code, out, err = run(capsys, "search-ne", "--game", str(path), "--mesh", "3,3,3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "u1" in err and "Traceback" not in err

    def test_spec_mu_beyond_float_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bayes.json"
        path.write_text(json.dumps({"mu": HUGE, "game_2I": TYPE_I, "game_2II": TYPE_II}))
        code, out, err = run(capsys, "bayes", "--spec", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert str(path) in err and "'mu' must be a number" in err

    def test_spec_mu_out_of_range_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "bayes.json"
        path.write_text(json.dumps({"mu": 1.5, "game_2I": TYPE_I, "game_2II": TYPE_II}))
        code, out, err = run(capsys, "bayes", "--spec", str(path), "--mu", "0.1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(path) in err and "'mu'" in err

    def test_integer_spec_mu_prints_a_float(self, capsys, tmp_path):
        path = tmp_path / "bayes.json"
        path.write_text(json.dumps({"mu": 0, "game_2I": TYPE_I, "game_2II": TYPE_II}))
        code, out, _ = run(capsys, "bayes", "--spec", str(path), "--mesh", "3,3,3")
        assert code == 0 and '"mu": 0.0' in out

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: seed must be non-negative\n"

    def test_internal_key_error_is_not_a_usage_error(self, monkeypatch):
        def broken(args):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "cmd_payoff", broken)
        with pytest.raises(KeyError):
            cli.main(["payoff", "--game", "prisoner_dilemma", "--p1", "0,0,0", "--p2", "0,0,0"])
