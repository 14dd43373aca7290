import json
import math

import numpy as np
import pytest

from qgame import cli, verify
from qgame.cli import main
from qgame.mesh import MeshSpec


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestPayoff:
    def test_classical_corner(self, capsys):
        code, out, _ = run(
            capsys,
            "payoff",
            "--game",
            "prisoner_dilemma",
            "--entangler",
            "none",
            "--p1",
            "0,0,0",
            "--p2",
            "0,0,0",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["payoffs"] == [-4.0, -4.0]
        assert obj["sq_amplitudes"][0] == pytest.approx(1.0)

    def test_pole_phases_are_played(self, capsys):
        # the figures of qbench/reference.py, which shares no code with qgame
        code, out, _ = run(
            capsys,
            "payoff",
            "--game",
            "da_brother",
            "--entangler",
            "j2",
            "--beta",
            "0.4",
            "--p1",
            "0.3,1.1,0",
            "--p2",
            f"4.0,5.0,{math.pi}",
        )
        obj = json.loads(out)
        assert code == 0
        assert obj["p1_angles"] == [0.3, 1.1, 0.0]
        assert obj["payoffs"] == [-9.766971496550703, -1.1864228027594366]

    def test_bad_angle_string_exits_2(self, capsys):
        code, _, err = run(
            capsys, "payoff", "--game", "prisoner_dilemma", "--p1", "0,0", "--p2", "0,0,0"
        )
        assert code == 2 and "error" in err

    def test_unknown_game_exits_2(self, capsys):
        code, _, err = run(
            capsys, "payoff", "--game", "/nonexistent.json", "--p1", "0,0,0", "--p2", "0,0,0"
        )
        assert code == 2 and "error" in err


class TestSearchNe:
    def test_zero_beta_finds_classical_ne(self, capsys):
        code, out, _ = run(
            capsys,
            "search-ne",
            "--game",
            "da_brother",
            "--beta",
            "0",
            "--mesh",
            "5,9,9",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["found"] is True
        n = 3 * 81 + 2
        assert [n, n] in [p[:2] for p in obj["pairs"]]

    def test_max_beta_finds_nothing(self, capsys):
        code, out, _ = run(
            capsys,
            "search-ne",
            "--game",
            "da_brother",
            "--beta",
            str(math.pi / 2),
            "--mesh",
            "5,9,9",
        )
        obj = json.loads(out)
        assert code == 0 and obj["found"] is False and obj["pairs"] == []

    def test_bad_mesh_exits_2(self, capsys):
        code, _, err = run(
            capsys, "search-ne", "--game", "da_brother", "--mesh", "1,1,1"
        )
        assert code == 2 and "error" in err

    def test_two_part_mesh_exits_2(self, capsys):
        code, out, err = run(capsys, "search-ne", "--game", "da_brother", "--mesh", "9,17")
        assert (code, out, err) == (2, "", "error: expected 'Ntheta,Nphi,Nalpha', got '9,17'\n")

    @pytest.mark.parametrize(
        "field, value, message",
        [("name", 3, "field 'name' must be a string"), ("u1", 5, "field 'u1' is not a 2x2 number grid")],
    )
    def test_custom_game_with_bad_field_exits_2(self, capsys, tmp_path, field, value, message):
        path = tmp_path / "g.json"
        table = {"name": "g", "u1": [[3, 0], [5, 1]], "u2": [[3, 5], [0, 1]]}
        path.write_text(json.dumps({**table, field: value}))
        code, out, err = run(capsys, "search-ne", "--game", str(path), "--mesh", "3,3,3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.endswith(f"{message}\n")

    def test_custom_game_with_extra_field_exits_2(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps({"name": "g", "u1": [[3, 0], [5, 1]], "u2": [[3, 5], [0, 1]], "u3": 1})
        )
        code, out, err = run(capsys, "search-ne", "--game", str(path), "--mesh", "3,3,3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "u3" in err and "Traceback" not in err

    @pytest.mark.parametrize("u1", [["04", "25"], [[0, "4"], [2, 5]], [[True, 0], [0, 0]], [["1e1", 0], [0, 0]]])
    def test_custom_game_with_non_number_entry_exits_2(self, capsys, tmp_path, u1):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"name": "g", "u1": u1, "u2": [[3, 5], [0, 1]]}))
        code, out, err = run(capsys, "search-ne", "--game", str(path), "--mesh", "3,3,3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "u1" in err and "Traceback" not in err


class TestMeshBudget:
    # arithmetic only: a refused mesh must fail before any array is allocated
    @pytest.mark.parametrize("command", ["search-ne", "sweep-beta"])
    def test_oversized_mesh_exits_2(self, capsys, monkeypatch, command):
        def no_allocation(mesh):
            raise AssertionError("mesh allocated")

        monkeypatch.setattr("qgame.search.mesh_angle_array", no_allocation)
        code, out, err = run(capsys, command, "--game", "da_brother", "--mesh", "1000,1000,1000")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "998000002" in err

    def test_oversized_bayes_mesh_exits_2(self, capsys):
        code, _, err = run(capsys, "bayes", "--mu", "0.1", "--mesh", "1000,1000,1000")
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize(
        "text", ["9,17,17", "9,13,13", "9,21,21", "5,9,9", "3,5,5", "9,33,33"]
    )
    def test_default_and_benchmark_meshes_accepted(self, text):
        mesh = cli._parse_mesh(text)
        assert mesh.n_strategies <= cli.MAX_MESH_STRATEGIES

    def test_budget_boundary(self):
        # (n_theta - 2) * 100 * 100 + 2 strategies
        assert MeshSpec(12, 100, 100).n_strategies == 100_002 > cli.MAX_MESH_STRATEGIES
        with pytest.raises(ValueError):
            cli._parse_mesh("12,100,100")
        assert cli._parse_mesh("11,100,100").n_strategies == 90_002


class TestBetaStepBudget:
    # a refused step count must fail before the beta grid is allocated
    @pytest.mark.parametrize("steps", [10**12, cli.MAX_BETA_STEPS + 1])
    def test_oversized_step_count_exits_2(self, capsys, monkeypatch, steps):
        def unreachable(*args, **kwargs):
            raise AssertionError("beta grid allocated")

        monkeypatch.setattr("qgame.cli.sweep_beta", unreachable)
        monkeypatch.setattr("numpy.linspace", unreachable)
        code, out, err = run(
            capsys, "sweep-beta", "--game", "da_brother", "--mesh", "3,3,3", "--beta-steps", str(steps)
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(steps) in err

    @pytest.mark.parametrize("steps", [0, -3])
    def test_step_count_below_one_exits_2(self, capsys, steps):
        code, out, err = run(
            capsys, "sweep-beta", "--game", "da_brother", "--mesh", "3,3,3", "--beta-steps", str(steps)
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(steps) in err

    @pytest.mark.parametrize("steps", [1, 32, 801, cli.MAX_BETA_STEPS])
    def test_accepted_step_counts_reach_the_sweep(self, capsys, monkeypatch, steps):
        monkeypatch.setattr("qgame.cli.sweep_beta", lambda game, family, mesh, betas: [])
        code, _, _ = run(
            capsys, "sweep-beta", "--game", "da_brother", "--mesh", "3,3,3", "--beta-steps", str(steps)
        )
        assert code == 0


class TestBetaRange:
    def test_out_of_range_beta_exits_2_before_any_search(self, capsys, monkeypatch):
        searched = []
        monkeypatch.setattr("qgame.search.find_pure_ne", lambda *args: searched.append(args))
        code, out, err = run(
            capsys,
            "sweep-beta",
            "--game",
            "da_brother",
            "--mesh",
            "5,9,9",
            "--beta-min",
            "1.5",
            "--beta-max",
            "1.6",
            "--beta-steps",
            "5",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: beta out of range [0, pi/2]: 1.575")
        assert searched == []

    COMMANDS = [["search-ne", "--mesh", "3,5,5"], ["payoff", "--p1", "0,0,0", "--p2", "0,0,1"]]

    @pytest.mark.parametrize("entangler", ["j1", "j2", "none"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_of_range_beta_exits_2_for_every_entangler(self, capsys, entangler, command):
        code, out, err = run(capsys, *command, "--game", "da_brother", "--entangler", entangler, "--beta", "5")
        assert code == 2 and out == ""
        assert err == "error: beta out of range [0, pi/2]: 5.0\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_identity_reports_beta_zero(self, capsys, command):
        code, out, _ = run(capsys, *command, "--game", "da_brother", "--entangler", "none", "--beta", "1.0")
        assert code == 0 and json.loads(out)["beta"] == 0.0


class TestSweepBeta:
    def test_csv_shape_and_summary(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep-beta",
            "--game",
            "da_brother",
            "--mesh",
            "5,9,9",
            "--beta-steps",
            "6",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta,found,i1,i2,p1,p2"
        assert len(lines) == 8  # header + 6 rows + summary
        assert lines[1].startswith("0.0,true,")
        assert lines[-2].split(",")[1] == "false"
        assert lines[-1].startswith("# beta_c = ")

    def test_deterministic_output(self, capsys):
        args = ("sweep-beta", "--game", "da_brother", "--mesh", "5,9,9", "--beta-steps", "5")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep-beta",
            "--game",
            "da_brother",
            "--mesh",
            "5,9,9",
            "--beta-steps",
            "4",
            "--format",
            "json",
        )
        obj = json.loads(out)
        assert code == 0 and len(obj["rows"]) == 4 and "beta_c" in obj


class TestBayes:
    def test_small_mu(self, capsys):
        code, out, _ = run(capsys, "bayes", "--mu", "0.1")
        obj = json.loads(out)
        assert code == 0
        assert obj["verdict"] == "ne_at_origin"
        assert obj["origin_p1"] == -1.0

    def test_large_mu(self, capsys):
        code, out, _ = run(capsys, "bayes", "--mu", "0.5")
        obj = json.loads(out)
        assert code == 0 and obj["verdict"] == "no_ne" and obj["margin"] > 0

    def test_missing_mu_exits_2(self, capsys):
        code, _, err = run(capsys, "bayes")
        assert code == 2 and "error" in err

    def test_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "bayes.json"
        spec.write_text(
            json.dumps(
                {
                    "mu": 0.1,
                    "game_2I": {
                        "name": "I",
                        "u1": [[0, -10], [-1, -5]],
                        "u2": [[-2, -1], [-10, -5]],
                    },
                    "game_2II": {
                        "name": "II",
                        "u1": [[0, -10], [-1, -5]],
                        "u2": [[-2, -7], [-10, -11]],
                    },
                }
            )
        )
        code, out, _ = run(capsys, "bayes", "--spec", str(spec))
        obj = json.loads(out)
        assert code == 0 and obj["mu"] == 0.1 and obj["verdict"] == "ne_at_origin"


    def test_spec_tables_are_used(self, capsys, tmp_path):
        # u1 = 5 everywhere: player 1 cannot gain by leaving the identity
        const = [[5, 5], [5, 5]]
        spec = tmp_path / "bayes.json"
        spec.write_text(
            json.dumps(
                {
                    "mu": 0.3,
                    "game_2I": {"name": "const_I", "u1": const, "u2": [[-2, -1], [-10, -5]]},
                    "game_2II": {"name": "const_II", "u1": const, "u2": [[-2, -7], [-10, -11]]},
                }
            )
        )
        code, out, _ = run(capsys, "bayes", "--spec", str(spec))
        obj = json.loads(out)
        assert code == 0 and obj["mu"] == 0.3
        assert obj["verdict"] == "ne_at_origin"
        assert obj["origin_p1"] == pytest.approx(5.0, abs=1e-12)

    def test_spec_unknown_key_exits_2(self, capsys, tmp_path):
        u1 = [[0, -10], [-1, -5]]
        spec = tmp_path / "bayes.json"
        spec.write_text(
            json.dumps(
                {
                    "mu": 0.3,
                    "game_2I": {"name": "type_I", "u1": u1, "u2": [[-2, -1], [-10, -5]], "bonus": 1},
                    "game_2II": {"name": "type_II", "u1": u1, "u2": [[-2, -7], [-10, -11]]},
                }
            )
        )
        code, _, err = run(capsys, "bayes", "--spec", str(spec))
        assert code == 2 and err.startswith("error:")
        assert "game_2I: unknown fields ['bonus']" in err

    def test_spec_not_an_object_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "bayes.json"
        spec.write_text("[1, 2]")
        code, out, err = run(capsys, "bayes", "--spec", str(spec))
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"{spec}: must be an object" in err

    def test_spec_table_not_an_object_exits_2(self, capsys, tmp_path):
        table = {"name": "II", "u1": [[0, 0], [0, 0]], "u2": [[0, 0], [0, 0]]}
        spec = tmp_path / "bayes.json"
        spec.write_text(json.dumps({"mu": 0.1, "game_2I": "type_I", "game_2II": table}))
        code, _, err = run(capsys, "bayes", "--spec", str(spec))
        assert code == 2 and "game_2I: must be an object" in err
        assert "top level" not in err

    @pytest.mark.parametrize(
        "spec",
        [
            {"mu": 0.1, "game_2I": {"name": "I", "u1": [[0, 0], [0, 0]], "u2": [[0, 0], [0, 0]]}},
            {"mu": 0.1, "game_2I": {"name": "I", "u1": [[0, 0], [0, 0]]}, "game_2II": {}},
            {"mu": 0.1, "weight": 2, "game_2I": {}, "game_2II": {}},
            {"mu": "high", "game_2I": {"name": "I", "u1": [[0, 0], [0, 0]], "u2": [[0, 0], [0, 0]]},
             "game_2II": {"name": "II", "u1": [[0, 0], [0, 0]], "u2": [[0, 0], [0, 0]]}},
            [1, 2],
        ],
    )
    def test_malformed_spec_exits_2(self, capsys, tmp_path, spec):
        path = tmp_path / "bayes.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(capsys, "bayes", "--spec", str(path))
        assert code == 2 and err.startswith("error:")

    def test_spec_without_mu_needs_the_flag(self, capsys, tmp_path):
        table = {"name": "I", "u1": [[0, 0], [0, 0]], "u2": [[0, 0], [0, 0]]}
        path = tmp_path / "bayes.json"
        path.write_text(json.dumps({"game_2I": table, "game_2II": table}))
        code, out, err = run(capsys, "bayes", "--spec", str(path))
        assert (code, out, err) == (2, "", "error: mu must come from --mu or the --spec file\n")

    def test_spec_mu_checked_when_mu_flag_given(self, capsys, tmp_path):
        table = {"name": "I", "u1": [[0, 0], [0, 0]], "u2": [[0, 0], [0, 0]]}
        path = tmp_path / "bayes.json"
        path.write_text(json.dumps({"mu": "high", "game_2I": table, "game_2II": table}))
        code, out, err = run(capsys, "bayes", "--spec", str(path), "--mu", "0.1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "'mu' must be a number" in err

    def test_mu_flag_overrides_spec_mu(self, capsys, tmp_path):
        types = {
            "game_2I": {"name": "I", "u1": [[0, -10], [-1, -5]], "u2": [[-2, -1], [-10, -5]]},
            "game_2II": {"name": "II", "u1": [[0, -10], [-1, -5]], "u2": [[-2, -7], [-10, -11]]},
        }
        path = tmp_path / "bayes.json"
        path.write_text(json.dumps({"mu": 0.1, **types}))
        code, out, _ = run(capsys, "bayes", "--spec", str(path), "--mu", "0.5")
        obj = json.loads(out)
        assert code == 0 and obj["mu"] == 0.5 and obj["verdict"] == "no_ne"

    def test_spec_with_wrong_candidate_reply_exits_2(self, capsys, tmp_path):
        # type II given type I's table flips in reply to the identity
        table = {"name": "I", "u1": [[0, -10], [-1, -5]], "u2": [[-2, -1], [-10, -5]]}
        path = tmp_path / "bayes.json"
        path.write_text(json.dumps({"mu": 0.1, "game_2I": table, "game_2II": table}))
        code, _, err = run(capsys, "bayes", "--spec", str(path))
        assert code == 2 and "not a best response" in err


class TestMixedDemo:
    def test_uniform_cycle_payoffs(self, capsys):
        code, out, _ = run(capsys, "mixed-demo")
        obj = json.loads(out)
        assert code == 0
        assert obj["average_payoffs"][0] == pytest.approx(-4.0, abs=1e-12)
        assert obj["average_payoffs"][1] == pytest.approx(-4.0, abs=1e-12)

    def test_pole_seed_pays_the_same(self, capsys):
        code, out, _ = run(capsys, "mixed-demo", "--p1", "0,0,0")
        obj = json.loads(out)
        assert code == 0 and obj["g1"] == [0.0, 0.0, 0.0]
        assert obj["average_payoffs"] == pytest.approx([-4.0, -4.0], abs=1e-12)


class TestQutrit:
    def test_find_max(self, capsys):
        code, out, _ = run(capsys, "qutrit-entangler", "--find-max")
        obj = json.loads(out)
        assert code == 0
        assert obj["beta"] == pytest.approx(2 * math.pi / 9, abs=1e-12)
        assert obj["is_max_entangled"] is True

    def test_explicit_beta(self, capsys):
        code, out, _ = run(capsys, "qutrit-entangler", "--beta", "0.1")
        obj = json.loads(out)
        assert code == 0 and obj["is_max_entangled"] is False

    def test_missing_beta_exits_2(self, capsys):
        code, _, err = run(capsys, "qutrit-entangler")
        assert code == 2 and "error" in err

    def test_beta_with_find_max_exits_2(self, capsys):
        code, out, err = run(capsys, "qutrit-entangler", "--beta", "0.3", "--find-max")
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("beta", ["inf", "-inf", "nan"])
    def test_non_finite_beta_exits_2(self, capsys, beta):
        # Infinity and NaN are not JSON, so they must not reach the output
        code, out, err = run(capsys, "qutrit-entangler", f"--beta={beta}")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "finite" in err


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "0")
        obj = json.loads(out)
        assert code == 0
        assert obj["all_passed"] is True
        assert all(c["passed"] for c in obj["checks"])

    def test_non_unitary_entangler_fails_its_check(self, monkeypatch):
        monkeypatch.setattr(verify, "build_entangler", lambda spec: 2 * np.eye(4))
        name, passed, worst = verify.check_entangler_unitarity(np.random.default_rng(0))
        assert (name, passed, worst) == ("entangler_unitarity", False, float("inf"))

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "verify", "--seed", "3")
        _, second, _ = run(capsys, "verify", "--seed", "3")
        assert first == second
