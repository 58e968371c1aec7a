import pytest

from mdpreduce import GenSpec, Substochastic, gen_ht, gen_transient
from mdpreduce import dump_instance, load_instance, loads_discounted, validate
from mdpreduce import cli
from mdpreduce.cli import main
from mdpreduce.errors import NonTransientPolicyError, NotConvergedWithinBudget, SingularSystemError
from conftest import build_mdp


@pytest.fixture
def geometric_file(tmp_path, geometric):
    path = tmp_path / "geometric.json"
    dump_instance(geometric, path)
    return str(path)


@pytest.fixture
def cycle_file(tmp_path, two_cycle):
    path = tmp_path / "cycle.json"
    dump_instance(two_cycle, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(out, key):
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise KeyError(f"{key!r} not in output:\n{out}")


class TestCheck:
    def test_transient_instance(self, capsys, geometric_file):
        code, out, _ = run(capsys, "check", geometric_file)
        assert code == 0
        assert grab(out, "transient") == "yes"
        assert grab(out, "K") == "2"
        assert grab(out, "mu") == "2"

    def test_non_transient_witness(self, capsys, cycle_file):
        code, out, _ = run(capsys, "check", cycle_file)
        assert code == 2
        assert grab(out, "transient") == "no"
        assert grab(out, "witness_policy") == "0 0"
        assert grab(out, "witness_evidence") == "SingularSystem"

    def test_ht_at_state(self, capsys, cycle_file):
        code, out, _ = run(capsys, "check", cycle_file, "--state", "0")
        assert code == 0
        assert grab(out, "ht_holds_at_0") == "yes"
        assert grab(out, "K_star") == "2"
        assert grab(out, "mu") == "2 1"

    def test_validates_the_instance_once(self, capsys, geometric_file, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "validate", lambda mdp: calls.append(mdp) or validate(mdp))
        code, out, _ = run(capsys, "check", geometric_file)
        assert code == 0 and grab(out, "max_row_sum") == "0.5"
        assert len(calls) == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.json"))
        assert code == 1
        assert "error:" in err

    def test_json_error_reports_line_and_column(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"states": 1,\n  "actions": [[}]]}')
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "line 2" in err and "column" in err

    def test_unknown_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(
            '{"states": 1, "actions": [[{"cost": 0, "transitions": []}]], "mystery": 1}'
        )
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "unknown field 'mystery'" in err

    def test_invalid_instance_rejected(self, capsys, tmp_path):
        path = tmp_path / "negative.json"
        path.write_text(
            '{"states": 1, "actions": [[{"cost": 0, '
            '"transitions": [{"to": 0, "rate": -0.5}]}]]}'
        )
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "negative rate" in err


class TestSolveTotal:
    @pytest.mark.parametrize("method", ["vi", "howard", "dantzig"])
    def test_geometric_all_methods(self, capsys, geometric_file, method):
        code, out, _ = run(capsys, "solve-total", geometric_file, "--method", method)
        assert code == 0
        assert float(grab(out, "values")) == pytest.approx(2.0, abs=1e-9)
        assert grab(out, "beta") == "0.5"

    def test_exact_methods_print_two(self, capsys, geometric_file):
        for method in ("howard", "dantzig"):
            code, out, _ = run(
                capsys, "solve-total", geometric_file, "--method", method
            )
            assert code == 0
            assert grab(out, "values") == "2"

    def test_howard_takes_one_iteration(self, capsys, geometric_file):
        code, out, _ = run(capsys, "solve-total", geometric_file)
        assert code == 0
        assert grab(out, "iterations") == "1"

    def test_oracle_deviation_small(self, capsys, geometric_file):
        code, out, _ = run(capsys, "solve-total", geometric_file, "--oracle")
        assert code == 0
        assert float(grab(out, "oracle_max_deviation")) <= 1e-8

    def test_oracle_on_generated_instance(self, capsys, tmp_path):
        path = tmp_path / "random.json"
        code, _, _ = run(
            capsys, "gen", "--kind", "transient", "--states", "4",
            "--max-actions", "3", "--seed", "21", "-o", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "solve-total", str(path), "--oracle")
        assert code == 0
        assert float(grab(out, "oracle_max_deviation")) <= 1e-8

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_vi_tolerance(self, capsys, geometric_file, tol):
        code, out, err = run(
            capsys, "solve-total", geometric_file, "--method", "vi", "--tol", tol
        )
        assert code == 1 and out == ""
        assert err == f"error: tol must be finite and positive, got {float(tol)!r}\n"

    @pytest.mark.parametrize("tol", ["1e-6", "1e-4"])
    def test_vi_at_a_loose_tolerance(self, capsys, tmp_path, tol):
        # VI's sets are cut at its tol: a cut at 1e-8 leaves states without
        # an action ("error: no action within 1e-08 at state 0")
        path = tmp_path / "random.json"
        dump_instance(gen_transient(GenSpec(20, 3, Substochastic((0.05, 0.3)), seed=1)), path)
        code, out, err = run(capsys, "solve-total", str(path), "--method", "vi", "--tol", tol)
        assert (code, err) == (0, "")
        _, exact, _ = run(capsys, "solve-total", str(path))
        values = [float(v) for v in grab(out, "values").split()]
        reference = [float(v) for v in grab(exact, "values").split()]
        assert max(abs(a - b) for a, b in zip(values, reference)) <= 20 * float(tol)
        sets = [s.split(":")[1].split(",") for s in grab(out, "optimal_actions").split()]
        assert all(a in acts for a, acts in zip(grab(out, "policy").split(), sets))

    def test_inadmissible_beta(self, capsys, geometric_file):
        code, _, err = run(capsys, "solve-total", geometric_file, "--beta", "0.3")
        assert code == 1
        assert "admissible interval [0.5, 1)" in err

    def test_nan_beta_is_inadmissible(self, capsys, geometric_file):
        # NaN fails every comparison, so only `not low <= beta < 1` rejects it
        code, out, err = run(capsys, "solve-total", geometric_file, "--beta", "nan")
        assert (code, out) == (1, "")
        assert err == "error: discount factor nan outside the admissible interval [0.5, 1)\n"

    def test_non_transient_input(self, capsys, cycle_file):
        code, out, _ = run(capsys, "solve-total", cycle_file)
        assert code == 2
        assert grab(out, "transient") == "no"


class TestSolveAverage:
    def test_cycle(self, capsys, cycle_file):
        code, out, _ = run(
            capsys, "solve-average", cycle_file, "--state", "0", "--oracle"
        )
        assert code == 0
        assert grab(out, "w") == "1"
        assert grab(out, "h") == "0 1"
        assert grab(out, "K_star") == "2"
        assert float(grab(out, "acoe_max_residual")) <= 1e-9
        assert float(grab(out, "oracle_max_deviation")) <= 1e-8

    def test_constant_costs_flat_output(self, capsys, tmp_path):
        kappa = 2.5
        mdp = build_mdp(
            [
                [(kappa, [(1, 1.0)])],
                [(kappa, [(0, 1.0)])],
            ]
        )
        path = tmp_path / "constant.json"
        dump_instance(mdp, path)
        code, out, _ = run(capsys, "solve-average", str(path), "--state", "0")
        assert code == 0
        assert grab(out, "w") == "2.5"
        assert grab(out, "h") == "0 0"

    @pytest.mark.parametrize("tol", ["1e-6", "1e-4"])
    def test_vi_at_a_loose_tolerance(self, capsys, tmp_path, tol):
        path = tmp_path / "random.json"
        dump_instance(gen_ht(GenSpec(20, 3, seed=1), ell=0), path)
        code, out, err = run(
            capsys, "solve-average", str(path), "--state", "0", "--method", "vi", "--tol", tol
        )
        assert (code, err) == (0, "")
        _, exact, _ = run(capsys, "solve-average", str(path), "--state", "0")
        assert abs(float(grab(out, "w")) - float(grab(exact, "w"))) <= float(tol)
        assert float(grab(out, "acoe_max_residual")) <= 100 * float(tol)

    def test_substochastic_rejected(self, capsys, geometric_file):
        code, out, err = run(capsys, "solve-average", geometric_file, "--state", "0")
        assert (code, out) == (1, "")
        assert err == "error: the average-cost pipeline requires stochastic rates\n"

    def test_ht_failure(self, capsys, tmp_path):
        mdp = build_mdp(
            [
                [(0.0, [(1, 1.0)]), (0.0, [(0, 1.0)])],
                [(0.0, [(2, 1.0)])],
                [(0.0, [(0, 1.0)])],
            ]
        )
        path = tmp_path / "avoider.json"
        dump_instance(mdp, path)
        code, out, _ = run(capsys, "solve-average", str(path), "--state", "2")
        assert code == 2
        assert grab(out, "ht_holds_at_2") == "no"


class TestTransform:
    def test_hv_writes_loadable_file(self, capsys, geometric_file, tmp_path):
        out_path = tmp_path / "hv.json"
        code, _, _ = run(
            capsys, "transform", geometric_file, "--kind", "hv", "-o", str(out_path)
        )
        assert code == 0
        dmdp = loads_discounted(out_path.read_text())
        assert dmdp.beta == 0.5
        assert dmdp.base.n_states == 2
        assert dmdp.origin is not None

    def test_hvag_adds_sink_state(self, capsys, cycle_file, tmp_path):
        out_path = tmp_path / "hvag.json"
        code, _, _ = run(
            capsys, "transform", cycle_file, "--kind", "hvag",
            "--state", "0", "-o", str(out_path),
        )
        assert code == 0
        dmdp = loads_discounted(out_path.read_text())
        assert dmdp.base.n_states == 3
        assert dmdp.origin.ell == 0

    def test_hv_on_non_transient_fails(self, capsys, cycle_file):
        code, _, _ = run(capsys, "transform", cycle_file, "--kind", "hv")
        assert code == 2

    def test_hvag_accepts_general_rates(self, capsys, geometric_file, tmp_path):
        # the average-cost *solver* needs probabilities, but the transform
        # itself applies to rates in general
        out_path = tmp_path / "hvag_rates.json"
        code, _, _ = run(
            capsys, "transform", geometric_file, "--kind", "hvag",
            "--state", "0", "-o", str(out_path),
        )
        assert code == 0
        assert loads_discounted(out_path.read_text()).origin.ell == 0

    def test_hvag_requires_state(self, capsys, cycle_file):
        code, _, err = run(capsys, "transform", cycle_file, "--kind", "hvag")
        assert code == 1
        assert "--state" in err


class TestEmitLp:
    def test_two_constraints_for_geometric(self, capsys, geometric_file):
        code, out, _ = run(capsys, "emit-lp", geometric_file, "--kind", "hv")
        assert code == 0
        assert out.count("flow_") == 2
        assert "Minimize" in out and "End" in out

    def test_byte_identical_invocations(self, capsys, geometric_file, tmp_path):
        first = tmp_path / "a.lp"
        second = tmp_path / "b.lp"
        assert run(capsys, "emit-lp", geometric_file, "--kind", "hv", "-o", str(first))[0] == 0
        assert run(capsys, "emit-lp", geometric_file, "--kind", "hv", "-o", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "command, out",
    [
        (["check"], "max_row_sum: 1\nrate_class: stochastic\n"),
        (["transform", "--kind", "hvag"], ""),
        (["emit-lp", "--kind", "hvag"], ""),
    ],
)
def test_state_out_of_range(capsys, cycle_file, command, out):
    code, printed, err = run(capsys, command[0], cycle_file, *command[1:], "--state", "99")
    assert code == 1
    assert printed == out
    assert err == "error: state index 99 out of range\n"


class TestGen:
    def test_transient_instance_written(self, capsys, tmp_path):
        path = tmp_path / "gen.json"
        code, _, _ = run(
            capsys, "gen", "--kind", "transient", "--states", "4",
            "--max-actions", "3", "--seed", "7", "-o", str(path),
        )
        assert code == 0
        mdp = load_instance(path)
        assert validate(mdp).ok
        assert mdp.n_states == 4

    def test_deterministic_given_seed(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run(
                capsys, "gen", "--kind", "ht", "--states", "3",
                "--max-actions", "2", "--ell", "1", "--alpha", "0.3",
                "--seed", "5", "-o", str(path),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["gen", "--kind", "bogus", "--states", "2", "--max-actions", "1"])
        assert exc_info.value.code == 1

    def test_mutually_exclusive_flags_rejected(self, capsys, geometric_file):
        code, _, err = run(
            capsys, "gen", "--kind", "transient", "--states", "2",
            "--max-actions", "1", "--alpha", "0.5",
        )
        assert code == 1 and "--alpha" in err
        code, _, err = run(
            capsys, "transform", geometric_file, "--kind", "hv", "--state", "0"
        )
        assert code == 1 and "--state" in err


class TestNumericalFailures:
    def test_singular_policy_system_exits_one(self, capsys, tmp_path):
        # the sink's pivot 1 - beta falls below the LU's pivot floor
        path = str(tmp_path / "t5.json")
        run(capsys, "gen", "--kind", "transient", "--states", "5",
            "--max-actions", "2", "--seed", "3", "-o", path)
        code, out, err = run(capsys, "solve-total", path, "--beta", "0.9999999999999")
        assert (code, out) == (1, "")
        assert err == "error: singular linear system: discounted policy evaluation\n"

    @pytest.mark.parametrize(
        "error", [SingularSystemError, NotConvergedWithinBudget, NonTransientPolicyError]
    )
    def test_each_numerical_error_exits_one(self, capsys, monkeypatch, geometric_file, error):
        def fail(*args, **kwargs):
            raise error("numbers went wrong")

        monkeypatch.setattr(cli, "solve_total_cost", fail)
        code, out, err = run(capsys, "solve-total", geometric_file)
        assert (code, out, err) == (1, "", "error: numbers went wrong\n")
