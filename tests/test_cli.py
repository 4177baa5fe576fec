"""Command-line driver: output contracts, config precedence, exit codes."""

import csv
import io
import json
import math
from pathlib import Path

import pytest

from spherica import bessel_i0, bessel_j0, cli, hyper_f
from spherica.cli import main

MIX_TWO_GAUSSIANS = {
    "components": [
        {"weight": 0.5, "omega": {"alpha": [], "gamma": 1.0}},
        {"weight": 0.5, "omega": {"alpha": [], "gamma": 4.0}},
    ]
}


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = int(exc.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_eval_spherical_json_output(capsys):
    code, out, err = run_cli(capsys, ["eval-spherical", "--x", "1", "--xi", "1"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert set(payload) == {"value", "abs_error", "terms_used", "path"}
    assert payload["value"] == pytest.approx(bessel_j0(1.0), rel=1e-10)


def test_eval_spherical_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, ["eval-spherical", "--x", "1,2", "--xi", "0.5,1.5", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "value,abs_error,terms_used,path"
    assert len(lines) == 2


def test_eval_spherical_degenerate_determinant_exits_two(capsys):
    code, out, err = run_cli(
        capsys, ["eval-spherical", "--x", "1,1", "--xi", "1,1", "--path", "det"]
    )
    assert code == 2 and out == ""
    assert "\n" not in err.strip()
    msg = json.loads(err)
    assert msg["error"] == "degeneracy"


def test_eval_spherical_series_without_a_useful_bound_exits_two(capsys):
    # the series gives -0.785 +- 2272 here, which certifies nothing for |phi| <= 1
    code, out, err = run_cli(
        capsys, ["eval-spherical", "--path", "series", "--x", "5,5", "--xi", "5,4"]
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "convergence"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval-spherical", "--x", "30,30", "--xi", "30,29"],
        ["orbital", "--lam", "25,25", "--theta", "25,24"],
    ],
    ids=["eval-spherical", "orbital"],
)
def test_newton_route_at_its_order_cap_exits_two(capsys, argv):
    # the message names the cause, not "certifies inf absolute at value nan"
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    msg = json.loads(err)
    assert msg["error"] == "convergence"
    assert "no truncation order below its cap 200" in msg["message"]


def test_eval_spherical_zero_argument(capsys):
    code, out, _ = run_cli(capsys, ["eval-spherical", "--x", "0,0", "--xi", "3,4"])
    assert code == 0
    assert json.loads(out)["value"] == 1.0


def test_eval_polya_values(capsys, tmp_path):
    om = write_json(tmp_path, "om.json", {"alpha": [4], "gamma": 0})
    code, out, _ = run_cli(capsys, ["eval-polya", "--omega", om, "--lam", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pi_values"] == [0.5]
    assert payload["phi_product"] == 0.5

    code, out, _ = run_cli(capsys, ["eval-polya", "--omega", om, "--lam", "1,1"])
    assert json.loads(out)["phi_product"] == 0.25


def test_eval_polya_rejects_bad_schema(capsys, tmp_path):
    om = write_json(tmp_path, "bad.json", {"alpha": [1], "gamma": -1})
    code, out, err = run_cli(capsys, ["eval-polya", "--omega", om, "--lam", "1"])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "schema"


def test_eval_mixture_value(capsys, tmp_path):
    mix = write_json(tmp_path, "mix.json", MIX_TWO_GAUSSIANS)
    code, out, _ = run_cli(capsys, ["eval-mixture", "--mixture", mix, "--lam", "1"])
    assert code == 0
    payload = json.loads(out)
    expected = (math.exp(-0.25) + math.exp(-1.0)) / 2.0
    assert payload["value"] == pytest.approx(expected, rel=1e-12)
    assert len(payload["components"]) == 2


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_polya_commands_print_json_where_the_square_overflows(capsys, tmp_path):
    # u^2/4 = inf at 1e200: the payloads hold the limits, never NaN
    om = write_json(tmp_path, "om.json", {"alpha": [1.0], "gamma": 0})
    code, out, _ = run_cli(capsys, ["eval-polya", "--omega", om, "--lam", "1e200"])
    assert code == 0
    payload = json.loads(out, parse_constant=_refuse_constant)
    assert (payload["pi_values"], payload["phi_product"]) == ([0.0], 0.0)
    mix = {
        "components": [
            {"weight": 0.5, "omega": {"alpha": [], "gamma": 0}},
            {"weight": 0.5, "omega": {"alpha": [1.0], "gamma": 0}},
        ]
    }
    mix = write_json(tmp_path, "mix.json", mix)
    code, out, _ = run_cli(capsys, ["eval-mixture", "--mixture", mix, "--lam", "1e200"])
    assert code == 0
    assert json.loads(out, parse_constant=_refuse_constant)["value"] == 0.5


def test_orbital_value_and_guard(capsys):
    code, out, _ = run_cli(capsys, ["orbital", "--lam", "1", "--theta", "2"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(hyper_f(1.0), rel=1e-10)

    code, _, err = run_cli(capsys, ["orbital", "--lam", "30", "--theta", "30"])
    assert code == 2
    assert json.loads(err)["error"] == "range"


def test_orbital_series_overflow_is_a_range_error(capsys):
    # the series terms at these coincident entries leave double range below
    # the 700 guard
    argv = ["orbital", "--lam", "25,25", "--theta", "25,24", "--path", "series"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "range"


def test_heat_kernel_value(capsys):
    code, out, _ = run_cli(
        capsys, ["heat-kernel", "--t", "0.5", "--lam", "1", "--theta", "1"]
    )
    assert code == 0
    expected = math.exp(-1.0) * bessel_i0(1.0)
    assert json.loads(out)["value"] == pytest.approx(expected, rel=1e-12)


def test_heat_kernel_rejects_infinite_t(capsys):
    code, out, err = run_cli(
        capsys, ["heat-kernel", "--t", "inf", "--lam", "1", "--theta", "1"]
    )
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "domain",
        "message": "heat_kernel requires finite t > 0",
    }


def test_laplacian_check_passes(capsys):
    code, out, err = run_cli(
        capsys, ["laplacian-check", "--x", "1,2", "--xi", "0.5,1.5"]
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["rel_error"] <= payload["tol"]


def test_sweep_spherical_error_column(capsys, tmp_path):
    om = write_json(tmp_path, "om1.json", {"alpha": [1], "gamma": 0})
    code, out, _ = run_cli(
        capsys,
        [
            "sweep",
            "--kind",
            "spherical",
            "--omega",
            om,
            "--xi",
            "1",
            "--n-list",
            "25,50,100,200",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,value,limit,abs_error,std_error"
    errs = [float(line.split(",")[3]) for line in lines[1:]]
    assert len(errs) == 4
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 0.02


def test_sweep_powersum_error_column(capsys, tmp_path):
    om = write_json(tmp_path, "omg.json", {"alpha": [], "gamma": 1})
    code, out, _ = run_cli(
        capsys,
        [
            "sweep",
            "--kind",
            "powersum",
            "--omega",
            om,
            "--m",
            "2",
            "--n-list",
            "25,50,100",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        cols = line.split(",")
        assert float(cols[3]) == pytest.approx(1.0 / int(cols[0]), rel=1e-12)


def test_sweep_weyl_concentrates(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--kind", "weyl", "--m", "1", "--n-list", "10,50"],
    )
    assert code == 0
    values = json.loads(out)["values"]
    assert values[1] < values[0]


def test_sweep_weyl_two_angles_bytes_are_pinned(capsys):
    # m/n, correctly rounded, deterministic: no standard errors
    code, out, err = run_cli(
        capsys, ["sweep", "--kind", "weyl", "--m", "2", "--n-list", "4,8,16,32"]
    )
    assert (code, err) == (0, "")
    assert out == (
        '{"abs_errors": [0.5, 0.25, 0.125, 0.0625], "kind": "weyl_concentration",'
        ' "limit_value": 3.749399456654644e-33, "n_values": [4, 8, 16, 32],'
        ' "params": {"m": 2, "observable": "mean_cos_sq"}, "std_errors": null,'
        ' "values": [0.5, 0.25, 0.125, 0.0625]}\n'
    )


def test_sweep_weyl_serves_m_above_24(capsys):
    # the closed form serves every m >= 1
    code, out, err = run_cli(
        capsys, ["sweep", "--kind", "weyl", "--m", "30", "--n-list", "60,100"]
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["values"] == [0.5, 0.3]


@pytest.mark.parametrize(
    "omega, m",
    [
        ({"alpha": [1e200], "gamma": 0}, "2"),
        ({"alpha": [], "gamma": 1e300}, "2"),
        ({"alpha": [1e308, 1e308], "gamma": 0}, "1"),
    ],
    ids=["alpha_squared", "gamma_spread", "alpha_sum"],
)
def test_powersum_sweep_overflow_is_a_range_error(capsys, tmp_path, omega, m):
    # p~_m of the atoms, or the power sums of the spread Gaussian part, leave
    # double range
    path = write_json(tmp_path, "omega.json", omega)
    argv = ["sweep", "--kind", "powersum", "--omega", path, "--m", m, "--n-list", "4,8"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "range"


def test_series_value_outside_the_unit_bound_is_a_convergence_error(capsys):
    # the Jacobi-Trudi cancellation leaves 2.854 +- 0.011, which no spherical
    # value can be
    argv = ["eval-spherical", "--path", "series", "--x", "4,4", "--xi", "7,1"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "convergence"


def test_validate_table_output(capsys):
    code, out, err = run_cli(capsys, ["validate", "--suite", "special"])
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert all(line.startswith("ok") for line in lines[:-1])
    assert "checks passed" in lines[-1]


def test_validate_json_output(capsys):
    code, out, _ = run_cli(
        capsys, ["validate", "--suite", "symfunc", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] == payload["total"] > 0


def test_validate_is_reproducible_in_process(capsys):
    _, first, _ = run_cli(capsys, ["validate", "--suite", "symfunc"])
    _, second, _ = run_cli(capsys, ["validate", "--suite", "symfunc"])
    assert first == second


def test_sampling_sweep_is_reproducible(capsys, tmp_path):
    om = write_json(tmp_path, "om1.json", {"alpha": [1], "gamma": 0})
    argv = [
        "sweep",
        "--kind",
        "spherical",
        "--omega",
        om,
        "--xi",
        "1",
        "--n-list",
        "25",
        "--method",
        "mc",
        "--samples",
        "20000",
        "--seed",
        "0",
    ]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_config_file_with_flag_precedence(capsys, tmp_path):
    cfg = write_json(
        tmp_path, "cfg.json", {"x": "9,9", "xi": "0.5,1.5", "format": "csv"}
    )
    code, out, _ = run_cli(
        capsys, ["eval-spherical", "--config", cfg, "--x", "1,2"]
    )
    assert code == 0
    _, direct, _ = run_cli(
        capsys, ["eval-spherical", "--x", "1,2", "--xi", "0.5,1.5", "--format", "csv"]
    )
    assert out == direct


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg = write_json(tmp_path, "cfg.json", {"bogus": 1})
    code, _, err = run_cli(capsys, ["eval-spherical", "--config", cfg, "--x", "1", "--xi", "1"])
    assert code == 1
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize(
    "argv, field",
    [
        (["sweep", "--kind", "weyl", "--m", "1", "--n-list", "4,8"], {"format": "table"}),
        (["validate", "--suite", "special"], {"format": "table"}),
        (["sweep", "--m", "1", "--n-list", "4,8"], {"kind": "bogus"}),
        (["eval-spherical", "--x", "1", "--xi", "1"], {"path": "bogus"}),
    ],
    ids=["sweep_format", "validate_format", "kind", "path"],
)
def test_config_file_values_obey_flag_choices(capsys, tmp_path, argv, field):
    cfg = write_json(tmp_path, "cfg.json", field)
    code, out, err = run_cli(capsys, argv + ["--config", cfg])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize(
    "argv, field",
    [
        (["heat-kernel", "--lam", "1", "--theta", "1"], {"t": True}),
        (["validate", "--suite", "mc"], {"seed": True}),
        (["validate", "--suite", "mc"], {"samples": True}),
        (["sweep", "--kind", "weyl", "--m", "1"], {"n_list": [4, True]}),
    ],
    ids=["t", "seed", "samples", "n_list"],
)
def test_config_file_booleans_are_not_numbers(capsys, tmp_path, argv, field):
    # float(True) is 1.0; a JSON true must not pass as the number one
    cfg = write_json(tmp_path, "cfg.json", field)
    code, out, err = run_cli(capsys, argv + ["--config", cfg])
    assert (code, out, json.loads(err)["error"]) == (1, "", "usage")


# every flag of a command, keyed as in a config file (dashes or underscores);
# ATOM, GAUSS and MIX name parameter files, OUT an output file
_ALL_FLAGS = {
    # a negative list entry needs the --flag=value form on the command line
    "eval-spherical": {"x": [-1, 2], "xi": [0.5, 1.5], "path": "auto", "format": "csv"},
    "eval-polya": {"omega": "ATOM", "lam": [1, 2.5], "format": "json"},
    "eval-mixture": {"mixture": "MIX", "lam": [1.0, -0.5], "format": "csv"},
    "orbital": {"lam": [1, 1], "theta": [0.5, 1.5], "path": "series", "format": "json"},
    "heat-kernel": {"t": 0.5, "lam": [1], "theta": [0.7], "format": "csv", "out": "OUT"},
    "laplacian-check": {"x": [1, 2], "xi": [0.5, 1.5], "fd-step": 0.002, "tol": 1e-4,
                        "format": "json"},
    "sweep-spherical": {"kind": "spherical", "omega": "ATOM", "xi": 1.0, "n_list": [25, 50],
                        "method": "series", "format": "csv"},
    "sweep-spherical-mc": {"kind": "spherical", "omega": "ATOM", "xi": -1.0, "n-list": [2, 4],
                           "method": "mc", "samples": 200, "seed": 3, "format": "json"},
    "sweep-powersum": {"kind": "powersum", "omega": "GAUSS", "m": 2, "n_list": [25, 50],
                       "format": "csv"},
    # a null value counts as absent
    "sweep-weyl": {"kind": "weyl", "m": 2, "n_list": [4, 8], "method": None},
    "validate": {"suite": "polya", "samples": 100, "seed": 1},
}


@pytest.mark.parametrize("case", sorted(_ALL_FLAGS))
def test_config_file_and_flags_give_the_same_bytes(capsys, tmp_path, case):
    files = {
        "ATOM": write_json(tmp_path, "atom.json", {"alpha": [1.0], "gamma": 0.0}),
        "GAUSS": write_json(tmp_path, "gauss.json", {"alpha": [], "gamma": 1.0}),
        "MIX": write_json(tmp_path, "mix.json", MIX_TWO_GAUSSIANS),
        "OUT": str(tmp_path / "out.txt"),
    }
    flags = {
        k: files.get(v, v) if isinstance(v, str) else v for k, v in _ALL_FLAGS[case].items()
    }
    command = case if case in cli._COMMANDS else case.split("-")[0]
    argv = [command]
    for key, value in flags.items():
        if value is None:
            continue
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        flag = "--" + key.replace("_", "-")
        argv += [f"{flag}={text}"] if text.startswith("-") else [flag, text]

    def run(argv):
        code, out, err = run_cli(capsys, argv)
        if "out" in flags:
            out = Path(flags["out"]).read_bytes()
            Path(flags["out"]).unlink()
        return code, out, err

    direct = run(argv)
    assert direct[0] == 0 and direct[1]
    cfg = write_json(tmp_path, "cfg.json", flags)
    assert run([command, "--config", cfg]) == direct


def test_every_option_is_spelled_after_its_dest():
    # a config key k becomes the token --k with underscores as dashes
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(cli._COMMANDS)
    for name, sp in subparsers.items():
        for action in sp._actions:
            if action.dest != "help":
                assert action.option_strings == ["--" + action.dest.replace("_", "-")], name


def test_output_file_written(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, ["eval-spherical", "--x", "1", "--xi", "1", "--out", str(target)]
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["value"] == pytest.approx(
        bessel_j0(1.0), rel=1e-10
    )


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["eval-polya", "--lam", "1"])
    assert code == 1
    assert json.loads(err)["error"] == "usage"


def test_malformed_number_list_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["eval-spherical", "--x", "1,zap", "--xi", "1,2"])
    assert code == 1
    assert json.loads(err)["error"] == "usage"


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["eval-spherical", "--x", "1", "--bogus", "2"])
    assert code == 1
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize(
    "argv, kind, message",
    [
        (["eval-spherical", "--xi", "1"], "usage", "missing required value for --x"),
        (["eval-spherical", "--x", ",", "--xi", "1"], "usage",
         "--x must contain at least one number"),
        (["heat-kernel", "--lam", "1", "--theta", "1"], "usage",
         "missing required value for --t"),
        (["eval-spherical", "--config", "MISSING"], "usage", "cannot read config file: "),
        (["eval-spherical", "--config", "NOT_JSON"], "schema",
         "config file is not valid JSON: "),
        (["eval-spherical", "--config", "NOT_OBJECT"], "schema",
         "config file must hold a JSON object"),
        (["eval-polya", "--omega", "NOT_JSON", "--lam", "1"], "schema", "invalid JSON in "),
    ],
    ids=["missing_x", "empty_x", "missing_t", "config_unreadable", "config_not_json",
         "config_not_object", "omega_not_json"],
)
def test_usage_and_schema_errors_exit_one(capsys, tmp_path, argv, kind, message):
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    files = {
        "MISSING": str(tmp_path / "missing.json"),
        "NOT_JSON": str(tmp_path / "bad.json"),
        "NOT_OBJECT": write_json(tmp_path, "list.json", [1, 2]),
    }
    argv = [files.get(a, a) for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == kind
    assert error["message"].startswith(message)


def test_laplacian_check_failure_prints_its_payload_and_exits_two(capsys):
    argv = ["laplacian-check", "--x", "1,2", "--xi", "0.5,1.5", "--tol", "1e-300"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    payload = json.loads(out)
    assert payload["passed"] is False and payload["tol"] == 1e-300
    assert payload["rel_error"] > payload["tol"]
    assert json.loads(err)["error"] == "check_failed"


def test_validate_failure_prints_its_table_and_exits_two(capsys, monkeypatch):
    from spherica.validate import CheckResult

    failing = CheckResult("stub", False, "value=1 expected=2")
    monkeypatch.setattr(cli, "validate_all", lambda names, samples, seed: [failing])
    code, out, err = run_cli(capsys, ["validate", "--suite", "special"])
    assert code == 2
    assert out == "FAIL stub: value=1 expected=2\n0/1 checks passed\n"
    assert json.loads(err) == {"error": "checks_failed", "message": "1 of 1 checks failed"}


@pytest.mark.parametrize("flag", ["--seed", "--samples"])
@pytest.mark.parametrize(
    "argv",
    [
        ["eval-spherical", "--x", "1", "--xi", "1"],
        ["eval-polya", "--omega", "ATOM", "--lam", "1"],
        ["eval-mixture", "--mixture", "MIX", "--lam", "1"],
        ["orbital", "--lam", "1", "--theta", "2"],
        ["heat-kernel", "--t", "0.5", "--lam", "1", "--theta", "1"],
        ["laplacian-check", "--x", "1,2", "--xi", "0.5,1.5"],
    ],
    ids=lambda argv: argv[0],
)
def test_sampling_flags_only_on_sampling_commands(capsys, tmp_path, argv, flag):
    files = {
        "ATOM": write_json(tmp_path, "atom.json", {"alpha": [1.0], "gamma": 0.0}),
        "MIX": write_json(tmp_path, "mix.json", MIX_TWO_GAUSSIANS),
    }
    argv = [files.get(a, a) for a in argv]
    assert run_cli(capsys, argv)[0] == 0
    code, out, err = run_cli(capsys, argv + [flag, "-5"])
    assert (code, out, json.loads(err)["error"]) == (1, "", "usage")


@pytest.mark.parametrize(
    "argv, code, kind",
    [
        (["eval-spherical", "--x", "1", "--xi", "2,3"], 2, "shape"),
        # coincident xi: the Newton-basis route does not certify 1e-10
        (["eval-spherical", "--x", "1,2,3,4,5,6,7,8", "--xi", "1,1,1,1,1,1,1,1"], 2, "convergence"),
        (["heat-kernel", "--t", "-1", "--lam", "1", "--theta", "1"], 2, "domain"),
        (["eval-polya", "--omega", "MISSING", "--lam", "1"], 1, "io"),
        (["sweep", "--kind", "weyl", "--m", "1", "--n-list", "8,4"], 2, "domain"),
        # below the estimators' 100-sample floor: refused, not quietly raised to 100
        (["validate", "--suite", "mc", "--samples", "20"], 2, "domain"),
        # integer flags: an infinite value or a fraction is a usage error
        (["sweep", "--kind", "weyl", "--m", "inf", "--n-list", "4,8"], 1, "usage"),
        (["sweep", "--kind", "weyl", "--m", "1.7", "--n-list", "4,8"], 1, "usage"),
        (["sweep", "--kind", "weyl", "--m", "1", "--n-list", "4,inf"], 1, "usage"),
        # config-file values get the same integer check as the flags
        (["validate", "--suite", "mc", "--config", "SAMPLES_INF"], 1, "usage"),
        (["validate", "--suite", "mc", "--config", "SEED_FRACTION"], 1, "usage"),
        # below the 700 guard the determinant's value leaves double range; it
        # once printed "value": NaN, which is not JSON, and exited 0
        (["orbital", "--lam", "26,25", "--theta", "26,25.5"], 2, "range"),
        # --tol nan once failed every check and --tol inf passed every one
        (["laplacian-check", "--x", "1,2", "--xi", "0.5,1.5", "--tol", "nan"], 2, "domain"),
        (["laplacian-check", "--x", "1,2", "--xi", "0.5,1.5", "--tol", "inf"], 2, "domain"),
        (["laplacian-check", "--x", "1,2", "--xi", "0.5,1.5", "--tol", "0"], 2, "domain"),
        # an infinite step was refused as "diagonal entries must be finite"
        (["laplacian-check", "--x", "1,2", "--xi", "0.5,1.5", "--fd-step", "inf"], 2, "domain"),
    ],
    ids=[
        "shape",
        "convergence",
        "domain",
        "io",
        "sweep_domain",
        "validate_samples",
        "m_inf",
        "m_fraction",
        "n_list_inf",
        "config_samples_inf",
        "config_seed_fraction",
        "orbital_beyond_double_range",
        "tol_nan",
        "tol_inf",
        "tol_zero",
        "fd_step_inf",
    ],
)
def test_failure_kind_and_exit_code(capsys, tmp_path, argv, code, kind):
    files = {
        "MISSING": str(tmp_path / "missing.json"),
        # Python's JSON reader accepts Infinity
        "SAMPLES_INF": write_json(tmp_path, "inf.json", {"samples": math.inf}),
        "SEED_FRACTION": write_json(tmp_path, "frac.json", {"seed": 2.5}),
    }
    argv = [files.get(a, a) for a in argv]
    got, out, err = run_cli(capsys, argv)
    assert (got, json.loads(err)["error"]) == (code, kind)
    assert out == ""


@pytest.mark.parametrize(
    "argv, header, exact",
    [
        (["eval-spherical", "--x", "1,2", "--xi", "0.5,1.5"], "value,abs_error,terms_used,path", None),
        (
            ["eval-polya", "--omega", "ATOM", "--lam", "1,2"],
            "key,value",
            "key,value\nlambda_0,1.0\nlambda_1,2.0\npi_0,0.5\npi_1,0.2\nphi_product,0.1\n",
        ),
        (["eval-mixture", "--mixture", "MIX", "--lam", "1"], "key,value", None),
        (["orbital", "--lam", "1", "--theta", "2"], "value,abs_error,terms_used,path", None),
        (["heat-kernel", "--t", "0.5", "--lam", "1", "--theta", "1"], "value", None),
        (["laplacian-check", "--x", "1,2", "--xi", "0.5,1.5"], "key,value", None),
        (
            ["sweep", "--kind", "powersum", "--omega", "GAUSS", "--m", "2", "--n-list", "25,50"],
            "n,value,limit,abs_error,std_error",
            "n,value,limit,abs_error,std_error\n"
            "25,0.04000000000000001,0.0,0.04000000000000001,\n"
            "50,0.019999999999999997,0.0,0.019999999999999997,\n",
        ),
        (["validate", "--suite", "limits"], "name,passed,detail", None),
    ],
    ids=[
        "eval-spherical",
        "eval-polya",
        "eval-mixture",
        "orbital",
        "heat-kernel",
        "laplacian-check",
        "sweep",
        "validate",
    ],
)
def test_csv_output_contract(capsys, tmp_path, argv, header, exact):
    files = {
        "ATOM": write_json(tmp_path, "atom.json", {"alpha": [4], "gamma": 0}),
        "MIX": write_json(tmp_path, "mix.json", MIX_TWO_GAUSSIANS),
        "GAUSS": write_json(tmp_path, "gauss.json", {"alpha": [], "gamma": 1}),
    }
    argv = [files.get(a, a) for a in argv]
    code, out, err = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0 and err == ""
    assert out.split("\n", 1)[0] == header
    if exact is not None:
        assert out == exact
    # every row parses back into one cell per column and re-serializes to the
    # same bytes, so cells holding commas (validate details) are quoted
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert buf.getvalue() == out
    if argv[0] == "validate":
        assert any("," in detail for _, _, detail in rows[1:])

    target = tmp_path / "out.txt"
    for fmt in ([], ["--format", "json"], ["--format", "csv"]):
        _, printed, _ = run_cli(capsys, argv + fmt)
        code, silent, _ = run_cli(capsys, argv + fmt + ["--out", str(target)])
        assert code == 0 and silent == ""
        assert target.read_text(encoding="utf-8") == printed


def test_console_script_thread_count_invariance(cli_subprocess):
    argv = ["validate", "--suite", "mc", "--samples", "2000", "--seed", "0"]
    outputs = []
    for threads in ("1", "4"):
        proc = cli_subprocess(argv, threads)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# Runs in a fresh interpreter: no command below needs scipy (some need
# numpy), and the first Monte Carlo draw is what loads scipy.special.
_COLD_START_CHILD = """
import json, sys
from spherica.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from spherica import mc_spherical
mc_spherical((1.0, 0.5), (0.3, 0.2), n_samples=100)
print(json.dumps({"codes": codes, "scipy": loaded, "special": "scipy.special" in sys.modules}))
"""


def test_cli_commands_load_no_scipy(python_subprocess, tmp_path):
    atom = write_json(tmp_path, "atom.json", {"alpha": [4], "gamma": 0})
    gauss = write_json(tmp_path, "gauss.json", {"alpha": [], "gamma": 1})
    mix = write_json(tmp_path, "mix.json", MIX_TWO_GAUSSIANS)
    commands = [
        ["eval-spherical", "--x", "1,2", "--xi", "0.5,1.5"],
        ["orbital", "--lam", "1", "--theta", "2"],
        ["heat-kernel", "--t", "0.5", "--lam", "1", "--theta", "1"],
        ["eval-polya", "--omega", atom, "--lam", "1,2"],
        ["eval-mixture", "--mixture", mix, "--lam", "1"],
        ["laplacian-check", "--x", "1,2", "--xi", "0.5,1.5"],
        ["sweep", "--kind", "powersum", "--omega", gauss, "--m", "2", "--n-list", "25,50"],
        ["sweep", "--kind", "spherical", "--omega", atom, "--xi", "1", "--n-list", "4,8"],
        ["sweep", "--kind", "weyl", "--m", "1", "--n-list", "4,8,16"],
        ["sweep", "--kind", "weyl", "--m", "2", "--n-list", "4,8", "--samples", "1000"],
        ["validate", "--suite", "special"],
        ["validate", "--suite", "symfunc"],
        ["validate", "--suite", "spherical"],
        ["validate", "--suite", "polya"],
        ["validate", "--suite", "limits"],
    ]
    proc = python_subprocess(["-c", _COLD_START_CHILD, json.dumps(commands)])
    assert proc.returncode == 0, proc.stderr.decode()
    report = json.loads(proc.stdout.decode().splitlines()[-1])
    assert report == {"codes": [0] * len(commands), "scipy": [], "special": True}


# Runs in a fresh interpreter: the package, the CLI, the scalar commands
# below and phi_omega_matrix on nested rows never load numpy; the first Monte
# Carlo call does.
_NO_NUMPY_CHILD = """
import json, sys
import spherica
import spherica.cli
codes = [spherica.cli.main(argv) for argv in json.loads(sys.argv[1])]
spherica.phi_omega_matrix(spherica.OmegaParam([1.0], 0.5), [[1.0, 0.5j], [0.2, 2.0]])
before = "numpy" in sys.modules
spherica.mc_spherical((1.0, 0.5), (0.3, 0.2), n_samples=100)
print(json.dumps({"codes": codes, "numpy_before": before, "numpy_after": "numpy" in sys.modules}))
"""


def test_scalar_commands_load_no_numpy(python_subprocess, tmp_path):
    omega = write_json(tmp_path, "omega.json", {"alpha": [0.5], "gamma": 0.25})
    mix = write_json(tmp_path, "mix.json", MIX_TWO_GAUSSIANS)
    commands = [
        ["eval-spherical", "--x", "1,2", "--xi", "0.5,1.5"],
        ["eval-spherical", "--x", "1,1", "--xi", "0.5,1.5"],
        ["orbital", "--lam", "1,0.5", "--theta", "2,0.3"],
        ["orbital", "--lam", "1,1", "--theta", "0.5,1.5"],
        # the Schur series at two, three and four rows
        ["eval-spherical", "--path", "series", "--x", "1,1", "--xi", "0.5,1.5"],
        ["orbital", "--path", "series", "--lam", "1,1,1", "--theta", "0.5,0.3,0.3"],
        ["eval-spherical", "--path", "series", "--x", "1,1,1,1", "--xi", "0.5,0.4,0.3,0.2"],
        ["heat-kernel", "--t", "0.5", "--lam", "1,0.5", "--theta", "1,0.2"],
        ["eval-polya", "--omega", omega, "--lam", "1,2"],
        ["eval-mixture", "--mixture", mix, "--lam", "1,0.5"],
        ["sweep", "--kind", "powersum", "--omega", omega, "--m", "2", "--n-list", "8,16,32"],
        ["sweep", "--kind", "spherical", "--omega", omega, "--xi", "1.5", "--n-list", "8,64,512"],
        ["sweep", "--kind", "weyl", "--m", "1", "--n-list", "4,8,16"],
        ["sweep", "--kind", "weyl", "--m", "2", "--n-list", "4,8"],
        ["validate", "--suite", "special"],
        ["validate", "--suite", "symfunc"],
        ["validate", "--suite", "polya"],
        ["validate", "--suite", "limits"],
    ]
    proc = python_subprocess(["-c", _NO_NUMPY_CHILD, json.dumps(commands)])
    assert proc.returncode == 0, proc.stderr.decode()
    report = json.loads(proc.stdout.decode().splitlines()[-1])
    assert report == {
        "codes": [0] * len(commands),
        "numpy_before": False,
        "numpy_after": True,
    }


def test_cli_import_loads_no_dataclasses_inspect_or_numpy(python_subprocess):
    # each of these costs milliseconds of every command's cold start
    child = (
        "import json, sys\n"
        "import spherica.cli\n"
        "print(json.dumps(sorted({'dataclasses', 'inspect', 'numpy'} & set(sys.modules))))\n"
    )
    proc = python_subprocess(["-c", child])
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout.decode()) == []


# Runs in a fresh interpreter: JSON output, by default or by --format json,
# loads no csv module; the first --format csv command does
_NO_CSV_CHILD = """
import json, sys
from spherica.cli import main
before = "csv" in sys.modules
codes = [main(argv) for argv in json.loads(sys.argv[1])]
after_json = "csv" in sys.modules
codes.append(main(["orbital", "--lam", "1", "--theta", "2", "--format", "csv"]))
print(json.dumps({"codes": codes, "csv": [before, after_json, "csv" in sys.modules]}))
"""


def test_json_commands_load_no_csv(python_subprocess):
    commands = [
        ["eval-spherical", "--x", "1,2", "--xi", "0.5,1.5"],
        ["orbital", "--lam", "1,0.5", "--theta", "2,0.3", "--format", "json"],
        ["validate", "--suite", "special", "--format", "json"],
    ]
    proc = python_subprocess(["-c", _NO_CSV_CHILD, json.dumps(commands)])
    assert proc.returncode == 0, proc.stderr.decode()
    report = json.loads(proc.stdout.decode().splitlines()[-1])
    assert report == {"codes": [0] * 4, "csv": [False, False, True]}


# Runs in a fresh interpreter: at coincident points with large products the
# Newton-basis route does not certify, and "auto" raises at once instead of
# summing a six-row Schur series
_UNCERTIFIED_CHILD = """
import json, sys
from spherica.cli import main
code = main(["eval-spherical", "--x", "1,2,3,4,5,6", "--xi", "1,1,1,1,1,1"])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


def test_uncertified_coincident_point_raises_at_once(python_subprocess):
    proc = python_subprocess(["-c", _UNCERTIFIED_CHILD], timeout=30)
    lines = proc.stdout.decode().splitlines()
    assert json.loads(lines[-1]) == {"code": 2, "numpy": False}
    assert json.loads(proc.stderr.decode())["error"] == "convergence"


# Runs in a fresh interpreter: the spherica modules that `import spherica`
# loads, then those that one command loads
_LOADED_CHILD = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "spherica")
import spherica
bare = loaded()
from spherica.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "bare": bare, "command": loaded()}))
"""

_EVALUATOR_SKIPS = {"polya", "limits", "validate", "montecarlo"}
_POLYA_SKIPS = {"spherical", "series", "limits", "validate", "montecarlo"}


@pytest.mark.parametrize(
    "argv, skipped",
    [
        (["eval-spherical", "--x", "1,2", "--xi", "0.5,1.5"], _EVALUATOR_SKIPS),
        (["orbital", "--lam", "1,0.5", "--theta", "2,0.3"], _EVALUATOR_SKIPS),
        (["heat-kernel", "--t", "0.5", "--lam", "1,0.5", "--theta", "1,0.2"], _EVALUATOR_SKIPS),
        (["eval-polya", "--omega", "OMEGA", "--lam", "1,2"], _POLYA_SKIPS),
        (["eval-mixture", "--mixture", "MIX", "--lam", "1,0.5"], _POLYA_SKIPS),
        (
            ["sweep", "--kind", "powersum", "--omega", "OMEGA", "--m", "2", "--n-list", "8,16"],
            {"validate", "montecarlo"},
        ),
        (["sweep", "--kind", "weyl", "--m", "1", "--n-list", "4,8,16"], {"validate", "montecarlo"}),
        (["validate", "--suite", "special"], {"spherical", "symfunc", "polya", "limits", "montecarlo"}),
        (["validate", "--suite", "symfunc"], {"spherical", "series", "polya", "limits", "montecarlo"}),
        (["validate", "--suite", "polya"], {"spherical", "series", "limits", "montecarlo"}),
    ],
    ids=[
        "eval-spherical",
        "orbital",
        "heat-kernel",
        "eval-polya",
        "eval-mixture",
        "sweep-powersum",
        "sweep-weyl",
        "validate-special",
        "validate-symfunc",
        "validate-polya",
    ],
)
def test_each_command_loads_only_the_modules_it_calls(python_subprocess, tmp_path, argv, skipped):
    files = {
        "OMEGA": write_json(tmp_path, "omega.json", {"alpha": [0.5], "gamma": 0.25}),
        "MIX": write_json(tmp_path, "mix.json", MIX_TWO_GAUSSIANS),
    }
    argv = [files.get(a, a) for a in argv]
    proc = python_subprocess(["-c", _LOADED_CHILD, json.dumps(argv)])
    assert proc.returncode == 0, proc.stderr.decode()
    report = json.loads(proc.stdout.decode().splitlines()[-1])
    assert (report["code"], report["bare"]) == (0, ["spherica"])
    loaded = {m.split(".", 1)[1] for m in report["command"] if "." in m}
    assert loaded & skipped == set()


def test_commands_call_the_names_patched_onto_the_cli_module(capsys, tmp_path, monkeypatch):
    # the benchmark's tracer wraps these names the same way: getattr on
    # spherica.cli, then setattr
    calls = []

    def recording(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("validate_all", "polya_eval", "spherical_convergence"):
        monkeypatch.setattr(cli, name, recording(name))
    atom = write_json(tmp_path, "atom.json", {"alpha": [4], "gamma": 0})
    for argv in (
        ["validate", "--suite", "special"],
        ["eval-polya", "--omega", atom, "--lam", "1,2"],
        ["sweep", "--kind", "spherical", "--omega", atom, "--xi", "1", "--n-list", "4,8"],
    ):
        code, _, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
    assert calls == ["validate_all", "polya_eval", "polya_eval", "spherical_convergence"]
