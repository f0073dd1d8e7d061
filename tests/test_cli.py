import csv
import json

import pytest

from conekop.cli import main


def test_cli_pass_run(tmp_path):
    out = tmp_path / "run"
    code = main(["--variety", "a1", "--experiment", "radial_scaling",
                 "--samples", "60000", "--seed", "7", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_pass"] is True
    assert report["config"]["seed"] == 7
    with (out / "tables.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert any(r["param"] == "slope_alpha_1" and r["predicted"] == "3.0"
               for r in rows)


def test_cli_unknown_variety_exits_2(tmp_path):
    assert main(["--variety", "fermat9", "--experiment", "v_bounds",
                 "--out", str(tmp_path)]) == 2
    assert main(["--variety", "doesnotexist", "--experiment", "v_bounds",
                 "--out", str(tmp_path)]) == 2


def test_cli_unknown_experiment_exits_2(tmp_path):
    assert main(["--variety", "a1", "--experiment", "bogus",
                 "--out", str(tmp_path)]) == 2


def test_cli_samples_floor_exits_2(tmp_path):
    assert main(["--variety", "a1", "--experiment", "v_bounds",
                 "--samples", "10", "--out", str(tmp_path)]) == 2


def test_cli_byte_identical_reports(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["--variety", "a1", "--experiment", "v_bounds", "--samples", "30000",
            "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "tables.csv").read_bytes() == (b / "tables.csv").read_bytes()


def test_cli_config_file_and_custom_variety(tmp_path):
    vdoc = {
        "ambient_dim": 3,
        "name": "custom_quadric",
        "polys": [[
            {"exp": [2, 0, 0], "re": 1.0},
            {"exp": [0, 2, 0], "re": 1.0},
            {"exp": [0, 0, 2], "re": 1.0},
        ]],
    }
    vpath = tmp_path / "quadric.json"
    vpath.write_text(json.dumps(vdoc))
    cfg = {"variety": str(vpath), "experiments": ["v_bounds"], "samples": 30000,
           "seed": 3, "out": str(tmp_path / "out")}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["--config", str(cpath)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["variety"] == "custom_quadric"


def test_cli_tolerance_scale_flag(tmp_path):
    code = main(["--variety", "a1", "--experiment", "v_bounds",
                 "--samples", "30000", "--tolerance-scale", "2.0",
                 "--out", str(tmp_path / "t")])
    assert code == 0


def test_cli_threefold_runs_koppelman(tmp_path):
    # a dim-3 quadric cone in C^4 with a mixed term through both Koppelman
    # experiments: K on (0,1) and (0,2) inputs and P in three dimensions
    vdoc = {"ambient_dim": 4, "name": "quadric3", "polys": [[
        {"exp": [2, 0, 0, 0], "re": 1.0}, {"exp": [0, 2, 0, 0], "re": 1.0},
        {"exp": [0, 0, 2, 0], "re": 1.0}, {"exp": [0, 0, 0, 2], "re": 1.0},
        {"exp": [1, 1, 0, 0], "re": 0.3, "im": 0.2}]]}
    vpath = tmp_path / "quadric3.json"
    vpath.write_text(json.dumps(vdoc))
    out = tmp_path / "out"
    code = main(["--variety", str(vpath), "--experiment", "koppelman_q0",
                 "--experiment", "koppelman_q1_loose", "--samples", "2000",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["variety"] == "quadric3"
    assert report["all_pass"] is True


QUADRIC = {"ambient_dim": 3, "polys": [[
    {"exp": [2, 0, 0], "re": 1.0},
    {"exp": [0, 2, 0], "re": 1.0},
    {"exp": [0, 0, 2], "re": 1.0},
]]}
XY_PLANES = {"ambient_dim": 3, "name": "xy_planes",
             "polys": [[{"exp": [1, 1, 0], "re": 1.0}]]}
# three diagonal quadrics in C^4: a cone of codimension 3, beyond the solver
THREE_QUADRICS = {"ambient_dim": 4, "polys": [
    [{"exp": [2, 0, 0, 0], "re": 1.0}, {"exp": [0, 2, 0, 0], "re": 1.0}],
    [{"exp": [0, 2, 0, 0], "re": 1.0}, {"exp": [0, 0, 2, 0], "re": 1.0}],
    [{"exp": [0, 0, 2, 0], "re": 1.0}, {"exp": [0, 0, 0, 2], "re": 1.0}],
]}


# two lines through 0 in C^2: a smooth cone of dimension 1, below the
# dimension every experiment needs
LINES = {"ambient_dim": 2, "name": "lines", "polys": [[
    {"exp": [2, 0], "re": 1.0}, {"exp": [0, 2], "re": 1.0}]]}


# two quadrics whose parts in the fiber coordinates (z0, z1) of the default
# chart are z0^2 - z1^2 and its negative: fibers have solutions at infinity
NU2_AT_INFINITY = {"ambient_dim": 4, "polys": [
    [{"exp": [2, 0, 0, 0], "re": 1.0}, {"exp": [0, 2, 0, 0], "re": -1.0},
     {"exp": [0, 0, 2, 0], "re": 1.0}, {"exp": [0, 0, 0, 2], "re": 1.0}],
    [{"exp": [0, 2, 0, 0], "re": 1.0}, {"exp": [2, 0, 0, 0], "re": -1.0},
     {"exp": [0, 0, 2, 0], "re": 2.0}, {"exp": [0, 0, 0, 2], "re": 3.0}],
]}


def _quadric_with_first_exp(exp):
    """QUADRIC with a malformed exponent that int() would silently accept."""
    terms = QUADRIC["polys"][0]
    return {**QUADRIC, "polys": [[{**terms[0], "exp": exp}] + terms[1:]]}


def _custom(doc, cause=None):
    """Config entry standing for a custom variety file holding doc; cause is
    text the error message must contain."""
    return {"variety_doc": doc, "cause": cause}


@pytest.mark.parametrize("raw", [
    {"samples": "abc"},
    {"samples": 2000.5},
    {"rho1": 1.5, "rho2": 1.2},
    {"r_min": 0},
    {"r_min": 1e-100},
    {"r_min": 1e-30},
    {"shell_ratio": 0.5},
    {"shell_ratio": 1.01},
    _custom(XY_PLANES),
    _custom([1, 2]),
    _custom({"ambient_dim": 3, "polys": 5}),
    _custom({"ambient_dim": 3, "polys": [[{"exp": [2, 0, 0], "re": "x"}]]}),
    _custom({"ambient_dim": 3, "polys": []}),
    _custom(THREE_QUADRICS),
    _custom({**QUADRIC, "ambient_dim": 3.7}),
    _custom({"ambient_dim": 3, "polys": [5]}),
    _custom({"ambient_dim": 3, "polys": [[5]]}),
    _custom(_quadric_with_first_exp([2.5, 0, 0])),
    _custom(_quadric_with_first_exp("200")),
    _custom(NU2_AT_INFINITY),
    _custom(LINES),
    _custom({"ambient_dim": 3, "polys": [[{"exp": [2, 0, 0], "re": float("nan")}]]},
            "finite"),
    _custom({"ambient_dim": 3, "polys": [[{"exp": [2, 0, 0], "im": float("inf")}]]},
            "finite"),
    _custom({"ambient_dim": 3, "polys": [[{"re": 1.0}]]}, "lacks the key 'exp'"),
    _custom({"polys": QUADRIC["polys"]}, "lacks the key 'ambient_dim'"),
    _custom({"ambient_dim": 3}, "lacks the key 'polys'"),
    _custom({**QUADRIC, "name": ["x"]}, "name must be a string"),
    _custom(_quadric_with_first_exp([10**20, 0, 0]), "exp [100000000000000000000, 0, 0]"),
    _custom({"ambient_dim": 3, "polys": [[{"exp": [33, 0, 0], "re": 1.0},
                                          {"exp": [0, 33, 0], "re": 1.0},
                                          {"exp": [0, 0, 33], "re": 1.0}]]},
            "exp [33, 0, 0]"),
    _custom(_quadric_with_first_exp([-1, 3, 0]), "exp [-1, 3, 0]"),
    _custom({**QUADRIC, "polys": [QUADRIC["polys"][0]
                                  + [{"exp": [2, 0, 0], "re": 1e308}] * 2]},
            "monomial [2, 0, 0] sum to"),
    _custom({"ambient_dim": 0, "polys": [[{"exp": [], "re": 1.0}]]}, "ambient_dim"),
    "about",
    [1, 2],
    {"tolerance_scale": float("nan")},
    {"tolerance_scale": float("inf")},
    {"sample": 30000},
    {"experiments": "v_bounds"},
], ids=["samples_string", "samples_fraction", "rho1_above_rho2", "r_min_zero",
        "r_min_underflow", "r_min_below_pole_rounding", "shell_ratio_below_1", "shell_ratio_below_1_05", "no_admissible_chart",
        "variety_not_object", "polys_not_list", "coefficient_not_number",
        "no_polys", "codim_3", "ambient_dim_fraction", "poly_not_list",
        "term_not_object", "exp_fraction", "exp_string",
        "nu2_solutions_at_infinity", "dim_1", "coefficient_nan",
        "coefficient_infinite", "term_without_exp", "no_ambient_dim", "no_polys_key",
        "name_not_string", "exp_beyond_int64", "degree_above_max", "exp_negative",
        "coefficient_sum_infinite", "ambient_dim_zero", "config_string", "config_list",
        "tolerance_scale_nan", "tolerance_scale_inf", "unknown_key", "experiments_string"])
def test_cli_bad_config_exits_2(tmp_path, capsys, raw):
    args, cause = [], None
    if isinstance(raw, dict):
        if "variety_doc" in raw:
            vpath = tmp_path / "variety.json"
            vpath.write_text(json.dumps(raw["variety_doc"]))
            raw, cause = {"variety": str(vpath)}, raw["cause"]
        raw = {"experiments": ["v_bounds"], "samples": 30000,
               "out": str(tmp_path / "out"), **raw}
    else:  # a config document that is not a JSON object
        args = ["--experiment", "v_bounds", "--samples", "30000",
                "--out", str(tmp_path / "out")]
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(raw))
    assert main(["--config", str(cpath)] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert cause is None or cause in err, err
    assert not (tmp_path / "out").exists()


def test_cli_underflowing_r_min_exits_2_naming_it(tmp_path, capsys):
    # r_min^4 underflows to 0 on a surface: rejected before koppelman_q0 runs
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps({"r_min": 1e-100}))
    assert main(["--config", str(cpath), "--experiment", "koppelman_q0",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: r_min is too small")
    assert err.count("\n") == 1 and "[0, 1e-100]" in err
    assert not (tmp_path / "out").exists()


def test_cli_r_min_below_a_poles_rounding_scale_exits_2_naming_it(tmp_path, capsys):
    # koppelman_q0's poles would get shells below the rounding scale of their
    # base points (1e-30), or within sqrt(eps) of it relative to their norm
    # (1e-12): rejected before it runs
    cpath = tmp_path / "cfg.json"
    for r_min in (1e-30, 1e-12):
        cpath.write_text(json.dumps({"r_min": r_min}))
        assert main(["--config", str(cpath), "--experiment", "koppelman_q0",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: r_min is too small: {r_min:g}")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


def test_cli_nan_tolerance_scale_flag_exits_2(tmp_path, capsys):
    assert main(["--variety", "a1", "--experiment", "v_bounds",
                 "--tolerance-scale", "nan", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_out_on_an_existing_file_exits_2_before_any_experiment(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert main(["--variety", "hyperplane", "--experiment", "v_bounds",
                 "--samples", "1000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert out.read_text() == "kept\n"


def test_cli_unstable_calibration_fails_with_report(tmp_path, monkeypatch):
    # P1 skewed by 1, 1.5 and 2 at the three fit points: the calibrate
    # experiment reports FAIL and the run still writes its reports
    from conekop import operators

    apply_P = operators.apply_P
    skew = {"calP1": 1.5, "calP2": 2.0}

    def skewed(*args, **kwargs):
        val, qr = apply_P(*args, **kwargs)
        return val * skew.get(args[4].experiment_id, 1.0), qr

    monkeypatch.setattr(operators, "apply_P", skewed)
    out = tmp_path / "run"
    code = main(["--variety", "hyperplane", "--experiment", "calibrate",
                 "--samples", "8192", "--seed", "31", "--out", str(out)])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["all_pass"] is False
    (rep,) = report["reports"]
    assert rep["checks"]["P_spread_within_tol"] is False
    assert (out / "tables.csv").exists()
