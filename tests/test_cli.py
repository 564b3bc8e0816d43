"""CLI contracts: exit codes, schemas, determinism."""

import hashlib
import json
import math

import numpy as np
import pytest

from riccati3d import cli, fields
from riccati3d.cli import main
from riccati3d.errors import ConfigError
from riccati3d.fields import DiffScheme, Point3, QuadratureSpec
from riccati3d.report import RunConfig
from riccati3d.verify import SUITES, halton_points


def test_verify_algebra_exits_zero(capsys):
    assert main(["verify", "--suite", "algebra"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "basis_table" in out


def test_verify_unknown_suite_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "calculus"])
    assert exc.value.code == 2


def test_verify_failing_tolerance_exits_one(capsys):
    # an impossible override turns a passing check into a failure
    assert main(["verify", "--suite", "algebra", "--tol",
                 "associativity=1e-30"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("suite", ["oned", "algebra"])
def test_verify_report_deterministic_except_seconds(suite, tmp_path, capsys):
    # algebra draws every check's inputs from one shared generator, so its
    # report is reproducible only because checks run in a fixed order
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suite", suite, "--report", str(r1)]) == 0
    assert main(["verify", "--suite", suite, "--report", str(r2)]) == 0
    capsys.readouterr()

    def strip(path):
        data = json.loads(path.read_text())
        for check in data["checks"]:
            check.pop("seconds")
        return data

    assert strip(r1) == strip(r2)


@pytest.mark.parametrize("name", ["algebra/associativity", "associativty"])
def test_verify_unknown_tolerance_name_exits_two(name, tmp_path, capsys):
    # a suite-prefixed name (as the "all" report prints it) or a typo names
    # no check: it is a usage error, not an override silently ignored
    assert main(["verify", "--suite", "algebra", "--tol", f"{name}=1e-30"]) == 2
    assert repr(name) in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"tol.{name} = 1e-30\n")
    assert main(["verify", "--suite", "all", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "names no check" in err and repr(name) in err


def test_verify_tolerance_echoed_in_report(tmp_path, capsys):
    rp = tmp_path / "r.json"
    assert main(["verify", "--suite", "algebra", "--tol", "associativity=1e-10",
                 "--report", str(rp)]) == 0
    capsys.readouterr()
    data = json.loads(rp.read_text())
    assert data["config_echo"]["tolerances"]["associativity"] == 1e-10


def test_config_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nseed = 3\nh=2e-3\ntol.associativity = 1e-30\n")
    rp = tmp_path / "r.json"
    assert main(["verify", "--suite", "algebra", "--config", str(cfg),
                 "--report", str(rp)]) == 1
    capsys.readouterr()
    data = json.loads(rp.read_text())
    assert data["config_echo"]["seed"] == 3
    assert data["config_echo"]["h"] == 2e-3


def test_config_file_bad_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("velocity = 3\n")
    assert main(["verify", "--suite", "algebra", "--config", str(cfg)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing_config", "directory_config", "eval_out",
                                  "transform_out", "verify_report"])
def test_path_that_cannot_be_read_or_written_exits_two(case, tmp_path, capsys):
    # exit 1 means a check failed; a path the command cannot use is a usage error
    missing = str(tmp_path / "no_such_dir" / "x")
    solution = ["--solution", "rotational", "--k", "1", "--c", "0.3466",
                "--grid", "0.5,1.0,4,0.05,0.4,4,-0.4,0.4,4", "--out", missing]
    argv = {
        "missing_config": ["verify", "--suite", "algebra", "--config", missing],
        "directory_config": ["verify", "--suite", "algebra", "--config", str(tmp_path)],
        "eval_out": ["eval", *solution],
        "transform_out": ["transform", "--group", "6", "--lambda", "0.3", *solution],
        "verify_report": ["verify", "--suite", "algebra", "--report", missing],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("solution", [
    ["--solution", "rotational", "--k", "nan", "--c", "0.3466"],
    ["--solution", "rotational", "--k", "1", "--c", "inf"],
    ["--solution", "conical", "--C1", "nan", "--C2", "2"],
    ["--solution", "harmonic:x", "--k", "2"],
    ["--solution", "rotational", "--k", "1", "--c", "0.3466", "--C1", "3"],
])
def test_bad_or_foreign_solution_parameter_exits_two(solution, tmp_path, capsys):
    # a NaN parameter used to export NaN cells, a foreign one to be ignored
    out = tmp_path / "x.csv"
    assert main(["eval", *solution, "--grid", "0.8,1.2,3,0.05,0.3,3,0,0.25,3",
                 "--fields", "Q,q", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--h", "--margin"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_config_value_exits_two(flag, value, capsys):
    assert main(["verify", "--suite", "algebra", flag, value]) == 2
    assert "must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["h", "margin"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
def test_run_config_rejects_non_finite_or_non_positive(name, value):
    with pytest.raises(ConfigError, match=name):
        RunConfig(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("seed", 1.5), ("volume_grid", 8.5), ("gauss_order", 2.5), ("gauss_order", 32.0),
    ("gauss_order", True), ("seed", True), ("order", 4.0), ("build_grid", 12.0),
    ("samples", 10.5)])
def test_run_config_rejects_a_non_int_count(name, value):
    # seed 1.5 used to place Halton points at fractional indices and
    # volume_grid 8.5 to be truncated to 8
    with pytest.raises(ConfigError, match=rf"RunConfig.{name} must be .*int.*, got {value!r}$"):
        RunConfig(**{name: value})


@pytest.mark.parametrize("make, error, message", [
    (lambda: DiffScheme(h=True), ValueError, "DiffScheme.h must be finite and positive, got True"),
    (lambda: DiffScheme(order=4.0), ValueError, "DiffScheme.order must be the int 2 or 4, got 4.0"),
    (lambda: RunConfig(h=True), ConfigError, "RunConfig.h must be finite and positive, got True"),
    (lambda: RunConfig(margin=True), ConfigError,
     "RunConfig.margin must be finite and positive, got True"),
    (lambda: RunConfig(tolerances={"basis_table": True}), ConfigError,
     "tolerance override 'basis_table' must be finite and >= 0, got True")],
    ids=["scheme-h", "scheme-order", "config-h", "config-margin", "config-tolerance"])
def test_a_bool_or_float_where_a_number_or_int_is_wanted_is_rejected(make, error, message):
    # each of these was accepted, and True kept as the setting
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("key", ["seed", "volume_grid", "gauss_order"])
def test_non_int_count_exits_two_from_flag_and_config_file(key, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:  # argparse's exit
        main(["verify", "--suite", "algebra", "--" + key.replace("_", "-"), "2.5"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 2.5\n")
    assert main(["verify", "--suite", "algebra", "--config", str(cfg)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_bad_tolerance_override_exits_two(value, tmp_path, capsys):
    # no residual can be held to such a bound: a usage error, not a verdict
    assert main(["verify", "--suite", "algebra", "--tol",
                 f"associativity={value}"]) == 2
    assert "must be finite and >= 0" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"tol.associativity = {value}\n")
    assert main(["verify", "--suite", "algebra", "--config", str(cfg)]) == 2
    assert "must be finite and >= 0" in capsys.readouterr().err


def test_zero_tolerance_override_is_valid():
    # zero is basis_table's own tolerance
    config = RunConfig(tolerances={"basis_table": 0.0})
    assert config.tolerance("basis_table", 1.0) == 0.0


@pytest.mark.parametrize("suite", ["solutions", "oned", "euler_picard"])
def test_negative_seed_exits_two(suite, capsys):
    # these suites draw only Halton samples, which a negative seed would put
    # all at the box's lower corner
    assert main(["verify", "--suite", suite, "--seed", "-2"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_negative_seed_rejected_by_config_and_sampler():
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(seed=-1)
    box = (Point3(0, 0, 0), Point3(1, 1, 1))
    with pytest.raises(ValueError, match="seed"):
        halton_points(box, 3, seed=-1)
    assert len(set(halton_points(box, 3, seed=0))) == 3


@pytest.mark.parametrize("suite", ["algebra", "operators"])
def test_gauss_order_below_one_exits_two(suite, capsys):
    # rejected for every suite, not only those that build a QuadratureSpec
    assert main(["verify", "--suite", suite, "--gauss-order", "0"]) == 2
    assert "gauss_order must be >= 1" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="gauss_order"):
        RunConfig(gauss_order=0)


def test_gauss_order_above_100_exits_two_before_any_node_is_computed(monkeypatch, capsys):
    # numpy's leggauss is tested up to degree 100 and builds an n x n
    # matrix, so --gauss-order 100000 used to ask for about 80 GB
    def no_nodes(n):
        raise AssertionError(f"Gauss nodes of order {n} computed")
    monkeypatch.setattr(fields, "_gauss_nodes", no_nodes)
    assert main(["verify", "--suite", "operators", "--gauss-order", "101"]) == 2
    assert "RunConfig.gauss_order must be <= 100, got 101" in capsys.readouterr().err
    with pytest.raises(ValueError, match="gauss_order must be an int from 1 to 100, got 101$"):
        QuadratureSpec(gauss_order=101)
    assert RunConfig(gauss_order=100).gauss_order == QuadratureSpec(gauss_order=100).gauss_order


def test_run_config_takes_its_quadrature_defaults_from_quadrature_spec():
    # one default each: the report's config_echo and a bare operator_A agree
    assert (RunConfig().gauss_order, RunConfig().volume_grid) == \
        (QuadratureSpec().gauss_order, QuadratureSpec().volume_grid)


@pytest.mark.parametrize("flag, value", [("--line-rule", "gauss"), ("--line-tol", "1e-10")])
def test_the_removed_line_rule_flags_exit_two(flag, value, capsys):
    # operator A has one rule, fixed Gauss-Legendre: no rule or tolerance to set
    with pytest.raises(SystemExit) as exc:  # argparse's exit
        main(["verify", "--suite", "algebra", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("suite", SUITES)
def test_line_rule_from_config_file_exits_two_for_every_suite(suite, tmp_path, capsys):
    # a config file's line_rule used to be checked only by suites that build
    # a QuadratureSpec (algebra exited 0); both removed keys are now unknown
    # to every suite
    cfg = tmp_path / "run.cfg"
    for key, value in (("line_rule", "simpson"), ("line_tol", "1e-10")):
        cfg.write_text(f"{key} = {value}\n")
        assert main(["verify", "--suite", suite, "--config", str(cfg)]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "transform"])
@pytest.mark.parametrize("margin", ["nan", "-1", "0", "inf"])
def test_solution_margin_must_be_finite_and_positive(command, margin, tmp_path, capsys):
    # nan, -1 and 0 used to shrink the excluded set silently (3 masked rows
    # of 72 instead of 12) and exit 0
    extra = ["--group", "3", "--lambda", "0.1"] if command == "transform" else []
    code = main([command, "--solution", "rotational", "--k", "1", "--c", "0.3466",
                 "--grid", "0,1.4,8,0,0.6,3,-0.6,0.6,3", "--margin", margin, *extra,
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "margin must be finite and positive" in capsys.readouterr().err


def test_threads_setting_exits_two(tmp_path, capsys):
    # checks run serially; a thread count is neither a flag nor a config key
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "algebra", "--threads", "2"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = 2\n")
    assert main(["verify", "--suite", "algebra", "--config", str(cfg)]) == 2
    assert "unknown config key 'threads'" in capsys.readouterr().err


def test_eval_row_count_contract(tmp_path, capsys):
    out = tmp_path / "rot.csv"
    assert main(["eval", "--solution", "rotational", "--k", "1", "--c", "0",
                 "--grid", "1.5,3,11,0,1,11,0,1,11", "--fields", "Q,q,residuals",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 1331 + 1              # header + 11^3 rows
    header = lines[0].split(",")
    assert header[:4] == ["x", "y", "z", "masked"]
    assert "Re_u" in header and "Im_resid_sc" in header
    # the residual columns of unmasked rows stay within the solution budget
    idx = [header.index(f"Re_resid_{n}") for n in ("sc", "v1", "v2", "v3")]
    for line in lines[1:]:
        cells = line.split(",")
        if cells[3] == "1":
            continue
        assert max(abs(float(cells[i])) for i in idx) <= 1e-6


def test_eval_byte_identical_across_runs(tmp_path, capsys):
    args = ["eval", "--solution", "conical", "--C1", "0", "--C2", str(math.e),
            "--grid", "0.8,1.2,5,0,0.3,4,0,0.25,4", "--fields", "Q,q,psi"]
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_eval_json_round_trips_byte_exactly(tmp_path, capsys):
    out = tmp_path / "rot.json"
    assert main(["eval", "--solution", "rotational", "--k", "1", "--c", "0",
                 "--grid", "1.5,2.5,4,0,0.8,4,0,0.8,3", "--format", "json",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    records = json.loads(text)
    assert len(records) == 4 * 4 * 3
    assert json.dumps(records, indent=2) + "\n" == text


def test_eval_masks_singular_cells(tmp_path, capsys):
    out = tmp_path / "masked.csv"
    # the grid straddles the rho = 1 singular cylinder of the c = 0 family
    assert main(["eval", "--solution", "rotational", "--k", "1", "--c", "0",
                 "--grid", "0.5,1.5,9,0,0.4,3,0,1,3", "--fields", "Q",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    rows = out.read_text().splitlines()[1:]
    masked = [r for r in rows if r.split(",")[3] == "1"]
    assert masked
    for row in masked:
        assert row.split(",")[4:] == [""] * 6    # empty Re/Im cells


def test_eval_fully_masked_grid_exits_two(tmp_path, capsys):
    out = tmp_path / "none.csv"
    code = main(["eval", "--solution", "rotational", "--k", "1", "--c", "0",
                 "--grid", "0.96,1.04,3,0,0.02,2,0,0.02,2", "--fields", "Q",
                 "--out", str(out)])
    assert code == 2
    assert "masked" in capsys.readouterr().err


def test_eval_psi_unavailable_exits_two(tmp_path, capsys):
    code = main(["eval", "--solution", "rotational", "--k", "1", "--c", "0",
                 "--grid", "1.5,2,2,0,0.5,2,0,0.5,2", "--fields", "psi",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    capsys.readouterr()


def test_eval_unknown_field_exits_two(tmp_path, capsys):
    code = main(["eval", "--solution", "rotational", "--k", "1", "--c", "0",
                 "--grid", "1.5,2,2,0,0.5,2,0,0.5,2", "--fields", "Q,curl",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    capsys.readouterr()


def test_eval_bad_grid_exits_two(tmp_path, capsys):
    code = main(["eval", "--solution", "rotational", "--k", "1", "--c", "0",
                 "--grid", "1,2,3", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("grid", [
    "0.5,1.0,2.7,0.05,0.4,4,-0.4,0.4,4",   # a count of 2.7 used to read as 2
    "0.5,1.0,4,0.05,0.4,4,-0.4,0.4,4.0",
    "0.5,inf,4,0.05,0.4,4,-0.4,0.4,4",
    "-inf,1.0,4,0.05,0.4,4,-0.4,0.4,4",
    "0.5,1.0,4,nan,0.4,4,-0.4,0.4,4",
    "0.5,1.0,4,0.05,0.4,4,-0.4,0.4,x",
])
@pytest.mark.parametrize("command", ["eval", "transform"])
def test_grid_rejects_non_finite_bounds_and_non_integer_counts(command, grid, tmp_path,
                                                               capsys):
    extra = ["--group", "6", "--lambda", "0.3"] if command == "transform" else []
    code = main([command, "--solution", "rotational", "--k", "1", "--c", "0.3466",
                 f"--grid={grid}", *extra, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "bad grid axis" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_transform_with_every_row_masked_exits_two(tmp_path, capsys):
    # the grid lies on the rotational solution's excluded axis; eval exits 2 too
    grid = "0,0.05,3,0,0.05,3,-0.5,0.5,3"
    for extra in (["eval"], ["transform", "--group", "6", "--lambda", "0.1"]):
        code = main([*extra, "--solution", "rotational", "--k", "1", "--c", "0.3466",
                     "--grid", grid, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "every grid point is masked" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
def test_transform_non_finite_lambda_exits_two(lam, tmp_path, capsys):
    code = main(["transform", "--solution", "rotational", "--k", "1", "--c", "0.3466",
                 "--group", "6", f"--lambda={lam}",
                 "--grid", "0.5,1.0,4,0.05,0.4,4,-0.4,0.4,4",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "lambda must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["-1000", "800"])
def test_transform_overflowing_dilation_exits_two(lam, tmp_path, capsys):
    code = main(["transform", "--solution", "harmonic:x", "--group", "7", f"--lambda={lam}",
                 "--grid", "0.5,1.0,4,0.05,0.4,4,-0.4,0.4,4",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: dilation parameter lambda")
    assert not (tmp_path / "x.csv").exists()


def test_transform_rotational_G6(tmp_path, capsys):
    out = tmp_path / "tr.csv"
    c = 0.5 * math.log(2.0)
    code = main(["transform", "--solution", "rotational", "--k", "1",
                 "--c", str(c), "--group", "6", "--lambda", "0.3",
                 "--grid", "0.5,1.0,4,0.05,0.4,4,-0.4,0.4,4",
                 "--out", str(out)])
    assert code == 0
    msg = capsys.readouterr().out
    assert "max |transport - pushforward|" in msg
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert "Re_discrepancy" in header and "Re_resid_sc" in header
    i_resid = header.index("Re_resid_sc")
    i_disc = header.index("Re_discrepancy")
    for line in lines[1:]:
        cells = line.split(",")
        if cells[3] == "1":
            continue
        assert abs(float(cells[i_resid])) <= 1e-5     # transported field solves
        assert abs(float(cells[i_disc])) <= 1e-10


def test_transform_conical_G10(tmp_path, capsys):
    out = tmp_path / "tr10.csv"
    code = main(["transform", "--solution", "conical", "--C1", "0",
                 "--C2", str(math.e), "--group", "10", "--lambda", "0.05",
                 "--grid", "0.85,1.15,4,0.02,0.25,3,0.02,0.2,3",
                 "--out", str(out)])
    assert code == 0
    capsys.readouterr()


def test_transform_incompatible_family_exits_two(tmp_path, capsys):
    code = main(["transform", "--solution", "rotational", "--k", "1", "--c", "0",
                 "--group", "8", "--lambda", "0.05",
                 "--grid", "1.5,2,3,0,1,3,0,1,3", "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "not compatible" in capsys.readouterr().err



# sha256 of two small exports, recorded before the per-point path was
# optimised (the JSON twins before the rows became columns); a later
# optimisation must leave the exported bytes unchanged.  The eval digests
# were re-recorded on purpose when the closed forms moved from libm's
# ``math`` functions to numpy's ufuncs, which round differently in the last
# bit: psi moved by 1 ulp in 6 cells and resid_psi with it, masks did not
# move.  They hold for a given numpy build and its CPU SIMD dispatch
# (``np.show_runtime()``).  The transform digests were re-recorded on purpose
# when transport and pushforward came to share one pull-back: the G_6
# pre-image moved by one ulp, so u, v and the residuals moved in their last
# bits and the discrepancy column became 0; masks did not move.
_EXPORT_DIGESTS = {
    "eval": ("9494719ae7a6b6a9f9c3361be73c03a1d76378ed55dc715bebab26daa7b8e8a4",
             ["eval", "--solution", "rotational", "--k", "1", "--c", "0.3466",
              "--grid", "0,1.4,8,0,0.6,3,-0.6,0.6,3", "--fields", "Q,q,psi,residuals"]),
    "transform": ("78015d2c0e324813a5826698376d58abb4e1bcbf81a279c863f3dfeaf9f9ffab",
                  ["transform", "--solution", "rotational", "--k", "1",
                   "--c", str(0.5 * math.log(2.0)), "--group", "6", "--lambda", "0.3",
                   "--grid", "0.5,1.0,4,0.05,0.4,4,-0.4,0.4,4"]),
}
_EXPORT_DIGESTS.update({
    "eval_json": ("73da85c160c9664beeb23bb86cd8edfae6020e44f300d03862a23a39f2f7b153",
                  _EXPORT_DIGESTS["eval"][1] + ["--format", "json"]),
    "transform_json": ("42c68f6fbd8c51a229c11d48fa7dc58f05097ca9b96d1b02f8a3ae73cbfa8c94",
                       _EXPORT_DIGESTS["transform"][1] + ["--format", "json"]),
})


@pytest.mark.parametrize("command", sorted(_EXPORT_DIGESTS))
def test_export_bytes_unchanged(command, tmp_path, capsys):
    digest, args = _EXPORT_DIGESTS[command]
    out = tmp_path / "export.csv"
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the x,y,z,masked columns of exports whose grids cross each
# singular set, recorded with the pointwise exporter: a row is masked when its
# point or (with residuals) a stencil point is off the domain, or when an
# evaluator raises at it; the harmonic:x grids take the ZeroCrossing path of
# psi = x = 0, at the centre and (the second one) at stencil points only
_MASKED_DIGESTS = {
    "rotational_axis_and_cylinder": (
        "aabb84c0e3c18cb210890947d3b5f7e759a38884d3d153b6d0ce4cc88f682607",
        ["--solution", "rotational", "--k", "1", "--c", "0.3466",
         "--grid=-1.6,1.6,17,-0.4,0.4,5,0,0.5,3"]),
    "conical_log_surface": (
        "175731357aa3319aa79750b4239c5357521f2c2ca7f23c8edd37c95dcfc58fcd",
        ["--solution", "conical", "--C1", "2", "--C2", repr(math.e),
         "--grid=0.5,2.0,16,0,0.3,4,0,0.3,4"]),
    "harmonic_x_zero_plane": (
        "50703cc6b9f7cdc52a96cdb9cb2cf4b0ab237766700c6c5909b494d9f0792b84",
        ["--solution", "harmonic:x", "--grid=-0.5,0.5,11,0.3,1.4,5,0.4,1.5,5"]),
    "harmonic_x_stencil_crossing": (
        "9dd405f8d6f90f2be24d292182bf672fd9ab5c946ec4f8a0a9d7225d173e74be",
        ["--solution", "harmonic:x", "--grid=-0.004,0.004,9,0.3,1.4,3,0.4,1.5,2"]),
}


@pytest.mark.parametrize("case", sorted(_MASKED_DIGESTS))
def test_masked_rows_unchanged(case, tmp_path, capsys):
    digest, args = _MASKED_DIGESTS[case]
    args = ["eval", *args, "--fields", "Q,q,psi,residuals"]
    out = tmp_path / "grid.csv"
    assert main(args + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    columns = "\n".join(",".join(line.split(",")[:4]) for line in lines)
    assert hashlib.sha256(columns.encode()).hexdigest() == digest
    masked = [line.split(",")[3] == "1" for line in lines[1:]]
    assert any(masked) and not all(masked)
    # the JSON export writes null in exactly the masked rows
    assert main(args + ["--format", "json", "--out", str(tmp_path / "grid.json")]) == 0
    capsys.readouterr()
    records = json.loads((tmp_path / "grid.json").read_text())
    assert [rec["masked"] == 1 for rec in records] == masked
    for rec, hole in zip(records, masked):
        values = [v for k, v in rec.items() if k not in ("x", "y", "z", "masked")]
        assert len(values) == 20  # Re and Im of 10 quantities
        assert all(v is None for v in values) if hole else None not in values


# the same for transform, recorded with the pointwise transform loop: a row
# is masked where the transported field, the pushforward or the residual
# (its stencil check included) raises a typed error
_TRANSFORM_MASKED_DIGESTS = {
    "rotational_G6": (
        "aabb84c0e3c18cb210890947d3b5f7e759a38884d3d153b6d0ce4cc88f682607",
        ["--solution", "rotational", "--k", "1", "--c", "0.3466", "--group", "6",
         "--lambda", "0.3", "--grid=-1.6,1.6,17,-0.4,0.4,5,0,0.5,3"]),
    "conical_G8": (
        "3e7c237a8967a966026166bc50d8d7de0384d5ee3b7be870c661d5d16f28f144",
        ["--solution", "conical", "--C1", "2", "--C2", repr(math.e), "--group", "8",
         "--lambda", "0.3", "--grid=-1,1,9,-1,1,9,-1,1,9"]),
    "harmonic_x_G2": (
        "50703cc6b9f7cdc52a96cdb9cb2cf4b0ab237766700c6c5909b494d9f0792b84",
        ["--solution", "harmonic:x", "--group", "2", "--lambda", "0.1",
         "--grid=-0.5,0.5,11,0.3,1.4,5,0.4,1.5,5"]),
    "harmonic_xyz_G1": (
        "975bd553d39bb1178879847221c2025a1806c99708524d1d663d66029042f53a",
        ["--solution", "harmonic:xyz", "--group", "1", "--lambda", "0.1",
         "--grid=-1,1,9,-1,1,9,-1,1,9"]),
}


@pytest.mark.parametrize("case", sorted(_TRANSFORM_MASKED_DIGESTS))
def test_transform_masked_rows_unchanged(case, tmp_path, capsys):
    digest, args = _TRANSFORM_MASKED_DIGESTS[case]
    args = ["transform", *args]
    out = tmp_path / "grid.csv"
    assert main(args + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    columns = "\n".join(",".join(line.split(",")[:4]) for line in lines)
    assert hashlib.sha256(columns.encode()).hexdigest() == digest
    masked = [line.split(",")[3] == "1" for line in lines[1:]]
    assert any(masked) and not all(masked)
    assert main(args + ["--format", "json", "--out", str(tmp_path / "grid.json")]) == 0
    capsys.readouterr()
    records = json.loads((tmp_path / "grid.json").read_text())
    assert [rec["masked"] == 1 for rec in records] == masked
    for rec, hole in zip(records, masked):
        values = [v for k, v in rec.items() if k not in ("x", "y", "z", "masked")]
        assert len(values) == 16  # Re and Im of 8 quantities
        assert all(v is None for v in values) if hole else None not in values


@pytest.mark.parametrize("command", ["eval", "transform"])
def test_eval_batch_size_does_not_show_in_the_export(command, monkeypatch, tmp_path, capsys):
    # both commands evaluate their rows in batches of cli._EVAL_CHUNK; 7
    # splits the grid mid-line and puts masked and unmasked rows in one batch
    if command == "eval":
        args = ["eval", *_MASKED_DIGESTS["rotational_axis_and_cylinder"][1],
                "--fields", "Q,q,psi,residuals"]
    else:
        args = ["transform", *_TRANSFORM_MASKED_DIGESTS["rotational_G6"][1]]
    assert main(args + ["--out", str(tmp_path / "one.csv")]) == 0
    monkeypatch.setattr(cli, "_EVAL_CHUNK", 7)
    assert main(args + ["--out", str(tmp_path / "two.csv")]) == 0
    capsys.readouterr()
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def _batch_sizes(monkeypatch, argv) -> list:
    """The size of every batch the exporter hands its evaluator while
    ``main(argv)`` runs."""
    sizes = []

    def export(args, evaluate, ok_mask=None):
        def counting(P):
            sizes.append(P.x.size)
            return evaluate(P)
        return _export(args, counting, ok_mask)
    _export = cli._export
    monkeypatch.setattr(cli, "_export", export)
    assert main(argv) == 0
    return sizes


def test_eval_masks_every_row_of_a_failing_check_in_one_retry(monkeypatch, tmp_path, capsys):
    # the 25 rows on the plane x = 0 raise ZeroCrossing in one check: they are
    # masked together, so the batch is evaluated twice, not 26 times
    args = ["eval", *_MASKED_DIGESTS["harmonic_x_zero_plane"][1], "--fields", "Q,q,psi,residuals"]
    sizes = _batch_sizes(monkeypatch, args + ["--out", str(tmp_path / "grid.csv")])
    assert "(25 masked)" in capsys.readouterr().out
    assert sizes == [275, 250]


def test_transform_masks_every_row_of_a_failing_check_in_one_retry(monkeypatch, tmp_path,
                                                                   capsys):
    # the 153 rows on the planes y = 0 and z = 0 raise ZeroCrossing where the
    # transported field divides by psi = xyz; the error names them all, so
    # the batch is evaluated twice, not 154 times
    args = ["transform", *_TRANSFORM_MASKED_DIGESTS["harmonic_xyz_G1"][1]]
    sizes = _batch_sizes(monkeypatch, args + ["--out", str(tmp_path / "grid.csv")])
    capsys.readouterr()
    assert sizes == [729, 729 - 153]


def test_transform_calls_the_transported_field_once_per_stencil_point(monkeypatch, tmp_path,
                                                                      capsys):
    # each batch evaluates the transported field once at each of the
    # residual's 12 stencil points and once at its points, which the residual
    # hands on to the u, v, w columns: 13 vectorized calls however many rows
    # the batch holds
    calls = []

    def counting(*args, **kwargs):
        moved = transport_solution(*args, **kwargs)
        fn = moved.fn
        moved.fn = lambda p: calls.append(p) or fn(p)
        return moved
    transport_solution = cli.transport_solution
    monkeypatch.setattr(cli, "transport_solution", counting)
    args = ["transform", *_TRANSFORM_MASKED_DIGESTS["conical_G8"][1]]
    sizes = _batch_sizes(monkeypatch, args + ["--out", str(tmp_path / "grid.csv")])
    capsys.readouterr()
    assert sizes[0] == 9 ** 3
    assert 0 < len(calls) <= 13 * len(sizes)


@pytest.mark.parametrize("command", ["eval", "transform"])
def test_export_evaluates_Q_once_per_stencil_point_and_once_at_its_rows(command, monkeypatch,
                                                                         tmp_path, capsys):
    # per batch of n rows, Q is evaluated once at the residual's 12 stencil
    # points (order 4) stacked, 12 n points, and once at the n rows; the u, v,
    # w columns reuse that centre value
    calls = []

    def count(Q):
        fn = Q.fn
        monkeypatch.setattr(Q, "fn", lambda p: calls.append(p.x.size) or fn(p))
        return Q
    grid = "--grid=0.5,1.0,4,0.05,0.4,4,-0.4,0.4,4"  # 64 rows, none masked
    if command == "eval":
        entry_from_args = cli._entry_from_args
        monkeypatch.setattr(cli, "_entry_from_args",
                            lambda args: (entry := entry_from_args(args),
                                          count(entry.instance.Q))[0])
        args = ["eval", "--solution", "rotational", "--k", "1", "--c", "0.3466", grid,
                "--fields", "Q,q,psi,residuals"]
    else:
        transport_solution = cli.transport_solution
        monkeypatch.setattr(cli, "transport_solution",
                            lambda *a: count(transport_solution(*a)))
        args = ["transform", "--solution", "rotational", "--k", "1", "--c", "0.3466",
                "--group", "6", "--lambda", "0.3", grid]
    monkeypatch.setattr(cli, "_EVAL_CHUNK", 25)
    sizes = _batch_sizes(monkeypatch, args + ["--out", str(tmp_path / "grid.csv")])
    capsys.readouterr()
    assert sizes == [25, 25, 14]  # no row masked, so no batch retried
    assert calls == [m for n in sizes for m in (12 * n, n)]


def test_eval_evaluates_q_once_and_psi_once_per_stencil_point(monkeypatch, tmp_path, capsys):
    # per batch of n rows, psi is evaluated once at the Laplacian's 12 stencil
    # points and its centre (order 4) stacked, 13 n points, and q at the n
    # rows once: the q and psi columns and the Schrodinger residual reuse the
    # values of the residual pass
    calls = {"q": [], "psi": []}

    def count(entry):
        for name, f in (("q", entry.instance.q), ("psi", entry.psi)):
            monkeypatch.setattr(f, "fn", lambda p, fn=f.fn, log=calls[name]:
                                log.append(p.x.size) or fn(p))
        return entry
    entry_from_args = cli._entry_from_args
    monkeypatch.setattr(cli, "_entry_from_args", lambda args: count(entry_from_args(args)))
    monkeypatch.setattr(cli, "_EVAL_CHUNK", 25)
    args = ["eval", "--solution", "rotational", "--k", "1", "--c", "0.3466",
            "--grid=0.5,1.0,4,0.05,0.4,4,-0.4,0.4,4", "--fields", "Q,q,psi,residuals",
            "--out", str(tmp_path / "grid.csv")]
    sizes = _batch_sizes(monkeypatch, args)
    capsys.readouterr()
    assert sizes == [25, 25, 14]  # no row masked, so no batch retried
    assert calls["q"] == sizes
    assert calls["psi"] == [13 * n for n in sizes]


def _write_rows_per_cell(path, fmt, grid, masked, values):
    """The exporter's writer as it was before it formatted each distinct
    value once: ``repr`` of every cell.  The oracle for the bytes."""
    header = ["x", "y", "z", "masked"]
    columns = [c.tolist() for c in grid] + [masked.astype(int).tolist()]
    for name, val in values.items():
        header += [f"Re_{name}", f"Im_{name}"]
        columns += [val.real.tolist(), val.imag.tolist()]
    if fmt == "csv":
        columns, blank = [list(map(repr, col)) for col in columns], ""
    else:
        blank = None
    holes = np.flatnonzero(masked).tolist()
    for col in columns[4:]:
        for i in holes:
            col[i] = blank
    with open(path, "w", newline="") as fh:
        if fmt == "csv":
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join(row) + "\n" for row in zip(*columns))
        else:
            json.dump([dict(zip(header, row)) for row in zip(*columns)], fh, indent=2)
            fh.write("\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_equals_the_per_cell_repr_writer(fmt, tmp_path):
    # signed zeros, neighbours one ulp apart, extreme magnitudes, long runs of
    # one value and masked rows, in grid and quantity columns alike
    special = np.array([0.0, -0.0, 1e16, 1e-5, 5e-324, -5e-324, 1.7976931348623157e308,
                        -1.7976931348623157e308, 0.1, np.nextafter(0.1, 1.0),
                        np.nextafter(0.1, 0.0), 1.0, np.nextafter(1.0, 2.0),
                        np.nextafter(1e16, 0.0), 1e16 + 2.0])
    rng = np.random.default_rng(19)
    n = 6 * special.size
    grid = [np.repeat(special, 6), np.tile(special, 6), rng.choice(special, n)]
    masked = np.zeros(n, dtype=bool)
    masked[::7] = True
    masked[20:31] = True
    zeros = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    values = {"a": rng.choice(special, n) + 1j * zeros,
              "b": np.full(n, 1 / 3) + 1j * rng.standard_normal(n),
              "c": special[np.arange(n) // 30] - 1j * rng.choice(special, n)}
    cli._write_rows(str(tmp_path / "new"), fmt, grid, masked, values)
    _write_rows_per_cell(str(tmp_path / "old"), fmt, grid, masked, values)
    new = (tmp_path / "new").read_bytes()
    assert new == (tmp_path / "old").read_bytes()
    assert b"-0.0" in new and b"5e-324" in new and b"1.7976931348623157e+308" in new
