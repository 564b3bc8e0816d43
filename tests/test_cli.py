"""CLI contracts: exit codes, schemas, determinism."""

import hashlib
import json
import math

import pytest

from riccati3d.cli import main
from riccati3d.errors import ConfigError
from riccati3d.fields import Point3
from riccati3d.report import RunConfig
from riccati3d.verify import halton_points


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


@pytest.mark.parametrize("flag", ["--h", "--line-tol", "--margin"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_config_value_exits_two(flag, value, capsys):
    assert main(["verify", "--suite", "algebra", flag, value]) == 2
    assert "must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["h", "line_tol", "margin"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
def test_run_config_rejects_non_finite_or_non_positive(name, value):
    with pytest.raises(ConfigError, match=name):
        RunConfig(**{name: value})


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
# optimised; a later optimisation must leave the exported bytes unchanged
_EXPORT_DIGESTS = {
    "eval": ("240f8e83a8459980c00675ca5d4c75246f8439d7e04b92cd60d2666a4483b2c2",
             ["eval", "--solution", "rotational", "--k", "1", "--c", "0.3466",
              "--grid", "0,1.4,8,0,0.6,3,-0.6,0.6,3", "--fields", "Q,q,psi,residuals"]),
    "transform": ("6dc9c737923e39be55f28b23c339a547504a8f084c3b213e49ec7530982512ba",
                  ["transform", "--solution", "rotational", "--k", "1",
                   "--c", str(0.5 * math.log(2.0)), "--group", "6", "--lambda", "0.3",
                   "--grid", "0.5,1.0,4,0.05,0.4,4,-0.4,0.4,4"]),
}


@pytest.mark.parametrize("command", sorted(_EXPORT_DIGESTS))
def test_export_bytes_unchanged(command, tmp_path, capsys):
    digest, args = _EXPORT_DIGESTS[command]
    out = tmp_path / "export.csv"
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
