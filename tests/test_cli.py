"""Command-line behaviour: reports, determinism, exit codes."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from relusolve.cli import main
from relusolve.problems import gen_laplacian, read_coo


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def build_small_net(capsys, tmp_path, eps="0.5", n="8", method="richardson"):
    path = tmp_path / f"{method}-{n}-{eps}.json"
    rc, out, err = run_cli(
        capsys,
        "build",
        "--method",
        method,
        "--problem",
        "laplacian1d",
        "--n",
        n,
        "--eps",
        eps,
        "--out",
        str(path),
    )
    assert rc == 0, err
    return path, json.loads(out)


def test_build_emits_report_and_network(capsys, tmp_path):
    path, report = build_small_net(capsys, tmp_path)
    assert path.exists()
    assert report["command"] == "build"
    assert report["parameters"]["method"] == "richardson"
    assert report["results"]["metadata"]["m"] == 23
    assert report["results"]["stats"]["depth"] >= 3


def test_build_is_deterministic(capsys, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a, _ = build_small_net(capsys, tmp_path / "a")
    b, _ = build_small_net(capsys, tmp_path / "b")
    assert a.read_bytes() == b.read_bytes()


def test_verify_passes_on_intact_network(capsys, tmp_path):
    path, _ = build_small_net(capsys, tmp_path)
    report_path = tmp_path / "verify.json"
    rc, out, err = run_cli(
        capsys,
        "verify",
        "--net",
        str(path),
        "--problem",
        "laplacian1d",
        "--n",
        "8",
        "--samples",
        "20",
        "--out",
        str(report_path),
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    res = report["results"]
    assert res["passed"] is True
    assert res["zero_rhs_exact"] is True
    assert res["max_error"] <= res["epsilon"]
    assert {"load_s", "eval_s", "total_s"} <= set(report["durations"])
    assert report["peak_rss_mb"] > 0
    assert len(res["per_sample_errors"]) == 20


def test_verify_fails_on_zeroed_weight(capsys, tmp_path):
    path, _ = build_small_net(capsys, tmp_path, eps="0.1")
    data = json.loads(path.read_text())
    # the output layer reads a (+, -) channel pair per component; zero both
    # weights of component 0 so that output coordinate collapses to 0
    data["layers"][-1]["triplets"][0][2] = 0.0
    data["layers"][-1]["triplets"][1][2] = 0.0
    path.write_text(json.dumps(data))
    rc, out, err = run_cli(
        capsys, "verify", "--net", str(path), "--problem", "laplacian1d", "--n", "8"
    )
    assert rc == 1


def test_verify_rejects_non_finite_weight_as_format_error(capsys, tmp_path):
    path, _ = build_small_net(capsys, tmp_path)
    data = json.loads(path.read_text())
    data["layers"][1]["triplets"][0][2] = float("nan")
    path.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "verify", "--net", str(path), "--n", "8")
    assert rc == 3
    assert "layer 2: non-finite weight" in err


def test_verify_rejects_broken_shape_chain_as_format_error(capsys, tmp_path):
    path, _ = build_small_net(capsys, tmp_path)
    data = json.loads(path.read_text())
    # the widths still match the rows, but layer 2 now reads one input too many
    data["layers"][1]["cols"] += 1
    path.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "verify", "--net", str(path), "--n", "8")
    assert rc == 3
    assert "layer 2: weight expects" in err


@pytest.mark.parametrize("metadata", [7, [1, 2], "text"])
def test_verify_rejects_metadata_that_is_not_an_object(capsys, tmp_path, metadata):
    path, _ = build_small_net(capsys, tmp_path)
    data = json.loads(path.read_text())
    data["metadata"] = metadata
    path.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "verify", "--net", str(path), "--n", "8")
    assert rc == 3
    assert "metadata is not a JSON object" in err


def test_verify_rejects_negative_sample_count(capsys, tmp_path):
    path, _ = build_small_net(capsys, tmp_path)
    rc, out, err = run_cli(capsys, "verify", "--net", str(path), "--n", "8", "--samples", "-3")
    assert rc == 2 and out == ""
    assert "--samples must be >= 0" in err


def test_verify_rejects_mismatched_problem_size(capsys, tmp_path):
    path, _ = build_small_net(capsys, tmp_path)
    rc, out, err = run_cli(
        capsys, "verify", "--net", str(path), "--problem", "laplacian1d", "--n", "9"
    )
    assert rc == 2
    assert "does not match" in err


def test_eval_writes_solution_vector(capsys, tmp_path):
    path, _ = build_small_net(capsys, tmp_path)
    out_path = tmp_path / "x.txt"
    rc, out, err = run_cli(
        capsys,
        "eval",
        "--net",
        str(path),
        "--problem",
        "laplacian1d",
        "--n",
        "8",
        "--out",
        str(out_path),
    )
    assert rc == 0
    report = json.loads(out)
    x = np.loadtxt(out_path)
    assert x.shape == (8,)
    assert np.allclose(x, report["results"]["output"], rtol=0, atol=0)
    assert abs(report["results"]["realized_c_sc"] - 1.0) <= 1e-9
    assert {"load_s", "eval_s", "total_s"} <= set(report["durations"])
    assert report["peak_rss_mb"] > 0


def test_eval_accepts_rhs_file_and_checks_length(capsys, tmp_path):
    path, _ = build_small_net(capsys, tmp_path)
    rhs = tmp_path / "r.txt"
    rhs.write_text("\n".join(["0.01"] * 8) + "\n")
    rc, out, err = run_cli(
        capsys, "eval", "--net", str(path), "--n", "8", "--rhs", str(rhs)
    )
    assert rc == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("0.01\n0.02\n")
    rc, out, err = run_cli(
        capsys, "eval", "--net", str(path), "--n", "8", "--rhs", str(bad)
    )
    assert rc == 2
    assert "rhs has 2 entries" in err
    nan_rhs = tmp_path / "nan.txt"
    nan_rhs.write_text("\n".join(["0.01"] * 7 + ["nan"]) + "\n")
    rc, out, err = run_cli(
        capsys, "eval", "--net", str(path), "--n", "8", "--rhs", str(nan_rhs)
    )
    assert rc == 2
    assert err.startswith("error: layer 1: non-finite")


def test_gen_round_trips_through_read_coo(capsys, tmp_path):
    coo = tmp_path / "m.coo"
    rc, out, err = run_cli(capsys, "gen", "--problem", "laplacian1d", "--n", "6", "--out", str(coo))
    assert rc == 0
    report = json.loads(out)
    fem = gen_laplacian(1, 6)
    assert report["results"]["eta"] == fem.pattern.eta
    back = read_coo(coo)
    assert np.array_equal(back.values, fem.matrix.values)


def test_build_from_coo_file_estimates_spectrum(capsys, tmp_path):
    coo = tmp_path / "m.coo"
    rc, _, _ = run_cli(capsys, "gen", "--problem", "laplacian1d", "--n", "6", "--out", str(coo))
    assert rc == 0
    net_path = tmp_path / "net.json"
    rc, out, err = run_cli(
        capsys,
        "build",
        "--method",
        "cg",
        "--problem",
        f"file:{coo}",
        "--eps",
        "0.5",
        "--out",
        str(net_path),
    )
    assert rc == 0
    meta = json.loads(out)["results"]["metadata"]
    fem = gen_laplacian(1, 6)
    assert meta["lambda"] <= fem.spectral.lam <= fem.spectral.Lam <= meta["Lambda"]
    rc, out, err = run_cli(
        capsys, "verify", "--net", str(net_path), "--problem", f"file:{coo}", "--samples", "5"
    )
    assert rc == 0


def test_audit_csv_table(capsys, tmp_path):
    out_path = tmp_path / "audit.csv"
    rc, out, err = run_cli(
        capsys,
        "audit",
        "--n",
        "8",
        "--eps",
        "0.5,0.1",
        "--method",
        "richardson",
        "--out",
        str(out_path),
    )
    assert rc == 0
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert len(rows) == 2
    assert list(rows[0]) == [
        "method", "n", "eta", "kappa", "eps", "m", "L", "M", "ratio_L", "ratio_M", "flagged",
    ]
    assert {row["m"] for row in rows} == {"23", "49"}
    assert all(row["flagged"] == "False" for row in rows)


def test_audit_accepts_method_lists(capsys, tmp_path):
    out_path = tmp_path / "audit.csv"
    rc, out, err = run_cli(
        capsys, "audit", "--n", "8", "--eps", "0.5", "--method", "richardson,cg", "--out", str(out_path)
    )
    assert rc == 0
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert [row["method"] for row in rows] == ["richardson", "cg"]
    rc, out, err = run_cli(capsys, "audit", "--n", "8", "--eps", "0.5", "--method", "sor")
    assert rc == 2 and "unknown method" in err


@pytest.mark.parametrize("flag,name", [("--n", "integer"), ("--eps", "float"), ("--method", "method")])
@pytest.mark.parametrize("value", ["", ","])
def test_audit_rejects_empty_lists(capsys, flag, name, value):
    argv = {"--n": "8", "--eps": "0.5", "--method": "cg", flag: value}
    rc, out, err = run_cli(capsys, "audit", *[a for kv in argv.items() for a in kv])
    assert rc == 2 and out == ""
    assert f"need at least one {name}" in err


def test_audit_json_report(capsys):
    rc, out, err = run_cli(
        capsys, "audit", "--n", "8", "--eps", "0.5", "--method", "cg", "--format", "json"
    )
    assert rc == 0
    report = json.loads(out)
    rows = report["results"]["rows"]
    assert len(rows) == 1 and rows[0]["m"] == 6 and rows[0]["flagged"] is False


def test_exit_codes_for_common_failures(capsys, tmp_path):
    rc, out, err = run_cli(
        capsys, "build", "--method", "richardson", "--eps", "1.5", "--out", str(tmp_path / "x.json")
    )
    assert rc == 2 and "epsilon" in err
    rc, out, err = run_cli(capsys, "verify", "--net", str(tmp_path / "missing.json"))
    assert rc == 3
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    rc, out, err = run_cli(capsys, "verify", "--net", str(broken))
    assert rc == 3 and "not valid JSON" in err
    rc, out, err = run_cli(
        capsys, "build", "--method", "cg", "--problem", "nosuch", "--out", str(tmp_path / "y.json")
    )
    assert rc == 2 and "unknown problem" in err
    bad_coo = tmp_path / "bad.coo"
    bad_coo.write_text("1 1\n1 1 junk\n")
    rc, out, err = run_cli(
        capsys, "build", "--method", "cg", "--problem", f"file:{bad_coo}", "--out", str(tmp_path / "z.json")
    )
    assert rc == 3 and "malformed entry" in err


def test_verify_requires_solver_metadata(capsys, tmp_path):
    path, _ = build_small_net(capsys, tmp_path)
    data = json.loads(path.read_text())
    del data["metadata"]
    path.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "verify", "--net", str(path), "--n", "8")
    assert rc == 2
    assert "metadata missing" in err


def test_argparse_rejects_unknown_method(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--method", "sor", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_module_entry_point_reports_version():
    proc = subprocess.run(
        [sys.executable, "-m", "relusolve.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "relusolve 0.1.0"
