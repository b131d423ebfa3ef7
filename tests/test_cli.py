"""Command-line behaviour: reports, determinism, exit codes."""

import argparse
import csv
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relusolve
from conftest import pattern_of
from relusolve import cli, problems, solvers
from relusolve.arithmetic import SparseMatrix
from relusolve.cli import _resolve_problem, build_parser, main
from relusolve.network import load_network, stats
from relusolve.problems import gen_laplacian, read_coo, write_coo


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def build_small_net(capsys, tmp_path, eps="0.5", n="8", method="richardson"):
    path = tmp_path / f"{method}-{n}-{eps}.npz"
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


def tamper(path, edit):
    """Rewrite the arrays of a saved network through edit(arrays)."""
    with np.load(path) as archive:
        arrays = dict(archive)
    edit(arrays)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def weights_at(arrays, position):
    """The slice of arrays["data"] that holds the weights of the layer at position."""
    ends = arrays["indptr"][np.cumsum(arrays["shapes"][:, 0] + 1) - 1]
    entry = arrays["program"][position]
    start = int(ends[:entry].sum())
    return slice(start, start + int(ends[entry]))


def set_weight(position, k, value):
    """An edit that sets the k-th stored weight of the layer at position."""
    def edit(arrays):
        arrays["data"][weights_at(arrays, position).start + k] = value
    return edit


def test_build_emits_report_and_network(capsys, tmp_path):
    path, report = build_small_net(capsys, tmp_path)
    assert path.exists()
    assert report["command"] == "build"
    assert report["parameters"]["method"] == "richardson"
    assert report["results"]["metadata"]["m"] == 23
    assert report["results"]["stats"]["depth"] >= 3


def test_build_and_verify_report_neurons(capsys, tmp_path):
    path, report = build_small_net(capsys, tmp_path)
    neurons = stats(load_network(path)).neurons
    assert neurons > 0
    assert report["results"]["stats"]["neurons"] == neurons
    rc, out, err = run_cli(capsys, "verify", "--net", str(path), "--n", "8", "--samples", "2")
    assert rc == 0, err
    assert json.loads(out)["results"]["stats"]["neurons"] == neurons


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


@pytest.mark.parametrize("samples", ["3", "0"])
def test_verify_counts_the_zero_rhs_in_its_error(capsys, tmp_path, monkeypatch, samples):
    # r = 0 is admissible and its solution is 0: an output off by 1 in every
    # entry of that column fails verify, with or without random samples
    path, _ = build_small_net(capsys, tmp_path)
    evaluate = cli.evaluate

    def shifted(net, x):
        out = evaluate(net, x)
        out[:, -1] += 1.0
        return out

    monkeypatch.setattr(cli, "evaluate", shifted)
    rc, out, err = run_cli(capsys, "verify", "--net", str(path), "--n", "8", "--samples", samples)
    assert rc == 1, err
    res = json.loads(out)["results"]
    assert res["passed"] is False and res["zero_rhs_exact"] is False
    assert res["max_error"] == pytest.approx(np.sqrt(8))


def test_verify_fails_on_zeroed_weight(capsys, tmp_path):
    path, _ = build_small_net(capsys, tmp_path, eps="0.1")
    # the output layer reads (+, -) channel pairs per component; negate every
    # weight of component 0 (row 0) so that output coordinate changes sign
    def negate(arrays):
        entry = arrays["program"][-1]
        row_0_end = arrays["indptr"][int((arrays["shapes"][:entry, 0] + 1).sum()) + 1]
        arrays["data"][weights_at(arrays, -1)][:row_0_end] *= -1.0

    tamper(path, negate)
    rc, out, err = run_cli(
        capsys, "verify", "--net", str(path), "--problem", "laplacian1d", "--n", "8"
    )
    assert rc == 1


def test_verify_rejects_non_finite_weight_as_format_error(capsys, tmp_path):
    path, _ = build_small_net(capsys, tmp_path)
    tamper(path, set_weight(1, 0, np.nan))
    rc, out, err = run_cli(capsys, "verify", "--net", str(path), "--n", "8")
    assert rc == 3
    assert "layer 2: non-finite weight" in err


def test_verify_rejects_stored_zero_weight_as_format_error(capsys, tmp_path):
    path, _ = build_small_net(capsys, tmp_path)
    tamper(path, set_weight(1, 0, 0.0))
    rc, out, err = run_cli(capsys, "verify", "--net", str(path), "--n", "8")
    assert rc == 3
    assert "layer 2: a stored weight is zero" in err


def test_verify_rejects_broken_shape_chain_as_format_error(capsys, tmp_path):
    path, _ = build_small_net(capsys, tmp_path)
    def widen(arrays):
        # layer 2 now reads one input more than layer 1 has rows
        arrays["shapes"][arrays["program"][1], 1] += 1

    tamper(path, widen)
    rc, out, err = run_cli(capsys, "verify", "--net", str(path), "--n", "8")
    assert rc == 3
    # the message of ReluNetwork's chain check, raised as a format error
    assert re.search(r"layer 2: weight expects \d+ inputs but receives \d+", err)


@pytest.mark.parametrize("metadata", [7, [1, 2], "text"])
def test_verify_rejects_metadata_that_is_not_an_object(capsys, tmp_path, metadata):
    path, _ = build_small_net(capsys, tmp_path)
    tamper(path, lambda arrays: arrays.update(metadata=np.array(json.dumps(metadata))))
    rc, out, err = run_cli(capsys, "verify", "--net", str(path), "--n", "8")
    assert rc == 3
    assert "metadata is not a JSON object" in err


@pytest.mark.parametrize(
    "key,value",
    [("epsilon", "0.5"), ("c_sc", None), ("m", [1]), ("method", "sor"), ("n", True),
     ("eta", 22.0), ("lambda", float("nan")), ("Lambda", float("inf"))],
)
def test_eval_and_verify_reject_mistyped_metadata(capsys, tmp_path, key, value):
    path, _ = build_small_net(capsys, tmp_path)

    def retype(arrays):
        meta = json.loads(arrays["metadata"].item())
        meta[key] = value
        arrays["metadata"] = np.array(json.dumps(meta))

    tamper(path, retype)
    for command in ("eval", "verify"):
        rc, out, err = run_cli(capsys, command, "--net", str(path), "--n", "8")
        assert rc == 2 and out == ""
        assert f"network metadata {key!r} has the invalid value" in err


def test_verify_loads_a_deep_network_in_a_4_gb_address_space(capsys, tmp_path):
    # richardson n=32, eps=0.1: 6,075 positions over 14 distinct layers
    path, report = build_small_net(capsys, tmp_path, eps="0.1", n="32")
    assert report["results"]["stats"]["depth"] == 6075
    limit = 4_000_000_000

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": str(Path(relusolve.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "relusolve.cli", "verify", "--net", str(path), "--n", "32",
         "--samples", "3"],
        capture_output=True, text=True, env=env, timeout=300, preexec_fn=limit_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["passed"] is True


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


def test_verify_and_eval_reject_a_different_spectral_bracket(capsys, tmp_path):
    def build(*bracket):
        path = tmp_path / f"net-{'-'.join(bracket) or 'default'}.npz"
        rc, out, err = run_cli(capsys, "build", "--method", "cg", "--problem", "random", "--n", "8",
                               "--eps", "0.5", *bracket, "--out", str(path))
        assert rc == 0, err
        return str(path)

    narrow = build("--lam", "1", "--lam-max", "10")
    wide = build()
    for command in ("verify", "eval"):
        rc, out, err = run_cli(capsys, command, "--net", narrow, "--problem", "random", "--n", "8")
        assert rc == 2 and out == ""
        assert "problem bracket [1.0, 100.0] does not match the network's [1.0, 10.0]" in err
        # a bracket inside the network's would sample only a sliver of its class
        rc, out, err = run_cli(capsys, command, "--net", wide, "--problem", "random", "--n", "8",
                               "--lam", "4", "--lam-max", "5")
        assert rc == 2 and out == ""
        assert "problem bracket [4.0, 5.0] does not match the network's [1.0, 100.0]" in err
    rc, out, err = run_cli(capsys, "verify", "--net", narrow, "--problem", "random", "--n", "8",
                           "--lam", "1", "--lam-max", "10", "--samples", "5")
    assert rc == 0, err


@pytest.mark.parametrize("command", ["gen", "build", "eval", "verify", "audit"])
@pytest.mark.parametrize("problem", ["laplacian1d", "laplacian2d", "file"])
def test_lam_flags_are_refused_for_a_problem_that_brings_its_bracket(
    capsys, tmp_path, command, problem
):
    if problem == "file":
        coo = tmp_path / "lap.coo"
        write_coo(coo, gen_laplacian(1, 8).matrix)
        problem = f"file:{coo}"
    out_path = tmp_path / "out"
    net = str(build_small_net(capsys, tmp_path)[0]) if command in ("eval", "verify") else None
    argv = {
        "gen": ["--out", str(out_path)],
        "build": ["--method", "cg", "--eps", "0.5", "--out", str(out_path)],
        "eval": ["--net", net, "--out", str(out_path)],
        "verify": ["--net", net],
        "audit": ["--eps", "0.5", "--method", "cg", "--out", str(out_path)],
    }[command]
    for bracket in (["--lam", "5"], ["--lam-max", "2"], ["--lam", "5", "--lam-max", "2"]):
        rc, out, err = run_cli(capsys, command, "--problem", problem, "--n", "8", *bracket, *argv)
        assert rc == 2 and out == "", err
        assert "--lam and --lam-max apply only to --problem random" in err
        assert not out_path.exists()


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


def test_file_problem_brackets_an_ill_conditioned_operator(tmp_path):
    # the 1-d Laplacian at n=400, shifted down to kappa = 1e5
    fem = gen_laplacian(1, 400)
    shift = (fem.spectral.Lam - 1e5 * fem.spectral.lam) / (1e5 - 1)
    values = fem.matrix.values.copy()
    values[fem.pattern.diagonal_positions()] += shift
    coo = tmp_path / "shifted.coo"
    write_coo(coo, SparseMatrix(fem.pattern, values))
    _, _, spec, _ = _resolve_problem(f"file:{coo}", 0, 0)
    assert spec.lam <= fem.spectral.lam + shift <= fem.spectral.Lam + shift <= spec.Lam
    assert abs(spec.kappa / 1e5 - 1.0) <= 1e-4


def test_file_problem_bracket_is_bit_identical_across_resolutions(tmp_path):
    # eval and verify demand the exact bracket a network was built with
    coo = tmp_path / "lap2d.coo"
    write_coo(coo, gen_laplacian(2, 4).matrix)
    first = _resolve_problem(f"file:{coo}", 0, 0)[2]
    assert _resolve_problem(f"file:{coo}", 0, 0)[2] == first
    env = {**os.environ, "PYTHONPATH": str(Path(relusolve.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "relusolve.cli", "gen", "--problem", f"file:{coo}",
         "--out", str(tmp_path / "copy.coo")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert (results["lambda"], results["Lambda"]) == (first.lam, first.Lam)


@pytest.mark.parametrize(
    "eigenvalues,needle",
    [
        # n * 2**-52 * kappa = 1.3e-3 is far above the 1e-5 fold
        ([1e-12, 0.2, 0.4, 0.6, 0.8, 1.0], "too ill-conditioned to bracket"),
        ([-1.0, 0.2, 0.4, 0.6, 0.8, 1.0], "not positive definite"),
    ],
)
def test_file_problem_refuses_a_bracket_it_cannot_vouch_for(capsys, tmp_path, eigenvalues, needle):
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(6, 6)))
    dense = (q * eigenvalues) @ q.T
    coo = tmp_path / "a.coo"
    full = pattern_of([tuple(range(6))] * 6)
    write_coo(coo, SparseMatrix(full, ((dense + dense.T) / 2.0).ravel()))
    rc, out, err = run_cli(capsys, "build", "--method", "richardson", "--problem", f"file:{coo}",
                           "--out", str(tmp_path / "net.npz"))
    assert rc == 2 and out == ""
    assert needle in err


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
        "neurons",
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


def test_audit_rejects_a_list_entry_of_the_wrong_kind(capsys):
    rc, out, err = run_cli(capsys, "audit", "--n", "8,x", "--eps", "0.5", "--method", "cg")
    assert rc == 2 and out == ""
    assert "expected a comma-separated integer list, got '8,x'" in err


def test_laplacian2d_problem_builds_verifies_and_audits(capsys, tmp_path):
    path = tmp_path / "lap2d.npz"
    rc, out, err = run_cli(capsys, "build", "--method", "cg", "--problem", "laplacian2d", "--n", "3",
                           "--eps", "0.1", "--out", str(path))
    assert rc == 0, err
    assert json.loads(out)["results"]["metadata"]["n"] == 9
    rc, out, err = run_cli(capsys, "verify", "--net", str(path), "--problem", "laplacian2d", "--n", "3")
    assert rc == 0, err
    results = json.loads(out)["results"]
    assert results["passed"] and results["max_error"] <= 0.1
    rc, out, err = run_cli(capsys, "audit", "--problem", "laplacian2d", "--n", "3,4", "--eps", "0.1",
                           "--method", "cg", "--format", "json")
    assert rc == 0, err
    rows = json.loads(out)["results"]["rows"]
    assert [(row["n"], row["eta"]) for row in rows] == [(9, 33), (16, 64)]


def test_audit_json_report(capsys):
    rc, out, err = run_cli(
        capsys, "audit", "--n", "8", "--eps", "0.5", "--method", "cg", "--format", "json"
    )
    assert rc == 0
    report = json.loads(out)
    rows = report["results"]["rows"]
    assert len(rows) == 1 and rows[0]["m"] == 6 and rows[0]["flagged"] is False


def test_audit_reports_neurons_in_both_formats(capsys, tmp_path):
    # the paper states its bounds in neurons: each row carries stats' count
    # of the net it audits, in the csv's last column
    rc, out, err = run_cli(capsys, "audit", "--n", "8", "--eps", "0.5", "--method", "richardson,cg",
                           "--out", str(tmp_path / "audit.csv"))
    assert rc == 0, err
    csv_rows = list(csv.DictReader((tmp_path / "audit.csv").read_text().splitlines()))
    rc, out, err = run_cli(capsys, "audit", "--n", "8", "--eps", "0.5", "--method", "richardson,cg",
                           "--format", "json")
    assert rc == 0, err
    json_rows = json.loads(out)["results"]["rows"]
    for method, csv_row, json_row in zip(("richardson", "cg"), csv_rows, json_rows, strict=True):
        _, report = build_small_net(capsys, tmp_path, method=method)
        neurons = report["results"]["stats"]["neurons"]
        assert list(csv_row)[-1] == "neurons" and csv_row["neurons"] == str(neurons)
        assert json_row["neurons"] == neurons


def test_audit_predicts_a_net_too_large_to_build(capsys):
    rc, out, err = run_cli(capsys, "audit", "--n", "1024", "--eps", "0.02", "--method", "cg",
                           "--format", "json")
    assert rc == 0, err
    (row,) = json.loads(out)["results"]["rows"]
    assert (row["m"], row["L"], row["M"]) == (1729, 28285, 1754413492)


def test_audit_reads_the_plan_and_builds_no_net(capsys, tmp_path, monkeypatch):
    # each row's m, L, M and neurons are those of the net build writes
    def refuse(plan):
        raise AssertionError("audit assembled a net")

    monkeypatch.setattr(solvers, "_assemble", refuse)
    rc, out, err = run_cli(capsys, "audit", "--n", "8", "--eps", "0.5", "--method", "richardson,cg",
                           "--format", "json")
    assert rc == 0, err
    rows = json.loads(out)["results"]["rows"]
    monkeypatch.undo()
    for method, row in zip(("richardson", "cg"), rows, strict=True):
        _, report = build_small_net(capsys, tmp_path, method=method)
        built = report["results"]
        assert (row["m"], row["L"], row["M"], row["neurons"]) == (
            built["metadata"]["m"], built["stats"]["depth"], built["stats"]["weights"],
            built["stats"]["neurons"],
        )


def test_audit_refuses_c_sc_above_the_bound_as_build_does(capsys, tmp_path):
    rc, _, build_err = run_cli(capsys, "build", "--method", "richardson", "--n", "8", "--c-sc", "1e6",
                               "--out", str(tmp_path / "net.npz"))
    assert rc == 2 and "exceeds the admissible bound" in build_err
    rc, out, err = run_cli(capsys, "audit", "--n", "8", "--eps", "0.1", "--method", "richardson",
                           "--c-sc", "1e6")
    assert rc == 2 and out == ""
    assert err == build_err


def test_audit_resolves_each_problem_once_per_size(capsys, tmp_path, monkeypatch):
    coo = tmp_path / "m.coo"
    rc, _, _ = run_cli(capsys, "gen", "--problem", "laplacian1d", "--n", "6", "--out", str(coo))
    assert rc == 0
    calls = []
    estimate = problems.estimate_extremal_eigs
    monkeypatch.setattr(problems, "estimate_extremal_eigs",
                        lambda *args, **kwargs: calls.append(1) or estimate(*args, **kwargs))
    rc, out, err = run_cli(capsys, "audit", "--problem", f"file:{coo}", "--n", "6,6",
                           "--eps", "0.5,0.3", "--method", "richardson,cg")
    assert rc == 0, err
    assert len(list(csv.DictReader(out.splitlines()))) == 8
    assert len(calls) == 2


def _parser_arguments(command):
    """The dest of every argument the command's subparser defines."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {action.dest for action in subparsers.choices[command]._actions if action.dest != "help"}


@pytest.mark.parametrize("command", ["gen", "build", "eval", "verify", "audit"])
def test_every_report_echoes_the_full_parameter_set(capsys, tmp_path, command):
    net, _ = build_small_net(capsys, tmp_path)
    argv = {
        "gen": ["--out", str(tmp_path / "m.coo")],
        "build": ["--method", "cg", "--n", "8", "--eps", "0.5", "--out", str(tmp_path / "b.npz")],
        "eval": ["--net", str(net), "--n", "8"],
        "verify": ["--net", str(net), "--n", "8", "--samples", "1"],
        "audit": ["--n", "8", "--eps", "0.5", "--method", "cg", "--format", "json"],
    }[command]
    rc, out, err = run_cli(capsys, command, *argv)
    assert rc == 0, err
    report = json.loads(out)
    assert set(report["parameters"]) == _parser_arguments(command)
    assert report["durations"]["total_s"] > 0
    assert report["peak_rss_mb"] > 0


def test_exit_codes_for_common_failures(capsys, tmp_path):
    rc, out, err = run_cli(
        capsys, "build", "--method", "richardson", "--eps", "1.5", "--out", str(tmp_path / "x.json")
    )
    assert rc == 2 and "epsilon" in err
    rc, out, err = run_cli(
        capsys, "build", "--method", "cg", "--eps", "1e-300", "--out", str(tmp_path / "x.json")
    )
    assert rc == 2 and "epsilon must lie in [1e-12, 1)" in err
    rc, out, err = run_cli(
        capsys, "build", "--method", "cg", "--c-sc", "nan", "--out", str(tmp_path / "x.json")
    )
    assert rc == 2 and "c_sc must be at least 1" in err
    rc, out, err = run_cli(capsys, "verify", "--net", str(tmp_path / "missing.json"))
    assert rc == 3
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    rc, out, err = run_cli(capsys, "verify", "--net", str(broken))
    assert rc == 3 and "not an .npz archive" in err
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
    tamper(path, lambda arrays: arrays.pop("metadata"))
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
