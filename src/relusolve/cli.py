"""Command-line front end: generate problems, build solver nets, verify, audit.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments
(including inputs that drive the network to a non-finite value), 3 I/O or
file-format failure.  All commands are deterministic given --seed
and echo their full parameter set in the emitted report.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import resource
import sys
import time

import numpy as np

from . import __version__
from .arithmetic import SparseMatrix
from .network import (
    EvaluationFault,
    NetworkFormatError,
    atomic_write_text,
    evaluate,
    load_network,
    save_network,
    stats,
)
from .problems import (
    CooFormatError,
    EigenEstimationError,
    gen_laplacian,
    random_rhs,
    random_spd,
    read_coo,
    write_coo,
)
from .reference import solve_exact
from .solvers import (
    METHODS,
    SolverConfig,
    SpectralClass,
    audit_complexity,
    build_cg_net,
    build_richardson_net,
)

EIG_TOL = 1e-6
# estimated spectral bounds are folded conservatively so they still bracket
EIG_FOLD = 10.0 * EIG_TOL


def _emit_report(report: dict, out_path=None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _resolve_problem(problem: str, n: int, seed: int, lam=None, lam_max=None):
    """Return (pattern, matrix, spectral, description) for the problem flags."""
    if problem == "laplacian1d":
        fem = gen_laplacian(1, n)
        return fem.pattern, fem.matrix, fem.spectral, {"problem": problem, "N": n}
    if problem == "laplacian2d":
        fem = gen_laplacian(2, n)
        return fem.pattern, fem.matrix, fem.spectral, {"problem": problem, "N": n}
    if problem == "random":
        spec = SpectralClass(1.0 if lam is None else lam, 100.0 if lam_max is None else lam_max)
        pattern = gen_laplacian(1, n).pattern
        matrix = random_spd(pattern, spec, seed)
        return pattern, matrix, spec, {"problem": problem, "N": n}
    if problem.startswith("file:"):
        path = problem[len("file:"):]
        matrix = read_coo(path)
        lam_est, Lam_est = _estimate_bracket(matrix)
        spec = SpectralClass(lam_est, Lam_est)
        return matrix.pattern, matrix, spec, {"problem": problem, "path": path}
    raise ValueError(
        f"unknown problem {problem!r}; use laplacian1d, laplacian2d, random, or file:<path>"
    )


def _estimate_bracket(matrix: SparseMatrix):
    from .problems import estimate_extremal_eigs

    lam_est, Lam_est = estimate_extremal_eigs(matrix, tol=EIG_TOL)
    if lam_est <= 0.0:
        raise ValueError("matrix is not positive definite (estimated lam <= 0)")
    return lam_est * (1.0 - EIG_FOLD), Lam_est * (1.0 + EIG_FOLD)


def _peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _echo(args, keys):
    return {key: getattr(args, key.replace("-", "_")) for key in keys}


def cmd_gen(args) -> int:
    t0 = time.perf_counter()
    pattern, matrix, spec, desc = _resolve_problem(
        args.problem, args.n, args.seed, args.lam, args.lam_max
    )
    write_coo(args.out, matrix)
    report = {
        "command": "gen",
        "version": __version__,
        "parameters": _echo(args, ("problem", "n", "seed", "out", "lam", "lam_max")),
        "results": {
            "n": pattern.n,
            "eta": pattern.eta,
            "lambda": spec.lam,
            "Lambda": spec.Lam,
            "kappa": spec.kappa,
            "matrix_path": args.out,
        },
        "durations": {"total_s": time.perf_counter() - t0},
    }
    _emit_report(report)
    return 0


def _build_net(method, pattern, spec, config):
    if method == "richardson":
        return build_richardson_net(pattern, spec, config)
    return build_cg_net(pattern, spec, config)


def cmd_build(args) -> int:
    t0 = time.perf_counter()
    pattern, matrix, spec, desc = _resolve_problem(
        args.problem, args.n, args.seed, args.lam, args.lam_max
    )
    config = SolverConfig(args.method, args.eps, args.c_sc)
    net = _build_net(args.method, pattern, spec, config)
    build_s = time.perf_counter() - t0
    save_network(net, args.out)
    st = stats(net)
    report = {
        "command": "build",
        "version": __version__,
        "parameters": _echo(
            args, ("method", "problem", "n", "eps", "c_sc", "seed", "out", "lam", "lam_max")
        ),
        "results": {
            "network_path": args.out,
            "metadata": net.metadata,
            "stats": {
                "depth": st.depth,
                "weights": st.weights,
                "max_width": st.max_width,
                "input_dim": st.input_dim,
                "output_dim": st.output_dim,
            },
        },
        "durations": {"build_s": build_s, "total_s": time.perf_counter() - t0},
    }
    _emit_report(report)
    return 0


def _load_for_problem(args, durations: dict):
    """Load args.net and resolve the problem flags it must have been built for.

    The load time is recorded in durations["load_s"].
    """
    t0 = time.perf_counter()
    net = load_network(args.net)
    durations["load_s"] = time.perf_counter() - t0
    meta = net.metadata
    required = ("method", "n", "eta", "lambda", "Lambda", "epsilon", "c_sc", "m")
    if not isinstance(meta, dict) or any(key not in meta for key in required):
        raise ValueError("network metadata missing or incomplete; rebuild with this tool")
    pattern, matrix, spec, desc = _resolve_problem(
        args.problem, args.n, args.seed, args.lam, args.lam_max
    )
    if pattern.n != meta["n"] or pattern.eta != meta["eta"]:
        raise ValueError(
            f"problem size (n={pattern.n}, eta={pattern.eta}) does not match network "
            f"metadata (n={meta['n']}, eta={meta['eta']})"
        )
    return net, meta, pattern, matrix, spec


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    durations = {}
    net, meta, pattern, matrix, spec = _load_for_problem(args, durations)
    if args.rhs:
        r = np.loadtxt(args.rhs, dtype=np.float64).reshape(-1)
        if r.shape[0] != pattern.n:
            raise ValueError(f"rhs has {r.shape[0]} entries, expected {pattern.n}")
    else:
        r = random_rhs(pattern.n, meta["c_sc"], meta["lambda"], args.seed)
    t_eval = time.perf_counter()
    out = evaluate(net, np.concatenate([matrix.values, r]))
    durations["eval_s"] = time.perf_counter() - t_eval
    if args.out:
        atomic_write_text(args.out, "\n".join(repr(float(v)) for v in out) + "\n")
    report = {
        "command": "eval",
        "version": __version__,
        "parameters": _echo(args, ("net", "problem", "n", "seed", "rhs", "out")),
        "results": {
            "output": [float(v) for v in out],
            "rhs_norm": float(np.linalg.norm(r)),
            "realized_c_sc": float(np.linalg.norm(r) / meta["lambda"]),
        },
        "durations": {**durations, "total_s": time.perf_counter() - t0},
        "peak_rss_mb": _peak_rss_mb(),
    }
    _emit_report(report)
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    durations = {}
    net, meta, pattern, matrix, spec = _load_for_problem(args, durations)
    n = pattern.n
    eps, c_sc, lam = meta["epsilon"], meta["c_sc"], meta["lambda"]
    rhs = [random_rhs(n, c_sc, lam, args.seed + k) for k in range(args.samples)]
    if args.problem == "random":
        mats = [random_spd(pattern, spec, args.seed + 100_000 + k) for k in range(args.samples)]
    else:
        mats = [matrix] * args.samples
    # one column per sample, then a zero rhs on the base matrix
    columns = [np.concatenate([A_k.values, r]) for A_k, r in zip(mats, rhs)]
    columns.append(np.concatenate([matrix.values, np.zeros(n)]))
    t_eval = time.perf_counter()
    out = evaluate(net, np.column_stack(columns))
    durations["eval_s"] = time.perf_counter() - t_eval
    errors = [
        float(np.linalg.norm(solve_exact(A_k.to_dense(), r) - out[:, k]))
        for k, (A_k, r) in enumerate(zip(mats, rhs))
    ]
    realized = [float(np.linalg.norm(r) / lam) for r in rhs]
    zero_exact = bool(np.all(out[:, -1] == 0.0))
    max_error = max(errors) if errors else 0.0
    passed = max_error <= eps
    st = stats(net)
    report = {
        "command": "verify",
        "version": __version__,
        "parameters": _echo(args, ("net", "problem", "n", "samples", "seed")),
        "results": {
            "metadata": meta,
            "per_sample_errors": errors,
            "max_error": max_error,
            "epsilon": eps,
            "passed": passed,
            "zero_rhs_exact": zero_exact,
            "realized_c_sc": realized,
            "stats": {"depth": st.depth, "weights": st.weights},
        },
        "durations": {**durations, "total_s": time.perf_counter() - t0},
        "peak_rss_mb": _peak_rss_mb(),
    }
    _emit_report(report, args.out)
    return 0 if passed else 1


def _parse_list(text: str, kind, name: str):
    try:
        values = [kind(part) for part in text.split(",") if part]
    except ValueError:
        raise ValueError(f"expected a comma-separated {name} list, got {text!r}") from None
    if not values:
        raise ValueError(f"need at least one {name}, got {text!r}")
    return values


def cmd_audit(args) -> int:
    t0 = time.perf_counter()
    n_list = _parse_list(args.n, int, "integer")
    eps_list = _parse_list(args.eps, float, "float")
    methods = _parse_list(args.method, str, "method")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; choose from {sorted(METHODS)}")
    rows = []
    for method in methods:
        for n in n_list:
            for eps in eps_list:
                pattern, matrix, spec, desc = _resolve_problem(
                    args.problem, n, args.seed, args.lam, args.lam_max
                )
                config = SolverConfig(method, eps, args.c_sc)
                net = _build_net(method, pattern, spec, config)
                m = net.metadata["m"]
                rec = audit_complexity(net, m, eps, pattern.n, pattern.eta)
                rows.append(
                    {
                        "method": method,
                        "n": pattern.n,
                        "eta": pattern.eta,
                        "kappa": spec.kappa,
                        "eps": eps,
                        "m": m,
                        "L": rec.depth,
                        "M": rec.weights,
                        "ratio_L": rec.ratio_L,
                        "ratio_M": rec.ratio_M,
                    }
                )
    for method in methods:
        group = [row for row in rows if row["method"] == method]
        min_l = min(row["ratio_L"] for row in group)
        min_m = min(row["ratio_M"] for row in group)
        for row in group:
            row["flagged"] = row["ratio_L"] > 4.0 * min_l or row["ratio_M"] > 4.0 * min_m
    if args.format == "csv":
        buf = io.StringIO()
        fields = ["method", "n", "eta", "kappa", "eps", "m", "L", "M", "ratio_L", "ratio_M", "flagged"]
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
        if args.out:
            atomic_write_text(args.out, text)
        else:
            sys.stdout.write(text)
    else:
        report = {
            "command": "audit",
            "version": __version__,
            "parameters": _echo(
                args, ("problem", "n", "eps", "method", "c_sc", "seed", "out", "format")
            ),
            "results": {"rows": rows},
            "durations": {"total_s": time.perf_counter() - t0},
        }
        _emit_report(report, args.out)
    return 0


def _add_problem_flags(sub, default_n=16):
    sub.add_argument(
        "--problem",
        default="laplacian1d",
        help="laplacian1d | laplacian2d | random | file:<path> (default laplacian1d)",
    )
    sub.add_argument(
        "--n",
        type=int,
        default=default_n,
        help="problem size; nodes per direction for the laplacian problems",
    )
    sub.add_argument("--lam", type=float, default=None, help="spectrum lower bound (random problem)")
    sub.add_argument("--lam-max", type=float, default=None, help="spectrum upper bound (random problem)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relusolve",
        description="Build and check ReLU networks that solve sparse SPD linear systems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_gen = subs.add_parser("gen", help="generate a benchmark matrix in COO text form")
    _add_problem_flags(p_gen)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="COO output path")

    p_build = subs.add_parser("build", help="build a solver network and save it as JSON")
    p_build.add_argument("--method", required=True, choices=["richardson", "cg"])
    _add_problem_flags(p_build)
    p_build.add_argument("--eps", type=float, default=0.1, help="target accuracy in (0,1)")
    p_build.add_argument("--c-sc", type=float, default=1.0, help="rhs scale bound (>= 1)")
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--out", required=True, help="network JSON output path")

    p_eval = subs.add_parser("eval", help="run one forward pass of a built network")
    p_eval.add_argument("--net", required=True, help="network JSON path")
    _add_problem_flags(p_eval)
    p_eval.add_argument("--rhs", default=None, help="text file with one rhs entry per line")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out", default=None, help="write the output vector here")

    p_verify = subs.add_parser("verify", help="sample admissible inputs and check the accuracy contract")
    p_verify.add_argument("--net", required=True, help="network JSON path")
    _add_problem_flags(p_verify)
    p_verify.add_argument("--samples", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    p_audit = subs.add_parser("audit", help="sweep builds and report complexity ratios")
    p_audit.add_argument("--problem", default="laplacian1d")
    p_audit.add_argument("--n", default="8,16,32", help="comma-separated sizes")
    p_audit.add_argument("--eps", default="0.5,0.1", help="comma-separated accuracies")
    p_audit.add_argument("--method", default="richardson,cg",
                         help="comma-separated methods (default: both)")
    p_audit.add_argument("--c-sc", type=float, default=1.0)
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--lam", type=float, default=None)
    p_audit.add_argument("--lam-max", type=float, default=None)
    p_audit.add_argument("--out", default=None, help="report path (default stdout)")
    p_audit.add_argument("--format", default="csv", choices=["json", "csv"])
    return parser


_COMMANDS = {
    "gen": cmd_gen,
    "build": cmd_build,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "audit": cmd_audit,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (NetworkFormatError, CooFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EigenEstimationError as exc:
        print(f"error: {exc} (partial estimates {exc.lam_est}, {exc.Lam_est})", file=sys.stderr)
        return 2
    except (ValueError, EvaluationFault) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
