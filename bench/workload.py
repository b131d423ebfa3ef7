"""One benchmark workload, run in a fresh interpreter by bench/run.py.

Usage (normally through run.py, which pins threads and measures set-up):

    python3 bench/workload.py --workload eval-richardson16 --seed 1 \
        --seconds 30 --trace 0 --t0 <perf_counter at spawn> --workdir DIR

Each workload is a closed loop with one caller: a cycle starts only after
the previous one finished.  All inputs (right-hand sides, verify seeds) are
drawn from --seed.  The last stdout line is a JSON report for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# stop starting new cycles after this long, so the process ends well within
# the 180 s a run may take
HARD_LIMIT_S = 140.0
MAX_ERRORS = 10


def _import_package():
    sys.path.insert(0, str(SRC))
    import relusolve

    if not Path(relusolve.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"relusolve imported from {relusolve.__file__}, not from {SRC}")
    from relusolve import cli, network, problems, reference, solvers

    return cli, network, problems, reference, solvers


cli, network, problems, reference, solvers = _import_package()

from roles import ROLES, RoleReplay  # noqa: E402
from tracer import SPANS, Tracer, evaluate_cost  # noqa: E402


class Workload:
    """Shared loop body: build, evaluate, check against the exact solve."""

    method = "richardson"
    traced_cycles = 3

    def __init__(self, rng, size: dict, workdir: Path):
        self.rng = rng
        self.size = size
        self.workdir = workdir
        self.timings = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.err_max = 0.0
        self.digest = hashlib.sha256()
        self.first_cycle = True
        self.net = None
        self.first_counts = None

    # -- bookkeeping -------------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(what)

    def timed(self, key, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.timings[key].append(time.perf_counter() - t0)
        return out

    def record(self, out) -> None:
        if self.first_cycle:
            self.digest.update(np.ascontiguousarray(out).tobytes())

    # -- problem -----------------------------------------------------------
    def set_problem(self, pattern, matrix, spec) -> None:
        self.pattern, self.matrix, self.spec = pattern, matrix, spec
        self.dense = matrix.to_dense()
        # worst-case probes: +-eigenvectors of the extreme eigenvalues; the
        # one for the smallest eigenvalue carries the largest truncation error
        vectors = np.linalg.eigh(self.dense)[1][:, [0, -1]]
        self.probes = np.hstack([vectors, -vectors])
        self.config = solvers.SolverConfig(self.method, self.size["eps"])

    def build(self):
        builder = solvers.build_cg_net if self.method == "cg" else solvers.build_richardson_net
        net = self.timed("build", builder, self.pattern, self.spec, self.config)
        self.check(net.depth > 1, "build returned a trivial network")
        if self.first_counts is None:
            self.first_counts = net_counts(net)
        return net

    def rhs(self, k: int) -> np.ndarray:
        """k admissible right-hand sides as columns, each of norm c_sc * lam."""
        meta = self.net.metadata
        r = self.rng.standard_normal((self.pattern.n, k))
        return r * (meta["c_sc"] * meta["lambda"] / np.linalg.norm(r, axis=0))

    def inputs(self, r: np.ndarray) -> np.ndarray:
        values = self.matrix.values
        if r.ndim == 1:
            return np.concatenate([values, r])
        return np.vstack([np.repeat(values[:, None], r.shape[1], axis=1), r])

    def check_solution(self, r, out, what: str) -> None:
        eps = self.net.metadata["epsilon"]
        r2, out2 = r.reshape(len(r), -1), out.reshape(len(out), -1)
        exact = np.column_stack(
            [reference.solve_exact(self.dense, r2[:, k]) for k in range(r2.shape[1])]
        )
        ratio = float(np.max(np.linalg.norm(out2 - exact, axis=0))) / eps
        self.err_max = max(self.err_max, ratio)
        self.check(ratio <= 1.0, f"{what}: error {ratio:.3g} eps")

    # -- the operations every cycle uses -----------------------------------
    def eval_batches(self, net):
        """Run the cycle's batches; return the last one's (rhs, output)."""
        for _ in range(self.size["batches"]):
            r = self.rhs(self.size["batch"])
            out = self.timed("batch", network.evaluate, net, self.inputs(r))
            self.check_solution(r, out, "batch")
            self.record(out)
        return r, out

    def eval_singles(self, net):
        pairs = []
        for _ in range(self.size["singles"]):
            r = self.rhs(1)[:, 0]
            out = self.timed("eval1", network.evaluate, net, self.inputs(r))
            self.check_solution(r, out, "single rhs")
            self.record(out)
            pairs.append((r, out))
        return pairs

    def probe_check(self, net):
        """Worst-case probes scaled to ||r|| = c_sc * lam; not timed."""
        meta = net.metadata
        r = self.probes * (meta["c_sc"] * meta["lambda"])
        out = network.evaluate(net, self.inputs(r))
        self.check_solution(r, out, "worst-case probe")
        self.record(out)

    def zero_check(self, net):
        out = network.evaluate(net, self.inputs(np.zeros(self.pattern.n)))
        self.check(bool(np.all(out == 0.0)), "zero rhs output is not exactly 0")
        self.record(out)


class EvalWorkload(Workload):
    """eval-richardson16: batch and single-rhs evaluation of a shared-layer net."""

    def setup(self):
        fem = problems.gen_laplacian(1, self.size["N"])
        self.set_problem(fem.pattern, fem.matrix, fem.spectral)
        self.net = self.build()

    def cycle(self):
        for _ in range(self.size["builds"]):
            self.net = self.build()
        self.eval_batches(self.net)
        self.eval_singles(self.net)
        self.probe_check(self.net)
        self.zero_check(self.net)


class BuildWorkload(Workload):
    """build-cg32: repeated compiles of a net whose layers are all distinct."""

    method = "cg"
    traced_cycles = 2

    def setup(self):
        fem = problems.gen_laplacian(1, self.size["N"])
        self.set_problem(fem.pattern, fem.matrix, fem.spectral)

    def cycle(self):
        self.net = None  # release the previous build before the next one
        self.net = self.build()
        self.eval_batches(self.net)
        self.eval_singles(self.net)
        self.probe_check(self.net)
        self.zero_check(self.net)


class RoundtripWorkload(Workload):
    """roundtrip-lap2d: save, load, bit-compare and verify a file: problem."""

    def setup(self):
        fem = problems.gen_laplacian(2, self.size["N"])
        self.coo = str(self.workdir / "lap2d.coo")
        self.net_path = str(self.workdir / "net.json")
        problems.write_coo(self.coo, fem.matrix)
        pattern, matrix, spec, _ = cli._resolve_problem(f"file:{self.coo}", self.size["N"], 0)
        self.set_problem(pattern, matrix, spec)
        self.net = self.build()

    def cycle(self):
        for _ in range(self.size["builds"]):
            self.net = self.build()
        self.timed("save", network.save_network, self.net, self.net_path)
        self.timings["net_file_mb"].append(os.path.getsize(self.net_path) / 1e6)
        loaded = self.timed("load", network.load_network, self.net_path)
        r, out = self.eval_batches(self.net)
        same = network.evaluate(loaded, self.inputs(r)).tobytes() == out.tobytes()
        self.check(same, "loaded network differs from the built one (batch)")
        for r, out in self.eval_singles(self.net):
            same = network.evaluate(loaded, self.inputs(r)).tobytes() == out.tobytes()
            self.check(same, "loaded network differs from the built one (single rhs)")
        self.probe_check(self.net)
        self.zero_check(self.net)
        self.zero_check(loaded)
        del loaded
        self.verify()

    def verify(self):
        seed = int(self.rng.integers(0, 2**31 - 1_000_000))
        argv = ["verify", "--net", self.net_path, "--problem", f"file:{self.coo}",
                "--samples", str(self.size["samples"]), "--seed", str(seed)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.timed("verify", cli.main, argv)
        self.check(code == 0, f"verify exited {code}")
        report = json.loads(buf.getvalue())["results"]
        self.err_max = max(self.err_max, report["max_error"] / report["epsilon"])
        self.check(report["zero_rhs_exact"], "verify: zero rhs output is not exactly 0")
        self.record(np.array(report["per_sample_errors"]))


WORKLOADS = {
    "eval-richardson16": (
        EvalWorkload,
        {"N": 16, "eps": 0.1, "batch": 256, "batches": 1, "singles": 10, "min_singles": 100, "builds": 4},
        {"N": 8, "eps": 0.3, "batch": 16, "batches": 1, "singles": 3, "min_singles": 6, "builds": 2},
    ),
    "build-cg32": (
        BuildWorkload,
        {"N": 32, "eps": 0.02, "batch": 32, "batches": 2, "singles": 16},
        {"N": 8, "eps": 0.1, "batch": 8, "batches": 2, "singles": 3},
    ),
    "roundtrip-lap2d": (
        RoundtripWorkload,
        {"N": 4, "eps": 0.1, "batch": 256, "batches": 3, "singles": 16, "samples": 64, "builds": 4},
        {"N": 3, "eps": 0.3, "batch": 16, "batches": 3, "singles": 3, "samples": 8, "builds": 2},
    ),
}


def net_counts(net) -> dict:
    """Exact structure counts of a built network (the paper's cost model)."""
    meta = net.metadata
    st = network.stats(net)
    audit = solvers.audit_complexity(net, meta["m"], meta["epsilon"], meta["n"], meta["eta"])
    unique = {id(layer): layer for layer in net.layers}.values()
    flops, nbytes = evaluate_cost(net)
    return {
        "m": meta["m"],
        "depth": st.depth,
        "weights": st.weights,
        "max_width": st.max_width,
        "unique_layers": len(unique),
        "unique_bytes": sum(
            layer.weight.data.nbytes + layer.weight.indices.nbytes + layer.weight.indptr.nbytes
            for layer in unique
        ),
        "ratio_L": audit.ratio_L,
        "ratio_M": audit.ratio_M,
        "flops_per_eval": flops,
        "bytes_per_eval": nbytes,
    }


def run_cycles(wl, seconds: float, min_cycles: int, started: float, min_singles=0) -> list:
    """Closed loop: run cycles until `seconds` passed and the minimums are met."""
    times = []
    end = time.perf_counter() + seconds
    while True:
        now = time.perf_counter()
        enough = len(times) >= min_cycles and len(wl.timings["eval1"]) >= min_singles
        if (enough and now >= end) or (times and now - started > HARD_LIMIT_S):
            return times
        t0 = time.perf_counter()
        try:
            wl.cycle()
        except Exception as exc:  # a failed operation is counted, the loop goes on
            wl.check(False, f"cycle raised {type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t0)
        wl.first_cycle = False


def median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def end_to_end(wl, cycles) -> tuple:
    """(metrics, detail) of an untraced run; detail adds units and sample counts."""
    t = wl.timings
    metrics = {
        "build_s": median(t["build"]),
        "eval_cols_per_s": wl.size["batch"] * len(t["batch"]) / sum(t["batch"]),
        "eval1_ms_p50": 1e3 * median(t["eval1"]),
        "eval1_ms_p90": 1e3 * float(np.percentile(t["eval1"], 90)),
        "cycle_s": median(cycles),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_over_eps": wl.err_max,
    }
    samples = {
        "build_s": len(t["build"]),
        "eval_cols_per_s": len(t["batch"]),
        "eval1_ms_p50": len(t["eval1"]),
        "eval1_ms_p90": len(t["eval1"]),
        "cycle_s": len(cycles),
    }
    detail = {name: {"value": value, "samples": samples.get(name, 1)}
              for name, value in metrics.items()}
    if t["save"]:
        for key in ("save", "load", "verify"):
            detail[f"{key}_s"] = {"value": median(t[key]), "unit": "s", "samples": len(t[key])}
        detail["net_file_mb"] = {"value": median(t["net_file_mb"]), "unit": "MB",
                                 "samples": len(t["net_file_mb"])}
    return metrics, detail


def per_layer(wl, tracer, untraced, traced, spans_s, role_s, replay) -> dict:
    out = {}
    for mod_name, fn_name in SPANS:
        name = f"{mod_name}.{fn_name}"
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.s"] = tracer.self_s[name]
    out["network.evaluate.layer_applications"] = tracer.layer_applications
    out["network.evaluate.flops_computed"] = tracer.flops
    out["network.evaluate.bytes_computed"] = tracer.bytes
    for k, role in enumerate(ROLES):
        out[f"network.evaluate.role.{role}.layers"] = int(replay.layers[k])
        out[f"network.evaluate.role.{role}.nnz"] = int(replay.nnz[k])
        out[f"network.evaluate.role.{role}.s"] = float(role_s[k])
    for key, value in net_counts(wl.net).items():
        out[f"solvers.net.{key}"] = value
    out["trace.cycle_s"] = median(untraced)
    out["trace.spans_s"] = spans_s
    out["trace.overhead_s"] = median(traced) - median(untraced)
    out["trace.outside_spans_s"] = sum(traced) / len(traced) - spans_s
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.perf_counter() of the parent just before spawning")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="reduced problem sizes")
    args = parser.parse_args(argv)

    cls, full, smoke = WORKLOADS[args.workload]
    wl = cls(np.random.default_rng(args.seed), smoke if args.smoke else full, Path(args.workdir))
    tracer = Tracer()
    if args.trace:
        tracer.install()
    wl.setup()
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer.uninstall()
    started = time.perf_counter()

    report = {"workload": args.workload, "setup_s": setup_s}
    if not args.trace:
        cycles = run_cycles(wl, args.seconds, 3, started, wl.size.get("min_singles", 0))
        report["metrics"], report["detail"] = end_to_end(wl, cycles)
    else:
        untraced = run_cycles(wl, args.seconds / 2.0, 2, started)
        before = tracer.total_self_s()
        tracer.install()
        try:
            traced = run_cycles(wl, 0.0, wl.traced_cycles, started)
        finally:
            tracer.uninstall()
        spans_s = (tracer.total_self_s() - before) / len(traced)
        replay = RoleReplay(network, wl.net)
        x = wl.inputs(wl.rhs(wl.size["batch"]))
        reference_out = network.evaluate(wl.net, x)
        runs = []
        for _ in range(3):
            out, seconds = replay.run(x)
            wl.check(out.tobytes() == reference_out.tobytes(),
                     "role replay differs from evaluate")
            runs.append(seconds)
        role_s = np.median(np.array(runs), axis=0)
        report["metrics"] = per_layer(wl, tracer, untraced, traced, spans_s, role_s, replay)

    counts = net_counts(wl.net)
    wl.check(counts == wl.first_counts, "structure counts differ between two builds")
    report.update(
        correct=wl.failed == 0,
        attempted=wl.attempted,
        failed=wl.failed,
        errors=wl.errors,
        outputs_sha256=wl.digest.hexdigest(),
        counts=counts,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
