"""Self-time spans around calls into the relusolve modules.

The tracer replaces a function with a timing wrapper wherever a caller would
look it up at call time: every relusolve module attribute bound to the
function, and the CLI's command table.  No file of the package changes; the
wrappers live only while the tracer is installed.

A span's self time is its wall time minus the wall time of the spans it
called, so self times of nested spans add up to the time spent inside the
outermost spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span; the span is named "module.function"
SPANS = (
    ("network", "evaluate"),
    ("network", "make_layer"),
    ("network", "save_network"),
    ("network", "network_to_dict"),
    ("network", "load_network"),
    ("network", "network_from_dict"),
    ("arithmetic", "sparse_matvec_net"),
    ("calculus", "parallelize_shared"),
    ("calculus", "pipeline"),
    ("calculus", "identity_net"),
    ("solvers", "clenshaw_step_net"),
    ("solvers", "richardson_step_net"),
    ("solvers", "build_cg_net"),
    ("solvers", "build_richardson_net"),
    ("problems", "gen_laplacian"),
    ("problems", "estimate_extremal_eigs"),
    ("problems", "read_coo"),
    ("problems", "write_coo"),
    ("reference", "solve_exact"),
    ("cli", "cmd_verify"),
)

MODULES = ("network", "calculus", "arithmetic", "solvers", "problems", "reference", "cli")


def evaluate_cost(net) -> tuple:
    """Computed (flops, bytes) of one single-column forward pass.

    Counted from array sizes, not measured: a multiply and an add per stored
    weight, a bias add per row, a max per hidden row; bytes are the stored
    CSR arrays and bias plus the float64 activations read and written.
    """
    flops = 0
    nbytes = 0
    last = net.depth - 1
    for idx, layer in enumerate(net.layers):
        w = layer.weight
        flops += 2 * w.nnz + layer.rows + (layer.rows if idx < last else 0)
        nbytes += w.data.nbytes + w.indices.nbytes + w.indptr.nbytes + layer.bias.nbytes
        nbytes += 8 * (layer.cols + layer.rows)
    return flops, nbytes


class Tracer:
    """Collects per-span call counts and self times while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.layer_applications = 0
        self.flops = 0
        self.bytes = 0
        self._stack = []
        self._patches = []
        self._cost_cache = {}

    def _wrap(self, name, fn, pre=None):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(*args, **kwargs)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dur - child
                if stack:
                    stack[-1] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_evaluate(self, net, x, *args, **kwargs):
        key = id(net)
        if key not in self._cost_cache:
            # hold the network so its id cannot be reused while cached
            self._cost_cache[key] = (net, evaluate_cost(net))
        flops, nbytes = self._cost_cache[key][1]
        cols = x.shape[1] if getattr(x, "ndim", 1) == 2 else 1
        self.layer_applications += net.depth
        self.flops += flops * cols
        self.bytes += nbytes * cols

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: sys.modules[f"relusolve.{name}"] for name in MODULES}
        owners = [sys.modules["relusolve"]] + list(mods.values())
        for mod_name, fn_name in SPANS:
            original = getattr(mods[mod_name], fn_name)
            pre = self._count_evaluate if (mod_name, fn_name) == ("network", "evaluate") else None
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, pre)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
            commands = mods["cli"]._COMMANDS
            for key, value in list(commands.items()):
                if value is original:
                    self._patches.append((commands, key, original))
                    commands[key] = wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        self._cost_cache.clear()

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
