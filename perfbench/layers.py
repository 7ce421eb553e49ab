"""The layer map and the out-of-process layer tracer.

The tracer times the public function of each layer (``repro.<module>``)
from outside the program: :meth:`LayerTracer.installed` replaces each
target with a timing wrapper at the attribute its caller looks up, and
restores the originals on exit.  Wrapped calls nest, so every call's
*self* time is its duration minus the time of the wrapped calls it made;
the self times of one top-level span therefore add up to its wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

# ----------------------------------------------------------------------
# Wrapped public functions: (module, attribute path, span name).  The
# attribute path is where the *caller* looks the name up: a function
# imported by name into another module is wrapped in the importer.
# ----------------------------------------------------------------------
TARGETS = [
    ("repro.solvers.batch_smo", "select_new_violators", "solvers.select"),
    ("repro.solvers.batch_smo", "solve_subproblem", "solvers.inner"),
    ("repro.kernels.shared", "SharedClassPairKernels.prefetch", "kernels.prefetch"),
    ("repro.kernels.cache", "KernelBuffer.fetch", "kernels.buffer"),
    ("repro.backends.numpy64", "Numpy64Backend.matmul_transpose", "backends.matmul"),
    ("repro.backends.numpy64", "Numpy64Backend.gaussian_elimination_batch",
     "backends.elim"),
    ("repro.sparse.csr", "CSRMatrix.take_rows", "sparse.take_rows"),
    ("repro.sparse.csr", "CSRMatrix.matmul_transpose", "sparse.matmul"),
    ("repro.gpusim.engine", "Engine.charge", "gpusim.charge"),
    ("repro.core.trainer", "fit_sigmoid", "probability.platt"),
    ("repro.core.predictor", "couple_batch", "probability.couple"),
    ("repro.multiclass.sv_sharing", "SupportVectorPool.decision_values",
     "multiclass.decision_values"),
    ("repro.distributed.trainer", "plan_placement", "distributed.placement"),
    # The sharded trainer imports the cascade driver inside the call, so
    # the module attribute is what it looks up.
    ("repro.cascade.driver", "_cascade_solve", "cascade.solve"),
    ("repro.serving.session", "InferenceSession.predict_proba",
     "serving.predict_proba"),
    ("repro.server.protocol", "decode_request", "server.decode"),
    ("repro.server.protocol", "response_body", "server.encode"),
    ("repro.server.dispatcher", "Dispatcher.submit", "server.submit"),
    ("repro.server.app", "ServerApp.handle_request", "server.handle"),
]

# Simulated-cost category -> layer, for the calibration shares.  Host <->
# device copies are modelled by the simulated device, so ``transfer``
# (and fault checkpoints) count towards gpusim.
CATEGORY_LAYER = {
    "selection": "solvers",
    "subproblem": "solvers",
    "f_update": "solvers",
    "kernel_values": "kernels",
    "sigmoid": "probability",
    "coupling": "probability",
    "decision_values": "multiclass",
    "cascade_kkt": "cascade",
    "cascade_merge": "cascade",
    "cascade_feedback": "cascade",
    "cascade_shard": "cascade",
    "transfer": "gpusim",
    "checkpoint": "gpusim",
}

# ----------------------------------------------------------------------
# Layer -> end-to-end map: the end-to-end metrics a change to the layer
# should move, and the workloads where the layer does the most / little
# work among the workloads of BENCHMARK.json (from traced runs).  The
# metric names, units and bounds live in BENCHMARK.json; a per-layer
# metric belongs to the layer its name starts with.
# ----------------------------------------------------------------------
LAYERS = [
    ("solvers", ["fit_wall_s"], "fit_cascade_k3", "serve_http"),
    ("kernels", ["fit_wall_s"],
     "fit_dense_k10 (prefetch), fit_cascade_k3 (buffer)", "serve_http"),
    ("backends", ["fit_wall_s", "serve_p50_ms"], "fit_dense_k10, serve_http",
     "fit_cascade_k3"),
    ("sparse", ["fit_wall_s"], "fit_cascade_k3", "fit_dense_k10, serve_http"),
    ("gpusim", ["fit_wall_s"], "fit_cascade_k3", "serve_http"),
    ("probability", ["fit_wall_s", "predict_rows_per_s"], "fit_dense_k10",
     "fit_cascade_k3"),
    ("multiclass", ["predict_rows_per_s", "serve_p50_ms"], "serve_http",
     "fit_cascade_k3"),
    ("core", ["fit_wall_s"], "fit_dense_k10 (45 pairs)", "serve_http"),
    ("distributed", ["fit_wall_s", "fit_sim_s"], "fit_cascade_k3", "all others"),
    ("cascade", ["fit_sim_s", "fit_wall_s"], "fit_cascade_k3", "all others"),
    ("model", ["setup_s"], "serve_http", "fit_*"),
    ("serving", ["serve_p50_ms", "serve_rps"], "serve_http", "fit_*"),
    ("server", ["serve_p50_ms", "serve_rps"], "serve_http", "fit_*"),
    ("data", ["setup_s"], "all", "none"),
]

# Wrapped functions each traced operation of a workload calls at least
# once (on average).  A traced run in which one of them was called less
# (renamed, or looked up somewhere other than the wrapped attribute) counts
# as failed instead of reporting zeros.
_FIT = ("solvers.select", "solvers.inner", "kernels.buffer", "backends.matmul",
        "backends.elim", "gpusim.charge", "probability.platt",
        "probability.couple", "multiclass.decision_values")
REQUIRED_SPANS = {
    "fit_dense_k10": _FIT + ("kernels.prefetch",),
    "fit_sparse_k20": _FIT + ("kernels.prefetch", "sparse.take_rows",
                              "sparse.matmul"),
    "fit_cascade_k3": _FIT + ("sparse.take_rows", "sparse.matmul",
                              "distributed.placement", "cascade.solve"),
    "serve_http": ("backends.matmul", "backends.elim", "gpusim.charge",
                   "probability.couple", "multiclass.decision_values",
                   "serving.predict_proba", "server.decode", "server.encode",
                   "server.submit", "server.handle"),
}


def load_spec(root) -> dict:
    """The benchmark's ``BENCHMARK.json``: workloads and metric tables."""
    return json.loads((root / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def matmul_cost(a, b) -> tuple[int, int]:
    """Computed (flops, bytes) of ``a @ b.T`` from operand shapes.

    Dense operands count ``2 m n d`` flops; a CSR operand counts its
    stored entries instead.  Bytes are both operands read once plus the
    float64 result written once.
    """
    def nbytes(x) -> int:
        if hasattr(x, "nnz"):
            return int(x.data.nbytes + x.indices.nbytes + x.indptr.nbytes)
        return int(x.nbytes)

    m, n = a.shape[0], b.shape[0]
    if hasattr(b, "nnz"):
        flops = 2 * m * b.nnz
    elif hasattr(a, "nnz"):
        flops = 2 * a.nnz * n
    else:
        flops = 2 * m * n * a.shape[1]
    return int(flops), nbytes(a) + nbytes(b) + 8 * m * n


class LayerTracer:
    """Self time and call counts of the wrapped layer functions."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.flops = 0
        self.bytes = 0
        self.missing: list[str] = []
        self._child_s: list[float] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block as one call of ``name`` (e.g. ``core.fit``)."""
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            child = self._child_s.pop()
            self.self_s[name] += elapsed - child
            self.calls[name] += 1
            if self._child_s:
                self._child_s[-1] += elapsed

    def _wrap(self, original, name: str):
        tracer = self
        count_matmul = name == "backends.matmul"

        def wrapper(*args, **kwargs):
            if count_matmul:
                flops, nbytes = matmul_cost(args[1], args[2])
                tracer.flops += flops
                tracer.bytes += nbytes
            with tracer.span(name):
                return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        patches = []
        self.missing = []
        try:
            for module_name, path, name in TARGETS:
                try:
                    owner, attr = _resolve(module_name, path)
                    original = owner.__dict__[attr]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(f"{module_name}.{path}")
                    continue
                setattr(owner, attr, self._wrap(original, name))
                patches.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def layer_self_s(self) -> dict[str, float]:
        layers: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            layers[name.split(".")[0]] += seconds
        return layers
