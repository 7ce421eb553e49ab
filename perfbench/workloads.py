"""The benchmark workloads.

Every workload takes a registry dataset (``load_dataset``: the
generators in ``repro.data.synthetic`` with the spec's shape, seed and
train/held-out split) and fits it with the spec's C and gamma; the run's
seed resamples the training rows (see :func:`make_data`) and picks the
request streams.  The program receives only those arrays (and, for
``serve_http``, a model file).  Every workload reports every end-to-end
metric:

- ``fit_wall_s`` / ``fit_sim_s``: wall and simulated seconds per fit
  (``serve_http``: the fits its set-up makes of the served model);
- ``predict_rows_per_s`` / ``predict_sim_s``: held-out rows per second
  through ``predict_proba`` and simulated seconds per call (``serve_http``:
  rows answered per second over the socket, simulated seconds per
  request);
- ``test_accuracy``: argmax accuracy on the held-out rows;
- ``serve_rps`` / ``serve_p50_ms`` / ``serve_p90_ms``: a seeded mix of
  1-, 4- and 16-row ``predict_proba`` requests, answered by an
  ``InferenceSession`` sealed on the fitted model, in-process on the
  ``fit_*`` workloads and over a real socket with one closed-loop
  keep-alive client on ``serve_http``;
- ``success_rate``: operations without an exception, a non-200 response
  or a failed output check, over operations attempted;
- ``setup_s`` and ``peak_rss_mb``.

Every time and rate measured in the benchmark's own process is scaled to
the nominal host speed of :mod:`hostspeed`, whose probe runs in bursts
between the operations (on ``serve_http``: between its set-ups).
serve_http's socket metrics are not: the server child answers on either
core, and the two cores' speeds vary apart from second to second.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (
    GMPSVC,
    CascadeConfig,
    ClusterSpec,
    InferenceSession,
    TenantPolicy,
    TrainerConfig,
    ServerApp,
    load_model,
    save_model,
    train_multiclass_sharded,
)
from repro.core.predictor import PredictorConfig, predict_proba_model
from repro.data.registry import load_dataset
from repro.kernels.functions import kernel_from_name
from repro.server import AdmissionController, Dispatcher
from repro.server.protocol import decode_array, encode_matrix
from repro.sparse import ops as mops

from hostspeed import HostSpeed
from layers import CATEGORY_LAYER, REQUIRED_SPANS, LayerTracer

# Set-ups per run; setup_s is their median.  A fit workload's set-up takes
# 0.1-0.7 s and varies with the host more than serve_http's (a 3 s fit, a
# save and a server start, ~5 s), so it is repeated more often.
FIT_SETUP_REPEATS = 9
SERVE_SETUP_REPEATS = 3
# Training rows each seed leaves out.  A seed that only reorders the rows
# converges to the same support vectors on two workloads, which would make
# the simulated predict time the same for every seed.
LEAVE_OUT = 2
# The warm-up fit runs every code path of a multi-class fit on a small
# three-class subset, so that lazy set-up finishes before timing.
WARMUP_ROWS = 300
# Share of a fit workload's run given to in-process requests; the rest
# goes to fits, whose run-to-run spread is the larger.
SERVE_SHARE = 0.15
# serve_p90_ms is the p90 of each TAIL_WINDOW consecutive requests, median
# over the windows: a host stall slows a stretch of consecutive requests
# and moves the p90 of the windows it falls in, not the median over them.
# A window is two REQUEST_MIX blocks, so on a fit workload every window
# holds the same mix; a fit workload sends at least three windows.
TAIL_WINDOW = 40
MIN_REQUESTS = 3 * TAIL_WINDOW
# Request sizes in rows and their counts in every block of 20 requests,
# i.e. 80/15/5% of 1-, 4- and 16-row requests.  The split is an assumption,
# not a measured traffic mix: it only makes "mostly single rows" concrete.
# It decides what the percentiles measure: latency grows with rows, so p50
# falls among the 1-row requests and p90 among the 4-row ones (the 80th to
# 95th percentile).  Fixed counts keep the mix the same for every seed.
REQUEST_MIX = ((1, 16), (4, 3), (16, 1))
# Held-out predict_proba calls after each fit; predict_rows_per_s is
# their median.
PREDICTS_PER_FIT = 6
# serve_http's distinct request bodies: fifteen REQUEST_MIX blocks, sent
# in turn, so that every 20 consecutive requests hold the same mix.  A
# request's latency depends on its rows, so a small pool would let the
# seed's choice of 4-row bodies move serve_p90_ms.
REQUEST_POOL = 300
# serve_http sends from one client: the server answers one request at a
# time under a lock, so a second client would only wait, and two clients
# plus the server would contend for the host's two cores.
WARMUP_REQUESTS = 8
TRACE_REPLAY = 60
WORK_DIR = ".perfbench_work"
START_TIMEOUT_S = 60.0
SUM_TOLERANCE = 1e-9
# Largest share of a traced wall the wrapped self times may leave out.
UNACCOUNTED_LIMIT = 0.02

# Admission limits a correct server never reaches with one client.
SERVER_FLAGS = [
    "--rate-per-s", "1e9", "--burst", "1000000",
    "--max-queue", "100000", "--max-queue-global", "100000",
]
# The launcher restores Python's SIGINT handler, which a parent started in
# the background may have left ignored, so that stop() shuts down cleanly.
SERVER_LAUNCH = (
    "import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
    "from repro.cli import serve_main; sys.exit(serve_main())"
)

CLUSTER = ClusterSpec(n_devices=4, n_nodes=2)
CASCADE = CascadeConfig(n_shards=4, threshold=1000)

# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Data:
    spec: object
    x_train: object
    y_train: np.ndarray
    x_test: object
    y_test: np.ndarray


def make_data(spec_name: str, seed: int) -> Data:
    """A registry dataset, with its training rows resampled by ``seed``.

    The data and the train/held-out split are the registry's own
    (``load_dataset``), so every seed is judged on the same held-out rows;
    the seed leaves LEAVE_OUT training rows out and orders the rest.
    """
    load_dataset.cache_clear()  # generate afresh on every call
    dataset = load_dataset(spec_name)
    n_train = mops.n_rows(dataset.x_train)
    keep = np.random.default_rng(seed).permutation(n_train)[LEAVE_OUT:]
    return Data(dataset.spec, mops.take_rows(dataset.x_train, keep),
                dataset.y_train[keep], dataset.x_test, dataset.y_test)


def request_rows(seed: int, n_test: int, count: int) -> list[np.ndarray]:
    """``count`` seeded held-out row ranges, sized by REQUEST_MIX blocks."""
    rng = np.random.default_rng(seed)
    block = [size for size, times in REQUEST_MIX for _ in range(times)]
    rows = []
    while len(rows) < count:
        for size in rng.permutation(block):
            start = int(rng.integers(0, n_test - size + 1))
            rows.append(np.arange(start, start + size, dtype=np.int64))
    return rows[:count]


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def windowed_p90_ms(latencies: list[float]) -> float:
    """p90 of each TAIL_WINDOW consecutive latencies, median over windows."""
    windows = [latencies[i:i + TAIL_WINDOW]
               for i in range(0, len(latencies) - TAIL_WINDOW + 1, TAIL_WINDOW)]
    return statistics.median(percentile(w, 90) for w in windows or [latencies]) * 1e3


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# End-to-end metrics that are times (scaled by the host-speed factor) and
# rates (divided by it), and those of them serve_http measures in its own
# process, during set-up.
TIME_METRICS = {"setup_s", "fit_wall_s", "serve_p50_ms", "serve_p90_ms"}
RATE_METRICS = {"predict_rows_per_s", "serve_rps"}
SERVE_IN_PROCESS = {"setup_s", "fit_wall_s"}


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def scale_to_nominal(self, speed: HostSpeed,
                         names=TIME_METRICS | RATE_METRICS) -> None:
        """Scale the times and rates in ``names`` to the probe's nominal
        host speed."""
        factor = speed.factor()
        unscaled = []
        for name in sorted(names & self.metrics.keys()):
            value = self.metrics[name]
            unscaled.append(f"{name}={value:.6g}")
            self.metrics[name] = (value * factor if name in TIME_METRICS
                                  else value / factor)
        self.notes.append(speed.note())
        self.notes.append("unscaled: " + ", ".join(unscaled))

    def count(self, problems: list[str], what: str) -> None:
        """Count one attempted operation, failed if it had problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{what}: {p}" for p in problems)


def check_probabilities(got, reference, rows=None) -> list[str]:
    """Bitwise agreement with the reference rows, and rows summing to 1."""
    expected = reference if rows is None else reference[rows]
    problems = []
    if got.shape != expected.shape:
        return [f"shape {got.shape} != {expected.shape}"]
    if not np.array_equal(got, expected):
        problems.append("probabilities differ from the reference")
    if np.max(np.abs(got.sum(axis=1) - 1.0)) > SUM_TOLERANCE:
        problems.append("a probability row does not sum to 1")
    return problems


def sim_shares(breakdown: dict) -> dict[str, float]:
    total = sum(breakdown.values())
    shares: dict[str, float] = {}
    for category, seconds in breakdown.items():
        layer = CATEGORY_LAYER.get(category)
        if layer is not None and total > 0:
            shares[layer] = shares.get(layer, 0.0) + seconds / total
    return shares


def add_breakdowns(*breakdowns: dict) -> dict:
    total: dict = {}
    for breakdown in breakdowns:
        for category, seconds in breakdown.items():
            total[category] = total.get(category, 0.0) + seconds
    return total


def trace_metrics(tracer: LayerTracer, n_ops: int, sim_breakdown: dict,
                  extra: dict) -> dict:
    """Per-layer metrics from a tracer that recorded ``n_ops`` operations.

    A layer the workload never reaches is left out; the run reports it
    as 0.
    """
    metrics = {}
    for name, seconds in tracer.self_s.items():
        suffix = "self_s" if name in ("core.fit", "core.predict") else "wall_s"
        metrics[f"{name}.{suffix}"] = seconds / n_ops
        metrics[f"{name}.calls"] = tracer.calls[name] / n_ops
    metrics["backends.matmul.flops"] = tracer.flops / n_ops
    metrics["backends.matmul.bytes"] = tracer.bytes / n_ops
    total = tracer.total_self_s()
    for layer, seconds in tracer.layer_self_s().items():
        metrics[f"calib.{layer}.wall_share"] = seconds / total if total else 0.0
    for layer, share in sim_shares(sim_breakdown).items():
        metrics[f"calib.{layer}.sim_share"] = share
    metrics.update(extra)
    return metrics


def unaccounted_share(tracer: LayerTracer, traced_wall: float) -> float:
    """Share of the traced wall the recorded self times leave out."""
    return abs(traced_wall - tracer.total_self_s()) / traced_wall


def trace_problems(tracer: LayerTracer, workload: str, n_ops: int,
                   traced_wall: float) -> list[str]:
    """What makes a traced run wrong: unwrapped targets, uncalled layers
    and self times that do not add up to the traced wall."""
    problems = [f"trace target not found: {t}" for t in tracer.missing]
    problems += [
        f"{name} was called {tracer.calls[name]} times in {n_ops} operations"
        for name in REQUIRED_SPANS[workload]
        if tracer.calls[name] < n_ops
    ]
    unaccounted = unaccounted_share(tracer, traced_wall)
    if unaccounted > UNACCOUNTED_LIMIT:
        problems.append(f"traced self times miss {unaccounted:.1%} of the wall")
    return problems


# ----------------------------------------------------------------------
# Fit workloads
# ----------------------------------------------------------------------
@dataclass
class Fitted:
    """What one fit hands to the measuring loop."""

    model: object
    report: object
    predict: object  # rows -> (probabilities, PredictionReport)
    seal: object  # () -> InferenceSession


def fit_estimator(data: Data, x=None, y=None) -> Fitted:
    """``GMPSVC.fit`` with the spec's C and gamma."""
    spec = data.spec
    estimator = GMPSVC(C=spec.penalty, gamma=spec.gamma)
    estimator.fit(data.x_train if x is None else x,
                  data.y_train if y is None else y)

    def predict(rows):
        return estimator.predict_proba(rows), estimator.prediction_report_

    return Fitted(estimator.model_, estimator.training_report_, predict,
                  lambda: InferenceSession.from_estimator(estimator))


def fit_sharded(data: Data, x=None, y=None) -> Fitted:
    """``train_multiclass_sharded`` on CLUSTER with every pair cascade-routed."""
    spec = data.spec
    model, report = train_multiclass_sharded(
        TrainerConfig(device=CLUSTER.device),
        CLUSTER,
        data.x_train if x is None else x,
        data.y_train if y is None else y,
        kernel_from_name("gaussian", gamma=spec.gamma),
        spec.penalty,
        cascade=CASCADE,
    )
    config = PredictorConfig(device=CLUSTER.device)
    return Fitted(model, report,
                  lambda rows: predict_proba_model(config, model, rows),
                  lambda: InferenceSession(model, config))


def cascade_problems(fitted: Fitted) -> list[str]:
    """Every pair must be cascade-routed and meet its dual-gap budget."""
    routed = getattr(fitted.report, "cascade", None)
    if routed is None:
        return []
    problems = []
    n_pairs = len(fitted.model.pairs)
    if len(routed) != n_pairs:
        problems.append(f"{len(routed)} of {n_pairs} pairs cascade-routed")
    for entry in routed:
        if not entry["report"]["budget_met"]:
            problems.append(f"pair {entry['pair']} missed its dual-gap budget")
    return problems


class FitWorkload:
    """Fits of one registry shape, then in-process requests to the model."""

    def __init__(self, name: str, spec_name: str, fit) -> None:
        self.name = name
        self.spec_name = spec_name
        self.fit = fit

    # -- set-up ---------------------------------------------------------
    def setup(self, seed: int, result: Result, speed: HostSpeed) -> Data:
        """Generate the inputs and warm up on three classes, repeatedly."""
        setups, gens = [], []
        for _ in range(FIT_SETUP_REPEATS):
            start = time.perf_counter()
            data = make_data(self.spec_name, seed)
            gens.append(time.perf_counter() - start)
            warm = np.flatnonzero(data.y_train < 3)[:WARMUP_ROWS]
            self.fit(data, mops.take_rows(data.x_train, warm), data.y_train[warm])
            setups.append(time.perf_counter() - start)
        speed.burst()
        result.metrics["setup_s"] = statistics.median(setups)
        result.notes.append(
            f"setup: {FIT_SETUP_REPEATS} repeats, median {statistics.median(setups):.3f} s "
            f"(generation {statistics.median(gens):.3f} s)"
        )
        self._gen_s = statistics.median(gens)
        return data

    # -- one operation --------------------------------------------------
    def operation(self, data: Data, tracer: LayerTracer = None) -> dict:
        """One fit, held-out predict_proba calls, and the output checks."""
        record = {"problems": []}
        try:
            with tracer.installed() if tracer else nullcontext():
                start = time.perf_counter()
                with tracer.span("core.fit") if tracer else nullcontext():
                    fitted = self.fit(data)
                record["fit_s"] = time.perf_counter() - start
                record["predict_s"] = []
                for _ in range(1 if tracer else PREDICTS_PER_FIT):
                    start = time.perf_counter()
                    with tracer.span("core.predict") if tracer else nullcontext():
                        proba, prediction = fitted.predict(data.x_test)
                    record["predict_s"].append(time.perf_counter() - start)
            record["fitted"] = fitted
            record["proba"] = proba
            record["fit_sim_s"] = fitted.report.simulated_seconds
            record["predict_sim_s"] = prediction.simulated_seconds
            record["breakdown"] = add_breakdowns(
                fitted.report.breakdown(), prediction.breakdown()
            )
            positions = np.argmax(proba, axis=1)
            labels = np.asarray(fitted.model.classes)[positions]
            record["accuracy"] = float(np.mean(labels == data.y_test))
            session = fitted.seal()
            record["session"] = session
            record["problems"] += check_probabilities(
                session.predict_proba(data.x_test), proba
            )
            record["problems"] += cascade_problems(fitted)
        except Exception as exc:  # counted as a failed operation
            record["problems"].append(f"{type(exc).__name__}: {exc}")
        return record

    def serve_requests(self, data: Data, record: dict, stream, seconds: float,
                       min_count: int, latencies: list, result: Result) -> float:
        """Requests from ``stream`` through the record's sealed session,
        in-process, for ``seconds`` and at least ``min_count`` requests.

        Appends each answered request's latency; returns the time taken.
        """
        session, reference = record["session"], record["proba"]
        sent = 0
        start = time.perf_counter()
        while sent < min_count or time.perf_counter() - start < seconds:
            rows = next(stream)
            sent += 1
            batch = mops.take_rows(data.x_test, rows)
            begin = time.perf_counter()
            try:
                got = session.predict_proba(batch)
            except Exception as exc:
                result.count([f"{type(exc).__name__}: {exc}"], "request")
                continue
            latencies.append(time.perf_counter() - begin)
            result.count(check_probabilities(got, reference, rows), "request")
        return time.perf_counter() - start

    # -- runs ------------------------------------------------------------
    def run(self, seed: int, seconds: float) -> Result:
        """Fits, each followed by in-process requests for SERVE_SHARE of
        the run, so that fits and requests see the same host speed."""
        result, speed = Result(), HostSpeed()
        data = self.setup(seed, result, speed)
        stream = iter(request_rows(seed + 2, mops.n_rows(data.x_test), 100_000))
        records, latencies, serve_s, serving = [], [], 0.0, None
        start = time.perf_counter()
        while not records or time.perf_counter() - start < seconds:
            speed.burst()
            record = self.operation(data)
            speed.burst()
            records.append(record)
            result.count(record["problems"], f"fit {len(records)}")
            serving = serving or (record if "session" in record else None)
            if serving is not None:
                serve_s += self.serve_requests(
                    data, serving, stream,
                    record.get("fit_s", 0.0) * SERVE_SHARE / (1.0 - SERVE_SHARE),
                    0, latencies, result,
                )
        if serving is not None and len(latencies) < MIN_REQUESTS:
            serve_s += self.serve_requests(data, serving, stream, 0.0,
                                           MIN_REQUESTS - len(latencies),
                                           latencies, result)
        self._report_fits(records, data, result)
        if latencies:
            result.metrics["serve_rps"] = len(latencies) / serve_s
            result.metrics["serve_p50_ms"] = percentile(latencies, 50) * 1e3
            result.metrics["serve_p90_ms"] = windowed_p90_ms(latencies)
            result.notes.append(
                f"in-process requests: {len(latencies)} answered in {serve_s:.2f} s; "
                f"p90 over {len(latencies) // TAIL_WINDOW} windows of {TAIL_WINDOW}"
            )
        result.metrics["peak_rss_mb"] = peak_rss_mb()
        result.scale_to_nominal(speed)
        return result

    def _operations(self, data, start, budget, result, tracer=None):
        records = []
        while True:
            record = self.operation(data, tracer)
            records.append(record)
            result.count(record["problems"], f"fit {len(records)}")
            if time.perf_counter() - start >= budget:
                return records

    def _report_fits(self, records, data, result) -> None:
        ok = [r for r in records if "fit_s" in r and "proba" in r]
        if not ok:
            return
        fits = [r["fit_s"] for r in ok]
        predicts = [p for r in ok for p in r["predict_s"]]
        n_test = mops.n_rows(data.x_test)
        result.metrics["fit_wall_s"] = statistics.median(fits)
        result.metrics["fit_sim_s"] = statistics.median(r["fit_sim_s"] for r in ok)
        result.metrics["predict_rows_per_s"] = n_test / statistics.median(predicts)
        result.metrics["predict_sim_s"] = statistics.median(
            r["predict_sim_s"] for r in ok
        )
        result.metrics["test_accuracy"] = statistics.median(
            r["accuracy"] for r in ok
        )
        result.notes.append(
            f"fits: {len(fits)} samples, median {statistics.median(fits):.3f} s; "
            f"held-out predict_proba: {len(predicts)} samples of {n_test} rows"
        )

    def run_traced(self, seed: int, seconds: float) -> Result:
        """Untraced fits for half the run, traced fits for the rest."""
        result = Result()
        data = self.setup(seed, result, HostSpeed())
        start = time.perf_counter()
        plain = self._operations(data, start, seconds / 2, result)
        tracer = LayerTracer()
        traced = self._operations(data, time.perf_counter(),
                                  start + seconds - time.perf_counter(),
                                  result, tracer)
        ok = [r for r in traced if "fitted" in r]
        base = [r["fit_s"] for r in plain if "fitted" in r]
        if not ok or not base:
            return result
        last = ok[-1]
        report = last["fitted"].report
        wall = sum(r["fit_s"] + sum(r["predict_s"]) for r in ok)
        result.count(trace_problems(tracer, self.name, len(ok), wall), "trace")
        extra = {
            "trace.overhead_ratio": statistics.median(r["fit_s"] for r in ok)
            / statistics.median(base),
            "trace.unaccounted_share": unaccounted_share(tracer, wall),
            "data.generate.wall_s": self._gen_s,
        }
        extra.update(fit_report_metrics(report, last["breakdown"]))
        result.metrics = trace_metrics(tracer, len(ok), last["breakdown"], extra)
        result.notes.append(
            f"traced: {len(ok)} traced and {len(base)} untraced operations"
        )
        return result


def fit_report_metrics(report, breakdown: dict) -> dict:
    """Counts and simulated seconds from a training report."""
    metrics = {
        "solvers.iterations": report.total_iterations,
        "solvers.sim.subproblem_s": breakdown.get("subproblem", 0.0),
        "solvers.sim.selection_s": breakdown.get("selection", 0.0),
        "solvers.sim.f_update_s": breakdown.get("f_update", 0.0),
        "kernels.rows_computed": report.kernel_rows_computed,
        "kernels.sim.kernel_values_s": breakdown.get("kernel_values", 0.0),
        "probability.sim.sigmoid_s": breakdown.get("sigmoid", 0.0),
        "probability.sim.coupling_s": breakdown.get("coupling", 0.0),
        "multiclass.sim.decision_values_s": breakdown.get("decision_values", 0.0),
        "core.max_concurrency": report.max_concurrency,
    }
    rates = [s["buffer_hit_rate"] for s in report.per_svm if "buffer_hit_rate" in s]
    metrics["kernels.buffer.hit_rate"] = sum(rates) / len(rates) if rates else 0.0
    metrics["kernels.sharing_hit_rate"] = getattr(report, "sharing_hit_rate", 0.0)
    waves = getattr(report, "wave_trace", None)
    if waves is None:
        waves = [w for d in getattr(report, "per_device", [])
                 for w in (d.get("wave_trace") or [])]
    metrics["core.waves"] = len(waves or [])
    tiers = getattr(report, "transfer_tier_bytes", {}) or {}
    for tier in ("host", "intra", "inter"):
        metrics[f"distributed.bytes.{tier}"] = tiers.get(tier, 0)
    metrics["distributed.cluster_speedup"] = getattr(report, "cluster_speedup", 0.0)
    routed = [entry["report"] for entry in getattr(report, "cascade", [])]
    if routed:
        metrics["cascade.feedback_rounds"] = sum(r["feedback_rounds"] for r in routed)
        metrics["cascade.sv_survival"] = statistics.mean(
            r["sv_survival"] for r in routed
        )
        metrics["cascade.iterations"] = sum(r["total_iterations"] for r in routed)
        metrics["cascade.gap_over_budget"] = max(
            r["final_gap"] / r["gap_budget"] for r in routed
        )
    return metrics


# ----------------------------------------------------------------------
# serve_http
# ----------------------------------------------------------------------
class Server:
    """``repro-serve`` on a model file, in a child process."""

    def __init__(self, model_path: Path, src: Path, flags=SERVER_FLAGS) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-c", SERVER_LAUNCH, str(model_path),
             "--port", "0", *flags],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"repro-serve did not start: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def stats(self) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", "/v1/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def send_requests(server: Server, bodies: list[bytes], order: list[int],
                  deadline: float, min_count: int = 0) -> list[tuple]:
    """One closed-loop keep-alive client: (index, latency_s, status, body)."""
    out = []
    conn = server.connect()
    try:
        for position, index in enumerate(order):
            if position >= min_count and time.perf_counter() >= deadline:
                break
            begin = time.perf_counter()
            try:
                conn.request("POST", "/v1/predict_proba", bodies[index],
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = response.read()
                out.append((index, time.perf_counter() - begin,
                            response.status, payload))
            except (OSError, http.client.HTTPException) as exc:
                out.append((index, time.perf_counter() - begin, None,
                            repr(exc).encode()))
                conn.close()
                conn = server.connect()
    finally:
        conn.close()
    return out


def check_response(record, rows, reference, result: Result, what: str) -> dict:
    """Count one HTTP request; returns its decoded body when it passed."""
    _index, _latency, status, payload = record
    if status != 200:
        result.count([f"status {status}: {payload[:200]!r}"], what)
        return None
    try:
        body = json.loads(payload)
        got = decode_array(body["result"])
    except (ValueError, KeyError) as exc:
        result.count([f"undecodable response: {exc}"], what)
        return None
    problems = check_probabilities(got, reference, rows)
    result.count(problems, what)
    return None if problems else body


class ServeWorkload:
    """``repro-serve`` on a saved model, driven by one socket client."""

    spec_name = "mnist"

    def __init__(self, root: Path) -> None:
        self.root = root
        self.work = root / WORK_DIR
        self.model_path = self.work / "model.repro"

    # -- set-up ---------------------------------------------------------
    def setup(self, seed: int, result: Result, speed: HostSpeed) -> Server:
        """Generate, fit, save, start the server and warm it up, repeatedly."""
        self.work.mkdir(exist_ok=True)
        setups, fits, fit_sims, saves, warm = [], [], [], [], Result()
        server = None
        try:
            for _ in range(SERVE_SETUP_REPEATS):
                if server is not None:
                    server.stop()
                    server = None
                speed.burst()
                start = time.perf_counter()
                self.data = make_data(self.spec_name, seed)
                self.gen_s = time.perf_counter() - start
                begin = time.perf_counter()
                fitted = fit_estimator(self.data)
                fits.append(time.perf_counter() - begin)
                fit_sims.append(fitted.report.simulated_seconds)
                begin = time.perf_counter()
                save_model(fitted.model, self.model_path)
                saves.append(time.perf_counter() - begin)
                server = Server(self.model_path, self.root / "src")
                self._make_requests(seed)
                for record in send_requests(server, self.bodies,
                                            self._order(WARMUP_REQUESTS), 0.0,
                                            WARMUP_REQUESTS):
                    status = record[2]
                    warm.count([] if status == 200 else [f"status {status}"],
                               "warm-up")
                setups.append(time.perf_counter() - start)
            speed.burst()
        except BaseException:
            if server is not None:
                server.stop()
            raise
        self.save_s = statistics.median(saves)
        result.metrics["setup_s"] = statistics.median(setups)
        result.metrics["fit_wall_s"] = statistics.median(fits)
        result.metrics["fit_sim_s"] = statistics.median(fit_sims)
        result.attempted += warm.attempted
        result.failed += warm.failed
        result.failures += warm.failures
        result.notes.append(
            f"setup: {SERVE_SETUP_REPEATS} repeats, median {statistics.median(setups):.3f} s;"
            f" fits: {len(fits)} samples, median {statistics.median(fits):.3f} s"
        )
        result.notes.append(
            f"warm-up requests: sent {warm.attempted}, succeeded "
            f"{warm.attempted - warm.failed}, failed {warm.failed}"
        )
        return server

    def _make_requests(self, seed: int) -> None:
        x_test = self.data.x_test
        self.rows = request_rows(seed + 3, mops.n_rows(x_test), REQUEST_POOL)
        self.bodies = [
            json.dumps({"instances": encode_matrix(mops.take_rows(x_test, r))})
            .encode("utf-8")
            for r in self.rows
        ]

    def _order(self, length: int) -> list[int]:
        """The bodies to send: the pool in turn."""
        return [i % REQUEST_POOL for i in range(length)]

    # -- measurement ----------------------------------------------------
    def _socket_phase(self, server: Server, seconds: float,
                      result: Result) -> dict:
        """Closed-loop requests over the socket, then every output checked."""
        start = time.perf_counter()
        records = send_requests(server, self.bodies, self._order(1_000_000),
                                start + seconds)
        elapsed = time.perf_counter() - start
        stats = server.stats()

        begin = time.perf_counter()
        model = load_model(self.model_path)
        self.load_s = time.perf_counter() - begin
        begin = time.perf_counter()
        session = InferenceSession(model)
        self.seal_s = time.perf_counter() - begin
        reference = session.predict_proba(self.data.x_test)
        labels = np.asarray(model.classes)[reference.argmax(axis=1)]
        self.accuracy = float(np.mean(labels == self.data.y_test))

        measured = Result()
        latencies, n_rows, sims = [], 0, []
        for record in records:
            rows = self.rows[record[0]]
            body = check_response(record, rows, reference, measured, "request")
            if body is None:
                continue
            latencies.append(record[1])
            n_rows += rows.size
            sims.append(body["timing"]["compute_s"])
        result.attempted += measured.attempted
        result.failed += measured.failed
        result.failures += measured.failures
        shed: dict = {}
        for counters in stats.get("tenants", {}).values():
            for key, value in counters.items():
                if key.startswith("shed_"):
                    shed[key] = shed.get(key, 0) + value
        result.notes.append(
            f"measured requests: sent {measured.attempted}, succeeded "
            f"{measured.attempted - measured.failed}, failed {measured.failed} "
            f"in {elapsed:.2f} s"
        )
        result.notes.append(
            "server /v1/stats shed by reason: "
            + ", ".join(f"{k}={v}" for k, v in sorted(shed.items()))
        )
        return {"records": records, "elapsed": elapsed, "latencies": latencies,
                "rows": n_rows, "sims": sims,
                "shed": stats.get("shed", 0)}

    def run(self, seed: int, seconds: float) -> Result:
        result, speed = Result(), HostSpeed()
        try:
            server = self.setup(seed, result, speed)
            try:
                phase = self._socket_phase(server, seconds, result)
            finally:
                server.stop()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        latencies, elapsed = phase["latencies"], phase["elapsed"]
        if latencies:
            result.metrics["serve_rps"] = len(latencies) / elapsed
            result.metrics["serve_p50_ms"] = percentile(latencies, 50) * 1e3
            result.metrics["serve_p90_ms"] = windowed_p90_ms(latencies)
            result.metrics["predict_rows_per_s"] = phase["rows"] / elapsed
            result.metrics["predict_sim_s"] = statistics.mean(phase["sims"])
            result.metrics["test_accuracy"] = self.accuracy
            result.notes.append(
                f"request latency: {len(latencies)} samples, "
                f"p90 over {len(latencies) // TAIL_WINDOW} windows of {TAIL_WINDOW}"
            )
        result.metrics["peak_rss_mb"] = peak_rss_mb()
        result.scale_to_nominal(speed, SERVE_IN_PROCESS)
        return result

    # -- traced run -----------------------------------------------------
    def _in_process_app(self) -> tuple[ServerApp, InferenceSession]:
        """The app ``repro-serve`` builds, with the same admission limits."""
        session = InferenceSession(load_model(self.model_path))
        flags = dict(zip(SERVER_FLAGS[::2], SERVER_FLAGS[1::2]))
        admission = AdmissionController(
            default_policy=TenantPolicy(
                rate_per_s=float(flags["--rate-per-s"]),
                burst=int(flags["--burst"]),
                max_queue=int(flags["--max-queue"]),
            ),
            max_queue_global=int(flags["--max-queue-global"]),
        )
        dispatcher = Dispatcher(session, n_workers=2, max_batch=16,
                                admission=admission)
        return ServerApp(dispatcher, arrival_mode="wall"), session

    def _replay(self, app: ServerApp, order: list[int], result: Result):
        """Send the bodies in ``order`` through ``handle_request``."""
        latencies = []
        headers = {"Content-Type": "application/json"}
        for index in order:
            begin = time.perf_counter()
            status, _headers, payload = app.handle_request(
                "POST", "/v1/predict_proba", self.bodies[index], headers
            )
            latencies.append(time.perf_counter() - begin)
            result.count([] if status == 200 else [f"status {status}"], "replay")
        return latencies

    def run_traced(self, seed: int, seconds: float) -> Result:
        """Socket phase, then the same bodies in-process untraced and traced.

        Both send one request at a time, so the difference of their
        latencies is the transport.
        """
        result = Result()
        try:
            server = self.setup(seed, result, HostSpeed())
            try:
                phase = self._socket_phase(server, seconds / 2, result)
            finally:
                server.stop()
            order = [record[0] for record in phase["records"][:TRACE_REPLAY]]
            app, _ = self._in_process_app()
            plain = self._replay(app, order, result)
            app, session = self._in_process_app()
            before = session.engine.clock.breakdown()
            tracer = LayerTracer()
            with tracer.installed():
                traced = self._replay(app, order, result)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        sim = {
            category: total - before.get(category, 0.0)
            for category, total in session.engine.clock.breakdown().items()
        }
        n = len(order)
        result.count(trace_problems(tracer, "serve_http", n, sum(traced)), "trace")
        extra = {
            "trace.overhead_ratio": percentile(traced, 50) / percentile(plain, 50),
            "trace.unaccounted_share": unaccounted_share(tracer, sum(traced)),
            "data.generate.wall_s": self.gen_s,
            "model.save.wall_s": self.save_s,
            "model.load.wall_s": self.load_s,
            "serving.seal.wall_s": self.seal_s,
            "serving.sim_s_per_request": session.stats.serve_simulated_s
            / max(session.stats.n_calls, 1),
            "server.transport.wall_s": percentile(phase["latencies"][:n], 50)
            - percentile(plain, 50),
            "server.shed": phase["shed"],
            "multiclass.sim.decision_values_s": sim.get("decision_values", 0.0) / n,
            "probability.sim.coupling_s": sim.get("coupling", 0.0) / n,
            "probability.sim.sigmoid_s": sim.get("sigmoid", 0.0) / n,
        }
        result.metrics = trace_metrics(tracer, n, sim, extra)
        result.notes.append(
            f"traced: {n} requests replayed in-process, untraced then traced"
        )
        return result


def workloads(root: Path) -> dict:
    """Every workload by name.  ``fit_sparse_k20`` (news20, CSR tf-idf,
    1000x2560, k=20) is not in BENCHMARK.json and runs only when named:
    a run fits it twice in 20 s (7-8 s a fit), too few for a steady
    ``fit_wall_s`` in the benchmark's time budget, and ``fit_cascade_k3``
    already spends most of its time in the sparse layer."""
    return {
        "fit_dense_k10": FitWorkload("fit_dense_k10", "mnist", fit_estimator),
        "fit_sparse_k20": FitWorkload("fit_sparse_k20", "news20", fit_estimator),
        "fit_cascade_k3": FitWorkload("fit_cascade_k3", "connect-4", fit_sharded),
        "serve_http": ServeWorkload(root),
    }
