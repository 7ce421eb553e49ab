"""Self-test of the benchmark's checks and tracer (``pytest perfbench``).

Shows that an injected wrong result and an injected non-200 response
are both counted as failed operations, that the layer tracer's self
times add up to the wall time and leave the program unpatched, and that
a traced run fails when a layer it must reach was not wrapped or not
called.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import workloads  # noqa: E402
from repro import GMPSVC, load_model, save_model  # noqa: E402
from repro.data import gaussian_blobs, train_test_split  # noqa: E402
from repro.data.registry import DATASETS  # noqa: E402


@pytest.fixture(scope="module")
def small_data():
    x, y = gaussian_blobs(160, 5, 3, seed=0)
    x_train, y_train, x_test, y_test = train_test_split(x, y, seed=1)
    return workloads.Data(DATASETS["mnist"], x_train, y_train, x_test, y_test)


def small_fit(data, x=None, y=None):
    estimator = GMPSVC(C=10.0, gamma=0.5)
    estimator.fit(data.x_train if x is None else x, data.y_train if y is None else y)
    return workloads.Fitted(
        estimator.model_, estimator.training_report_,
        lambda rows: (estimator.predict_proba(rows), estimator.prediction_report_),
        lambda: workloads.InferenceSession.from_estimator(estimator),
    )


class WrongSession:
    """Answers like the real session, but perturbs every third call."""

    def __init__(self, session):
        self.session = session
        self.calls = 0

    def predict_proba(self, rows):
        self.calls += 1
        out = self.session.predict_proba(rows)
        if self.calls % 3 == 0:
            out = out.copy()
            out[0, 0] += 1e-12
        return out


def test_correct_outputs_pass(small_data):
    workload = workloads.FitWorkload("fit_dense_k10", "mnist", small_fit)
    record = workload.operation(small_data)
    assert record["problems"] == []


def test_injected_wrong_fit_result_is_counted(small_data):
    def wrong_seal(data, x=None, y=None):
        fitted = small_fit(data, x, y)
        seal = fitted.seal

        def sealed():
            session = WrongSession(seal())
            session.calls = 2  # the first call is already wrong
            return session

        fitted.seal = sealed
        return fitted

    workload = workloads.FitWorkload("fit_dense_k10", "mnist", wrong_seal)
    result = workloads.Result()
    record = workload.operation(small_data)
    result.count(record["problems"], "fit")
    assert result.attempted == 1 and result.failed == 1
    assert "differ" in result.failures[0]


def test_injected_wrong_request_result_is_counted(small_data):
    workload = workloads.FitWorkload("fit_dense_k10", "mnist", small_fit)
    record = workload.operation(small_data)
    record["session"] = WrongSession(record["session"])
    stream = iter(workloads.request_rows(3, small_data.x_test.shape[0], 200))
    result, latencies = workloads.Result(), []
    workload.serve_requests(small_data, record, stream, 0.0, 99, latencies, result)
    assert len(latencies) == result.attempted == 99
    assert result.failed == 33


def test_injected_non_200_is_counted(small_data, tmp_path):
    fitted = small_fit(small_data)
    model_path = tmp_path / "model.repro"
    save_model(fitted.model, model_path)
    # The server answers from the loaded model, whose pool comes back as
    # CSR, so the reference is a session on the same file.
    reference = workloads.InferenceSession(load_model(model_path)).predict_proba(
        small_data.x_test
    )
    rows = workloads.request_rows(5, small_data.x_test.shape[0], 4)
    bodies = [
        json.dumps({"instances": workloads.encode_matrix(small_data.x_test[r])})
        .encode("utf-8")
        for r in rows
    ]
    # A two-token bucket that never refills: the third request on is shed.
    flags = ["--rate-per-s", "1e-9", "--burst", "2"]
    server = workloads.Server(model_path, ROOT / "src", flags)
    try:
        records = workloads.send_requests(server, bodies, [0, 1, 2, 3, 0, 1],
                                          deadline=0.0, min_count=6)
        stats = server.stats()
    finally:
        server.stop()
    result = workloads.Result()
    for record in records:
        workloads.check_response(record, rows[record[0]], reference, result,
                                 "request")
    assert [record[2] for record in records] == [200, 200, 429, 429, 429, 429]
    assert result.attempted == 6 and result.failed == 4
    assert stats["tenants"]["default"]["shed_rate_limited"] == 4


def test_self_times_add_up_and_program_is_restored(small_data):
    from repro.kernels.cache import KernelBuffer

    original = KernelBuffer.__dict__["fetch"]
    tracer = layers.LayerTracer()
    start = time.perf_counter()
    with tracer.installed():
        assert KernelBuffer.__dict__["fetch"] is not original
        with tracer.span("core.fit"):
            small_fit(small_data)
    wall = time.perf_counter() - start
    assert KernelBuffer.__dict__["fetch"] is original
    assert tracer.missing == []
    assert tracer.calls["kernels.buffer"] > 0
    assert tracer.total_self_s() == pytest.approx(wall, rel=0.05)


def test_matmul_cost_counts_dense_and_csr():
    from repro.sparse import CSRMatrix

    a = np.ones((3, 4))
    b = np.ones((5, 4))
    assert layers.matmul_cost(a, b) == (2 * 3 * 5 * 4, (12 + 20 + 15) * 8)
    sparse = CSRMatrix.from_dense(np.eye(5, 4))
    flops, _bytes = layers.matmul_cost(a, sparse)
    assert flops == 2 * 3 * sparse.nnz


def test_unwrapped_or_uncalled_layer_fails_the_traced_run(small_data,
                                                         monkeypatch):
    monkeypatch.setitem(workloads.REQUIRED_SPANS, "fit_dense_k10",
                        ("kernels.buffer", "cascade.solve"))
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + [
        ("repro.kernels.cache", "KernelBuffer.renamed", "kernels.renamed"),
    ])
    tracer = layers.LayerTracer()
    with tracer.installed():
        start = time.perf_counter()
        with tracer.span("core.fit"):
            small_fit(small_data)
        wall = time.perf_counter() - start
    problems = workloads.trace_problems(tracer, "fit_dense_k10", 1, wall)
    assert problems == [
        "trace target not found: repro.kernels.cache.KernelBuffer.renamed",
        "cascade.solve was called 0 times in 1 operations",
    ]
