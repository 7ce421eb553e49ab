"""Unit tests for repro.faults: plans, clock rates, checkpoints.

Covers the pieces the chaos scenarios compose: straggler clock scaling,
snapshot/restore bitwise round-trips, the versioned checkpoint format's
corruption handling, and fault-plan validation/determinism.
"""

import json

import numpy as np
import pytest

from repro.data import gaussian_blobs
from repro.exceptions import (
    CheckpointError,
    DeviceLostError,
    ValidationError,
)
from repro.faults import (
    CheckpointStore,
    DeviceLoss,
    FaultInjector,
    FaultPlan,
    LinkFault,
    SessionSnapshot,
    TrainingCheckpoint,
)
from repro.gpusim.clock import SimClock, TimeCharge
from repro.gpusim.device import scaled_tesla_p100
from repro.gpusim.engine import make_engine
from repro.kernels.functions import kernel_from_name
from repro.kernels.rows import KernelRowComputer
from repro.multiclass.decomposition import class_partition, pair_problems
from repro.solvers.batch_smo import BatchSMOSolver
from repro.sparse import ops as mops


class TestClockRate:
    def test_rate_scales_charges(self):
        clock = SimClock()
        clock.charge("solve", TimeCharge(latency_s=1.0, compute_s=2.0))
        clock.rate = 2.0
        clock.charge("solve", TimeCharge(latency_s=1.0, compute_s=2.0))
        assert clock.elapsed_s == pytest.approx(9.0)

    def test_rate_does_not_rescale_merges(self):
        fast = SimClock()
        fast.charge("solve", TimeCharge(compute_s=1.0))
        slow = SimClock()
        slow.rate = 3.0
        slow.merge(fast)  # already-charged time merges verbatim
        assert slow.elapsed_s == pytest.approx(1.0)

    def test_copy_preserves_rate(self):
        clock = SimClock()
        clock.rate = 1.5
        assert clock.copy().rate == 1.5

    def test_rate_validated(self):
        clock = SimClock()
        for bad in (0.0, -1.0):
            with pytest.raises(ValidationError, match="rate"):
                clock.rate = bad


class TestFaultPlan:
    def test_duplicate_loss_rejected(self):
        with pytest.raises(ValidationError, match="one scripted loss"):
            FaultPlan(losses=(DeviceLoss(0, 1.0), DeviceLoss(0, 2.0)))

    def test_bad_straggler_rate_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            FaultPlan(stragglers={0: 0.0})
        with pytest.raises(ValidationError, match=">= 0"):
            FaultPlan(stragglers={-1: 2.0})

    def test_loss_and_link_validation(self):
        with pytest.raises(ValidationError, match="loss time"):
            DeviceLoss(0, -1.0)
        with pytest.raises(ValidationError, match="duration"):
            LinkFault(0, 1, 0.0, 0.0)

    def test_is_empty(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(stragglers={0: 2.0}).is_empty

    def test_random_is_deterministic_and_bounded(self):
        for seed in range(20):
            a = FaultPlan.random(seed, 4, max_straggler_rate=3.0)
            b = FaultPlan.random(seed, 4, max_straggler_rate=3.0)
            assert a == b
            assert a.seed == seed
            assert all(1.0 < rate <= 3.0 for rate in a.stragglers.values())
            assert len(a.losses) <= 1  # single-failure model

    def test_summary_is_json_ready(self):
        plan = FaultPlan.random(3, 4, link_fault_probability=1.0)
        json.dumps(plan.summary())


class TestFaultInjector:
    def test_out_of_range_devices_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            FaultInjector(FaultPlan(stragglers={5: 2.0}), 2)
        with pytest.raises(ValidationError, match="out of range"):
            FaultInjector(FaultPlan(losses=(DeviceLoss(5, 1.0),)), 2)

    def test_check_device_fires_once_past_loss_time(self):
        injector = FaultInjector(FaultPlan(losses=(DeviceLoss(1, 5.0),)), 4)
        injector.check_device(1, 4.9)  # before the loss: no-op
        injector.check_device(0, 100.0)  # other devices unaffected
        with pytest.raises(DeviceLostError) as info:
            injector.check_device(1, 5.0)
        assert info.value.device == 1
        assert info.value.at_s == 5.0
        assert injector.devices_lost == [1]

    def test_link_penalty_counts_retries(self):
        fault = LinkFault(0, 1, 1.0, 2.0, retry_latency_s=0.25)
        injector = FaultInjector(FaultPlan(link_faults=(fault,)), 2)
        assert injector.link_penalty_s(0, 1, 0.5) == 0.0
        assert injector.link_penalty_s(1, 0, 1.5) == 0.25  # direction-free
        assert injector.link_penalty_s(0, 1, 3.5) == 0.0
        assert injector.n_link_retries == 1


def _session_factory():
    """Fresh, identical solver sessions over one small binary problem."""
    x, y = gaussian_blobs(n=44, n_features=4, n_classes=2, seed=5)
    classes, partition = class_partition(np.asarray(y).ravel())
    problem = next(iter(pair_problems(classes, partition)))
    kernel = kernel_from_name("gaussian", gamma=0.5)
    data = mops.take_rows(np.asarray(x), problem.global_indices)

    def make():
        engine = make_engine(scaled_tesla_p100())
        rows = KernelRowComputer(engine, kernel, data)
        solver = BatchSMOSolver(penalty=1.0, working_set_size=16)
        return solver.start(rows, problem.labels)

    return make


def _drive(session, rounds=None):
    done = 0
    while rounds is None or done < rounds:
        if session.begin_round() is None:
            return True
        session.complete_round()
        done += 1
    return False


class TestSnapshotRestore:
    def test_restored_session_replays_bitwise(self):
        make = _session_factory()
        reference = make()
        _drive(reference)
        expected = reference.finish()

        # Run a twin a few rounds, snapshot, restore into a fresh
        # session, and drive that to convergence: once through the raw
        # state dict, once through a SessionSnapshot's JSON round trip.
        def via_state(source, resumed):
            resumed.restore_state(source.snapshot_state())

        def via_snapshot_json(source, resumed):
            snapshot = SessionSnapshot.capture(0, source)
            SessionSnapshot.from_json(snapshot.to_json()).restore(resumed)

        for restore in (via_state, via_snapshot_json):
            source = make()
            finished_early = _drive(source, rounds=3)
            assert not finished_early

            resumed = make()
            restore(source, resumed)
            _drive(resumed)
            result = resumed.finish()
            assert np.array_equal(expected.alpha, result.alpha)
            assert expected.bias == result.bias
            assert expected.iterations == result.iterations

    def test_snapshot_mid_round_rejected(self):
        session = _session_factory()()
        session.begin_round()
        with pytest.raises(ValidationError, match="in flight"):
            session.snapshot_state()

    def test_restore_shape_mismatch_rejected(self):
        make = _session_factory()
        session = make()
        state = session.snapshot_state()
        state["alpha"] = state["alpha"][:-1]
        fresh = make()
        with pytest.raises(ValidationError):
            fresh.restore_state(state)


def _snapshot(index=0, n=6):
    rng = np.random.default_rng(index)
    return SessionSnapshot(
        problem_index=index,
        alpha=rng.normal(size=n),
        f=rng.normal(size=n),
        rounds=3,
        inner_total=17,
        ws_order=(1, 4, 2),
        stalled=0,
        converged=False,
        finished=False,
    )


class TestCheckpointFormat:
    def test_round_trip_is_lossless(self):
        checkpoint = TrainingCheckpoint(
            device=1,
            wave=4,
            simulated_s=0.25,
            snapshots={0: _snapshot(0), 3: _snapshot(3)},
        )
        raw = json.loads(json.dumps(checkpoint.to_json()))
        loaded = TrainingCheckpoint.from_json(raw)
        assert loaded.device == 1 and loaded.wave == 4
        for index in (0, 3):
            a, b = checkpoint.snapshots[index], loaded.snapshots[index]
            assert np.array_equal(a.alpha, b.alpha)
            assert np.array_equal(a.f, b.f)
            assert a.ws_order == b.ws_order

    def test_wrong_format_rejected(self):
        with pytest.raises(CheckpointError, match="not a"):
            TrainingCheckpoint.from_json({"format": "something-else"})

    def test_newer_version_rejected(self):
        raw = TrainingCheckpoint(0, 1, 0.0, {}).to_json()
        raw["version"] = 99
        with pytest.raises(CheckpointError, match="newer"):
            TrainingCheckpoint.from_json(raw)

    def test_corrupt_base64_rejected(self):
        raw = TrainingCheckpoint(0, 1, 0.0, {0: _snapshot()}).to_json()
        raw["snapshots"][0]["alpha_b64"] = "!!! not base64 !!!"
        with pytest.raises(CheckpointError, match="base64"):
            TrainingCheckpoint.from_json(raw)

    def test_truncated_payload_rejected(self):
        raw = TrainingCheckpoint(0, 1, 0.0, {0: _snapshot()}).to_json()
        raw["snapshots"][0]["n"] = 999
        with pytest.raises(CheckpointError, match="elements"):
            TrainingCheckpoint.from_json(raw)

    def test_missing_field_rejected(self):
        raw = TrainingCheckpoint(0, 1, 0.0, {0: _snapshot()}).to_json()
        del raw["snapshots"][0]["rounds"]
        with pytest.raises(CheckpointError, match="malformed"):
            TrainingCheckpoint.from_json(raw)


class TestCheckpointStore:
    def test_memory_store_tracks_latest(self):
        store = CheckpointStore()
        store.save(TrainingCheckpoint(0, 2, 0.1, {0: _snapshot()}))
        store.save(TrainingCheckpoint(0, 4, 0.2, {0: _snapshot()}))
        assert store.latest(0).wave == 4
        assert store.latest(1) is None
        assert store.n_written == 2

    def test_disk_store_round_trips(self, tmp_path):
        store = CheckpointStore(tmp_path)
        checkpoint = TrainingCheckpoint(2, 6, 0.5, {1: _snapshot(1)})
        store.save(checkpoint)
        path = tmp_path / "ckpt-d2-w6.json"
        assert path.exists()
        loaded = store.load(path)
        assert loaded.device == 2 and loaded.wave == 6
        assert np.array_equal(
            loaded.snapshots[1].alpha, checkpoint.snapshots[1].alpha
        )

    def test_load_missing_or_corrupt_raises(self, tmp_path):
        store = CheckpointStore()
        with pytest.raises(CheckpointError, match="missing"):
            store.load(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated", encoding="utf-8")
        with pytest.raises(CheckpointError, match="JSON"):
            store.load(bad)
