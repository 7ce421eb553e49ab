"""Chaos suite: device loss mid-cascade.

Unlike the pair-sharded trainer (whose recovery is bitwise — each
pairwise problem is solved whole, just elsewhere), a lost device
changes the cascade's shard→device map and hence possibly the merge
pairing, so the recovered model may differ in the low bits.  What must
hold instead is the error budget: every recovered run still verifies
its global dual gap under the ceiling, stays decision-close to the
fault-free cascade, and reports the loss and the recovery explicitly.
When the rebuilt tree pairs the same slots (the common case), the
recovery *is* bitwise — one scenario pins that stronger property.
"""

import os
import warnings

import numpy as np
import pytest

from repro.cascade import CascadeConfig, train_cascade
from repro.core.trainer import TrainerConfig
from repro.data import gaussian_blobs
from repro.distributed import ClusterSpec
from repro.faults import DeviceLoss, FaultPlan
from repro.gpusim.device import scaled_tesla_p100
from repro.kernels.functions import kernel_from_name

N_DEVICES = 4
N_SEEDS = int(os.environ.get("REPRO_CHAOS_SEEDS", "8"))


def _decision(result, labels):
    return result.f + labels + result.bias


@pytest.fixture(scope="module")
def workload():
    x, y = gaussian_blobs(n=400, n_features=5, n_classes=2, seed=1)
    labels = np.where(y == 0, 1.0, -1.0)
    kernel = kernel_from_name("gaussian", gamma=0.5)
    config = TrainerConfig(device=scaled_tesla_p100(), working_set_size=32)
    return x, labels, kernel, config


@pytest.fixture(scope="module")
def cluster():
    return ClusterSpec(device=scaled_tesla_p100(), n_devices=N_DEVICES)


def _train(cluster, workload, **kwargs):
    x, labels, kernel, config = workload
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=N_DEVICES),
            **kwargs,
        )


@pytest.fixture(scope="module")
def baseline(cluster, workload):
    return _train(cluster, workload)


def _assert_recovered_close(result, report, baseline, labels):
    base_result, _ = baseline
    assert report.budget_met
    assert report.final_gap <= report.gap_budget
    d_fault = _decision(result, labels)
    d_base = _decision(base_result, labels)
    assert np.max(np.abs(d_fault - d_base)) < 0.1
    assert np.mean(np.sign(d_fault) == np.sign(d_base)) >= 0.999


class TestDeviceLossMidCascade:
    @pytest.mark.parametrize("lost_device", [1, 2, 3])
    def test_recovery_meets_budget(
        self, cluster, workload, baseline, lost_device
    ):
        labels = workload[1]
        plan = FaultPlan(losses=[DeviceLoss(device=lost_device, at_s=1e-6)])
        result, report = _train(
            cluster, workload,
            fault_plan=plan,
            checkpoint_every=2,
            checkpoint_dir=":memory:",
        )
        _assert_recovered_close(result, report, baseline, labels)
        assert report.faults["devices_lost"] == [lost_device]
        recovery = report.faults["recovery"]
        assert recovery["recovered_shards"] >= 1
        assert lost_device not in recovery["survivors"]
        assert len(recovery["survivors"]) == N_DEVICES - 1

    def test_same_pairing_recovery_is_bitwise(
        self, cluster, workload, baseline
    ):
        # Losing device 1 sends its shard to device 0; the survivors'
        # slot ordering still pairs (0,1) and (2,3), so every merge sees
        # the same operands and the recovered model is bitwise identical.
        base_result, base_report = baseline
        plan = FaultPlan(losses=[DeviceLoss(device=1, at_s=1e-6)])
        result, report = _train(
            cluster, workload,
            fault_plan=plan,
            checkpoint_every=2,
            checkpoint_dir=":memory:",
        )
        assert np.array_equal(result.alpha, base_result.alpha)
        assert result.bias == base_result.bias
        assert report.final_gap == base_report.final_gap

    def test_loss_stretches_timeline_boundedly(
        self, cluster, workload, baseline
    ):
        _, base_report = baseline
        plan = FaultPlan(losses=[DeviceLoss(device=1, at_s=1e-6)])
        _, report = _train(
            cluster, workload,
            fault_plan=plan,
            checkpoint_every=2,
            checkpoint_dir=":memory:",
        )
        assert report.simulated_seconds >= base_report.simulated_seconds
        assert report.simulated_seconds <= 5.0 * base_report.simulated_seconds

    def test_merge_tree_rebuilt_over_survivors(self, cluster, workload):
        plan = FaultPlan(losses=[DeviceLoss(device=3, at_s=1e-6)])
        _, report = _train(
            cluster, workload,
            fault_plan=plan,
            checkpoint_every=2,
            checkpoint_dir=":memory:",
        )
        # The root solution cannot live on the lost device, and the tree
        # still folds every shard into one slot.
        assert report.tree["root_device"] != 3
        assert report.tree["n_merges"] == report.n_shards - 1

    def test_seeded_loss_matrix(self, cluster, workload, baseline):
        labels = workload[1]
        for seed in range(N_SEEDS):
            plan = FaultPlan.random(seed, N_DEVICES, loss_window_s=0.0)
            result, report = _train(
                cluster, workload,
                fault_plan=plan,
                checkpoint_every=2,
                checkpoint_dir=":memory:",
            )
            assert report.budget_met, f"seed {seed} missed the budget"
            _assert_recovered_close(result, report, baseline, labels)

    def test_checkpoints_written_without_faults(self, cluster, workload):
        _, report = _train(
            cluster, workload,
            checkpoint_every=2,
            checkpoint_dir=":memory:",
        )
        assert report.faults["checkpoints_written"] > 0

    def test_disk_checkpoints(self, cluster, workload, baseline, tmp_path):
        labels = workload[1]
        plan = FaultPlan(losses=[DeviceLoss(device=2, at_s=1e-6)])
        result, report = _train(
            cluster, workload,
            fault_plan=plan,
            checkpoint_every=2,
            checkpoint_dir=tmp_path / "casc_ckpt",
        )
        _assert_recovered_close(result, report, baseline, labels)
        assert report.faults["checkpoints_written"] > 0


class TestHierarchicalChaos:
    def test_loss_on_two_node_cluster(self, workload):
        x, labels, kernel, config = workload
        cluster = ClusterSpec(
            device=scaled_tesla_p100(), n_devices=4, n_nodes=2
        )
        baseline_result, _ = train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=4),
        )
        plan = FaultPlan(losses=[DeviceLoss(device=1, at_s=1e-6)])
        result, report = train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=4),
            fault_plan=plan,
            checkpoint_every=2,
            checkpoint_dir=":memory:",
        )
        assert report.budget_met
        d_fault = _decision(result, labels)
        d_base = _decision(baseline_result, labels)
        assert np.mean(np.sign(d_fault) == np.sign(d_base)) >= 0.999
        # The rebuilt tree still respects the topology: at most
        # n_nodes - 1 merges cross the node boundary.
        assert report.tree["tier_counts"]["inter"] <= cluster.n_nodes - 1


class TestSharedFaultPlumbing:
    """The fault protocol the cascade shares with pair-sharded training."""

    def test_straggler_only_plan_stretches_only_the_timeline(
        self, cluster, workload, baseline
    ):
        base_result, base_report = baseline
        plan = FaultPlan(stragglers={0: 2.0, 2: 1.5})
        result, report = _train(cluster, workload, fault_plan=plan)
        assert np.array_equal(result.alpha, base_result.alpha)
        assert result.bias == base_result.bias
        assert report.simulated_seconds > base_report.simulated_seconds
        assert report.faults["devices_lost"] == []
        assert report.faults["recovery"] == {}

    def test_losing_every_device_is_an_explicit_error(
        self, cluster, workload
    ):
        from repro.exceptions import SolverError

        plan = FaultPlan(
            losses=[DeviceLoss(device=d, at_s=0.0) for d in range(N_DEVICES)]
        )
        with pytest.raises(SolverError, match="nothing survives"):
            _train(cluster, workload, fault_plan=plan)

    def test_recovery_spans_cover_every_survivor_with_work(
        self, cluster, workload
    ):
        from dataclasses import replace

        from repro.telemetry import Tracer

        x, labels, kernel, config = workload
        tracer = Tracer()
        plan = FaultPlan(
            losses=[DeviceLoss(device=1, at_s=1e-6), DeviceLoss(3, 1e-6)]
        )
        _, report = _train(
            cluster,
            (x, labels, kernel, replace(config, tracer=tracer)),
            fault_plan=plan,
            checkpoint_every=2,
        )
        records = tracer.to_records()
        (recovery_span,) = [
            r for r in records if r["name"] == "cascade_recovery"
        ]
        waves = [r for r in records if r["name"] == "cascade_shard_wave"]
        recovered = [r for r in waves if r["attrs"].get("recovery")]
        recovery = report.faults["recovery"]
        assert len(waves) - len(recovered) == N_DEVICES
        devices = [r["attrs"]["device"] for r in recovered]
        assert len(recovered) == 2
        assert len(set(devices)) == len(devices)
        assert set(devices) <= set(recovery["survivors"])
        assert (
            sum(r["attrs"]["n_shards"] for r in recovered)
            == recovery["recovered_shards"]
            == recovery_span["attrs"]["n_shards"]
        )
        assert all(
            r["parent_id"] == recovery_span["span_id"] for r in recovered
        )
