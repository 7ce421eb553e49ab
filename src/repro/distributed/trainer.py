"""Sharded multi-class training over a simulated GPU cluster.

The one-against-one decomposition hands us k(k-1)/2 *independent* binary
problems — the natural unit of distribution (Govada et al.'s observation).
This driver:

1. plans a placement of the pairwise problems onto the cluster's devices
   (:mod:`repro.distributed.placement`);
2. per device, ships the class blocks its problems need over the host
   link, builds the same cross-SVM segment share single-device training
   uses, and runs the existing resumable wave driver
   (:func:`repro.core.interleave.run_interleaved`) over that device's
   members — every device reuses the single-device execution machinery
   unchanged, under a ``cluster_wave`` telemetry span;
3. gathers the per-device binary models to the root device over the peer
   links (``shard_merge`` span) and assembles one unified
   :class:`~repro.multiclass.sv_sharing.SupportVectorPool` in global
   problem order.

**Bitwise parity.**  Every per-pair solve consumes kernel values computed
per (instance row, full class column block) through the fixed-tile matmul
discipline (``repro.sparse.ops``), so segment values are pure functions of
the operand rows — independent of which device computes them, what else
shares its waves, and where its tiles sit.  Finalization and pool assembly
run in global problem order regardless of placement.  Training on any
device count with any placement therefore produces records, pool and
sigmoids bit-for-bit identical to ``train_multiclass`` on one device; only
the *simulated timeline* (makespan, transfers, utilization) changes.

Host-side note: arrays are plain NumPy and are not physically partitioned
— the *cost model* charges each device for exactly the class-block bytes
its placement requires, which is what the simulation measures.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Optional

import numpy as np

from repro.core.trainer import (
    TrainerConfig,
    _class_weighted_penalties,
    _finalize_cascade_pair,
    _finalize_member,
    _interleave_limits,
    _make_pair_member,
    _make_shared_store,
)
from repro.distributed.cluster import ClusterSpec, DevicePool
from repro.distributed.placement import plan_placement
from repro.exceptions import ValidationError
from repro.faults.plan import FaultPlan
from repro.faults.recovery import (
    fault_summary,
    open_faults,
    recovery_inputs,
    run_wave_group,
)
from repro.gpusim.clock import SimClock
from repro.gpusim.counters import OpCounters
from repro.gpusim.engine import FLOAT_BYTES
from repro.kernels.functions import KernelFunction
from repro.model.multiclass import MPSVMModel
from repro.multiclass.decomposition import class_partition, pair_problems
from repro.multiclass.sv_sharing import SupportVectorPool
from repro.sparse import ops as mops
from repro.telemetry.schema import REPORT_SCHEMA_VERSION
from repro.telemetry.tracer import _json_safe, maybe_span

__all__ = ["ClusterTrainingReport", "train_multiclass_sharded"]

# Per-record constants shipped in the SV merge besides the index and
# coefficient arrays: (s, t, bias, iteration count) plus sigmoid (A, B).
_RECORD_HEADER_BYTES = 6 * FLOAT_BYTES


@dataclass
class ClusterTrainingReport:
    """What one sharded training run cost across the cluster."""

    simulated_seconds: float  # cluster makespan (busiest device)
    clock: SimClock  # merged per-category breakdown, all devices
    counters: OpCounters  # aggregate op totals, all devices
    cluster_name: str
    n_devices: int
    n_binary_svms: int = 0
    total_iterations: int = 0
    kernel_rows_computed: int = 0
    max_concurrency: int = 1  # largest wave on any single device
    # Sum of per-device busy seconds over the makespan: how much faster
    # the cluster ran than the same work laid end to end on one device.
    cluster_speedup: float = 1.0
    transfer_bytes_total: int = 0
    merge_bytes: int = 0
    placement: dict = field(default_factory=dict)
    # One entry per device: timeline, utilization, transfers, work totals.
    per_device: list[dict] = field(default_factory=list)
    per_svm: list[dict] = field(default_factory=list)
    schedule_source: str = "cluster_wave"
    # Fault-injection outcome: empty for a nominal run; otherwise the
    # plan, which losses fired, checkpoint and recovery accounting.
    faults: dict = field(default_factory=dict)
    # One entry per cascade-routed pair (instance-sharded training, see
    # repro.cascade): the pair, its owning (root) device, and the full
    # CascadeReport snapshot — per-level timelines, SV survival ratios,
    # feedback accounting, per-tier transfer bytes.
    cascade: list = field(default_factory=list)
    # Interconnect bytes split by link tier (host / intra-node peer /
    # inter-node), the whole run.
    transfer_tier_bytes: dict = field(default_factory=dict)

    @property
    def total_busy_seconds(self) -> float:
        """Sum of every device's busy time (the serial-equivalent load)."""
        return sum(entry["simulated_seconds"] for entry in self.per_device)

    def breakdown(self) -> dict[str, float]:
        """Simulated seconds per cost category, summed across devices."""
        return self.clock.breakdown()

    def to_dict(self) -> dict[str, Any]:
        """A flat, JSON-native, schema-versioned snapshot of this report."""
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": "cluster_training_report",
            "cluster_name": self.cluster_name,
            "n_devices": self.n_devices,
            "simulated_seconds": self.simulated_seconds,
            "breakdown": self.breakdown(),
            "counters": asdict(self.counters),
            "n_binary_svms": self.n_binary_svms,
            "total_iterations": self.total_iterations,
            "kernel_rows_computed": self.kernel_rows_computed,
            "max_concurrency": self.max_concurrency,
            "cluster_speedup": self.cluster_speedup,
            "transfer_bytes_total": self.transfer_bytes_total,
            "merge_bytes": self.merge_bytes,
            "placement": _json_safe(self.placement),
            "per_device": _json_safe(self.per_device),
            "per_svm": _json_safe(self.per_svm),
            "schedule_source": self.schedule_source,
            "faults": _json_safe(self.faults),
            "cascade": _json_safe(self.cascade),
            "transfer_tier_bytes": _json_safe(self.transfer_tier_bytes),
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """The :meth:`to_dict` snapshot serialized to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


def _check_config(config: TrainerConfig, cluster: ClusterSpec) -> TrainerConfig:
    """Align the trainer config with the cluster's device."""
    if config.solver != "batched":
        raise ValidationError(
            "sharded training drives resumable batched-SMO sessions; "
            f"solver {config.solver!r} is not distributable"
        )
    if config.decomposition != "ovo":
        raise ValidationError(
            "sharded training partitions the one-against-one problems; "
            f"decomposition {config.decomposition!r} is not supported"
        )
    if config.device is not cluster.device:
        config = replace(config, device=cluster.device)
    return config


def _class_block_bytes(data: mops.MatrixLike, partition: dict) -> list[int]:
    """Estimated resident bytes of each class's training-row block."""
    total_rows = max(mops.n_rows(data), 1)
    per_row = mops.matrix_nbytes(data) / total_rows
    return [
        int(round(partition[position].size * per_row))
        for position in range(len(partition))
    ]


def _record_payload_bytes(record) -> int:
    """Interconnect bytes one binary model costs in the SV merge."""
    return int(
        record.global_sv_indices.size * FLOAT_BYTES
        + record.coefficients.size * FLOAT_BYTES
        + _RECORD_HEADER_BYTES
    )


def train_multiclass_sharded(
    config: TrainerConfig,
    cluster: ClusterSpec,
    data: mops.MatrixLike,
    y: np.ndarray,
    kernel: KernelFunction,
    penalty: float,
    *,
    placement: str = "affinity",
    fault_plan: Optional[FaultPlan] = None,
    checkpoint_every: int = 4,
    checkpoint_dir: Optional[object] = None,
    cascade: Optional[object] = None,
) -> tuple[MPSVMModel, ClusterTrainingReport]:
    """Train a multi-class SVM sharded across a simulated cluster.

    Models and probabilities are bitwise identical to single-device
    :func:`~repro.core.trainer.train_multiclass` under the same config,
    for every device count and placement strategy (see the module
    docstring); the report carries the cluster timeline instead.

    ``cascade`` (a :class:`repro.cascade.CascadeConfig`, or the one on
    ``config.cascade``) additionally routes pairwise problems with at
    least ``cascade.threshold`` instances through the instance-sharded
    cascade driver across the *whole* cluster — seeded shards, pairwise
    SV merges up a topology-aware reduction tree, global-KKT feedback —
    before the remaining pairs run the bitwise pair-sharded path.
    Cascade-routed pairs are approximate under an explicit dual-gap
    budget (the bitwise guarantee above then covers only the unrouted
    pairs); the report's ``cascade`` section carries each routed pair's
    per-level timeline, SV survival and per-tier transfer bytes.
    Cascade routing cannot be combined with ``fault_plan`` here — for
    faults during a cascade, drive :func:`repro.cascade.train_cascade`
    directly.

    ``fault_plan`` injects scripted faults (see :mod:`repro.faults`):
    stragglers stretch the affected device's timeline; a scripted device
    loss aborts that device at the next wave boundary, after which the
    lost device's problems are re-placed onto the survivors (elastic
    re-placement through the same planner) and resumed from the last
    checkpoint — the final model stays **bitwise identical** to the
    fault-free run, because a restored session's state fully determines
    its remaining iterates.  Checkpoints are taken every
    ``checkpoint_every`` waves per device (their device→host shipping
    cost lands on the simulated clocks) and persisted to
    ``checkpoint_dir`` when given; without a fault plan no checkpoint
    machinery runs unless ``checkpoint_dir`` asks for durability.
    Losses scheduled after a device finished are no-ops, lost devices
    stay lost, and recovery itself runs fault-free (the supported model
    is one failure per device per run).

    With ``config.tracer`` set, the run is recorded as a
    ``train_cluster`` root span over per-device ``cluster_wave`` spans,
    ``transfer`` spans for every interconnect copy, a ``fault_recovery``
    span when a loss fired, and one ``shard_merge`` span for the SV
    gather.
    """
    tracer = config.tracer
    config = _check_config(config, cluster)
    faults = open_faults(
        fault_plan, cluster.n_devices, checkpoint_every, checkpoint_dir
    )
    labels = np.asarray(y).ravel()
    classes, partition = class_partition(labels)
    if config.force_dense:
        data = mops.to_dense(data)
    problems = list(pair_problems(classes, partition))

    # Instance-sharded cascade routing: the routed pairs train across
    # the whole pool before the per-device phase; placement then covers
    # only the remaining (bitwise pair-sharded) problems.
    cascade_cfg = cascade if cascade is not None else config.cascade
    cascade_indices: set[int] = set()
    if cascade_cfg is not None and cascade_cfg.n_shards > 1:
        from repro.cascade.config import CascadeConfig

        if not isinstance(cascade_cfg, CascadeConfig):
            raise ValidationError(
                "cascade must be a repro.cascade.CascadeConfig, got "
                f"{type(cascade_cfg).__name__}"
            )
        if faults.injector is not None:
            raise ValidationError(
                "cascade routing and fault injection cannot be combined "
                "in sharded training; drive repro.cascade.train_cascade "
                "directly to exercise faults mid-cascade"
            )
        cascade_indices = {
            index
            for index, problem in enumerate(problems)
            if problem.n >= cascade_cfg.threshold
        }
    small_indices = [
        index for index in range(len(problems)) if index not in cascade_indices
    ]
    plan = plan_placement(
        [problems[index] for index in small_indices],
        cluster.n_devices,
        strategy=placement,
        cluster=cluster,
    )
    # Per-device problem lists and classes in *global* problem indices
    # (the plan is over the unrouted subset only).
    device_problems = [
        [small_indices[local] for local in plan.device_problems[device]]
        for device in range(cluster.n_devices)
    ]
    pool = DevicePool(
        cluster,
        flop_efficiency=config.flop_efficiency,
        bandwidth_efficiency=config.bandwidth_efficiency,
        backend=config.backend,
        tracer=tracer,
        fault_injector=faults.injector,
    )
    block_bytes = _class_block_bytes(data, partition)

    with maybe_span(
        tracer,
        "train_cluster",
        n_devices=cluster.n_devices,
        n_instances=mops.n_rows(data),
        n_binary_svms=len(problems),
        placement=placement,
    ) as root_span:
        finals: dict[int, tuple] = {}  # problem index -> finalize outputs
        # Per-device accumulators; device master clocks live in the pool.
        member_clocks = [SimClock() for _ in range(cluster.n_devices)]
        device_stats = [
            {"iterations": 0, "kernel_rows": 0, "resident_bytes": 0,
             "max_concurrency": 1, "wave_trace": None, "lost": False}
            for _ in range(cluster.n_devices)
        ]
        # Final problem ownership: starts at the plan, moves to survivors
        # when a loss forces re-placement (drives the merge payloads).
        # Cascade-routed pairs land on their reduction-tree root device.
        owner = [0] * len(problems)
        for position, index in enumerate(small_indices):
            owner[index] = plan.assignments[position]

        # ----------------------------------------------------------
        # Cascade phase: the routed pairs train instance-sharded over
        # the whole pool, one at a time (each cascade already fills
        # every device), before the per-device pair phase.
        # ----------------------------------------------------------
        cascade_entries: list[dict] = []
        if cascade_indices:
            from repro.cascade.driver import _cascade_solve
        for index in sorted(cascade_indices):
            problem = problems[index]
            pair_data = mops.take_rows(data, problem.global_indices)
            penalty_vector = _class_weighted_penalties(
                config, classes, problem, penalty
            )
            result, casc_report = _cascade_solve(
                config,
                cascade_cfg,
                pool,
                pair_data,
                problem.labels,
                kernel,
                penalty,
                penalty_vector=penalty_vector,
                faults=faults,
                member_clocks=member_clocks,
                tracer=tracer,
            )
            root_device = int(casc_report.tree["root_device"])
            owner[index] = root_device
            finals[index], finalize_engine = _finalize_cascade_pair(
                config, pool.engine(root_device).counters, problem, result,
                casc_report, data, kernel, penalty, penalty_vector, pair_data,
            )
            member_clocks[root_device].merge(finalize_engine.clock)
            stats = device_stats[root_device]
            stats["iterations"] += result.iterations
            stats["kernel_rows"] += result.kernel_rows_computed
            cascade_entries.append(
                {
                    "index": index,
                    "pair": (problem.s, problem.t),
                    "root_device": root_device,
                    "report": casc_report.to_dict(),
                }
            )
            if tracer is not None:
                tracer.bind_clock(None)

        def run_device(device, indices, upload, snapshots=None):
            # Ship ``upload`` class-block bytes to ``device``, then train
            # and finalize ``indices`` there as one wave group (a recovery
            # group when ``snapshots`` is given).
            master = pool.engine(device)
            stats = device_stats[device]
            if tracer is not None:
                tracer.bind_clock(master.clock)
            with maybe_span(
                tracer,
                "cluster_wave",
                clock=master.clock,
                device=device,
                n_svms=len(indices),
                resident_bytes=upload,
                **({} if snapshots is None else {"recovery": True}),
            ) as device_span:
                pool.host_to_device(device, upload)
                stats["resident_bytes"] += upload
                if not indices:
                    return
                restored = snapshots or {}
                pool.host_to_device(
                    device,
                    sum(restored[i].nbytes for i in indices if i in restored),
                    category="checkpoint",
                )
                shared, shared_computer = _make_shared_store(
                    config, master, kernel, data, classes, partition
                )
                members = [
                    _make_pair_member(
                        config,
                        classes,
                        index,
                        problems[index],
                        penalty,
                        data,
                        kernel,
                        shared=shared,
                        shared_computer=shared_computer,
                        counters=master.counters,
                    )
                    for index in indices
                ]
                outcome = run_wave_group(
                    faults,
                    pool,
                    device,
                    members,
                    _interleave_limits(config, stats["resident_bytes"]),
                    shared=shared,
                    tracer=tracer,
                    snapshots=snapshots,
                )
                if outcome is None:
                    # Nothing finalizes on a lost device; recovery
                    # resumes its problems on the survivors.
                    stats["lost"] = True
                    device_span.set(lost=True, lost_at_s=faults.lost[device])
                    return

                # Finalize this device's members (assembly restores global
                # order below; finalization order is irrelevant to the
                # numerics and each charge lands on its own engine).
                finalize_clock = SimClock()
                for member in members:
                    finals[member.index] = _finalize_member(
                        config, classes, member, data, kernel, penalty, tracer
                    )
                    finalize_clock.merge(finals[member.index][3])
                    stats["iterations"] += member.result.iterations
                    stats["kernel_rows"] += member.result.kernel_rows_computed
                    owner[member.index] = device
                member_clocks[device].merge(outcome.timeline)
                member_clocks[device].merge(finalize_clock)
                stats["max_concurrency"] = max(
                    stats["max_concurrency"], outcome.max_concurrency
                )
                stats["wave_trace"] = (
                    stats["wave_trace"] or []
                ) + outcome.wave_trace
                device_span.set(
                    simulated_seconds=(
                        master.clock.elapsed_s
                        + member_clocks[device].elapsed_s
                    ),
                    max_concurrency=outcome.max_concurrency,
                    iterations=stats["iterations"],
                )
            if tracer is not None:
                tracer.bind_clock(None)

        for device in range(cluster.n_devices):
            run_device(
                device,
                device_problems[device],
                sum(block_bytes[c] for c in sorted(plan.device_classes[device])),
            )

        # --------------------------------------------------------------
        # Recovery: re-place every lost device's problems onto the
        # survivors (same planner, elastic) and resume them from the
        # last shipped checkpoint.  A restored session's state fully
        # determines its remaining iterates, so the recovered model is
        # bitwise the fault-free one; only the timeline pays.
        # --------------------------------------------------------------
        recovery: dict = {}
        if faults.lost:
            lost_indices = sorted(
                index
                for device in faults.lost
                for index in device_problems[device]
            )
            survivors, snapshots, recovery = recovery_inputs(
                faults, cluster.n_devices, lost_indices
            )
            recovery["recovered_problems"] = len(lost_indices)
            replan = plan_placement(
                [problems[index] for index in lost_indices],
                len(survivors),
                strategy=placement,
            )
            with maybe_span(
                tracer,
                "fault_recovery",
                n_problems=len(lost_indices),
                n_survivors=len(survivors),
                resumed_from_checkpoint=recovery["resumed_from_checkpoint"],
            ):
                for position, survivor in enumerate(survivors):
                    indices = [
                        lost_indices[j] for j in replan.device_problems[position]
                    ]
                    if not indices:
                        continue
                    # Class blocks these problems need beyond what the
                    # survivor already holds.
                    needed = {
                        c
                        for index in indices
                        for c in (problems[index].s, problems[index].t)
                    }
                    extra = needed - set(plan.device_classes[survivor])
                    run_device(
                        survivor,
                        indices,
                        sum(block_bytes[c] for c in sorted(extra)),
                        snapshots,
                    )

        # --------------------------------------------------------------
        # Cross-device SV merge: gather every shard's binary models to
        # the root device, then build the unified pool in global problem
        # order.  The root is the lowest *surviving* device.
        # --------------------------------------------------------------
        root = next(
            d for d in range(cluster.n_devices) if d not in faults.lost
        )
        merge_bytes = 0
        root_engine = pool.engine(root)
        if tracer is not None:
            tracer.bind_clock(root_engine.clock)
        with maybe_span(
            tracer,
            "shard_merge",
            clock=root_engine.clock,
            root=root,
            n_binary_svms=len(problems),
        ) as merge_span:
            for device in range(cluster.n_devices):
                if device == root or device in faults.lost:
                    continue
                payload = sum(
                    _record_payload_bytes(finals[index][0])
                    for index in range(len(problems))
                    if owner[index] == device
                )
                merge_bytes += payload
                pool.device_to_device(device, root, payload)
            per_svm_records = [finals[i][0] for i in range(len(problems))]
            pool_entries = [finals[i][1] for i in range(len(problems))]
            per_svm_stats = [finals[i][2] for i in range(len(problems))]
            sv_pool = SupportVectorPool.build(data, pool_entries)
            merge_span.set(
                merge_bytes=merge_bytes,
                n_pool=sv_pool.n_pool,
                sharing_factor=sv_pool.sharing_factor,
            )
        if tracer is not None:
            tracer.bind_clock(None)

        # --------------------------------------------------------------
        # Cluster timeline: a device's busy time is its master clock
        # (transfers, shared prefetches, merge) plus its members' wave-
        # scaled solve/finalize time; the makespan is the busiest device.
        # --------------------------------------------------------------
        device_clocks: list[SimClock] = []
        for device in range(cluster.n_devices):
            clock = SimClock()
            clock.merge(pool.engine(device).clock)
            clock.merge(member_clocks[device])
            device_clocks.append(clock)
        makespan = max(clock.elapsed_s for clock in device_clocks)
        busy_total = sum(clock.elapsed_s for clock in device_clocks)

        per_device = []
        for device in range(cluster.n_devices):
            stats = device_stats[device]
            busy = device_clocks[device].elapsed_s
            per_device.append(
                {
                    "device": device,
                    "n_svms": len(device_problems[device]),
                    "iterations": int(stats["iterations"]),
                    "kernel_rows_computed": int(stats["kernel_rows"]),
                    "resident_bytes": int(stats["resident_bytes"]),
                    "simulated_seconds": float(busy),
                    "utilization": float(
                        busy / makespan if makespan > 0 else 0.0
                    ),
                    "transfer_bytes": pool.device_transfer_bytes(device),
                    "max_concurrency": int(stats["max_concurrency"]),
                    "lost": bool(stats["lost"]),
                    "wave_trace": stats["wave_trace"],
                }
            )

        model = MPSVMModel(
            classes=classes,
            kernel=kernel,
            penalty=float(penalty),
            records=per_svm_records,
            sv_pool=sv_pool,
            probability=config.probability,
            strategy=config.decomposition,
            metadata={
                "trainer": config.solver,
                "device": config.device.name,
                "backend": pool.engine(0).backend.name,
                "dtype": np.dtype(pool.engine(0).backend.dtype).name,
                "cluster_devices": cluster.n_devices,
                "placement": placement,
            },
        )

        combined = SimClock()
        counters = OpCounters()
        for clock in device_clocks:
            combined.merge(clock)
        for engine in pool.engines:
            counters.merge(engine.counters)
        placement_summary = plan.summary()
        if cascade_indices:
            placement_summary["cascade_routed"] = sorted(
                int(index) for index in cascade_indices
            )
        report = ClusterTrainingReport(
            simulated_seconds=makespan,
            clock=combined,
            counters=counters,
            cluster_name=cluster.name,
            n_devices=cluster.n_devices,
            n_binary_svms=len(problems),
            total_iterations=sum(
                stats["iterations"] for stats in device_stats
            ),
            kernel_rows_computed=sum(
                stats["kernel_rows"] for stats in device_stats
            ),
            max_concurrency=max(
                int(stats["max_concurrency"]) for stats in device_stats
            ),
            cluster_speedup=(busy_total / makespan if makespan > 0 else 1.0),
            transfer_bytes_total=pool.total_transfer_bytes,
            merge_bytes=merge_bytes,
            placement=placement_summary,
            per_device=per_device,
            per_svm=per_svm_stats,
            faults=fault_summary(faults, recovery),
            cascade=cascade_entries,
            transfer_tier_bytes=dict(pool.tier_bytes),
        )
        root_span.set(
            simulated_seconds=report.simulated_seconds,
            cluster_speedup=report.cluster_speedup,
            transfer_bytes_total=report.transfer_bytes_total,
            max_concurrency=report.max_concurrency,
        )
    return model, report
