"""What a fault plan does to one device's wave group.

Pair-sharded training (:mod:`repro.distributed.trainer`) and the cascade
driver (:mod:`repro.cascade.driver`) both run each device's resumable
sessions as one wave group through
:func:`~repro.core.interleave.run_interleaved`.  This module is the one
owner of the fault protocol around those runs:

- :func:`open_faults` turns a run's fault arguments into a
  :class:`FaultRun` (the injector, and the checkpoint store when a plan
  or ``checkpoint_dir`` asks for one);
- :func:`run_wave_group` applies straggler rates, takes the
  loss-before-checkpoint decision at every wave boundary and ships the
  checkpoints, or — for a recovery group — restores the last shipped
  snapshots and runs fault-free;
- :func:`recovery_inputs` picks the survivors and gathers the lost
  devices' last snapshots;
- :func:`fault_summary` builds the report's ``faults`` block.

Checkpoint waves are numbered per device across all of a run's wave
groups, so a device that runs several groups (cascade shards, then the
pair phase) never overwrites an earlier group's persisted checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.interleave import InterleaveOutcome, run_interleaved
from repro.exceptions import DeviceLostError, SolverError, ValidationError
from repro.faults.checkpoint import (
    CheckpointStore,
    SessionSnapshot,
    TrainingCheckpoint,
)
from repro.faults.plan import FaultInjector, FaultPlan


@dataclass
class FaultRun:
    """One training run's fault state, shared by all its wave groups."""

    injector: Optional[FaultInjector] = None
    store: Optional[CheckpointStore] = None
    checkpoint_every: int = 4
    lost: dict = field(default_factory=dict)  # device -> simulated loss time
    waves: dict = field(default_factory=dict)  # device -> waves run so far


def open_faults(
    fault_plan: Optional[FaultPlan],
    n_devices: int,
    checkpoint_every: int,
    checkpoint_dir: Optional[object],
) -> FaultRun:
    """Validate a run's fault arguments and open its injector and store."""
    if checkpoint_every < 1:
        raise ValidationError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    injector = (
        FaultInjector(fault_plan, n_devices)
        if fault_plan is not None and not fault_plan.is_empty
        else None
    )
    # ":memory:" opts into checkpointing (same simulated shipping cost)
    # without persistence — what a fault-free baseline run uses to be
    # timeline-comparable with a faulted one.
    store = None
    if injector is not None or checkpoint_dir is not None:
        store = CheckpointStore(
            None if checkpoint_dir == ":memory:" else checkpoint_dir
        )
    return FaultRun(injector, store, checkpoint_every)


def run_wave_group(
    faults: FaultRun,
    pool,
    device: int,
    members: list,
    limits,
    *,
    shared=None,
    tracer=None,
    snapshots: Optional[dict] = None,
) -> Optional[InterleaveOutcome]:
    """Drive ``members`` on ``device`` under the run's fault plan.

    With ``snapshots`` (a recovery group) each member whose problem has a
    shipped snapshot resumes from it, and the group runs fault-free.
    Otherwise a scripted loss aborts the group at the first wave boundary
    past the loss time — checked *before* that wave's checkpoint, which
    would never have reached the host — and every ``checkpoint_every``-th
    wave ships a checkpoint of all members to the store.  Returns the
    outcome, or ``None`` when the device was lost (recorded in
    ``faults.lost``; nothing on it finalizes).
    """
    injector, store = faults.injector, faults.store
    master = pool.engine(device)
    if injector is not None:
        rate = injector.straggler_rate(device)
        if rate != 1.0:
            for member in members:
                member.engine.clock.rate = rate
    on_wave = None
    if snapshots is not None:
        for member in members:
            if member.index in snapshots:
                snapshots[member.index].restore(member.session)
    else:
        loss_at = injector.loss_time(device) if injector is not None else None
        first_wave = faults.waves.get(device, 0)
        if loss_at is not None or store is not None:

            def on_wave(wave_index, running, finished, outcome):
                # Device time so far: master charges (transfers,
                # prefetches) plus the wave-scaled member time.
                now_s = master.clock.elapsed_s + outcome.timeline.elapsed_s
                if loss_at is not None and now_s >= loss_at:
                    injector.check_device(device, now_s)
                if (
                    store is not None
                    and wave_index % faults.checkpoint_every == 0
                ):
                    checkpoint = TrainingCheckpoint(
                        device=device,
                        wave=first_wave + wave_index,
                        simulated_s=now_s,
                        snapshots={
                            m.index: SessionSnapshot.capture(m.index, m.session)
                            for m in members
                        },
                    )
                    pool.device_to_host(
                        device, checkpoint.nbytes, category="checkpoint"
                    )
                    store.save(checkpoint)

    try:
        outcome = run_interleaved(
            members,
            limits,
            shared=shared,
            tracer=tracer,
            span_clock=master.clock,
            on_wave=on_wave,
        )
    except DeviceLostError as exc:
        # Everything resident on the device dies with it; its clock
        # stops at the loss, and recovery resumes its work elsewhere.
        faults.lost[device] = exc.at_s
        return None
    faults.waves[device] = faults.waves.get(device, 0) + len(outcome.wave_trace)
    return outcome


def recovery_inputs(
    faults: FaultRun, n_devices: int, lost_indices: list
) -> tuple[list[int], dict, dict]:
    """Survivors, the lost devices' last snapshots, and the recovery block.

    Raises :class:`~repro.exceptions.SolverError` when no device is left.
    The block lists the losses, the survivors and how many of
    ``lost_indices`` resume from a checkpoint; the caller adds how many
    problems it re-placed.
    """
    survivors = [d for d in range(n_devices) if d not in faults.lost]
    if not survivors:
        raise SolverError(
            "every device in the cluster was lost; nothing survives to "
            "recover on"
        )
    snapshots: dict[int, SessionSnapshot] = {}
    if faults.store is not None:
        for device in faults.lost:
            checkpoint = faults.store.latest(device)
            if checkpoint is not None:
                snapshots.update(checkpoint.snapshots)
    recovery = {
        "devices_lost": {
            int(device): float(at_s)
            for device, at_s in sorted(faults.lost.items())
        },
        "survivors": [int(d) for d in survivors],
        "resumed_from_checkpoint": sum(
            1 for index in lost_indices if index in snapshots
        ),
    }
    return survivors, snapshots, recovery


def fault_summary(faults: FaultRun, recovery: dict) -> dict:
    """The report's ``faults`` block: empty for a nominal run."""
    store = faults.store
    if faults.injector is not None:
        summary = faults.injector.summary()
        summary["checkpoints_written"] = store.n_written if store else 0
        summary["recovery"] = recovery
        return summary
    if store is not None and store.n_written:
        return {"checkpoints_written": store.n_written}
    return {}
