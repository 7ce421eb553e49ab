"""Deterministic fault injection and recovery over the simulated cluster.

Real GPU clusters straggle, drop devices and lose partial state mid-run;
the paper's concurrent multi-class training assumes none of that.  This
package makes failure a first-class, *reproducible* input to the
simulation:

- :mod:`~repro.faults.plan` — :class:`FaultPlan` scripts stragglers
  (per-device clock-rate multipliers), fail-stop device losses and
  transient link faults; :class:`FaultInjector` is its runtime side,
  queried by :class:`~repro.distributed.cluster.DevicePool` and the
  sharded trainer.  Seeded plans replay exactly.
- :mod:`~repro.faults.checkpoint` — versioned, lossless snapshots of
  resumable solver sessions; a restored session replays bitwise the
  rounds the lost device would have run, which is what makes the
  recovered model provably identical to the fault-free one.
- :mod:`~repro.faults.recovery` — internal: the one fault protocol
  around a device's wave group (stragglers, loss-before-checkpoint,
  checkpoint shipping, snapshot restore, survivor selection) that
  pair-sharded and cascade training share.  Not re-exported.

The fault model is *fail-slow or fail-stop, never fail-wrong*: injected
faults stretch simulated timelines and destroy device-resident state,
but can never corrupt a value — every surviving answer is the right
answer, and every failure is an explicit error (DESIGN.md §15).
"""

from repro.faults.checkpoint import (
    CheckpointStore,
    SessionSnapshot,
    TrainingCheckpoint,
)
from repro.faults.plan import DeviceLoss, FaultInjector, FaultPlan, LinkFault

__all__ = [
    "CheckpointStore",
    "DeviceLoss",
    "FaultInjector",
    "FaultPlan",
    "LinkFault",
    "SessionSnapshot",
    "TrainingCheckpoint",
]
