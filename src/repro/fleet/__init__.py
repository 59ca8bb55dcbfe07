"""Long-running fleet mode: continuous operation with rolling change.

Composes the persistence, observability, fault-injection and serving
subsystems into an operable deployment: :class:`FleetState` is the
checkpointable state of a continuously running network,
:class:`FleetRunner` drives it in bounded sim-time slices (optionally
on a background thread) with rotating checkpoints, a pollable JSONL
stream, an optional background chaos schedule and **rolling
reconfiguration** (checkpoint → mutate → restore at slice boundaries),
and :class:`SLOMonitor` holds the run to the paper's sustained claims
(coverage floor per Fig. 10, messages/node/round ceiling per Fig. 15,
serving p99 when a front end is attached).  See DESIGN.md §17 and the
differential proof layer in ``tests/fleet/``.
"""

from repro.fleet.runner import (
    MUTABLE_PROTOCOL_FIELDS,
    FleetRunner,
    FleetState,
    apply_change,
)
from repro.fleet.service import (
    poll_commands,
    read_status,
    submit_command,
    write_status,
)
from repro.fleet.slo import SLOConfig, SLOMonitor

__all__ = [
    "MUTABLE_PROTOCOL_FIELDS",
    "FleetRunner",
    "FleetState",
    "SLOConfig",
    "SLOMonitor",
    "apply_change",
    "poll_commands",
    "read_status",
    "submit_command",
    "write_status",
]
