"""Machine crash/restore mechanics.

The low-level mechanics of taking one machine out of service live here
(shared by the chaos layer): drain its replicas from their load
balancers, freeze the ones that cannot be drained (singleton tiers),
and restore everything on repair.  Singleton tiers are frozen at a
crawl rather than zeroed — the DES needs progress for queued work once
the machine returns, and every request routed to a frozen replica blows
any QoS, which is exactly the scenario where a microservice graph's
blast radius dwarfs a replicated monolith's.  To schedule a crash,
build a :class:`~repro.chaos.FaultSchedule` with a
:class:`~repro.chaos.faults.MachineCrash`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .machine import Machine, ServiceInstance

__all__ = ["CrashRecord", "crash_machine", "restore_machine"]

#: Effective speed of a "down" singleton's instance: not zero (the DES
#: needs progress for queued work once the machine returns) but slow
#: enough that every request routed there blows any QoS.
_FROZEN_FACTOR = 0.02


@dataclass
class CrashRecord:
    """What one machine crash changed, so restore can undo exactly it."""

    machine: Machine
    drained: List[ServiceInstance] = field(default_factory=list)
    frozen: bool = False
    prior_slow_factor: Optional[float] = None


def crash_machine(deployment, machine: Machine,
                  frozen_factor: float = _FROZEN_FACTOR) -> CrashRecord:
    """Take ``machine`` down: mark it, drain what can be drained, and
    freeze the rest.  Returns the record :func:`restore_machine` needs."""
    record = CrashRecord(machine=machine)
    machine.down = True
    for inst in list(machine.instances):
        service = inst.definition.name
        lb = deployment.load_balancer(service)
        if len(lb.instances) > 1 and inst in lb.instances:
            lb.remove(inst)
            record.drained.append(inst)
    if len(record.drained) < len(machine.instances):
        record.frozen = True
        record.prior_slow_factor = machine.slow_factor
        machine.set_slow_factor(frozen_factor)
    return record


def restore_machine(deployment, record: CrashRecord) -> None:
    """Bring a crashed machine back: restore its speed and re-add its
    drained replicas to rotation.

    Re-adding is guarded twice: an instance the balancer *already*
    contains is skipped (a health-checked failover may have restored it
    first — re-adding would double its traffic share), and an instance
    that is no longer a replica of its service is skipped (the
    autoscaler or failover controller retired it mid-outage)."""
    machine = record.machine
    machine.down = False
    if record.frozen:
        # Restore whatever factor the machine ran at before the outage
        # froze it — a degraded machine stays degraded.
        machine.set_slow_factor(record.prior_slow_factor)
    for inst in record.drained:
        service = inst.definition.name
        if inst not in deployment.instances_of(service):
            continue
        lb = deployment.load_balancer(service)
        if inst in lb.instances:
            continue
        lb.add(inst)
    record.drained = []
    record.frozen = False
    record.prior_slow_factor = None
