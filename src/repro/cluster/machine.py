"""Machines and service instances.

A :class:`Machine` models one physical server: a hardware platform, a
current (RAPL-cappable) frequency, a shared NIC in each direction, and a
possible "slow server" degradation factor (Fig. 22c).  A
:class:`ServiceInstance` is one container of a service pinned to a
machine with a core allocation; its CPU is a processor-sharing server
whose rate reflects platform strength, current frequency, the service's
frequency sensitivity, and any slow-server injection.

Work is calibrated in nominal-Xeon CPU seconds, so the instance rate is

    rate = 1 / (beta / speed + (1 - beta))
    speed = single_thread_factor * (freq / 2.5 GHz) * slow_factor

i.e. the compute-bound fraction ``beta`` of the work scales with
effective core speed, the I/O fraction does not (see
:mod:`repro.arch.frequency`).
"""

from __future__ import annotations

from typing import List, Optional

from ..arch.frequency import FrequencyModel
from ..arch.platform import XEON, Platform
from ..net.nic import VirtualClockNic
from ..services.definition import ServiceDefinition
from ..sim.engine import Environment, Event
from ..sim.ps import ProcessorSharingServer
from ..sim.resources import Resource

__all__ = ["Machine", "ServiceInstance", "NIC_10G_KB_PER_S"]

#: 10 GbE expressed in KB/s (the paper's ToR links).
NIC_10G_KB_PER_S = 1.25e6


class Machine:
    """One physical (or virtual) server."""

    def __init__(self, env: Environment, machine_id: str,
                 platform: Platform,
                 nic_bandwidth_kb_s: float = NIC_10G_KB_PER_S,
                 zone: str = "cloud"):
        if nic_bandwidth_kb_s <= 0:
            raise ValueError("nic_bandwidth_kb_s must be > 0")
        self.env = env
        self.machine_id = machine_id
        self.platform = platform
        self.zone = zone
        self.freq = FrequencyModel(platform.nominal_freq_ghz,
                                   platform.min_freq_ghz)
        self.nic_bandwidth_kb_s = nic_bandwidth_kb_s
        self.nic_tx = VirtualClockNic(env)
        self.nic_rx = VirtualClockNic(env)
        self.slow_factor = 1.0
        #: Crash state (chaos injection): a down machine fails health
        #: probes and is skipped by placement.  The flag is pure
        #: signal — draining/freezing its replicas is the fault
        #: injector's job (see :mod:`repro.chaos.faults`).
        self.down = False
        self.instances: List["ServiceInstance"] = []
        #: Optional machine-wide CPU shared by colocated instances
        #: (see :meth:`enable_shared_cpu`); None means every instance
        #: gets its own pinned cores.
        self.shared_cpu: Optional[ProcessorSharingServer] = None

    def enable_shared_cpu(self) -> ProcessorSharingServer:
        """Switch this machine to a single shared processor-sharing CPU.

        Instances created with ``share_machine_cpu=True`` then compete
        for the machine's full core pool — the colocation-interference
        regime of bin-packed deployments (Fig. 1), where one tenant's
        burst slows its neighbours."""
        if self.shared_cpu is None:
            self.shared_cpu = ProcessorSharingServer(
                self.env, cores=self.platform.cores_per_server,
                rate=max(self.core_speed(), 1e-9))
        return self.shared_cpu

    def core_speed(self) -> float:
        """Effective single-thread speed vs. the nominal Xeon core."""
        return (self.platform.single_thread_factor
                * (self.freq.current_ghz / XEON.nominal_freq_ghz)
                * self.slow_factor)

    def set_frequency(self, freq_ghz: float) -> None:
        """Apply a RAPL cap and refresh all hosted instances."""
        self.freq.cap(freq_ghz)
        if self.shared_cpu is not None:
            self.shared_cpu.set_rate(max(self.core_speed(), 1e-9))
        for inst in self.instances:
            inst.refresh_rate()

    def set_slow_factor(self, factor: float) -> None:
        """Degrade (or restore) this server; 1.0 is healthy."""
        if factor <= 0:
            raise ValueError("slow factor must be > 0")
        self.slow_factor = factor
        if self.shared_cpu is not None:
            self.shared_cpu.set_rate(max(self.core_speed(), 1e-9))
        for inst in self.instances:
            inst.refresh_rate()

    @property
    def allocated_cores(self) -> int:
        """Cores claimed by hosted instances."""
        return sum(inst.cores for inst in self.instances)

    @property
    def free_cores(self) -> int:
        """Cores still available for placement."""
        return self.platform.cores_per_server - self.allocated_cores

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Machine {self.machine_id} {self.platform.name} "
                f"{len(self.instances)} instances>")


class _SharedCpuView:
    """A per-instance facade over a machine-wide shared CPU.

    Work submitted through the view is rescaled so the instance's
    frequency-sensitivity semantics survive the shared rate: a job of
    ``w`` nominal seconds is submitted as ``w*(beta + (1-beta)*speed)``
    against a server running at ``speed``, which alone takes exactly
    ``w*(beta/speed + 1-beta)`` — identical to the dedicated model.
    Busy-time is accounted per instance from submitted work (exact when
    rates are static, an approximation across DVFS changes)."""

    def __init__(self, instance: "ServiceInstance",
                 server: ProcessorSharingServer):
        self.instance = instance
        self.server = server
        #: The shared server's job heap (the same list), so the fabric
        #: reads this replica's host load as it reads a dedicated CPU's.
        self._heap = server._heap
        self._busy = 0.0

    @property
    def rate(self) -> float:
        return self.server.rate

    @property
    def cores(self) -> int:
        return self.server.cores

    def _translate(self, work: float) -> float:
        speed = (self.instance.machine.core_speed()
                 * self.instance.speed_factor)
        beta = self.instance.definition.freq_sensitivity
        return work * (beta + (1.0 - beta) * speed)

    def service(self, work: float) -> Event:
        scaled = self._translate(work)
        self._busy += scaled / max(self.server.rate, 1e-12)
        return self.server.service(scaled)

    def set_rate(self, rate: float) -> None:
        """No-op: the machine owns the shared server's rate."""

    def set_cores(self, cores: int) -> None:
        """No-op: the machine owns the shared server's core pool."""

    def busy_time(self) -> float:
        return self._busy

    def utilization_since(self, start: Optional[float] = None) -> float:
        return self.server.utilization_since(start)

    def instantaneous_utilization(self) -> float:
        return self.server.instantaneous_utilization()

    @property
    def active_jobs(self) -> int:
        return self.server.active_jobs


class ServiceInstance:
    """One running replica of a service on a machine.

    With ``share_machine_cpu=True`` the replica competes for the
    machine's shared core pool (colocation interference) instead of
    owning ``cores`` pinned cores."""

    def __init__(self, env: Environment, definition: ServiceDefinition,
                 machine: Machine, cores: int = 1,
                 instance_id: Optional[str] = None,
                 share_machine_cpu: bool = False):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self.env = env
        self.definition = definition
        self.machine = machine
        self.cores = cores
        self.instance_id = instance_id or (
            f"{definition.name}-{len(machine.instances)}@{machine.machine_id}")
        #: Per-instance degradation (a sick container/VM rather than a
        #: sick machine); composes with the machine's slow factor.
        self.speed_factor = 1.0
        self.shared = share_machine_cpu
        if share_machine_cpu:
            self.cpu = _SharedCpuView(self, machine.enable_shared_cpu())
        else:
            self.cpu = ProcessorSharingServer(env, cores=cores,
                                              rate=self._rate())
        #: Worker-pool admission (HTTP/1 era blocking threads); ``None``
        #: means unbounded concurrency.
        self.workers: Optional[Resource] = None
        #: Accounting for Figs. 3/14/15: nominal CPU seconds spent on
        #: application logic (:meth:`compute`) vs. network (kernel TCP)
        #: processing, which the fabric's ``transfer`` charges.
        self.app_cpu_seconds = 0.0
        self.net_cpu_seconds = 0.0
        #: Requests currently resident (admitted or queued) in this node.
        self.outstanding = 0
        machine.instances.append(self)

    def set_workers(self, max_workers: int) -> None:
        """Cap concurrent in-flight requests at this instance."""
        self.workers = Resource(self.env, capacity=max_workers)

    def _rate(self) -> float:
        speed = self.machine.core_speed() * self.speed_factor
        beta = self.definition.freq_sensitivity
        denominator = beta / speed + (1.0 - beta)
        return 1.0 / denominator

    def refresh_rate(self) -> None:
        """Recompute the CPU rate after a frequency/slow-factor change."""
        self.cpu.set_rate(self._rate())

    def set_speed_factor(self, factor: float) -> None:
        """Degrade (or restore) just this replica; 1.0 is healthy."""
        if factor <= 0:
            raise ValueError("speed factor must be > 0")
        self.speed_factor = factor
        self.refresh_rate()

    def compute(self, work: float) -> Event:
        """Run ``work`` nominal CPU-seconds of application logic."""
        self.app_cpu_seconds += work / self.cpu.rate
        return self.cpu.service(work)

    def utilization(self) -> float:
        """Instantaneous CPU busy fraction."""
        return self.cpu.instantaneous_utilization()

    def detach(self) -> None:
        """Remove from the hosting machine (scale-in)."""
        if self in self.machine.instances:
            self.machine.instances.remove(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Instance {self.instance_id} cores={self.cores}>"
