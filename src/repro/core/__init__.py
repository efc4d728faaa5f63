"""The experiment harness: deployments, QoS, provisioning, the suite."""

from .. import _lazy

#: Each public name -> the submodule that defines it, imported on first
#: access (PEP 562): the analytic provisioning and QoS helpers load
#: without the simulator.
_EXPORTS = {
    "Deployment": ".deployment",
    "ExperimentResult": ".experiment",
    "run_experiment": ".experiment",
    "simulate": ".experiment",
    "balanced_provision": ".provisioning",
    "provision_iteratively": ".provisioning",
    "QoSTarget": ".qos",
    "render_report": ".report",
    "DeathStarBench": ".suite",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
