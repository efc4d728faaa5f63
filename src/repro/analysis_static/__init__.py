"""Simulation-safety static analysis (``simlint``), topology
validation, and whole-application flow analysis.

A discrete-event simulation is only as trustworthy as its determinism:
every figure this repo reproduces assumes that the same seed yields the
same event sequence, and that every service graph fed to the deployment
layer is structurally sound.  This package enforces both *before* a
single event is simulated — and goes one layer further, rejecting
deployment configurations that are doomed before the first event:

* :mod:`repro.analysis_static.simlint` — an AST-based checker over the
  source tree that flags determinism and sim-time hazards (rule codes
  ``SIM001``-``SIM005``; per-line ``# simlint: disable=SIM001``
  suppressions, with typo'd suppressions reported as ``SIM006``).
* :mod:`repro.analysis_static.topology` — a static validator over
  application service graphs (rule codes ``TOPO001``-``TOPO006``):
  call-graph cycles, dangling references, unreachable services,
  non-positive capacities/rates, retry policies whose worst-case
  amplification exceeds their retry budget, and undeclared region pins.
* :mod:`repro.analysis_static.flow` — the capacity and deadline flow
  analyzer (``CAP001``-``CAP004``, ``DLINE001``-``DLINE004``): given a
  declared load and deployment plan it reuses the analytic queueing
  backend (:mod:`repro.analytic`) to catch saturated tiers, retry
  amplification past capacity, worker pools below the Little's-law
  concurrency, and deadlines no zero-queueing execution could meet.
* :mod:`repro.analysis_static.policycheck` — cross-layer policy
  consistency (``CFG001``-``CFG004``): breakers that can never trip,
  no-op shedders, unsatisfiable staleness bounds, and front-door
  detection slower than the declared MTTR gate.
* :mod:`repro.analysis_static.synthcheck` — synthetic-topology checks
  (``SYN001``-``SYN002``): generator parameters outside the documented
  envelope, and trace exports too thin or inconsistent to clone.

Run it as ``python -m repro.analysis_static [paths]`` (or ``--app NAME
--load RPS`` for flow analysis) or via the main CLI as ``repro lint``;
the app registry also runs the topology validator at construction time
so a malformed graph fails fast with a readable report instead of a
runtime ``KeyError`` deep in the deployment layer.
"""

from .. import _lazy

#: Each public name -> the submodule that defines it, imported on first
#: access (PEP 562): building an app needs only ``rules`` and
#: ``topology``, not the AST linter or the flow analyzer.
_EXPORTS = {
    "DeploymentPlan": ".flow",
    "InfeasiblePlanError": ".flow",
    "analyze_flow": ".flow",
    "assert_feasible": ".flow",
    "check_capacity": ".flow",
    "check_deadlines": ".flow",
    "load_plan": ".flow",
    "check_policies": ".policycheck",
    "ALL_RULES": ".rules",
    "Finding": ".rules",
    "Severity": ".rules",
    "lint_file": ".simlint",
    "lint_paths": ".simlint",
    "lint_source": ".simlint",
    "PATTERNS": ".synthcheck",
    "check_generator_params": ".synthcheck",
    "check_trace_set": ".synthcheck",
    "TopologyError": ".topology",
    "check_registry": ".topology",
    "validate_app": ".topology",
    "validate_topology": ".topology",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
