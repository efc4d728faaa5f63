"""Synthetic applications: parametric topology generation, trace-driven
cloning, and the scenario-matrix harness.

Three entry points, one per half of the subsystem:

* :func:`generate` builds a deterministic topology from
  :class:`GeneratorParams` (six patterns, arbitrary size, seeded);
  ``build_app("synth:mesh:n32:seed7")`` resolves the same thing by
  name through the registry.
* :func:`clone_from_traces` infers a matching application from an
  exported trace set, cross-validated by :func:`validate_clone`.
* :func:`run_matrix` sweeps patterns x sizes x seeds with baseline and
  chaos smoke runs into one byte-stable report.
"""

from ... import _lazy

_EXPORTS = {
    "CloneConfig": ".clone",
    "CloneResult": ".clone",
    "FidelityReport": ".clone",
    "clone_from_traces": ".clone",
    "load_traces": ".clone",
    "percentile_table": ".clone",
    "validate_clone": ".clone",
    "GeneratorParams": ".generator",
    "generate": ".generator",
    "parse_spec": ".generator",
    "topology_json": ".generator",
    "MatrixReport": ".matrix",
    "MatrixSpec": ".matrix",
    "run_matrix": ".matrix",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
