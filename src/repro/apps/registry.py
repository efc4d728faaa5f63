"""Application registry: the six end-to-end services plus monoliths,
dynamically registered apps, and parameterized generator specs.

Every graph handed out by :func:`build_app` is statically validated by
:mod:`repro.analysis_static.topology` first, so a malformed call tree
(cycle, dangling downstream, dead tier, zero capacity) fails at
registration with a rule-coded report instead of a runtime ``KeyError``
deep inside the deployment layer.

Beyond the built-ins, two more name spaces resolve through
:func:`build_app`:

* **Dynamic registrations** (:func:`register_app`) — cloned or
  test-constructed applications under caller-chosen names.  Duplicate
  registration raises instead of silently overwriting; use
  :func:`unregister_app` (or :func:`reset_registry`) first.
* **Generator specs** — names of the form ``synth:PATTERN:nSIZE:seedSEED``
  (e.g. ``synth:mesh:n32:seed7``) build a deterministic synthetic
  topology on the fly via :mod:`repro.apps.synth`; nothing is stored
  beyond the validated-graph cache, which :func:`unregister_app`
  also clears.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List

from ..analysis_static.rules import Severity
from ..analysis_static.topology import TopologyError, validate_app
from ..services.app import Application

__all__ = ["APP_BUILDERS", "build_app", "app_names", "build_monolith",
           "register_app", "unregister_app", "reset_registry"]


def _builtin(module: str, builder: str) -> Callable[[], Application]:
    """The builder ``builder`` of ``module``, which is imported when the
    app is first built: a run loads only the apps it builds."""
    def build() -> Application:
        return getattr(import_module(module, __package__), builder)()
    return build


APP_BUILDERS: Dict[str, Callable[[], Application]] = {
    "social_network": _builtin(".social_network", "build_social_network"),
    "media_service": _builtin(".media_service", "build_media_service"),
    "ecommerce": _builtin(".ecommerce", "build_ecommerce"),
    "banking": _builtin(".banking", "build_banking"),
    "swarm_cloud": _builtin(".swarm", "build_swarm_cloud"),
    "swarm_edge": _builtin(".swarm", "build_swarm_edge"),
}

#: Applications registered at runtime (clones, test fixtures); kept
#: separate from the built-ins so the suite's canonical set stays
#: stable and :func:`reset_registry` has an obvious scope.
_DYNAMIC_BUILDERS: Dict[str, Callable[[], Application]] = {}


def app_names() -> List[str]:
    """Names of all registered applications (built-ins first)."""
    return list(APP_BUILDERS.keys()) + sorted(_DYNAMIC_BUILDERS)


#: Builders already known to produce a structurally valid graph, so
#: repeated build_app calls (sweeps, tests) validate only once.
_VALIDATED: Dict[str, bool] = {}


def register_app(name: str,
                 builder: Callable[[], Application]) -> None:
    """Register a dynamic application builder under ``name``.

    Duplicate registration — against a built-in or an existing dynamic
    name — raises ``ValueError`` instead of silently overwriting: a
    clone or fixture landing on a taken name is a bug, not an update.
    ``synth:`` names are reserved for generator specs, which need no
    registration at all.
    """
    if not name:
        raise ValueError("application name must be non-empty")
    if name.startswith("synth:"):
        raise ValueError(
            f"cannot register {name!r}: the synth: prefix is reserved "
            f"for generator specs, which build_app resolves directly")
    if name in APP_BUILDERS or name in _DYNAMIC_BUILDERS:
        raise ValueError(
            f"application {name!r} is already registered; call "
            f"unregister_app({name!r}) first to replace it")
    _DYNAMIC_BUILDERS[name] = builder


def unregister_app(name: str) -> None:
    """Remove a dynamic registration and its validated-graph cache.

    Also accepts ``synth:`` spec names, whose only registry state *is*
    the cache entry — the matrix runner calls this after each cell so
    parameterized apps do not leak ``_VALIDATED`` state between runs.
    Built-ins cannot be unregistered.
    """
    if name in APP_BUILDERS:
        raise ValueError(
            f"{name!r} is a built-in application and cannot be "
            f"unregistered")
    _VALIDATED.pop(name, None)
    if name in _DYNAMIC_BUILDERS:
        del _DYNAMIC_BUILDERS[name]
    elif not name.startswith("synth:"):
        raise ValueError(f"unknown application {name!r}")


def reset_registry() -> None:
    """Drop every dynamic registration and all cached validation state
    (built-ins stay).  The hook tests call between parameterized apps."""
    _DYNAMIC_BUILDERS.clear()
    _VALIDATED.clear()


def build_app(name: str) -> Application:
    """Construct an application by name, validating its topology.

    Resolves built-ins, dynamic registrations, and ``synth:`` generator
    specs (``synth:mesh:n32:seed7``); every path validates once per
    name and caches the verdict.
    """
    builder = APP_BUILDERS.get(name) or _DYNAMIC_BUILDERS.get(name)
    if builder is not None:
        app = builder()
    elif name.startswith("synth:"):
        from .synth.generator import generate, parse_spec
        app = generate(parse_spec(name), validate=False)
    else:
        raise ValueError(
            f"unknown application {name!r}; choose from {app_names()} "
            f"or a generator spec like 'synth:mesh:n32:seed7'")
    if not _VALIDATED.get(name):
        errors = [f for f in validate_app(app)
                  if f.severity == Severity.ERROR]
        if errors:
            raise TopologyError(name, errors)
        _VALIDATED[name] = True
    return app


def build_monolith(name: str) -> Application:
    """Construct the monolithic counterpart of a suite application."""
    from ..services.monolith import monolithify
    return monolithify(build_app(name))
