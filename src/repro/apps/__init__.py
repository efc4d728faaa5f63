"""The DeathStarBench application suite (Sec. 3), plus the synthetic
generator/cloner namespace (:mod:`repro.apps.synth`)."""

from .. import _lazy

_EXPORTS = {
    "build_banking": ".banking",
    "build_ecommerce": ".ecommerce",
    "build_media_service": ".media_service",
    "APP_BUILDERS": ".registry",
    "app_names": ".registry",
    "build_app": ".registry",
    "build_monolith": ".registry",
    "register_app": ".registry",
    "reset_registry": ".registry",
    "unregister_app": ".registry",
    "build_social_network": ".social_network",
    "build_swarm_cloud": ".swarm",
    "build_swarm_edge": ".swarm",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
