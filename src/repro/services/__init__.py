"""Microservice abstractions: definitions, call trees, applications."""

from .. import _lazy

_EXPORTS = {
    "Application": ".app",
    "Operation": ".app",
    "Protocol": ".app",
    "CallNode": ".calltree",
    "par": ".calltree",
    "seq": ".calltree",
    "ServiceDefinition": ".definition",
    "ServiceKind": ".definition",
    "dependency_edges": ".graphviz",
    "to_dot": ".graphviz",
    "MONOLITH_SERVICE_NAME": ".monolith",
    "monolithify": ".monolith",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
