"""The Banking System (Sec. 3.5, Fig. 7).

A secure banking service: a node.js front-end (like E-commerce), Java
and Javascript logic tiers for payments, loans, credit cards, and
wealth management, an ACL/authentication path on every mutating
request, memcached + MongoDB backends, and a relational BankInfoDB.
34 unique microservices over Thrift RPC.

Per Sec. 7, ``payments`` and ``authentication`` dominate end-to-end
latency, and the service is more compute-intensive (more user-mode
time) than the Social Network — its services are written in high-level
managed languages and do real work per request.
"""

from __future__ import annotations

from ..resilience.criticality import (
    CRIT_DEGRADABLE,
    CRIT_SHEDDABLE,
    DegradationPolicy,
)
from ..services.app import Application, Operation, Protocol
from ..services.calltree import CallNode, par, seq
from ..services.datastores import (
    memcached,
    mongodb,
    mysql,
    node_frontend,
    search_index,
    xapian_search,
)
from ..services.definition import ServiceDefinition, ServiceKind

__all__ = ["build_banking", "BANKING_QOS"]

BANKING_QOS = 0.04


def _logic(name: str, language: str, work_us: float,
           cv: float = 0.5, **traits) -> ServiceDefinition:
    svc = ServiceDefinition(name=name, language=language,
                            kind=ServiceKind.LOGIC,
                            work_mean=work_us * 1e-6, work_cv=cv)
    return svc.with_traits(**traits) if traits else svc


def _services() -> dict:
    """All 34 unique microservices of Fig. 7."""
    defs = [
        node_frontend("front-end"),
        # Security path.
        _logic("authentication", "java", 500, cv=0.6),
        _logic("ACL", "java", 180),
        # Payments.
        _logic("payments", "java", 650, cv=0.7),
        _logic("transactionPosting", "java", 300),
        _logic("customerActivity", "javascript", 150),
        _logic("customerInfo", "javascript", 120),
        # Accounts.
        _logic("openAccount", "java", 400),
        _logic("depositAccount", "java", 250),
        _logic("investmentAccount", "java", 350),
        # Lending.
        _logic("personalLending", "java", 480),
        _logic("businessLending", "java", 520),
        _logic("mortgages", "java", 450),
        # Cards.
        _logic("creditCard", "javascript", 280),
        _logic("openCreditCard", "javascript", 350),
        # Wealth management.
        _logic("wealthMgmt", "java", 600, cv=0.6),
        # Marketing / info.
        _logic("ads", "python", 700, memory_locality=0.3),
        _logic("offerBanners", "javascript", 130),
        _logic("userPreferences", "node.js", 90),
        _logic("contact", "node.js", 70),
        _logic("media", "node.js", 200),
        # Search.
        xapian_search("search"),
        search_index("index0"),
        search_index("index1"),
        search_index("index2"),
        # Backends.
        memcached("mc-customer"),
        memcached("mc-accounts"),
        memcached("mc-offers"),
        memcached("mc-wealth"),
        mongodb("mongo-customer"),
        mongodb("mongo-accounts"),
        mongodb("mongo-transactions"),
        mysql("bankInfoDB"),
        mysql("offerDB"),
    ]
    return {svc.name: svc for svc in defs}


def _front(groups) -> CallNode:
    return CallNode(service="front-end", request_kb=1.5, response_kb=6.0,
                    groups=groups)


def _cached(cache: str, store: str, miss_scale: float) -> CallNode:
    return CallNode(service=cache, request_kb=0.3,
                    groups=seq(CallNode(service=store,
                                        work_scale=miss_scale)))


def _auth_chain() -> list:
    """Authentication + ACL precede every mutating operation."""
    return [CallNode(service="authentication",
                     groups=seq(_cached("mc-customer", "mongo-customer",
                                        0.2))),
            CallNode(service="ACL")]


def _process_payment() -> Operation:
    """Pay from an account: auth → ACL → payments → posting +
    activity log (dominates latency and sets the saturation point)."""
    root = _front(seq(
        *_auth_chain(),
        CallNode(service="payments", groups=[
            [CallNode(service="customerInfo",
                      groups=seq(_cached("mc-customer", "mongo-customer",
                                         0.3)))],
            [CallNode(service="transactionPosting",
                      groups=seq(CallNode(service="mongo-transactions"))),
             CallNode(service="customerActivity",
                      groups=seq(CallNode(service="mongo-customer",
                                          work_scale=0.5)))],
        ])))
    return Operation(name="processPayment", root=root)


def _pay_credit_card() -> Operation:
    root = _front(seq(
        *_auth_chain(),
        CallNode(service="creditCard", groups=seq(
            CallNode(service="payments",
                     groups=seq(CallNode(service="transactionPosting",
                                         groups=seq(CallNode(
                                             service="mongo-transactions"
                                         ))))),
        ))))
    return Operation(name="payCreditCard", root=root)


def _request_loan() -> Operation:
    root = _front(seq(
        *_auth_chain(),
        CallNode(service="personalLending", groups=[
            [CallNode(service="customerInfo",
                      groups=seq(_cached("mc-customer", "mongo-customer",
                                         0.3))),
             CallNode(service="customerActivity")],
            [CallNode(service="mortgages"),
             CallNode(service="businessLending", work_scale=0.3)],
            [CallNode(service="mongo-accounts")],
        ])))
    return Operation(name="requestLoan", root=root)


def _open_account() -> Operation:
    root = _front(seq(
        *_auth_chain(),
        CallNode(service="openAccount", groups=seq(
            CallNode(service="depositAccount"),
            _cached("mc-accounts", "mongo-accounts", 1.0),
        ))))
    return Operation(name="openAccount", root=root)


def _open_credit_card() -> Operation:
    root = _front(seq(
        *_auth_chain(),
        CallNode(service="openCreditCard", groups=seq(
            CallNode(service="customerInfo",
                     groups=seq(_cached("mc-customer", "mongo-customer",
                                        0.3))),
            CallNode(service="creditCard"),
            _cached("mc-accounts", "mongo-accounts", 1.0),
        ))))
    return Operation(name="openCreditCard", root=root)


def _wealth_mgmt() -> Operation:
    root = _front(seq(
        *_auth_chain(),
        CallNode(service="wealthMgmt", groups=[
            [CallNode(service="investmentAccount"),
             _cached("mc-wealth", "mongo-accounts", 0.4)],
        ])))
    return Operation(name="wealthMgmt", root=root)


def _browse_info() -> Operation:
    """Unauthenticated browsing: bank info, offers, contact, search."""
    root = _front([
        [CallNode(service="offerBanners",
                  groups=seq(_cached("mc-offers", "offerDB", 0.3))),
         CallNode(service="contact",
                  groups=seq(CallNode(service="bankInfoDB",
                                      work_scale=0.5))),
         CallNode(service="userPreferences"),
         CallNode(service="ads"),
         CallNode(service="media")],
    ])
    return Operation(name="browseInfo", root=root)


def _search_bank() -> Operation:
    root = _front(seq(CallNode(
        service="search",
        groups=par(CallNode(service="index0"),
                   CallNode(service="index1"),
                   CallNode(service="index2")))))
    return Operation(name="searchBank", root=root)


def build_banking() -> Application:
    """Construct the Banking application."""
    operations = {}
    for op in [_process_payment(), _pay_credit_card(), _request_loan(),
               _open_account(), _open_credit_card(), _wealth_mgmt(),
               _browse_info(), _search_bank()]:
        operations[op.name] = op
    weights = {
        "processPayment": 30.0,
        "payCreditCard": 13.0,
        "requestLoan": 8.0,
        "openAccount": 4.0,
        "openCreditCard": 2.0,
        "wealthMgmt": 8.0,
        "browseInfo": 30.0,
        "searchBank": 5.0,
    }
    for name, weight in weights.items():
        operations[name].weight = weight
    # Criticality: money movement and account opening are critical;
    # unauthenticated browsing degrades; search sheds first.
    operations["browseInfo"].criticality = CRIT_DEGRADABLE
    operations["searchBank"].criticality = CRIT_SHEDDABLE

    degradation_policies = {
        "ads": DegradationPolicy(
            service="ads", optional=True, drop_level=1,
            fallback="default", fidelity_cost=0.05),
        "offerBanners": DegradationPolicy(
            service="offerBanners", optional=True, drop_level=1,
            fallback="default", fidelity_cost=0.05),
        "media": DegradationPolicy(
            service="media", optional=True, drop_level=2,
            fidelity_cost=0.1),
        "mc-customer": DegradationPolicy(
            service="mc-customer", fallback="stale_cache",
            fidelity_cost=0.15),
        "mc-offers": DegradationPolicy(
            service="mc-offers", fallback="stale_cache",
            fidelity_cost=0.15),
        "index0": DegradationPolicy(
            service="index0", fanout_keep=1, fanout_level=1,
            fidelity_cost=0.2),
        "index1": DegradationPolicy(
            service="index1", fanout_keep=1, fanout_level=1,
            fidelity_cost=0.2),
        "index2": DegradationPolicy(
            service="index2", fanout_keep=1, fanout_level=1,
            fidelity_cost=0.2),
        # The auth/ACL chain guards every mutating request; it must
        # never sit inside a droppable subtree (DEG002).
        "authentication": DegradationPolicy(
            service="authentication", never_drop=True),
        "ACL": DegradationPolicy(service="ACL", never_drop=True),
    }

    return Application(
        name="banking",
        services=_services(),
        operations=operations,
        protocol=Protocol.RPC,
        qos_latency=BANKING_QOS,
        entry_service="front-end",
        sharded_services=["mongo-customer"],
        degradation_policies=degradation_policies,
        metadata={
            "paper_table1": {
                "total_locs": 13876,
                "protocol": "RPC",
                "handwritten_rpc_locs": 4757,
                "autogen_rpc_locs": 31156,
                "unique_microservices": 34,
                "language_share": {
                    "c": 0.29, "javascript": 0.25, "java": 0.16,
                    "node.js": 0.16, "c++": 0.11, "python": 0.03,
                },
            },
        },
    )
