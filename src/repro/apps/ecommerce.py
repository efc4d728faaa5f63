"""The E-commerce Service (Sec. 3.4, Fig. 6).

A clothing e-shop modeled on Weave Sockshop: a node.js front-end, Go and
Java logic tiers (catalogue, orders, cart, shipping, payment, invoicing),
a queueMaster serializing committed orders into an orderQueue, a search
tier, a recommender, and memcached/MongoDB backends.  REST (HTTP/1) is
the dominant protocol — per Table 1 the service is REST outside plus
some internal RPC; we model the whole app over HTTP, which is what gives
it the paper's higher per-message costs and blocking-connection
semantics.  41 unique microservices.

The queueMaster "uses synchronization to ensure that orders are
serialized, processed, and committed in order, which constrains its
scalability at high load" (Sec. 7) — modeled as ``max_workers=1``.
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
    message_queue,
    mongodb,
    node_frontend,
    recommender,
    search_index,
    xapian_search,
)
from ..services.definition import ServiceDefinition, ServiceKind

__all__ = ["build_ecommerce", "ECOMMERCE_QOS"]

ECOMMERCE_QOS = 0.025


def _logic(name: str, language: str, work_us: float, cv: float = 0.5,
           max_workers=None, **traits) -> ServiceDefinition:
    svc = ServiceDefinition(name=name, language=language,
                            kind=ServiceKind.LOGIC,
                            work_mean=work_us * 1e-6, work_cv=cv,
                            max_workers=max_workers)
    return svc.with_traits(**traits) if traits else svc


def _services() -> dict:
    """All 41 unique microservices of Fig. 6."""
    defs = [
        node_frontend("front-end"),
        # Catalogue & browsing.
        _logic("catalogue", "go", 350, cv=0.6),
        _logic("catalogue-media", "go", 250),
        _logic("discounts", "java", 90),
        _logic("socialNet", "java", 110),
        _logic("ads", "python", 700, memory_locality=0.3),
        # Account.
        _logic("login", "go", 150),
        _logic("accountInfo", "java", 110),
        _logic("wishlist", "java", 45, icache_footprint_kb=34,
               memory_locality=0.85),
        # Order pipeline (compute-heavy, high-level languages).
        _logic("cart", "java", 220),
        _logic("orders", "go", 750, cv=0.6),
        _logic("shipping", "java", 300),
        _logic("payment", "go", 750, cv=0.7),
        _logic("payment-authorization", "go", 350),
        _logic("transactionID", "go", 40),
        _logic("invoicing", "java", 320),
        _logic("queueMaster", "go", 180, max_workers=1),
        # Search + recommendation.
        xapian_search("search"),
        search_index("index0"),
        search_index("index1"),
        search_index("index2"),
        recommender("recommender"),
        # Backends: per-domain memcached + MongoDB pairs and the queue.
        memcached("mc-catalogue"),
        memcached("mc-cart"),
        memcached("mc-account"),
        memcached("mc-orders"),
        memcached("mc-media"),
        mongodb("mongo-catalogue"),
        mongodb("mongo-cart"),
        mongodb("mongo-account"),
        mongodb("mongo-orders"),
        mongodb("mongo-shipping"),
        mongodb("mongo-invoices"),
        mongodb("mongo-media"),
        mongodb("mongo-wishlist"),
        mongodb("mongo-discounts"),
        message_queue("orderQueue"),
        # Static media + misc.
        _logic("media", "node.js", 200),
        _logic("sessions", "go", 60),
        _logic("tax", "java", 120),
        _logic("currency", "go", 50),
    ]
    return {svc.name: svc for svc in defs}


def _cached(cache: str, store: str, miss_scale: float,
            response_kb: float = 2.0) -> CallNode:
    return CallNode(service=cache, request_kb=0.3, response_kb=response_kb,
                    groups=seq(CallNode(service=store,
                                        work_scale=miss_scale,
                                        response_kb=response_kb)))


def _front(groups) -> CallNode:
    return CallNode(service="front-end", request_kb=1.5, response_kb=8.0,
                    groups=groups)


def _browse_catalogue() -> Operation:
    """Browse the shop: catalogue mining plus ads/discounts/recs."""
    root = _front([
        [CallNode(service="sessions")],
        [CallNode(service="catalogue", response_kb=20.0,
                  groups=seq(_cached("mc-catalogue", "mongo-catalogue",
                                     0.3, response_kb=20.0))),
         CallNode(service="catalogue-media", response_kb=60.0,
                  groups=seq(_cached("mc-media", "mongo-media", 0.4,
                                     response_kb=60.0))),
         CallNode(service="discounts",
                  groups=seq(CallNode(service="mongo-discounts",
                                      work_scale=0.4))),
         CallNode(service="media", response_kb=40.0),
         CallNode(service="ads")],
    ])
    return Operation(name="browseCatalogue", root=root)


def _search_shop() -> Operation:
    root = _front(seq(CallNode(
        service="search",
        groups=par(CallNode(service="index0"),
                   CallNode(service="index1"),
                   CallNode(service="index2")))))
    return Operation(name="searchShop", root=root)


def _add_to_cart() -> Operation:
    root = _front(seq(
        CallNode(service="sessions"),
        CallNode(service="cart",
                 groups=seq(_cached("mc-cart", "mongo-cart", 0.8)))))
    return Operation(name="addToCart", root=root)


def _wishlist_op() -> Operation:
    root = _front(seq(
        CallNode(service="wishlist",
                 groups=seq(CallNode(service="mongo-wishlist",
                                     work_scale=0.5)))))
    return Operation(name="updateWishlist", root=root)


def _place_order() -> Operation:
    """The full order flow: cart → login → shipping → payment →
    invoice → serialize through queueMaster.  1-2 orders of magnitude
    longer than browsing (Sec. 3.8)."""
    root = _front(seq(
        CallNode(service="cart",
                 groups=seq(_cached("mc-cart", "mongo-cart", 0.8))),
        CallNode(service="login",
                 groups=seq(_cached("mc-account", "mongo-account", 0.2))),
        CallNode(service="orders", groups=[
            [CallNode(service="accountInfo",
                      groups=seq(_cached("mc-account", "mongo-account",
                                         0.3)))],
            [CallNode(service="shipping", groups=seq(
                CallNode(service="tax"),
                CallNode(service="mongo-shipping", work_scale=1.0)))],
            [CallNode(service="payment", groups=seq(
                CallNode(service="currency"),
                CallNode(service="payment-authorization"),
                CallNode(service="transactionID")))],
            [CallNode(service="invoicing",
                      groups=seq(CallNode(service="mongo-invoices")))],
            [CallNode(service="queueMaster", groups=seq(
                CallNode(service="orderQueue"),
                CallNode(service="mongo-orders")))],
        ])))
    return Operation(name="placeOrder", root=root)


def _recommendations() -> Operation:
    root = _front(seq(
        CallNode(service="recommender",
                 groups=seq(_cached("mc-orders", "mongo-orders", 0.3))),
        CallNode(service="socialNet")))
    return Operation(name="recommendations", root=root)


def build_ecommerce() -> Application:
    """Construct the E-commerce application."""
    operations = {}
    for op in [_browse_catalogue(), _search_shop(), _add_to_cart(),
               _wishlist_op(), _place_order(), _recommendations()]:
        operations[op.name] = op
    weights = {
        "browseCatalogue": 50.0,
        "searchShop": 15.0,
        "addToCart": 12.0,
        "updateWishlist": 5.0,
        "placeOrder": 10.0,
        "recommendations": 8.0,
    }
    for name, weight in weights.items():
        operations[name].weight = weight
    # Criticality: the money path (cart, order, wishlist) is critical;
    # browsing degrades; search and recommendations shed first.
    operations["browseCatalogue"].criticality = CRIT_DEGRADABLE
    operations["searchShop"].criticality = CRIT_SHEDDABLE
    operations["recommendations"].criticality = CRIT_SHEDDABLE

    degradation_policies = {
        "ads": DegradationPolicy(
            service="ads", optional=True, drop_level=1,
            fallback="default", fidelity_cost=0.05),
        "discounts": DegradationPolicy(
            service="discounts", optional=True, drop_level=1,
            fallback="default", fidelity_cost=0.05),
        # A catalogue page without hero media still sells socks.
        "catalogue-media": DegradationPolicy(
            service="catalogue-media", optional=True, drop_level=2,
            fidelity_cost=0.1),
        "mc-catalogue": DegradationPolicy(
            service="mc-catalogue", fallback="stale_cache",
            fidelity_cost=0.15),
        "mc-cart": DegradationPolicy(
            service="mc-cart", fallback="stale_cache",
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
        # Payment authorization must survive every brownout level.
        "payment-authorization": DegradationPolicy(
            service="payment-authorization", never_drop=True),
    }

    return Application(
        name="ecommerce",
        services=_services(),
        operations=operations,
        protocol=Protocol.HTTP,
        qos_latency=ECOMMERCE_QOS,
        entry_service="front-end",
        sharded_services=["mongo-cart", "mc-cart"],
        degradation_policies=degradation_policies,
        metadata={
            "paper_table1": {
                "total_locs": 16194,
                "protocol": "REST+RPC",
                "handwritten_rpc_locs": 2658,
                "handwritten_rest_locs": 4798,
                "autogen_rpc_locs": 12085,
                "unique_microservices": 41,
                "language_share": {
                    "java": 0.21, "c++": 0.16, "c": 0.15, "go": 0.14,
                    "javascript": 0.10, "node.js": 0.07, "scala": 0.05,
                    "html": 0.04, "ruby": 0.03,
                },
            },
        },
    )
