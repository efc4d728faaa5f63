"""The Social Network end-to-end service (Sec. 3.2, Fig. 4).

A broadcast-style social network with uni-directional follow
relationships: 36 unique microservices behind an nginx load balancer
and php-fpm bridge, all inter-service messages over Thrift RPC, with
memcached caches in front of MongoDB stores, a Xapian-backed search
tier, and ML plugins (ads, user recommender).

Operations follow Sec. 3.8's query-diversity notes: ``composePost``
variants embed text, image, or video media (video payloads of a few MB,
as in production social networks); ``repost`` is the longest query type
(read an existing post, prepend, then propagate to followers'
timelines); reads dominate the default mix.
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
    nginx,
    php_fpm,
    recommender,
    search_index,
    xapian_search,
)
from ..services.definition import ServiceDefinition, ServiceKind

__all__ = ["build_social_network", "SOCIAL_NETWORK_QOS"]

#: End-to-end p99 target; the paper reports ~3.8 ms end-to-end latency
#: at moderate load, and QoS experiments use small-multiple targets.
SOCIAL_NETWORK_QOS = 0.015


def _logic(name: str, language: str, work_us: float,
           cv: float = 0.5, **traits) -> ServiceDefinition:
    svc = ServiceDefinition(name=name, language=language,
                            kind=ServiceKind.LOGIC,
                            work_mean=work_us * 1e-6, work_cv=cv)
    return svc.with_traits(**traits) if traits else svc


def _services() -> dict:
    """All 36 unique microservices of Fig. 4."""
    defs = [
        nginx("nginx-lb", work_mean=40e-6),
        nginx("nginx-web"),
        php_fpm("php-fpm"),
        # Post composition pipeline.
        _logic("composePost", "c++", 180),
        _logic("text", "c++", 60, memory_locality=0.8),
        _logic("image", "c++", 350, memory_locality=0.5),
        _logic("video", "c++", 900, memory_locality=0.45),
        _logic("userTag", "java", 90),
        _logic("urlShorten", "c++", 40, icache_footprint_kb=36),
        _logic("uniqueID", "c++", 15, icache_footprint_kb=30,
               memory_locality=0.9),
        # Timeline / graph fabric.
        _logic("postsStorage", "c++", 120),
        _logic("writeTimeline", "java", 150),
        _logic("writeGraph", "java", 160),
        _logic("readTimeline", "java", 130),
        _logic("readPost", "c++", 80),
        _logic("blockedUsers", "java", 50),
        # Account services.
        _logic("login", "go", 110),
        _logic("userInfo", "go", 70),
        _logic("favorite", "scala", 60),
        _logic("followUser", "scala", 90),
        # Plugins.
        _logic("ads", "python", 700, memory_locality=0.3),
        recommender("recommender"),
        xapian_search("search"),
        search_index("index0"),
        search_index("index1"),
        search_index("index2"),
        # Backend caches and stores (one pair per stateful domain).
        memcached("mc-posts"),
        memcached("mc-timeline"),
        memcached("mc-userinfo"),
        memcached("mc-graph"),
        memcached("mc-media"),
        mongodb("mongo-posts"),
        mongodb("mongo-timeline"),
        mongodb("mongo-userinfo"),
        mongodb("mongo-graph"),
        mongodb("mongo-media"),
    ]
    return {svc.name: svc for svc in defs}


def _entry(groups) -> CallNode:
    """Client -> nginx LB -> nginx webserver -> php-fpm -> Thrift tiers."""
    return CallNode(
        service="nginx-lb", request_kb=1.0, response_kb=2.0,
        groups=seq(CallNode(
            service="nginx-web",
            groups=seq(CallNode(service="php-fpm", groups=groups)))))


def _cached_read(cache: str, store: str, miss_scale: float = 1.0,
                 response_kb: float = 2.0) -> CallNode:
    """A cache lookup followed by a (scaled) store access.

    The store node's ``work_scale`` bakes in the cache miss ratio: with
    a 30 % miss rate the store sees 0.3x its per-query work on average.
    """
    return CallNode(service=cache, request_kb=0.3, response_kb=response_kb,
                    groups=seq(CallNode(service=store,
                                        work_scale=miss_scale,
                                        request_kb=0.3,
                                        response_kb=response_kb)))


def _compose_post(media_service: str, media_kb: float) -> Operation:
    """composePost with a given embedded media type."""
    media_node = CallNode(service=media_service, request_kb=media_kb,
                          response_kb=1.0)
    if media_service in ("image", "video"):
        # Media payloads are persisted in the media store.
        media_node.groups = seq(
            _cached_read("mc-media", "mongo-media", miss_scale=1.0,
                         response_kb=1.0))
    root = _entry(seq(CallNode(
        service="composePost", request_kb=media_kb + 1.0,
        groups=[
            # Stage 1: process constituents in parallel.
            [CallNode(service="text",
                      groups=par(CallNode(service="urlShorten"),
                                 CallNode(service="userTag"))),
             media_node,
             CallNode(service="uniqueID")],
            # Stage 2: store the post, then fan out to timelines.
            [CallNode(service="postsStorage",
                      groups=seq(_cached_read("mc-posts", "mongo-posts",
                                              miss_scale=1.0)))],
            [CallNode(service="writeTimeline",
                      groups=seq(_cached_read("mc-timeline",
                                              "mongo-timeline"))),
             CallNode(service="writeGraph",
                      groups=seq(_cached_read("mc-graph", "mongo-graph",
                                              miss_scale=0.5)))],
        ])))
    return Operation(name=f"composePost-{media_service}", root=root)


def _read_timeline() -> Operation:
    root = _entry(seq(CallNode(
        service="readTimeline", response_kb=12.0,
        groups=[
            [CallNode(service="blockedUsers")],
            [_cached_read("mc-timeline", "mongo-timeline",
                          miss_scale=0.3, response_kb=12.0)],
            [CallNode(service="readPost", response_kb=10.0,
                      groups=seq(_cached_read("mc-posts", "mongo-posts",
                                              miss_scale=0.3,
                                              response_kb=10.0))),
             # Ads and recommendations are served from amortized,
             # periodically refreshed models: a fraction of their full
             # inference cost per timeline read.
             CallNode(service="ads", work_scale=0.3),
             CallNode(service="recommender", work_scale=0.2)],
        ])))
    return Operation(name="readTimeline", root=root)


def _repost() -> Operation:
    """Read an existing post, prepend, and propagate — the longest
    query type in the Social Network (Sec. 3.8)."""
    root = _entry(seq(
        CallNode(service="readPost",
                 groups=seq(_cached_read("mc-posts", "mongo-posts",
                                         miss_scale=0.3))),
        CallNode(service="composePost", groups=[
            [CallNode(service="text"), CallNode(service="uniqueID")],
            [CallNode(service="postsStorage",
                      groups=seq(_cached_read("mc-posts", "mongo-posts")))],
            # Broadcast: the repost fans out to all the followers'
            # timelines, which is what makes it the longest query type.
            [CallNode(service="writeTimeline", work_scale=10.0,
                      groups=seq(_cached_read("mc-timeline",
                                              "mongo-timeline",
                                              miss_scale=5.0))),
             CallNode(service="writeGraph",
                      groups=seq(_cached_read("mc-graph", "mongo-graph",
                                              miss_scale=0.5)))],
        ])))
    return Operation(name="repost", root=root)


def _login() -> Operation:
    root = _entry(seq(CallNode(
        service="login",
        groups=seq(_cached_read("mc-userinfo", "mongo-userinfo",
                                miss_scale=0.2)))))
    return Operation(name="login", root=root)


def _user_info() -> Operation:
    root = _entry(seq(CallNode(
        service="userInfo",
        groups=seq(_cached_read("mc-userinfo", "mongo-userinfo",
                                miss_scale=0.3)))))
    return Operation(name="userInfo", root=root)


def _follow() -> Operation:
    root = _entry(seq(CallNode(
        service="followUser", groups=[
            [CallNode(service="blockedUsers")],
            [CallNode(service="writeGraph",
                      groups=seq(_cached_read("mc-graph", "mongo-graph",
                                              miss_scale=0.6)))],
        ])))
    return Operation(name="followUser", root=root)


def _favorite() -> Operation:
    root = _entry(seq(CallNode(
        service="favorite",
        groups=seq(_cached_read("mc-posts", "mongo-posts",
                                miss_scale=0.2)))))
    return Operation(name="favorite", root=root)


def _search() -> Operation:
    root = _entry(seq(CallNode(
        service="search",
        groups=par(CallNode(service="index0"),
                   CallNode(service="index1"),
                   CallNode(service="index2")))))
    return Operation(name="search", root=root)


def build_social_network() -> Application:
    """Construct the Social Network application."""
    operations = {}
    for op in [
        _compose_post("text", 1.0),        # text-only post
        _compose_post("image", 200.0),     # post with an image
        _compose_post("video", 2048.0),    # post with a short video
        _read_timeline(),
        _repost(),
        _login(),
        _user_info(),
        _follow(),
        _favorite(),
        _search(),
    ]:
        operations[op.name] = op
    # Read-heavy default mix, as in a broadcast social network.
    weights = {
        "readTimeline": 55.0,
        "composePost-text": 10.0,
        "composePost-image": 4.0,
        "composePost-video": 1.0,
        "repost": 5.0,
        "login": 5.0,
        "userInfo": 10.0,
        "followUser": 3.0,
        "favorite": 5.0,
        "search": 2.0,
    }
    for name, weight in weights.items():
        operations[name].weight = weight
    # Criticality tiers: writes and account actions must survive an
    # incident at full strength; timeline/profile reads tolerate
    # missing optional content; search is first against the wall.
    for name in ("readTimeline", "userInfo", "favorite"):
        operations[name].criticality = CRIT_DEGRADABLE
    operations["search"].criticality = CRIT_SHEDDABLE

    degradation_policies = {
        # Ads and recommendations are revenue, not correctness: the
        # first subtrees to go under brownout, with an empty-payload
        # default response.
        "ads": DegradationPolicy(
            service="ads", optional=True, drop_level=1,
            fallback="default", fidelity_cost=0.05),
        "recommender": DegradationPolicy(
            service="recommender", optional=True, drop_level=1,
            fallback="default", fidelity_cost=0.05),
        # Timeline/post caches may serve their last value when the
        # subtree behind them melts; the mongo tiers are region-
        # replicated (service_regions), so a stale answer exists.
        "mc-timeline": DegradationPolicy(
            service="mc-timeline", fallback="stale_cache",
            fidelity_cost=0.15),
        "mc-posts": DegradationPolicy(
            service="mc-posts", fallback="stale_cache",
            fidelity_cost=0.15),
        # The timeline store carries the heaviest read traffic in the
        # mix; under deep brownout, degradable reads stop refreshing
        # through it and serve cache-only (drop the store subtree
        # behind mc-timeline).  Critical writes never drop it — their
        # class-effective level cannot reach drop_level.
        "mongo-timeline": DegradationPolicy(
            service="mongo-timeline", optional=True, drop_level=2,
            fallback="stale_cache", fidelity_cost=0.2),
        "mongo-posts": DegradationPolicy(
            service="mongo-posts", fallback="stale_cache",
            fidelity_cost=0.2),
        # Search results degrade to fewer shards before they disappear.
        "index0": DegradationPolicy(
            service="index0", fanout_keep=1, fanout_level=1,
            fidelity_cost=0.2),
        "index1": DegradationPolicy(
            service="index1", fanout_keep=1, fanout_level=1,
            fidelity_cost=0.2),
        "index2": DegradationPolicy(
            service="index2", fanout_keep=1, fanout_level=1,
            fidelity_cost=0.2),
        # Safety check: content moderation must never be skipped, no
        # matter how deep the brownout (lint rule DEG002 enforces it
        # stays outside every droppable subtree).
        "blockedUsers": DegradationPolicy(
            service="blockedUsers", never_drop=True),
    }

    return Application(
        name="social_network",
        services=_services(),
        operations=operations,
        protocol=Protocol.RPC,
        qos_latency=SOCIAL_NETWORK_QOS,
        entry_service="nginx-lb",
        sharded_services=["mc-timeline", "mongo-timeline", "readTimeline",
                          "writeTimeline"],
        # Multi-region footprint: every tier is deployed in every
        # region; the mongo tiers are single-primary in us-east, so a
        # failed-over read in another region can observe replication
        # lag (the stale reads the region scorecard counts).
        regions=["us-east", "eu-west"],
        service_regions={
            "mongo-posts": "us-east",
            "mongo-userinfo": "us-east",
            "mongo-media": "us-east",
            "mongo-timeline": "us-east",
            "mongo-graph": "us-east",
        },
        degradation_policies=degradation_policies,
        metadata={
            "paper_table1": {
                "total_locs": 15198,
                "protocol": "RPC",
                "handwritten_rpc_locs": 9286,
                "autogen_rpc_locs": 52863,
                "unique_microservices": 36,
                "language_share": {
                    "c": 0.34, "c++": 0.23, "java": 0.18, "node.js": 0.07,
                    "python": 0.06, "scala": 0.05, "php": 0.03,
                    "javascript": 0.02, "go": 0.02,
                },
            },
        },
    )
