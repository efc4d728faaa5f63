"""The Media Service (Sec. 3.3, Fig. 5).

Browsing movie information, composing reviews, renting (with payment
authentication), and streaming movies over an nginx-hls tier backed by
NFS.  Movie metadata lives in a sharded/replicated MySQL database
(MovieDB); reviews in memcached + MongoDB.  38 unique microservices,
all downstream messages over Thrift RPC.
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
    nfs_store,
    nginx,
    php_fpm,
    recommender,
    search_index,
    xapian_search,
)
from ..services.definition import ServiceDefinition, ServiceKind

__all__ = ["build_media_service", "MEDIA_SERVICE_QOS"]

MEDIA_SERVICE_QOS = 0.02


def _logic(name: str, language: str, work_us: float,
           cv: float = 0.5, **traits) -> ServiceDefinition:
    svc = ServiceDefinition(name=name, language=language,
                            kind=ServiceKind.LOGIC,
                            work_mean=work_us * 1e-6, work_cv=cv)
    return svc.with_traits(**traits) if traits else svc


def _services() -> dict:
    """All 38 unique microservices of Fig. 5."""
    defs = [
        nginx("nginx-lb", work_mean=40e-6),
        nginx("nginx-web"),
        php_fpm("php-fpm"),
        # Page / review composition.
        _logic("composePage", "c++", 200),
        _logic("composeReview", "c++", 170),
        _logic("userReview", "java", 120),
        _logic("movieReview", "java", 120),
        _logic("reviewStorage", "c++", 110),
        _logic("text-rating", "c++", 60),
        _logic("uniqueID", "c++", 15, icache_footprint_kb=30,
               memory_locality=0.9),
        _logic("movieID", "c++", 50),
        _logic("rating", "scala", 80),
        # Movie info tiers.
        _logic("plot", "java", 90),
        _logic("cast", "java", 90),
        _logic("photos", "c++", 250, memory_locality=0.5),
        _logic("videos", "c++", 400, memory_locality=0.45),
        _logic("thumbnail", "c++", 150),
        # Account / payment / rental.
        _logic("login", "go", 110),
        _logic("userInfo", "go", 70),
        _logic("rent", "java", 200),
        _logic("payment-auth", "java", 450, cv=0.7),
        # Streaming.
        _logic("video-streaming", "c", 180,
               icache_footprint_kb=130, kernel_share=0.6),
        # Plugins.
        _logic("ads", "python", 700, memory_locality=0.3),
        recommender("recommender"),
        xapian_search("search"),
        search_index("index0"),
        search_index("index1"),
        search_index("index2"),
        # Backends.
        memcached("mc-reviews"),
        memcached("mc-movieinfo"),
        memcached("mc-userinfo"),
        memcached("mc-media"),
        mongodb("mongo-reviews"),
        mongodb("mongo-userinfo"),
        mongodb("mongo-media"),
        mysql("moviedb-shard0"),
        mysql("moviedb-shard1"),
        nfs_store("nfs-videos"),
    ]
    return {svc.name: svc for svc in defs}


def _entry(groups) -> CallNode:
    return CallNode(
        service="nginx-lb", request_kb=1.0, response_kb=2.0,
        groups=seq(CallNode(
            service="nginx-web",
            groups=seq(CallNode(service="php-fpm", groups=groups)))))


def _cached(cache: str, store: str, miss_scale: float,
            response_kb: float = 2.0) -> CallNode:
    return CallNode(service=cache, request_kb=0.3, response_kb=response_kb,
                    groups=seq(CallNode(service=store,
                                        work_scale=miss_scale,
                                        response_kb=response_kb)))


def _browse_movie() -> Operation:
    """Browse a movie page: plot, cast, photos, reviews, ads, recs."""
    root = _entry(seq(CallNode(
        service="composePage", response_kb=40.0,
        groups=[
            [CallNode(service="movieID",
                      groups=seq(_cached("mc-movieinfo", "moviedb-shard0",
                                         0.3)))],
            [CallNode(service="plot",
                      groups=seq(_cached("mc-movieinfo", "moviedb-shard1",
                                         0.3))),
             CallNode(service="cast",
                      groups=seq(_cached("mc-movieinfo", "moviedb-shard0",
                                         0.3))),
             CallNode(service="photos", response_kb=150.0,
                      groups=seq(_cached("mc-media", "mongo-media", 0.4,
                                         response_kb=150.0))),
             CallNode(service="videos", response_kb=80.0,
                      groups=seq(_cached("mc-media", "mongo-media", 0.3,
                                         response_kb=80.0))),
             CallNode(service="thumbnail", response_kb=30.0),
             CallNode(service="movieReview",
                      groups=seq(_cached("mc-reviews", "mongo-reviews",
                                         0.3))),
             # Amortized ad/recommendation inference per page view.
             CallNode(service="ads", work_scale=0.3),
             CallNode(service="recommender", work_scale=0.2)],
        ])))
    return Operation(name="browseMovie", root=root)


def _compose_review() -> Operation:
    root = _entry(seq(CallNode(
        service="composeReview",
        groups=[
            [CallNode(service="login",
                      groups=seq(_cached("mc-userinfo", "mongo-userinfo",
                                         0.2)))],
            [CallNode(service="text-rating"),
             CallNode(service="uniqueID"),
             CallNode(service="movieID",
                      groups=seq(_cached("mc-movieinfo", "moviedb-shard0",
                                         0.3)))],
            [CallNode(service="reviewStorage",
                      groups=seq(_cached("mc-reviews", "mongo-reviews",
                                         1.0)))],
            [CallNode(service="userReview"),
             CallNode(service="movieReview"),
             CallNode(service="rating")],
        ])))
    return Operation(name="composeReview", root=root)


def _rent_movie() -> Operation:
    """Rent: login, payment auth, then start the HLS stream."""
    root = _entry(seq(
        CallNode(service="login",
                 groups=seq(_cached("mc-userinfo", "mongo-userinfo", 0.2))),
        CallNode(service="userInfo",
                 groups=seq(_cached("mc-userinfo", "mongo-userinfo", 0.3))),
        CallNode(service="rent", groups=[
            [CallNode(service="payment-auth")],
            [CallNode(service="video-streaming", response_kb=512.0,
                      groups=seq(CallNode(service="nfs-videos",
                                          response_kb=512.0)))],
        ])))
    return Operation(name="rentMovie", root=root)


def _stream_chunk() -> Operation:
    """Fetch one HLS segment of an in-progress stream."""
    root = CallNode(
        service="nginx-lb", request_kb=0.5, response_kb=2.0,
        groups=seq(CallNode(
            service="video-streaming", response_kb=1024.0,
            groups=seq(CallNode(service="nfs-videos",
                                response_kb=1024.0)))))
    return Operation(name="streamChunk", root=root)


def _search_movies() -> Operation:
    root = _entry(seq(CallNode(
        service="search",
        groups=par(CallNode(service="index0"),
                   CallNode(service="index1"),
                   CallNode(service="index2")))))
    return Operation(name="searchMovies", root=root)


def _login_op() -> Operation:
    root = _entry(seq(CallNode(
        service="login",
        groups=seq(_cached("mc-userinfo", "mongo-userinfo", 0.2)))))
    return Operation(name="login", root=root)


def build_media_service() -> Application:
    """Construct the Media Service application."""
    operations = {}
    for op in [_browse_movie(), _compose_review(), _rent_movie(),
               _stream_chunk(), _search_movies(), _login_op()]:
        operations[op.name] = op
    weights = {
        "browseMovie": 45.0,
        "composeReview": 10.0,
        "rentMovie": 5.0,
        "streamChunk": 25.0,
        "searchMovies": 10.0,
        "login": 5.0,
    }
    for name, weight in weights.items():
        operations[name].weight = weight
    # Criticality: paid actions (rent, review, login) and in-flight
    # streams stay critical; browsing degrades; search sheds first.
    operations["browseMovie"].criticality = CRIT_DEGRADABLE
    operations["searchMovies"].criticality = CRIT_SHEDDABLE

    degradation_policies = {
        "ads": DegradationPolicy(
            service="ads", optional=True, drop_level=1,
            fallback="default", fidelity_cost=0.05),
        "recommender": DegradationPolicy(
            service="recommender", optional=True, drop_level=1,
            fallback="default", fidelity_cost=0.05),
        # A browse page without photos/videos is still a page.
        "photos": DegradationPolicy(
            service="photos", optional=True, drop_level=2,
            fidelity_cost=0.1),
        "videos": DegradationPolicy(
            service="videos", optional=True, drop_level=2,
            fidelity_cost=0.1),
        "mc-movieinfo": DegradationPolicy(
            service="mc-movieinfo", fallback="stale_cache",
            fidelity_cost=0.15),
        "mc-reviews": DegradationPolicy(
            service="mc-reviews", fallback="stale_cache",
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
        # Payment authorization is sacrosanct (DEG002 keeps it out of
        # any droppable subtree).
        "payment-auth": DegradationPolicy(
            service="payment-auth", never_drop=True),
    }

    return Application(
        name="media_service",
        services=_services(),
        operations=operations,
        protocol=Protocol.RPC,
        qos_latency=MEDIA_SERVICE_QOS,
        entry_service="nginx-lb",
        sharded_services=["moviedb-shard0", "moviedb-shard1"],
        degradation_policies=degradation_policies,
        metadata={
            "paper_table1": {
                "total_locs": 12155,
                "protocol": "RPC",
                "handwritten_rpc_locs": 9853,
                "autogen_rpc_locs": 48001,
                "unique_microservices": 38,
                "language_share": {
                    "c": 0.30, "c++": 0.21, "java": 0.20, "php": 0.10,
                    "scala": 0.08, "node.js": 0.05, "python": 0.03,
                    "javascript": 0.03,
                },
            },
        },
    )
