"""The fleet-maintained routing index never drifts from the pods.

Least-loaded, join-shortest-queue and weight-aware routing select with
one ``argmin`` over a :class:`~repro.simulation.frontier.LoadIndex` the
fleet keeps current, instead of scanning every pod per arrival. These
tests watch whole runs — faults, autoscaling, admission control, a
two-tenant cluster, fast core and oracle — and check after every event
that the maintained index equals a fresh snapshot of ``fleet.pods``, and
on every arrival that the router picks exactly the pod a ``min()`` scan
over every pod picks (the router bodies the index replaced, kept here
as the reference).
"""

from collections import Counter

import numpy as np
import pytest

from repro.hardware import parse_profile
from repro.inference import ContinuousBatchingEngine
from repro.models import get_llm
from repro.simulation import (
    AdmissionController,
    ClosedLoopTraffic,
    ClusterInventory,
    ClusterSimulator,
    FleetSimulator,
    JoinShortestQueueRouter,
    LeastLoadedRouter,
    LoadIndex,
    RequestSource,
    RoundRobinRouter,
    Router,
    TenantGroup,
    WeightAwareRouter,
    committed_load,
    least_loaded_pod,
)
from repro.simulation.scenario import ScenarioSpec
from repro.utils.rng import derive_rng

# ---- scan references ---------------------------------------------------------


def scan_least_loaded(pods, lo=0, hi=None):
    hi = len(pods) if hi is None else hi
    return min(range(lo, hi), key=lambda i: (committed_load(pods[i]), i))


def scan_shortest_queue(pods):
    return min(
        range(len(pods)),
        key=lambda i: (pods[i].queue_depth + pods[i].active_requests, i),
    )


class ScanLeastLoaded(Router):
    def route(self, request, arrival_time, pods) -> int:
        return scan_least_loaded(pods)


class ScanShortestQueue(Router):
    def route(self, request, arrival_time, pods) -> int:
        return scan_shortest_queue(pods)


class ScanWeightAware(WeightAwareRouter):
    """The weight-aware router with its tiers picked by ``min()`` scans.

    Run in lockstep with the router under test (same arrivals, same
    parameters), so its weight history, threshold and tier choice match.
    """

    def __init__(self, like: WeightAwareRouter) -> None:
        super().__init__(like.heavy_pod_fraction, like.warmup, like.window)
        self.tiered = 0

    def route(self, request, arrival_time, pods) -> int:
        weight = request.weight
        self._seen += 1
        self._weights.append(weight)
        if len(self._weights) > self.window:
            del self._weights[0]
        if len(pods) < 2 or self._seen < self.warmup:
            return scan_least_loaded(pods)
        n_heavy = max(1, round(self.heavy_pod_fraction * len(pods)))
        n_heavy = min(n_heavy, len(pods) - 1)
        threshold = self._threshold(n_heavy / len(pods))
        if threshold >= max(self._weights):
            return scan_least_loaded(pods)
        self.tiered += 1
        split = len(pods) - n_heavy
        if weight > threshold:
            return scan_least_loaded(pods, split, len(pods))
        return scan_least_loaded(pods, 0, split)


def reference_for(router) -> Router:
    if isinstance(router, WeightAwareRouter):
        return ScanWeightAware(router)
    if isinstance(router, JoinShortestQueueRouter):
        return ScanShortestQueue()
    assert isinstance(router, LeastLoadedRouter)
    return ScanLeastLoaded()


# ---- the watcher -------------------------------------------------------------


def assert_index_current(fleet):
    index = fleet._index
    assert index is not None and index.pods is fleet.pods
    for key in ("load", "depth"):
        fresh = LoadIndex.snapshot(fleet.pods, key)
        assert np.array_equal(getattr(index, key), fresh), key


def watch(fleet) -> tuple[Counter, Router]:
    """Check the index after every event and every route against the scan.

    Wraps the fleet's event methods and the (inner) router's ``route``
    on the instances; returns the event counter and the reference.
    """
    seen: Counter = Counter()
    router = fleet.router
    if isinstance(router, AdmissionController):
        router = router.inner
    reference = reference_for(router)
    route = router.route

    def checked_route(request, arrival_time, pods):
        # The fleet hands its own list, so the router reads the
        # maintained index, never a snapshot.
        assert pods is fleet.pods and router._index is fleet._index
        expected = reference.route(request, arrival_time, pods)
        assert route(request, arrival_time, pods) == expected
        seen["route"] += 1
        return expected

    router.route = checked_route

    def checked(name):
        method = getattr(fleet, name)

        def call(*args, **kwargs):
            out = method(*args, **kwargs)
            assert_index_current(fleet)
            seen[name] += 1
            return out

        setattr(fleet, name, call)

    for name in ("_dispatch", "step_pod", "fault_tick", "autoscale_tick"):
        checked(name)
    return seen, reference


# ---- scenarios ---------------------------------------------------------------

ROUTERS = {
    "least-loaded": "least-loaded",
    "jsq": "join-shortest-queue",
    # A short warmup so the size tiers, not just the fallback, route.
    "weight-aware": {"kind": "weight-aware", "warmup": 8},
}

BASE = {"llm": "Llama-2-7b", "profile": "1xA10-24GB", "seed": 3}

FLEETS = {
    "crash-restart": {
        "duration_s": 40.0,
        "pods": 3,
        "traffic": {"kind": "poisson", "rate_per_s": 3.0},
        "faults": {
            "events": [
                {
                    "kind": "crash",
                    "time_s": 10.0,
                    "mode": "requeue",
                    "restart_delay_s": 6.0,
                },
                {"kind": "crash", "time_s": 22.0, "mode": "lose"},
            ]
        },
    },
    "zone-outage": {
        "duration_s": 40.0,
        "pods": 4,
        "traffic": {"kind": "poisson", "rate_per_s": 3.0},
        "faults": {
            "zones": 2,
            "events": [
                {
                    "kind": "zone-outage",
                    "time_s": 10.0,
                    "zone": "zone-1",
                    "mode": "requeue",
                    "restart_delay_s": 8.0,
                }
            ],
        },
    },
    "autoscale": {
        # A seed whose drained pods retire under every router.
        "seed": 4,
        "duration_s": 90.0,
        "pods": 2,
        "traffic": {
            "kind": "diurnal",
            "rate_per_s": 4.0,
            "amplitude": 0.95,
            "period_s": 60.0,
        },
        "autoscaler": {
            "policy": "predictive",
            "requests_per_pod_per_s": 1.5,
            "min_pods": 1,
            "max_pods": 6,
            "interval_s": 5.0,
            "cold_start_s": 3.0,
            "metrics_window_s": 10.0,
        },
    },
    "closed-sticky": {
        # Closed-loop follow-ups go back to their user's pod (a hinted
        # dispatch that skips the router) until a crash breaks the
        # affinity and they fall back to routing.
        "duration_s": 30.0,
        "pods": 3,
        "traffic": {"kind": "closed", "users": 8, "sticky": True},
        "faults": {
            "events": [
                {
                    "kind": "crash",
                    "time_s": 10.0,
                    "mode": "requeue",
                    "restart_delay_s": 5.0,
                }
            ]
        },
    },
    "admission-shed": {
        "duration_s": 40.0,
        "pods": 2,
        "traffic": {"kind": "poisson", "rate_per_s": 6.0},
        "admission": {"mode": "shed", "slo_ttft_ms": 300.0},
    },
    "admission-defer": {
        "duration_s": 40.0,
        "pods": 2,
        "traffic": {"kind": "poisson", "rate_per_s": 6.0},
        "admission": {"mode": "defer", "slo_ttft_ms": 300.0, "retry_delay_s": 2.0},
    },
}

CLUSTER = {
    "duration_s": 80.0,
    "capacity": {"A10-24GB": 5},
    "faults": {
        "zones": 2,
        "events": [
            {
                "kind": "zone-outage",
                "time_s": 30.0,
                "zone": "zone-1",
                "mode": "requeue",
                "restart_delay_s": 8.0,
            }
        ],
    },
    "autoscaler": FLEETS["autoscale"]["autoscaler"],
    "tenants": [
        {"name": "steady", "pods": 2, "traffic": {"kind": "poisson", "rate_per_s": 2.0}},
        {
            "name": "tidal",
            "pods": 2,
            "traffic": FLEETS["autoscale"]["traffic"],
            "admission": {"mode": "shed", "slo_ttft_ms": 2000.0},
        },
    ],
}


def _spec(case: dict, router) -> ScenarioSpec:
    return ScenarioSpec.from_dict({**BASE, "name": "index", **case, "router": router})


def _exercised(case: str, result) -> bool:
    """Whether the run went through the path its case exists for."""
    states = Counter(p.state for p in result.per_pod)
    if case == "crash-restart":
        return result.requeued > 0 and result.lost > 0 and states["crashed"] == 2
    if case == "zone-outage":
        return states["crashed"] == 2 and result.requeued > 0
    if case == "autoscale":
        directions = Counter(e.direction for e in result.scale_events)
        return directions["up"] > 0 and directions["down"] > 0 and states["retired"] > 0
    if case == "closed-sticky":
        return result.requeued > 0 and states["crashed"] == 1
    if case == "admission-shed":
        return result.shed > 0
    return result.deferrals > 0 and result.shed > 0


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "oracle"])
@pytest.mark.parametrize("router", list(ROUTERS.values()), ids=list(ROUTERS))
@pytest.mark.parametrize("case", list(FLEETS))
def test_fleet_index_tracks_pods(generator, case, router, fast):
    spec = _spec(FLEETS[case], router)
    fleet = spec.build_fleet(generator, fast=fast)
    seen, reference = watch(fleet)
    result = fleet.run(spec.duration_s)
    result.verify_conservation()
    assert _exercised(case, result)
    assert seen["route"] > 0 and seen["step_pod"] > 0
    if isinstance(reference, ScanWeightAware):
        assert reference.tiered > 0


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "oracle"])
@pytest.mark.parametrize("router", list(ROUTERS.values()), ids=list(ROUTERS))
def test_cluster_index_tracks_pods(generator, router, fast):
    spec = _spec(CLUSTER, router)
    sim = spec.build_cluster(generator, fast=fast)
    watched = [watch(group.fleet)[0] for group in sim.tenants]
    result = sim.run(spec.duration_s)
    result.verify_conservation()
    for seen in watched:
        assert seen["route"] > 0 and seen["autoscale_tick"] > 0
    tenants = result.results.values()
    directions = Counter(e.direction for r in tenants for e in r.scale_events)
    assert directions["up"] > 0 and directions["down"] > 0
    assert sum(r.shed for r in tenants) > 0
    assert result.fault_events()


# ---- binding -----------------------------------------------------------------


def _plain_fleet(generator, router, pods=3, seed=0):
    engines = [
        ContinuousBatchingEngine(
            get_llm("Llama-2-7b"),
            parse_profile("1xA10-24GB"),
            max_batch_weight=12_000,
            seed=seed + i,
        )
        for i in range(pods)
    ]
    source = RequestSource(generator, derive_rng(seed, "index"), 12_000)
    return FleetSimulator(engines, ClosedLoopTraffic(6), router, source)


def test_round_robin_fleet_keeps_no_index(generator):
    fleet = _plain_fleet(generator, RoundRobinRouter())
    fleet.begin(5.0)
    assert fleet._index is None
    fleet = _plain_fleet(generator, AdmissionController(RoundRobinRouter(), 1.0))
    fleet.begin(5.0)
    assert fleet._index is None


def test_admission_forwards_the_binding(generator):
    inner = LeastLoadedRouter()
    fleet = _plain_fleet(generator, AdmissionController(inner, 1.0))
    fleet.begin(5.0)
    assert fleet._index is not None and inner._index is fleet._index


def test_router_cannot_serve_two_running_fleets(generator):
    router = JoinShortestQueueRouter()
    first = _plain_fleet(generator, router)
    first.begin(5.0)
    second = _plain_fleet(generator, router, seed=1)
    with pytest.raises(ValueError, match="another running fleet"):
        second.begin(5.0)
    # Once the first run is over the router is free again.
    first.drain_pending()
    second.run(5.0)


def test_tenants_cannot_share_a_router(generator):
    router = LeastLoadedRouter()
    groups = [
        TenantGroup(name, _plain_fleet(generator, router, seed=i), "1xA10-24GB")
        for i, name in enumerate(("a", "b"))
    ]
    sim = ClusterSimulator(groups, ClusterInventory(capacity={"A10-24GB": 6}))
    with pytest.raises(ValueError, match="another running fleet"):
        sim.run(5.0)


def test_bound_router_snapshots_foreign_pod_lists(generator):
    router = LeastLoadedRouter()
    fleet = _plain_fleet(generator, router, pods=4)
    fleet.run(10.0)
    assert router._index is fleet._index
    # A different list (here reversed) is read fresh, not looked up in
    # the bound index.
    pods = fleet.pods[::-1]
    assert router.route(None, 0.0, pods) == scan_least_loaded(pods)


def test_least_loaded_pod_first_minimum():
    keys = np.array([5, 2, 7, 2, 9, 1, 1], dtype=np.int64)
    assert least_loaded_pod(keys) == 5
    assert least_loaded_pod(keys, 0, 4) == 1
    assert least_loaded_pod(keys, 2, 5) == 3
    assert least_loaded_pod(keys, 6) == 6
