"""Lookahead decode: a pod runs every decode step before its next
cross-pod event in one engine call, with results bit-identical to one
step per call.

Engine level, one horizon-bounded ``step()`` is diffed against the same
number of single ``step()`` calls on a twin engine. Fleet and cluster
level, the fast core (lookahead on) is diffed field for field against
the ``fast=False`` oracle (one step per event), ``sim_events`` included,
on runs that each exercise one term of the horizon.
"""

import dataclasses
import math

import numpy as np

from repro.hardware import parse_profile
from repro.inference import ContinuousBatchingEngine, CostModel, InferenceRequest
from repro.models import get_llm
from repro.simulation import (
    AutoscaleConfig,
    Autoscaler,
    ClosedLoopTraffic,
    ClusterInventory,
    ClusterSimulator,
    FaultInjector,
    FaultSpec,
    FleetSimulator,
    LeastLoadedRouter,
    MetricsCollector,
    PoissonTraffic,
    RequestSource,
    TargetUtilizationPolicy,
    TenantGroup,
    ThresholdPolicy,
)
from repro.utils.rng import derive_rng, spawn_seed

LLM = get_llm("Llama-2-13b")
PROFILE = parse_profile("1xA100-80GB")
WEIGHT = 20_000


# ---- engine level ----------------------------------------------------------


def _twins(outputs, sigma=0.03, slow=1.0, batch_size=1):
    """Two identical engines, each past the prefill of the same batch."""
    engines = []
    for _ in range(2):
        engine = ContinuousBatchingEngine(
            LLM, PROFILE, max_batch_weight=200_000, seed=11, noise_sigma=sigma
        )
        engine.slow_factor = slow
        for i, out in enumerate(outputs):
            engine.submit(
                InferenceRequest(
                    request_id=i, input_tokens=40 + i, output_tokens=out,
                    batch_size=batch_size,
                )
            )
        assert engine.step() == []  # the prefill admits the whole batch
        assert engine.active_requests == len(outputs)
        engines.append(engine)
    return engines


def _lookahead_vs_single(ahead, single, horizon, completes):
    """One bounded step() on ``ahead``, as many single steps on ``single``."""
    before = ahead.stats.steps
    ahead.horizon = horizon
    ahead.horizon_completes = completes
    got = ahead.step()
    taken = ahead.stats.steps - before
    want = []
    for _ in range(taken):
        want.extend(single.step())
    assert got == want
    assert ahead.time == single.time
    assert dataclasses.asdict(ahead.stats) == dataclasses.asdict(single.stats)
    np.testing.assert_array_equal(ahead.itl_samples(), single.itl_samples())
    assert ahead.metrics._window_tokens == single.metrics._window_tokens
    assert ahead.metrics.tokens_recorded == single.metrics.tokens_recorded
    assert ahead.metrics.completed == single.metrics.completed
    assert ahead.active_requests == single.active_requests
    span = (ahead.time - ahead.itl_samples()[-1], ahead.time)  # the last step
    # The RNG stream is intact: the next draw is the same on both.
    assert ahead._noise() == single._noise()
    # Both keep stepping in lockstep afterwards.
    assert ahead.step() == single.step()
    assert ahead.time == single.time
    return taken, got, span


class TestEngineLookahead:
    def test_horizon_hit_mid_run(self):
        ahead, single = _twins([300, 250, 280])
        horizon = ahead.time + 40 * 0.02
        taken, got, (start, end) = _lookahead_vs_single(
            ahead, single, horizon, completes=True
        )
        assert 1 < taken < 249 and got == []
        # Exactly the steps that start before the horizon ran: the last
        # one started before it and ended at or past it.
        assert start < horizon <= end

    def test_completion_ends_the_run(self):
        ahead, single = _twins([120, 90, 150])
        taken, got, _ = _lookahead_vs_single(ahead, single, math.inf, completes=True)
        # The prefill emitted token 1; the shortest request needs 89 more.
        assert taken == 89
        assert [r.request.request_id for r in got] == [1]

    def test_run_stops_before_the_completing_step(self):
        ahead, single = _twins([120, 90, 150])
        taken, got, _ = _lookahead_vs_single(ahead, single, math.inf, completes=False)
        assert taken == 88 and got == []

    def test_slow_factor(self):
        ahead, single = _twins([200, 180], slow=2.5)
        taken, _, _ = _lookahead_vs_single(ahead, single, ahead.time + 1.5, completes=True)
        assert taken > 1

    def test_zero_noise(self):
        ahead, single = _twins([200, 180], sigma=0.0)
        taken, _, _ = _lookahead_vs_single(ahead, single, ahead.time + 1.5, completes=True)
        assert taken > 1

    def test_batch_past_soa_capacity(self):
        outputs = [60 + (i * 7) % 50 for i in range(100)]
        ahead, single = _twins(outputs, batch_size=2)
        assert ahead._soa_last.size > 64
        taken, got, _ = _lookahead_vs_single(ahead, single, math.inf, completes=True)
        assert taken == min(outputs) - 1 and got

    def test_no_horizon_is_one_step(self):
        ahead, single = _twins([50, 60])
        taken, _, _ = _lookahead_vs_single(ahead, single, -math.inf, completes=True)
        assert taken == 1

    def test_horizon_is_consumed_by_step(self):
        ahead, _ = _twins([50, 60])
        ahead.horizon = math.inf
        ahead.step()
        assert ahead.horizon == -math.inf

    def test_oracle_engine_ignores_the_horizon(self):
        engine = ContinuousBatchingEngine(
            LLM, PROFILE, max_batch_weight=200_000, seed=11, fast=False
        )
        engine.submit(InferenceRequest(request_id=0, input_tokens=10, output_tokens=50))
        engine.step()
        engine.horizon = math.inf
        engine.step()
        assert engine.stats.decode_steps == 1


def test_engine_instance_dict_stays_shared():
    """CPython shares instance-dict keys only up to 29 attributes; past
    that every attribute access on the engine's hot path slows down.
    28 leaves room for a wrapped ``step`` (tracing, tests)."""
    engine = ContinuousBatchingEngine(LLM, PROFILE, max_batch_weight=WEIGHT)
    assert len(vars(engine)) <= 28


def test_decode_step_times_match_scalar():
    cost = CostModel(LLM, PROFILE)
    kv = 5_000 + 7 * np.arange(50, dtype=np.int64)
    times = cost.decode_step_times(7, kv)
    assert times.tolist() == [cost.decode_step_time(7, int(k)) for k in kv]


def test_record_token_steps_matches_record_tokens():
    ends = np.array([8.5, 9.9, 10.0, 10.2, 19.99, 20.0, 31.0])
    batch, scalar = MetricsCollector(), MetricsCollector()
    batch.record_tokens(3, 1.0)
    scalar.record_tokens(3, 1.0)
    batch.record_token_steps(5, ends)
    for now in ends:
        scalar.record_tokens(5, float(now))
    assert batch._window_tokens == scalar._window_tokens
    assert list(batch._window_tokens) == list(scalar._window_tokens)
    assert batch.tokens_recorded == scalar.tokens_recorded


# ---- fleet and cluster level ------------------------------------------------


def _factory(seed, fast):
    def make(serial):
        return ContinuousBatchingEngine(
            LLM, PROFILE, max_batch_weight=WEIGHT,
            seed=spawn_seed(seed, "pod", serial), fast=fast,
        )

    return make


def _count_steps(fleet):
    """Count engine ``step()`` calls, including pods minted mid-run."""
    calls = [0]

    def wrap(engine):
        step = engine.step

        def counted():
            calls[0] += 1
            return step()

        engine.step = counted
        return engine

    for pod in fleet.pods:
        wrap(pod)
    if fleet.pod_factory is not None:
        factory = fleet.pod_factory
        fleet.pod_factory = lambda serial: wrap(factory(serial))
    return calls


def _outcome(result):
    """Every simulated field of a FleetResult (host timing excluded)."""
    out = {}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if f.name in ("wall_time_s", "metrics"):
            continue
        if isinstance(value, list):
            value = [dataclasses.asdict(v) for v in value]
        elif dataclasses.is_dataclass(value):
            value = dataclasses.asdict(value)
        out[f.name] = value
    metrics = result.metrics
    out["itl_samples"] = metrics.itl_samples().copy()
    out["ttft_samples"] = [a.copy() for a in metrics.ttft_samples()]
    out["completed"] = [dataclasses.asdict(r) for r in metrics.completed]
    return out


def _fleet(
    generator, fast, traffic, n_pods=3, autoscaler=None, faults=None, seed=5
):
    factory = _factory(seed, fast)
    source = RequestSource(generator, derive_rng(seed, "lookahead"), WEIGHT)
    return FleetSimulator(
        [factory(i) for i in range(n_pods)],
        traffic,
        LeastLoadedRouter(),
        source,
        autoscaler=autoscaler,
        pod_factory=factory,
        fast=fast,
        faults=faults,
    )


def _parity(make, duration_s, warmup_s=0.0):
    """Run the fast and oracle fleets; assert equality; return both."""
    runs = {}
    for fast in (True, False):
        fleet = make(fast)
        calls = _count_steps(fleet)
        result = fleet.run(duration_s, warmup_s=warmup_s)
        runs[fast] = (result, calls[0])
    fast, oracle = runs[True], runs[False]
    np.testing.assert_equal(_outcome(fast[0]), _outcome(oracle[0]))
    assert oracle[1] == oracle[0].sim_events  # the oracle: one step per call
    return fast[0], fast[1], oracle[0]


def _poisson(rate, label):
    return PoissonTraffic(rate, rng=derive_rng(5, "lookahead-traffic", label))


class TestFleetLookahead:
    def test_warmup_boundary_mid_run(self, generator):
        result, calls, _ = _parity(
            lambda fast: _fleet(generator, fast, ClosedLoopTraffic(24)),
            duration_s=10.0,
            warmup_s=4.0,
        )
        assert result.requests_completed > 0
        assert calls < result.sim_events

    def test_open_loop_arrivals(self, generator):
        result, calls, _ = _parity(
            lambda fast: _fleet(generator, fast, _poisson(3.0, "open")),
            duration_s=20.0,
        )
        assert result.arrivals > 30
        assert calls < result.sim_events

    def test_fault_requeue_and_slowdown(self, generator):
        def make(fast):
            faults = FaultInjector(
                [
                    FaultSpec(kind="slowdown", time_s=2.0, duration_s=4.0, factor=3.0),
                    FaultSpec(kind="crash", time_s=5.0, restart_delay_s=2.0),
                ],
                seed=3,
            )
            return _fleet(generator, fast, ClosedLoopTraffic(30), faults=faults)

        result, calls, _ = _parity(make, duration_s=12.0)
        assert result.requeued > 0
        assert calls < result.sim_events

    def test_autoscale_drain_sticky_closed_loop(self, generator):
        def make(fast):
            scaler = Autoscaler(
                TargetUtilizationPolicy(target=0.9),
                AutoscaleConfig(
                    decision_interval_s=3.0, max_pods=4, cold_start_s=1.0,
                    metrics_window_s=6.0,
                ),
            )
            return _fleet(
                generator, fast, ClosedLoopTraffic(12), n_pods=4, autoscaler=scaler
            )

        result, calls, _ = _parity(make, duration_s=15.0)
        assert any(e.direction == "down" for e in result.scale_events)
        assert calls < result.sim_events

    def test_non_sticky_closed_loop_steps_singly(self, generator):
        result, calls, _ = _parity(
            lambda fast: _fleet(
                generator, fast, ClosedLoopTraffic(24, sticky=False)
            ),
            duration_s=10.0,
        )
        assert result.requests_completed > 0
        assert calls == result.sim_events

    def test_lone_pod_closed_loop(self, generator):
        result, calls, _ = _parity(
            lambda fast: _fleet(generator, fast, ClosedLoopTraffic(8), n_pods=1),
            duration_s=15.0,
        )
        assert result.requests_completed > 0
        assert calls < result.sim_events / 5


def _cluster(generator, fast):
    def tenant(name, traffic, seed, faults=None):
        factory = _factory(seed, fast)
        scaler = Autoscaler(
            ThresholdPolicy(slo_p95_ttft_s=1.0),
            AutoscaleConfig(
                decision_interval_s=4.0, max_pods=3, cold_start_s=2.0,
                metrics_window_s=8.0,
            ),
        )
        fleet = FleetSimulator(
            [factory(i) for i in range(2)],
            traffic,
            LeastLoadedRouter(),
            RequestSource(generator, derive_rng(seed, "lookahead", name), WEIGHT),
            autoscaler=scaler,
            pod_factory=factory,
            fast=fast,
            faults=faults,
        )
        return TenantGroup(name, fleet, PROFILE.name, slo_p95_ttft_s=1.0)

    faults = FaultInjector([FaultSpec(kind="crash", time_s=6.0)], seed=2)
    tenants = [
        tenant("chat", ClosedLoopTraffic(16), 1, faults=faults),
        tenant("api", _poisson(4.0, "api"), 2),
    ]
    inventory = ClusterInventory(capacity={PROFILE.gpu.name: 6})
    sim = ClusterSimulator(tenants, inventory, fast=fast)
    calls = [_count_steps(t.fleet) for t in tenants]
    result = sim.run(duration_s=16.0, warmup_s=2.0, keep_samples=True)
    return result, sum(c[0] for c in calls)


def test_two_tenant_cluster_with_control_events(generator):
    fast, fast_calls = _cluster(generator, fast=True)
    oracle, oracle_calls = _cluster(generator, fast=False)
    for name in ("chat", "api"):
        np.testing.assert_equal(
            _outcome(fast.results[name]), _outcome(oracle.results[name])
        )
    assert fast.events == oracle.events
    assert fast.sim_events == oracle.sim_events == oracle_calls
    assert any(r.scale_events for r in fast.results.values())
    assert fast_calls < fast.sim_events


def test_cluster_tenants_sharing_a_request_source(generator):
    """Lone pods of two tenants drawing from one source: completion order
    across tenants decides which request each follow-up gets."""

    def run(fast):
        source = RequestSource(generator, derive_rng(4, "shared"), WEIGHT)
        tenants = [
            TenantGroup(
                name,
                FleetSimulator(
                    [_factory(seed, fast)(0)],
                    ClosedLoopTraffic(6),
                    LeastLoadedRouter(),
                    source,
                    fast=fast,
                ),
                PROFILE.name,
            )
            for name, seed in (("a", 1), ("b", 2))
        ]
        inventory = ClusterInventory(capacity={PROFILE.gpu.name: 2})
        return ClusterSimulator(tenants, inventory, fast=fast).run(
            duration_s=10.0, keep_samples=True
        )

    fast, oracle = run(True), run(False)
    for name in ("a", "b"):
        np.testing.assert_equal(
            _outcome(fast.results[name]), _outcome(oracle.results[name])
        )
