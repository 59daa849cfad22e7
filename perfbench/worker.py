"""One benchmark invocation in a fresh interpreter.

Usage (from the repository root; ``run.py`` is the entry point that
repeats this and aggregates)::

    python3 perfbench/worker.py --workload closed-decode --seed 0 --trace 0

Builds the workload's inputs from the seed, then times the program from
``import repro.cli`` to the written JSON and HTML outputs, checks the
simulated outcomes, and prints one JSON object as its last line:
``outcome`` (simulated results), ``e2e`` (host times, memory, simulated
tokens) and, with ``--trace 1``, ``layers`` (the per-layer split from
spans). It exits 1 when an output check or an exercise guard fails.

Every host time is CPU time of this single-threaded process (user plus
system, ``time.process_time``): what the simulator costs to run, without
the time the process waited while other processes on a shared machine
held the CPU. ``e2e["reference_s"]`` holds the four timings of the
fixed reference work (``calibrate.py``) taken before set-up, between
set-up and the run, after the run and after the outputs, none of them
inside any reported time; ``run.py`` scales the times by them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

clock = time.process_time


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Phase:
    """Times named blocks; with a tracer each block is also a span."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.times: dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        token = None if self.tracer is None else self.tracer.begin(name)
        start = clock()
        try:
            yield
        finally:
            self.times[name] = clock() - start
            if token is not None:
                self.tracer.end(token, name)


# ---- instrumentation (traced invocations only) -----------------------------


class EngineProbe:
    """Per-step engine observations gathered by the traced ``step``.

    Holds no engine references, so the load tests' engines are freed as
    they would be untraced.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.tokens = 0
        self.busy_s = 0.0
        self.clock_s = 0.0  # simulated time from each engine's first step to its last
        self.decode_batch = 0
        self.queue_depth = 0

    def wrap(self, engine):
        """Trace ``engine.step``; classify each step from the stats delta."""
        step = engine.step
        begin, end = self.tracer.begin, self.tracer.end
        last_clock = [None]

        def traced_step():
            stats = engine.stats
            prefills, decodes = stats.prefill_steps, stats.decode_steps
            tokens, busy = stats.tokens_generated, stats.busy_time_s
            batch, queue = engine.active_requests, engine.queue_depth
            if last_clock[0] is None:
                last_clock[0] = engine.time
            token = begin("engine.step")
            try:
                out = step()
            finally:
                if stats.prefill_steps != prefills:
                    name = "engine.prefill"
                elif stats.decode_steps != decodes:
                    name = "engine.decode"
                    self.decode_batch += batch
                else:
                    name = "engine.idle"
                end(token, name)
            self.tokens += stats.tokens_generated - tokens
            self.busy_s += stats.busy_time_s - busy
            self.clock_s += engine.time - last_clock[0]
            last_clock[0] = engine.time
            self.queue_depth += queue
            return out

        engine.step = traced_step
        return engine


def instrument_fleet(tracer: Tracer, probe: EngineProbe, fleet) -> None:
    """Trace one fleet's layer boundaries, including pods minted mid-run."""
    counts = tracer.counts

    def arrivals(n):
        counts["traffic.arrivals"] += n

    def admitted(decision):
        counts["admission.shed"] += decision == "shed"

    traffic = fleet.traffic
    tracer.wrap(traffic, "initial_arrivals", "traffic.initial_arrivals", lambda r: arrivals(len(r)))
    tracer.wrap(traffic, "pop", "traffic.pop", lambda r: arrivals(1))
    tracer.wrap(traffic, "on_complete", "traffic.on_complete", lambda r: arrivals(r is not None))
    tracer.wrap(fleet.router, "route", "route.route")
    if hasattr(fleet.router, "admit"):
        tracer.wrap(fleet.router, "admit", "admission.admit", admitted)
    tracer.wrap(fleet, "step_pod", "loop.step_pod")
    tracer.wrap(fleet, "autoscale_tick", "autoscale.tick")
    tracer.wrap(fleet, "fault_tick", "fault.tick")
    tracer.wrap(fleet, "collect", "collect.collect")
    for pod in fleet.pods:
        probe.wrap(pod)
    if fleet.pod_factory is not None:
        factory = fleet.pod_factory
        fleet.pod_factory = lambda serial: probe.wrap(factory(serial))


def instrument_pilot(tracer: Tracer, probe: EngineProbe) -> None:
    """Trace the single-pod fleets the load tests build for themselves."""
    from repro.characterization import loadtest

    fleet_cls = loadtest.FleetSimulator

    def fleet(*args, **kwargs):
        sim = fleet_cls(*args, **kwargs)
        instrument_fleet(tracer, probe, sim)
        tracer.wrap(sim, "run", "loop.run")
        return sim

    loadtest.FleetSimulator = fleet


# ---- the workloads ----------------------------------------------------------


def e2e(setup_s, total_s, run_s, tokens, rss_start, rss_end) -> dict:
    """The raw end-to-end measurements ``run.py`` takes medians of."""
    return {
        "setup_s": setup_s,
        "total_s": total_s,
        "run_s": run_s,
        "tokens": tokens,
        "rss_start_mb": rss_start,
        "rss_growth_mb": rss_end - rss_start,
        "peak_rss_mb": peak_rss_mb(),
    }


def fit_generator(phase: Phase):
    """The request generator, fitted to the fixed trace collection."""
    from repro.traces import TraceConfig, TraceSynthesizer
    from repro.workload.generator import WorkloadGenerator

    with phase("setup.traces"):
        traces = TraceSynthesizer(
            config=TraceConfig(n_requests=workloads.TRACE_REQUESTS),
            seed=workloads.TRACE_SEED,
        ).generate()
    with phase("setup.fit"):
        return WorkloadGenerator.fit(traces)


def run_simulation(
    name: str, seed: int, tracer: Tracer | None, phase: Phase, reference: list[float]
) -> dict:
    spec_dict = workloads.SIMULATIONS[name](seed)
    t0 = clock()
    with phase("setup.import"):
        import repro.cli  # noqa: F401  (the CLI's import cost is part of set-up)
        from repro.report import render_report
        from repro.simulation.scenario import ScenarioSpec
    with phase("setup.spec"):
        spec = ScenarioSpec.from_dict(spec_dict)
    generator = fit_generator(phase)
    with phase("setup.build"):
        sim = spec.build_cluster(generator) if spec.is_cluster else spec.build_fleet(generator)
    probe = None
    if tracer is not None:
        probe = EngineProbe(tracer)
        for fleet in [g.fleet for g in sim.tenants] if spec.is_cluster else [sim]:
            instrument_fleet(tracer, probe, fleet)
        if spec.is_cluster:
            tracer.wrap(sim.inventory, "allocate", "cluster.allocate")
            tracer.wrap(sim.inventory, "release", "cluster.release")
    setup_s = clock() - t0
    reference.append(calibrate.reference())
    t1 = clock()

    rss_start = rss_mb()
    with phase("loop.run"):
        if spec.is_cluster:
            result = sim.run(spec.duration_s, spec.warmup_s, keep_samples=True)
        else:
            sim.run(spec.duration_s, spec.warmup_s, keep_samples=True, assemble_result=False)
    run_s = phase.times["loop.run"]
    rss_end = rss_mb()
    run_end = clock()
    reference.append(calibrate.reference())
    t2 = clock()
    if not spec.is_cluster:
        # Traced, the wrapped collect records itself (a cluster's run
        # calls each tenant's collect).
        result = sim.collect(spec.duration_s, spec.warmup_s, keep_samples=True)
    result.verify()

    with phase("output.to_dict"):
        payload = result.to_dict()
    with phase("output.json"):
        with open(os.path.join(OUT_DIR, f"{name}.json"), "w") as fh:
            json.dump(payload, fh)
    with phase("output.report"):
        with open(os.path.join(OUT_DIR, f"{name}.html"), "w") as fh:
            fh.write(render_report(payload))
    total_s = setup_s + run_end - t1 + clock() - t2

    if spec.is_cluster:
        outcome = workloads.cluster_outcome(result)
        fleets = list(result.results.values())
    else:
        outcome = workloads.fleet_outcome(result)
        fleets = [result]
    return {
        "outcome": outcome,
        "e2e": e2e(setup_s, total_s, run_s, outcome["tokens"], rss_start, rss_end),
        "fleets": fleets,
        "cloud_events": getattr(result, "cloud_events", []),
        "probe": probe,
    }


def run_pilot(
    seed: int, tracer: Tracer | None, phase: Phase, reference: list[float]
) -> dict:
    t0 = clock()
    with phase("setup.import"):
        import repro.cli  # noqa: F401  (the CLI's import cost is part of set-up)
        from repro.characterization import (
            CharacterizationConfig,
            CharacterizationTool,
            runner,
        )
        from repro.hardware import aws_like_pricing, default_profiles
        from repro.models import LLM_CATALOG, get_llm
        from repro.recommendation import GPURecommendationTool, LatencyConstraints
        from repro.recommendation.pilot import LLMPilotRecommender
    probe = None
    if tracer is not None:
        probe = EngineProbe(tracer)
        instrument_pilot(tracer, probe)
    with phase("setup.spec"):
        llms = [get_llm(name) for name in workloads.PILOT_LLMS]
        held_out = llms[-1]
        profiles = default_profiles()
        config = CharacterizationConfig(duration_s=workloads.PILOT_DURATION_S, seed=seed)
        constraints = LatencyConstraints(nttft_s=0.100, itl_s=0.050)
    generator = fit_generator(phase)
    with phase("setup.build"):
        tool = CharacterizationTool(generator, config)
    # The load tests return their exact token counts; the dataset keeps
    # only noisy throughputs, so count at the call boundary.
    tokens = [0]
    load_test = runner.run_load_test
    if tracer is not None:
        load_test = tracer.traced(load_test, "characterization.load_test")

    def counted_load_test(*args, **kwargs):
        if tracer is not None:
            tracer.run += 1  # each load test is its own simulation run
        out = load_test(*args, **kwargs)
        tokens[0] += out.tokens_generated
        return out

    runner.run_load_test = counted_load_test
    if tracer is not None:
        tracer.wrap(tool, "characterize_pair", "characterization.pair")
    setup_s = clock() - t0
    reference.append(calibrate.reference())
    t1 = clock()

    rss_start = rss_mb()
    with phase("characterization.run"):
        outcome = tool.run(llms, profiles)
    run_s = phase.times["characterization.run"]
    rss_end = rss_mb()
    run_end = clock()
    reference.append(calibrate.reference())
    t2 = clock()
    if tracer is not None:
        tracer.run = 0

    pilot = LLMPilotRecommender(constraints=constraints)
    if tracer is not None:
        tracer.wrap(pilot, "fit", "ml.fit")
    pilot.fit(outcome.dataset.exclude_llm(held_out.name), dict(LLM_CATALOG))
    recommender = GPURecommendationTool(
        perf_model=pilot.model_,
        pricing=aws_like_pricing(),
        constraints=constraints,
        max_request_weight=generator.max_request_weight(),
    )
    if tracer is not None:
        tracer.wrap(recommender, "recommend", "recommendation.recommend")
    rec = recommender.recommend(held_out, profiles, total_users=workloads.PILOT_USERS)

    with phase("output.to_dict"):
        payload = {
            "recommendation": {
                "llm": held_out.name,
                "profile": rec.profile,
                "n_pods": rec.n_pods,
                "total_cost": rec.total_cost,
                "assessments": [vars(a) for a in rec.assessments],
            },
            "dataset": [vars(r) for r in outcome.dataset],
        }
    with phase("output.json"):
        with open(os.path.join(OUT_DIR, "pilot-recommend.json"), "w") as fh:
            json.dump(payload, fh, default=float)
    total_s = setup_s + run_end - t1 + clock() - t2

    return {
        "outcome": workloads.pilot_outcome(outcome, rec),
        "e2e": e2e(setup_s, total_s, run_s, tokens[0], rss_start, rss_end),
        "fleets": [],
        "cloud_events": [],
        "probe": probe,
    }


# ---- per-layer metrics -------------------------------------------------------


def layer_metrics(tracer: Tracer, run: dict) -> dict[str, float]:
    spans = tracer.by_name()
    counts = tracer.counts

    def calls(*names):
        return sum(len(spans[n]["durations"]) for n in names if n in spans)

    def host(*names):
        return sum(sum(spans[n]["durations"]) for n in names if n in spans)

    def self_s(*names):
        return sum(spans[n]["self_s"] for n in names if n in spans)

    def durations(*names):
        return [d for n in names if n in spans for d in spans[n]["durations"]]

    def ratio(num, den):
        return num / den if den else 0.0

    probe = run["probe"]
    fleets = run["fleets"]
    scale = [e for f in fleets for e in f.scale_events]
    ups = [e for e in scale if e.direction == "up"]
    asked = sum((e.to_pods if e.requested is None else e.requested) - e.from_pods for e in ups)
    granted = sum(e.to_pods - e.from_pods for e in ups)
    traffic = ("traffic.initial_arrivals", "traffic.pop", "traffic.on_complete")
    engine = ("engine.prefill", "engine.decode", "engine.idle")
    steps = calls(*engine)
    events = calls("loop.step_pod")
    out = {
        "setup.import_s": host("setup.import"),
        "setup.spec_s": host("setup.spec"),
        "setup.traces_s": host("setup.traces"),
        "setup.fit_s": host("setup.fit"),
        "setup.build_s": host("setup.build"),
        "traffic.calls": calls(*traffic),
        "traffic.arrivals": counts["traffic.arrivals"],
        "traffic.host_s": host(*traffic),
        "route.calls": calls("route.route"),
        "route.host_s": host("route.route"),
        "route.us_p50": quantile(durations("route.route"), 0.50) * 1e6,
        "route.us_p99": quantile(durations("route.route"), 0.99) * 1e6,
        "admission.calls": calls("admission.admit"),
        "admission.shed_ratio": ratio(counts["admission.shed"], calls("admission.admit")),
        "admission.host_s": host("admission.admit"),
        "engine.steps": steps,
        "engine.prefill_steps": calls("engine.prefill"),
        "engine.decode_steps": calls("engine.decode"),
        "engine.prefill_host_s": host("engine.prefill"),
        "engine.decode_host_s": host("engine.decode"),
        "engine.step_us_p50": quantile(durations(*engine), 0.50) * 1e6,
        "engine.step_us_p99": quantile(durations(*engine), 0.99) * 1e6,
        "engine.tokens_per_step": ratio(probe.tokens, steps),
        "engine.batch_mean": ratio(probe.decode_batch, calls("engine.decode")),
        "engine.queue_depth_mean": ratio(probe.queue_depth, steps),
        "engine.busy_frac": ratio(probe.busy_s, probe.clock_s),
        "loop.events": events,
        "loop.events_per_s": ratio(events, host("loop.run")),
        "loop.self_s": self_s("loop.run"),
        "step_pod.self_s": self_s("loop.step_pod"),
        "autoscale.ticks": calls("autoscale.tick"),
        "autoscale.host_s": host("autoscale.tick"),
        "autoscale.scale_events": len(scale),
        "autoscale.denied": sum(e.denied for e in scale),
        "autoscale.clipped": sum(e.clipped for e in scale),
        "fault.ticks": calls("fault.tick"),
        "fault.host_s": host("fault.tick"),
        "fault.lost": sum(f.lost for f in fleets),
        "fault.requeued": sum(f.requeued for f in fleets),
        "cluster.allocate_calls": calls("cluster.allocate"),
        "cluster.release_calls": calls("cluster.release"),
        "cluster.grant_ratio": ratio(granted, asked),
        "cluster.self_s": self_s("cluster.allocate", "cluster.release"),
        "cloud.rentals": sum(1 for e in run["cloud_events"] if e.delta > 0),
        "cloud.pod_seconds": sum(f.cloud_pod_seconds for f in fleets),
        "collect.host_s": host("collect.collect"),
        "output.to_dict_s": host("output.to_dict"),
        "output.json_s": host("output.json"),
        "output.report_s": host("output.report"),
        "characterization.pairs": calls("characterization.pair"),
        "characterization.load_tests": calls("characterization.load_test"),
        "characterization.host_s": host("characterization.run"),
        "characterization.load_test_ms_p50": quantile(
            durations("characterization.load_test"), 0.50
        )
        * 1e3,
        "characterization.load_test_ms_p99": quantile(
            durations("characterization.load_test"), 0.99
        )
        * 1e3,
        "ml.fit_s": host("ml.fit"),
        "recommendation.recommend_s": host("recommendation.recommend"),
        "trace.spans": len(tracer),
    }
    # Every span's self time plus the time outside any span accounts for
    # the whole invocation; a negative residual means overlapping spans.
    residual = run["e2e"]["total_s"] - sum(v["self_s"] for v in spans.values())
    if residual < -1e-6:
        raise RuntimeError(f"spans overlap: residual {residual:.6f} s")
    out["trace.residual_s"] = residual
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer() if args.trace else None
    phase = Phase(tracer)
    reference = [calibrate.reference()]
    if args.workload == "pilot-recommend":
        run = run_pilot(args.seed, tracer, phase, reference)
    else:
        run = run_simulation(args.workload, args.seed, tracer, phase, reference)
    reference.append(calibrate.reference())
    run["e2e"]["reference_s"] = reference
    layers = layer_metrics(tracer, run) if tracer is not None else None
    failures = workloads.guards(args.workload, run["outcome"], layers)
    if tracer is not None:
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.csv"))
    print(json.dumps({"outcome": run["outcome"], "e2e": run["e2e"], "layers": layers}))
    for why in failures:
        print(f"exercise guard failed on {args.workload}: {why}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
