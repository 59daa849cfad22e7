"""The benchmark's four workloads: inputs from a seed, outcomes, guards.

Every input is made here from ``--seed`` with the standard library only,
so that nothing of numpy or of the program is imported before the
worker starts its set-up clock. The trace collection the request
generator is fitted to is the same for every seed (``TRACE_SEED``).
The simulation workloads are scenario mappings that the worker hands to
``ScenarioSpec.from_dict``; the pilot workload is the paper's
characterize-then-recommend pipeline.

``outcome`` functions reduce a run to the simulated results that must
repeat exactly for one seed (and equal ``expected.json`` at the default
seed). ``guards`` return the reasons a run no longer exercises the
layer its workload exists for; an empty list means the run is valid.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

# closed-decode: large batches and long outputs put the host time in the
# decode step and the ITL buffers; routing happens only at t=0 (sticky
# users) and there are no control events.
CLOSED_USERS = 6144


def closed_decode(seed: int) -> dict:
    return {
        "name": "closed-decode",
        "seed": seed,
        "duration_s": 30.0,
        "llm": "Llama-2-13b",
        "profile": "1xA100-40GB",
        "pods": 96,
        "max_batch_weight": 120_000,
        "traffic": {"kind": "closed", "users": CLOSED_USERS, "sticky": True},
        "router": "round-robin",
    }


# open-route: many short requests arriving on a schedule (open loop in
# virtual time) over many pods, so the O(pods) join-shortest-queue scan
# and the admission check run once per arrival while batches stay small.
OPEN_RATE_PER_S = 600.0
OPEN_DURATION_S = 20.0


def open_route(seed: int) -> dict:
    rng = random.Random(seed)
    rows, t = [], 0.0
    while True:
        t += rng.expovariate(OPEN_RATE_PER_S)
        if t >= OPEN_DURATION_S:
            break
        rows.append([t, rng.randint(64, 1024), rng.randint(4, 48), 1])
    return {
        "name": "open-route",
        "seed": seed,
        "duration_s": OPEN_DURATION_S,
        "llm": "Llama-2-7b",
        "profile": "1xA10-24GB",
        "pods": 128,
        "traffic": {"kind": "replay", "arrivals": rows},
        "router": "join-shortest-queue",
        # An SLO well above the run's tail keeps every arrival admitted,
        # so the admission check runs on each one without shedding.
        "admission": {"mode": "shed", "slo_ttft_ms": 5000.0},
    }


# elastic-cluster: sixteen tenants contend for 56 A10 GPUs under three
# traffic shapes and three autoscaling policies, with a zone outage, a
# zone slowdown and a spot cloud tier. The inventory is sized so that
# some scale-ups are denied or clipped even after bursting. Sixteen
# tenants rather than eight halve the seed-to-seed variance of the
# simulated tokens, which the bursty tenants and shedding dominate.
ELASTIC_DURATION_S = 100.0
ELASTIC_TENANTS = 16
ELASTIC_GPUS = 56
_SHAPES = (
    {"kind": "diurnal", "rate_per_s": 3.0, "amplitude": 0.8, "period_s": 120.0},
    {
        "kind": "bursty",
        "rate_per_s": 5.0,
        "off_rate_per_s": 0.5,
        "mean_on_s": 10.0,
        "mean_off_s": 20.0,
    },
    {"kind": "poisson", "rate_per_s": 2.0},
)
_POLICIES = (
    {"policy": "threshold"},
    {"policy": "predictive", "requests_per_pod_per_s": 1.0},
    {"policy": "target-utilization", "target": 0.5},
)


def elastic_cluster(seed: int) -> dict:
    tenants = []
    for i in range(ELASTIC_TENANTS):
        autoscaler = {
            **_POLICIES[i % 3],
            "min_pods": 2,
            "max_pods": 10,
            "interval_s": 10.0,
            "cold_start_s": 8.0,
        }
        tenant = {
            "name": f"tenant-{i}",
            "pods": 3,
            "traffic": dict(_SHAPES[i % 3]),
            "autoscaler": autoscaler,
        }
        if i % 2 == 0:
            tenant["admission"] = {"mode": "shed", "slo_ttft_ms": 8000.0}
        tenants.append(tenant)
    d = ELASTIC_DURATION_S
    return {
        "name": "elastic-cluster",
        "seed": seed,
        "duration_s": d,
        "llm": "Llama-2-7b",
        "profile": "1xA10-24GB",
        "capacity": {"A10-24GB": ELASTIC_GPUS},
        "router": "least-loaded",
        "slo_ttft_ms": 6000.0,
        "faults": {
            "zones": 2,
            "events": [
                {
                    "kind": "slowdown",
                    "time_s": 0.2 * d,
                    "zone": "zone-0",
                    "duration_s": 30.0,
                    "factor": 2.0,
                },
                {
                    "kind": "zone-outage",
                    "time_s": 0.4 * d,
                    "zone": "zone-1",
                    "mode": "requeue",
                    "restart_delay_s": 20.0,
                },
            ],
        },
        "cloud": {"mode": "spot", "max_cloud_pods": 3, "spot_interruptions_per_hour": 6.0},
        "tenants": tenants,
    }


# pilot-recommend: characterize four catalog LLMs on every GPU profile,
# fit LLM-Pilot's model with the last LLM held out, recommend for it.
PILOT_LLMS = ("Llama-2-7b", "ibm/mpt-7b-instruct2", "google/flan-t5-xxl", "Llama-2-13b")
PILOT_DURATION_S = 10.0
PILOT_USERS = 200
PILOT_PAIRS = 4 * 14

# Every workload's request generator is fitted to one synthesized trace
# collection. Its seed is fixed, so --seed varies the request stream and
# not the request-size distribution, which would change the host work
# per simulated token from seed to seed.
TRACE_REQUESTS = 50_000
TRACE_SEED = 0

SIMULATIONS = {
    "closed-decode": closed_decode,
    "open-route": open_route,
    "elastic-cluster": elastic_cluster,
}
NAMES = (*SIMULATIONS, "pilot-recommend")


# ---- outcomes -------------------------------------------------------------


def fleet_outcome(res) -> dict:
    return {
        "arrivals": res.arrivals,
        "shed": res.shed,
        "completed": res.requests_completed,
        "completed_total": res.completed_total,
        "lost": res.lost,
        "tokens": res.tokens_generated,
        "ttft_p50_s": res.ttft.median_s,
        "ttft_p95_s": res.ttft.p95_s,
        "pod_seconds": res.pod_seconds,
    }


def cluster_outcome(res) -> dict:
    out = {"tenants": {}}
    for name in res.tenants:
        out["tenants"][name] = fleet_outcome(res.results[name])
    scale = [e for r in res.results.values() for e in r.scale_events]
    out.update(
        arrivals=res.arrivals_total,
        tokens=sum(r.tokens_generated for r in res.results.values()),
        pod_seconds=res.pod_seconds_total,
        cloud_pod_seconds=sum(r.cloud_pod_seconds for r in res.results.values()),
        fault_events=len(res.fault_events()),
        denied=sum(e.denied for e in scale),
        clipped=sum(e.clipped for e in scale),
    )
    return out


def pilot_outcome(outcome, rec) -> dict:
    return {
        "pairs": len(outcome.feasibility),
        "feasible_pairs": len(outcome.tuned_weights),
        "load_tests": len(outcome.dataset),
        "profile": rec.profile,
        "n_pods": rec.n_pods,
        "total_cost": rec.total_cost,
    }


# ---- exercise guards ------------------------------------------------------


def guards(workload: str, outcome: dict, layers: dict | None) -> list[str]:
    """Why this run stopped exercising its workload's layer, if it did.

    The outcome checks run on every invocation; the span-count checks
    named after the per-layer metrics run on traced invocations.
    """
    bad = []

    def need(ok: bool, why: str) -> None:
        if not ok:
            bad.append(why)

    if workload == "closed-decode":
        need(outcome["arrivals"] > CLOSED_USERS, "no closed-loop follow-ups")
        if layers is not None:
            need(
                layers["route.calls"] == CLOSED_USERS,
                f"route.calls {layers['route.calls']} != {CLOSED_USERS} users",
            )
    elif workload == "open-route":
        need(
            outcome["arrivals"] >= 0.9 * OPEN_RATE_PER_S * OPEN_DURATION_S,
            "too few open-loop arrivals",
        )
        if layers is not None:
            need(
                layers["route.calls"] >= layers["traffic.arrivals"] > 0,
                "route.calls < traffic.arrivals",
            )
            need(layers["admission.calls"] > 0, "admission never consulted")
    elif workload == "elastic-cluster":
        need(outcome["fault_events"] > 0, "no fault fired")
        need(outcome["cloud_pod_seconds"] > 0, "no cloud rental")
        need(outcome["denied"] + outcome["clipped"] > 0, "no contended scale-up")
        if layers is not None:
            need(layers["fault.ticks"] > 0, "fault.ticks == 0")
            need(layers["cloud.rentals"] > 0, "cloud.rentals == 0")
            need(
                layers["autoscale.denied"] + layers["autoscale.clipped"] > 0,
                "autoscale.denied + autoscale.clipped == 0",
            )
    else:
        need(outcome["pairs"] == PILOT_PAIRS, f"{outcome['pairs']} pairs, not {PILOT_PAIRS}")
        need(outcome["profile"] is not None, "no feasible recommendation")
        if layers is not None:
            need(
                layers["characterization.pairs"] == PILOT_PAIRS,
                "characterize_pair not called once per pair",
            )
    return bad
