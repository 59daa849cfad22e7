"""Host-time benchmark of the simulator and the LLM-Pilot pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload closed-decode --seed 0 --seconds 30 --trace 0

Each invocation of the workload runs in a fresh single-threaded
interpreter (``perfbench/worker.py``), so set-up time includes the
program's own imports. Invocations repeat until ``--seconds`` is spent
(at least three, or two traced pairs) and every metric is the median
over them.

Host times are CPU seconds scaled to a host of fixed speed
(``calibrate.py``): each invocation times a fixed reference computation
before set-up, between set-up and the run, after the run and at the end,
and each part of the invocation is divided by the slowdown the two
references around it show. This removes the slow and fast regimes of a
shared machine, which last longer than a run; the unscaled medians are
reported as the ``host.raw_*`` per-layer metrics.

``--trace 0`` reports the end-to-end metrics listed in
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
invocations and reports the per-layer metrics from the traced ones,
memory and the ``host.*`` metrics from the untraced ones, and
``trace.overhead_s`` as the difference of their median total times.

Every invocation must reproduce the first one's simulated outcome
exactly, traced or not; at the default seed that outcome must also
equal ``perfbench/expected.json``. A failed check prints the reason to
stderr and the result line with ``"correct": false``, and the exit code
is 1. The last line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
# The whole run must end within three minutes, hung invocations included.
DEADLINE_S = 170.0
MIN_INVOCATIONS = 3
MIN_TRACED_PAIRS = 2


class CheckFailed(Exception):
    pass


class WorkerFailed(CheckFailed):
    pass


def invoke(workload: str, seed: int, trace: int, timeout: float) -> dict:
    """One worker process; its JSON result line."""
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(
        [*cmd, "--trace", str(trace)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise WorkerFailed(
            f"worker exited {proc.returncode} (trace={trace}):\n{proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outcome(workload: str, seed: int, runs: list[dict]) -> None:
    first = runs[0]["outcome"]
    for i, run in enumerate(runs[1:], 1):
        if run["outcome"] != first:
            raise CheckFailed(
                f"invocation {i} (traced={run['layers'] is not None}) did not "
                f"reproduce invocation 0's outcome:\n{run['outcome']}\n!= {first}"
            )
    if seed == workloads.DEFAULT_SEED:
        with open(os.path.join(HERE, "expected.json")) as fh:
            expected = json.load(fh)[workload]
        if first != expected:
            raise CheckFailed(
                f"outcome at the default seed differs from expected.json:\n"
                f"{first}\n!= {expected}"
            )


def slowdowns(e2e: dict) -> dict[str, float]:
    """How many times slower than nominal the host ran each part of one
    invocation: set-up, run, and the rest (collect and outputs)."""
    before, between, after_run, end = e2e["reference_s"]
    return {
        "setup": calibrate.slowdown(before, between, calibrate.SETUP_SHARE),
        "run": calibrate.slowdown(between, after_run, calibrate.RUN_SHARE),
        "rest": calibrate.slowdown(after_run, end, calibrate.RUN_SHARE),
    }


def scaled(e2e: dict) -> dict[str, float]:
    """One invocation's set-up, run and total times at the nominal speed."""
    slow = slowdowns(e2e)
    setup_s = e2e["setup_s"] / slow["setup"]
    run_s = e2e["run_s"] / slow["run"]
    rest_s = (e2e["total_s"] - e2e["setup_s"] - e2e["run_s"]) / slow["rest"]
    return {"setup_s": setup_s, "run_s": run_s, "total_s": setup_s + run_s + rest_s}


def end_to_end(runs: list[dict]) -> dict[str, float]:
    times = [scaled(r["e2e"]) for r in runs]

    def med(fn):
        return statistics.median(fn(t, r["e2e"]) for t, r in zip(times, runs))

    return {
        "setup_s": med(lambda t, e: t["setup_s"]),
        "total_s": med(lambda t, e: t["total_s"]),
        "run_s": med(lambda t, e: t["run_s"]),
        "sim_tokens_per_s": med(lambda t, e: e["tokens"] / t["run_s"]),
        "peak_rss_mb": med(lambda t, e: e["peak_rss_mb"]),
        "bytes_per_token": med(lambda t, e: e["rss_growth_mb"] * 1e6 / e["tokens"]),
    }


def scaled_layers(run: dict, units: dict[str, str]) -> dict[str, float]:
    """A traced invocation's per-layer metrics, times at the nominal speed.

    Set-up, collect and output phases take their part's slowdown, the
    residual (spread over the whole invocation) the total's, and every
    other layer the run's.
    """
    e2e = run["e2e"]
    slow = slowdowns(e2e)
    slow["whole"] = e2e["total_s"] / scaled(e2e)["total_s"]
    out = {}
    for name, value in run["layers"].items():
        part = "run"
        if name.startswith("setup."):
            part = "setup"
        elif name.startswith(("collect.", "output.")):
            part = "rest"
        elif name == "trace.residual_s":
            part = "whole"
        unit = units[name]
        if unit in ("s", "ms", "us"):
            value /= slow[part]
        elif unit == "1/s":
            value *= slow[part]
        out[name] = value
    return out


def per_layer(
    plain: list[dict], traced: list[dict], units: dict[str, str]
) -> dict[str, float]:
    layers = [scaled_layers(r, units) for r in traced]
    out = {name: statistics.median(r[name] for r in layers) for name in layers[0]}

    def med(fn, runs=plain):
        return statistics.median(fn(r["e2e"]) for r in runs)

    out["memory.rss_start_mb"] = med(lambda e: e["rss_start_mb"])
    out["memory.rss_growth_mb"] = med(lambda e: e["rss_growth_mb"])
    out["trace.overhead_s"] = med(lambda e: scaled(e)["total_s"], traced) - med(
        lambda e: scaled(e)["total_s"]
    )
    out["host.reference_s"] = med(lambda e: statistics.median(e["reference_s"]))
    out["host.raw_setup_s"] = med(lambda e: e["setup_s"])
    out["host.raw_run_s"] = med(lambda e: e["run_s"])
    out["host.raw_total_s"] = med(lambda e: e["total_s"])
    return out


def measure(workload, seed, seconds, trace, deadline, plain, traced) -> None:
    """Repeat invocations into ``plain``/``traced`` until ``seconds`` would
    be exceeded."""
    start = time.perf_counter()
    while True:
        plain.append(invoke(workload, seed, 0, deadline - time.perf_counter()))
        if trace:
            traced.append(invoke(workload, seed, 1, deadline - time.perf_counter()))
        rounds = len(plain)
        elapsed = time.perf_counter() - start
        enough = rounds >= (MIN_TRACED_PAIRS if trace else MIN_INVOCATIONS)
        if enough and elapsed + elapsed / rounds > seconds:
            return


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        catalog = json.load(fh)
    units = {m["name"]: m["unit"] for m in catalog["end_to_end"] + catalog["per_layer"]}
    wanted = [m["name"] for m in catalog["per_layer" if args.trace else "end_to_end"]]
    # Byte-compile once so no timed invocation pays for it: users of an
    # installed program do not compile on every run.
    compileall.compile_dir(src, quiet=1)

    plain: list[dict] = []
    traced: list[dict] = []
    metrics: dict[str, float] = {}
    try:
        measure(args.workload, args.seed, args.seconds, args.trace, deadline, plain, traced)
        check_outcome(args.workload, args.seed, plain + traced)
        metrics = per_layer(plain, traced, units) if args.trace else end_to_end(plain)
        missing = set(wanted) - set(metrics)
        if missing:
            raise CheckFailed(f"metrics not measured: {sorted(missing)}")
        failed, attempted_extra = 0, False
    except (CheckFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        failed = 1
        # The invocation that failed or timed out is not in the lists.
        attempted_extra = isinstance(exc, (WorkerFailed, subprocess.TimeoutExpired))
    attempted = len(plain) + len(traced) + attempted_extra

    for name in wanted:
        if name in metrics:
            print(f"{args.workload:>16}  {name:<36} {metrics[name]:>16.6g} {units[name]}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in wanted
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
