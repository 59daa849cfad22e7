"""Tests for the open-loop (Poisson arrivals) load-testing mode."""

import numpy as np
import pytest

from repro.characterization import run_open_loop_test
from repro.hardware import parse_profile
from repro.inference import ContinuousBatchingEngine
from repro.models import get_llm
from repro.simulation import BurstyTraffic, DiurnalTraffic, PoissonTraffic

LLM = get_llm("Llama-2-13b")
PROFILE = parse_profile("1xA100-40GB")


def _engine(seed=0):
    return ContinuousBatchingEngine(LLM, PROFILE, max_batch_weight=12_000, seed=seed)


class TestOpenLoop:
    def test_basic_metrics(self, generator):
        res = run_open_loop_test(
            _engine(), generator, arrival_rate_per_s=0.5, duration_s=60.0, seed=1
        )
        assert res.requests_completed > 0
        assert np.isfinite(res.ttft_median_s)
        assert np.isfinite(res.itl_median_s)
        assert res.throughput_tokens_per_s > 0

    def test_arrival_count_matches_rate(self, generator):
        res = run_open_loop_test(
            _engine(), generator, arrival_rate_per_s=1.0, duration_s=120.0, seed=2
        )
        assert 80 <= res.arrivals <= 170
        # The closed-loop population field is no longer overloaded.
        assert res.concurrent_users == 0
        assert res.offered_rate_per_s == 1.0

    def test_underload_no_queueing(self, generator):
        """At a trickle arrival rate the server idles between requests."""
        res = run_open_loop_test(
            _engine(), generator, arrival_rate_per_s=0.05, duration_s=120.0, seed=3
        )
        assert res.queue_depth_end <= 1
        assert res.ttft_median_s < 1.0

    def test_overload_builds_queue(self, generator):
        """Arrivals far beyond capacity accumulate unbounded queueing."""
        res = run_open_loop_test(
            _engine(), generator, arrival_rate_per_s=20.0, duration_s=60.0, seed=4
        )
        assert res.queue_depth_end > 50
        # TTFT blows up relative to the underloaded case.
        calm = run_open_loop_test(
            _engine(seed=9), generator, arrival_rate_per_s=0.1, duration_s=60.0, seed=4
        )
        assert res.ttft_median_s > 5 * calm.ttft_median_s

    def test_reproducible(self, generator):
        a = run_open_loop_test(_engine(5), generator, 0.5, duration_s=30.0, seed=7)
        b = run_open_loop_test(_engine(5), generator, 0.5, duration_s=30.0, seed=7)
        assert a.ttft_median_s == b.ttft_median_s
        assert a.arrivals == b.arrivals

    def test_validation(self, generator):
        with pytest.raises(ValueError):
            run_open_loop_test(_engine(), generator, arrival_rate_per_s=0.0)
        with pytest.raises(ValueError):
            run_open_loop_test(_engine(), generator, 1.0, duration_s=0.0)
        eng = _engine()
        run_open_loop_test(eng, generator, 0.5, duration_s=5.0)
        with pytest.raises(ValueError, match="fresh"):
            run_open_loop_test(eng, generator, 0.5, duration_s=5.0)


class TestArrivalTimeSubmission:
    def test_future_arrival_rejected(self):
        from repro.inference import InferenceRequest

        eng = _engine()
        with pytest.raises(ValueError, match="future"):
            eng.submit(
                InferenceRequest(request_id=0, input_tokens=5, output_tokens=5),
                arrival_time=10.0,
            )

    def test_past_arrival_preserves_ttft(self):
        from repro.inference import InferenceRequest

        eng = _engine()
        eng.submit(InferenceRequest(request_id=0, input_tokens=50, output_tokens=5))
        eng.step()  # prefill; time advances
        t = eng.time
        eng.submit(
            InferenceRequest(request_id=1, input_tokens=50, output_tokens=5),
            arrival_time=t / 2,
        )
        results = []
        while eng.has_work():
            results.extend(eng.step())
        second = next(r for r in results if r.request.request_id == 1)
        assert second.submitted_at == pytest.approx(t / 2)
        assert second.ttft > 0

    def test_advance_to_only_moves_forward(self):
        eng = _engine()
        eng.advance_to(5.0)
        assert eng.time == 5.0
        eng.advance_to(1.0)
        assert eng.time == 5.0


class TestTrafficValidation:
    """Every scheduled-traffic knob is finite and in range, by name: NaN
    passes plain comparisons and an infinite rate or time never ends."""

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda v: PoissonTraffic(v, rng=None), "rate_per_s"),
            (lambda v: DiurnalTraffic(v, rng=None), "base_rate_per_s"),
            (lambda v: DiurnalTraffic(1.0, rng=None, period_s=v), "period_s"),
            (lambda v: DiurnalTraffic(1.0, rng=None, phase_rad=v), "phase_rad"),
            (lambda v: BurstyTraffic(v, rng=None), "on_rate_per_s"),
            (lambda v: BurstyTraffic(1.0, rng=None, off_rate_per_s=v), "off_rate_per_s"),
            (lambda v: BurstyTraffic(1.0, rng=None, mean_on_s=v), "mean_on_s"),
            (lambda v: BurstyTraffic(1.0, rng=None, mean_off_s=v), "mean_off_s"),
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, build, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be .*finite, got {value}"):
            build(value)

    def test_diurnal_nan_amplitude_rejected(self):
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalTraffic(1.0, rng=None, amplitude=float("nan"))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="rate_per_s must be positive"):
            PoissonTraffic(-1.0, rng=None)
