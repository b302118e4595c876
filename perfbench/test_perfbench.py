"""Tests of the benchmark's own machinery.

Run with::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
from metrics import METRIC_NAME, UNIT_NAME, beyond_count, tail_percentile, tail_value  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


# ---------------------------------------------------------------------- #
# The >= 10 samples beyond rule
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None)],
)
def test_tail_percentile_is_highest_rung_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert beyond_count(n, expected) >= 10


def test_tail_value_leaves_ten_samples_above_it():
    rng = np.random.default_rng(0)
    for n in range(20, 2500, 37):
        values = rng.permutation(n).astype(float)  # distinct values
        percentile, value = tail_value(values)
        assert (values > value).sum() >= 10
        higher = [p for p in (99.0, 95.0, 90.0, 75.0) if p > percentile]
        assert all(beyond_count(n, p) < 10 for p in higher)


def test_tail_value_falls_back_to_maximum_for_short_samples():
    assert tail_value([3.0, 1.0, 2.0]) == (100.0, 3.0)


# ---------------------------------------------------------------------- #
# Self-time arithmetic
# ---------------------------------------------------------------------- #
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Toy:
    clock: FakeClock

    def outer(self):
        self.clock.now += 2.0
        self.inner()
        self.clock.now += 1.0
        self.inner()
        self.clock.now += 4.0

    def inner(self):
        self.clock.now += 3.0

    def recursive(self, depth):
        self.clock.now += 1.0
        if depth:
            self.recursive(depth - 1)

    def boom(self):
        self.clock.now += 5.0
        raise ValueError("boom")


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    Toy.clock = clock
    with Tracer(clock=clock) as tracer:
        tracer.wrap_method(Toy, "outer", "outer")
        tracer.wrap_method(Toy, "inner", "inner")
        with tracer.span("phase"):
            clock.now += 0.5
            Toy().outer()
    assert tracer.total_s("phase") == pytest.approx(13.5)
    assert tracer.self_s("phase") == pytest.approx(0.5)
    assert tracer.total_s("outer") == pytest.approx(13.0)
    assert tracer.self_s("outer") == pytest.approx(7.0)
    assert tracer.self_s("inner") == pytest.approx(6.0)
    assert tracer.calls("inner") == 2
    # Self times partition the outermost span.
    assert sum(stats.self_s for stats in tracer.stats.values()) == pytest.approx(13.5)


def test_reentrant_span_counts_one_call_and_no_double_time():
    clock = FakeClock()
    Toy.clock = clock
    with Tracer(clock=clock) as tracer:
        tracer.wrap_method(Toy, "recursive", "rec")
        Toy().recursive(3)
    assert tracer.calls("rec") == 1
    assert tracer.total_s("rec") == pytest.approx(4.0)
    assert tracer.self_s("rec") == pytest.approx(4.0)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    Toy.clock = clock
    with Tracer(clock=clock) as tracer:
        tracer.wrap_method(Toy, "boom", "boom")
        with pytest.raises(ValueError):
            with tracer.span("phase"):
                Toy().boom()
    assert tracer.self_s("boom") == pytest.approx(5.0)
    assert tracer.self_s("phase") == pytest.approx(0.0)
    assert not tracer.inside("phase")


# ---------------------------------------------------------------------- #
# Metric names
# ---------------------------------------------------------------------- #
def test_metric_names_and_units_fit_the_charset():
    names = list(run.E2E_UNITS) + list(run.PER_LAYER_NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.match(name), name
    for unit in set(run.E2E_UNITS.values()) | {run.layer_unit(name) for name in run.PER_LAYER_NAMES}:
        assert UNIT_NAME.match(unit), unit


def test_benchmark_json_lists_exactly_what_the_run_prints():
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    end_to_end = {entry["name"]: entry for entry in spec["end_to_end"]}
    assert list(end_to_end) == list(run.E2E_UNITS)
    for name, unit in run.E2E_UNITS.items():
        assert end_to_end[name]["unit"] == unit
    per_layer = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    assert per_layer == {name: run.layer_unit(name) for name in run.PER_LAYER_NAMES}
    assert {entry["name"] for entry in spec["workloads"]} == set(run.SCENARIOS)


# ---------------------------------------------------------------------- #
# Wrappers are removed again
# ---------------------------------------------------------------------- #
def _binding(owner, attr):
    return vars(owner)[attr]


def test_every_wrapped_function_is_restored():
    tracer = Tracer()
    run.Recorder().install(tracer)
    layers.install(tracer)
    # The first patch of an attribute saw the program's own function.
    originals = {}
    for owner, attr, original in tracer._patches:
        originals.setdefault((owner, attr), original)
    assert len(originals) > 40
    assert all(_binding(owner, attr) is not original for (owner, attr), original in originals.items())
    tracer.restore()
    assert tracer.installed == 0
    for (owner, attr), original in originals.items():
        assert _binding(owner, attr) is original, f"{owner!r}.{attr} was not restored"


def test_function_wrapper_rebinds_every_importing_module():
    from repro.core import bqsched, env

    original = env.drive_service
    with Tracer() as tracer:
        tracer.wrap_function(original, "runtime.drive")
        assert env.drive_service is not original
        assert bqsched.drive_service is env.drive_service
    assert env.drive_service is original
    assert bqsched.drive_service is original


# ---------------------------------------------------------------------- #
# Best-of-replays timing
# ---------------------------------------------------------------------- #
def test_best_of_takes_each_decisions_fastest_replay():
    assert run.best_of([[3.0, 1.0, 2.0], [1.0, 4.0, 2.5], [2.0, 2.0, 0.5]]) == [1.0, 1.0, 0.5]
