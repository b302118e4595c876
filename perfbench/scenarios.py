"""The benchmark's workloads, what each one runs, and why it was chosen.

Every workload runs the pipeline a user of the scheduler runs --
``BQSched(...)`` construction, ``prepare()`` + ``train()``,
``evaluate_policy()`` and, where the policy can serve, ``serve()`` -- once
per *unit*.  A unit trains a fresh scheduler with one trainer seed.

There are two workloads, each run long enough (``run_seconds`` in
``BENCHMARK.json``) for its host timings to settle on a noisy shared host.
They stress different layers: job-clustered is training-bound (gain fit,
clustering, simulator, PPO), fleet-serve is decision-bound (inference, the
runtime event loop, the control plane).  A third workload, the single-engine
TPC-H quickstart, was dropped to make room for the longer runs: every layer
it exercised runs in one of these two as well.

Quality must not hinge on a single trainer seed: on the TPC-H quickstart the
greedy makespan of one seed ranges from about 6.1 to 10.0 simulated seconds
over seeds 0-29, and any float-order change in training acts like a new seed.  So
every simulated-time metric is aggregated over a fixed number of units
(``quality_units``) with disjoint trainer seeds, chosen so that the
inter-quartile spread of the aggregate across run seeds stays well inside its
bound.  The run seed selects that trainer-seed list and the input rounds:
evaluation round ids (execution noise of the simulated DBMS) and serve round
ids (arrival times).  The query catalogue is the database under test and
stays fixed (catalogue seed 0); changing it moves mean makespan by ~15%,
which is a different input, not noise.

This module imports ``repro`` lazily so that a setup probe can time the
package import itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Scenario", "SCENARIOS", "trainer_seeds", "eval_base_round", "serve_round"]

#: Trainer seeds of run seed ``s`` are ``s * SEED_STRIDE + i``: disjoint
#: across run seeds for any realistic number of units per run.
SEED_STRIDE = 1000


def trainer_seeds(run_seed: int, count: int, start: int = 0) -> list[int]:
    return [run_seed * SEED_STRIDE + i for i in range(start, start + count)]


def eval_base_round(run_seed: int) -> int:
    """First evaluation round id; rounds are far from training's round ids."""
    return 1_000_000 + 100 * run_seed


def serve_round(run_seed: int, index: int) -> int:
    return 2_000_000 + 100 * run_seed + index


@dataclass(frozen=True)
class Scenario:
    """One workload: how to build the scheduler and what a unit runs."""

    name: str
    why: str
    #: Units whose simulated outcomes form the quality metrics.
    quality_units: int
    build: Callable[[int], Any]
    train_kwargs: dict = field(default_factory=dict)
    eval_rounds: int = 3
    #: ``serve(**kwargs)`` calls per unit, kwargs built from
    #: (run seed, unit index, round index within the unit).
    serve_rounds: int = 0
    serve_kwargs: Callable[[int, int, int], dict] | None = None
    #: Runs of each unit's greedy pass; host timings take the fastest
    #: (see HOST_TIMING in ``run.py``).  Cheap passes get more.
    replays: int = 2


# ---------------------------------------------------------------------- #
# job-clustered
# ---------------------------------------------------------------------- #
def _build_job(trainer_seed: int):
    from repro import BQSched, BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload

    workload = make_workload("job", scale_factor=1.0, seed=0)
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
    config = BQSchedConfig.small(seed=trainer_seed)
    config.scheduler.num_connections = 8
    config.clustering.enabled = True
    config.clustering.num_clusters = 8
    return BQSched(workload, engine, config)


JOB_CLUSTERED = Scenario(
    name="job-clustered",
    why=(
        "JOB (33 queries) with scheduling-gain clustering (8 clusters, 8 connections): "
        "per-pair gain SGD dominates prepare() and fine-tuning is small. A cheap stand-in "
        "for TPC-DS at 99 queries; the only workload that runs the gain and clustering "
        "layers, and the one a lazy scipy import moves cost onto."
    ),
    quality_units=5,
    build=_build_job,
    train_kwargs={"num_updates": 4, "pretrain_updates": 4},
    # 5 units x 10 rounds x 33 decisions keeps the sample count above 1,000,
    # so the tail is always the 99th percentile; the rounds are also this
    # workload's serving-side sample, so they get more host time.
    eval_rounds=10,
    # A unit's greedy pass takes ~0.2 s against ~6 s of training (fleet-serve:
    # ~0.8 s against ~1.3 s), so it can afford one more replay.
    replays=3,
)


# ---------------------------------------------------------------------- #
# fleet-serve
# ---------------------------------------------------------------------- #
#: Per-tenant Poisson rates (queries per simulated second): light load,
#: about the fleet's capacity, and overload.  Unit ``u`` serves one round at
#: rate ``u % 3`` with its own arrival trace (round id), so the quality units
#: of a run cover every rate equally over several traces.
FLEET_RATES = (0.25, 0.5, 1.0)
FLEET_TENANTS = 16
#: Connections per instance while training and evaluating.  With 8 per
#: instance the 22-query batch starts at once on 24 slots and makespan is a
#: placement lottery (coefficient of variation ~0.30 across trainer seeds);
#: with 2, order and placement both matter and it is ~0.15.
FLEET_TRAIN_CONNECTIONS = 2
#: Connections per instance while serving the 16 tenants.
FLEET_SERVE_CONNECTIONS = 8


def _build_fleet(trainer_seed: int):
    from repro import BQSched, BQSchedConfig, Cluster, make_workload

    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    cluster = Cluster.from_names(("x", "x", "z"), seed=0)
    config = BQSchedConfig.small(seed=trainer_seed)
    config.scheduler.num_connections = FLEET_TRAIN_CONNECTIONS
    return BQSched(workload, cluster, config)


def _fleet_serve(run_seed: int, unit: int, index: int) -> dict:
    from repro import AdmissionPolicy, AutoscalePolicy, FailureProfile, PoissonArrivals, RetryPolicy, TenantClass

    return {
        "num_tenants": FLEET_TENANTS,
        "num_connections": FLEET_SERVE_CONNECTIONS,
        "arrivals": PoissonArrivals(FLEET_RATES[unit % len(FLEET_RATES)]),
        "round_id": serve_round(run_seed, unit),
        # Tenants alternate interactive / batch (serve assigns round-robin).
        "tenant_classes": (
            TenantClass("interactive", priority=2.0, latency_slo=8.0, deadline=120.0),
            TenantClass("batch", priority=0.0, latency_slo=60.0),
        ),
        # Batch arrivals are paced and shed under overload; interactive is exempt.
        "admission": AdmissionPolicy(rate=6.0, burst=12.0, exempt_priority=1.0),
        "autoscale": AutoscalePolicy(
            min_instances=1, target_backlog=6.0, low_water=1.0, cooldown=2.0, initial_instances=2
        ),
        "faults": FailureProfile(error_rate=0.02, hang_rate=0.02),
        "retry": RetryPolicy(max_attempts=3, backoff=0.5, timeout=30.0),
    }


FLEET_SERVE = Scenario(
    name="fleet-serve",
    why=(
        "A 3-instance x/x/z fleet serving 16 TPC-H tenants per round, open-loop Poisson "
        "arrivals cycling 0.25/0.5/1.0 q/s per tenant, interactive and batch classes, "
        "admission, autoscale, 2% error + 2% hang faults with retry and timeout. Briefly "
        "trained; per-decision inference and the runtime event loop dominate, so a change "
        "that speeds batched training but slows single decisions shows here."
    ),
    quality_units=10,
    build=_build_fleet,
    train_kwargs={"num_updates": 2, "pretrain_updates": 2, "history_rounds": 2},
    eval_rounds=5,
    serve_rounds=1,
    serve_kwargs=_fleet_serve,
)


SCENARIOS = {scenario.name: scenario for scenario in (JOB_CLUSTERED, FLEET_SERVE)}
