"""End-to-end benchmark of the BQSched pipeline and fleet serving.

Usage::

    python3 perfbench/run.py --workload fleet-serve --seed 0 --seconds 40 --trace 0

Workloads are defined, and the choice of each explained, in
``perfbench/scenarios.py``.  One run does, in this process:

1. ``setup_s``: constructs the workload's scheduler in fresh interpreters
   (one warm-up, then ``SETUP_PAIRS`` timed pairs), clock started before
   ``import repro``.
2. The measured loop: the workload's quality units (one trained scheduler
   per trainer seed, each run through prepare/train, evaluate_policy and
   serve), ``Scenario.replays - 1`` more sweeps of every unit's greedy pass (the
   evaluation rounds and serve rounds, over the same inputs), then further
   trainings while ``--seconds`` allows.  Simulated-time metrics come from
   the quality units' first passes, so they repeat exactly for a seed; host
   timings are read as set out under HOST_TIMING below.
3. Output checks on every round: each tenant conserves completed +
   terminally failed + shed == arrived and agrees with its
   ``ServiceReport`` row; each evaluation round schedules every query exactly
   once with a finite makespan; every replay of a greedy pass reproduces the
   first one's decisions and outcomes.

``--trace 1`` runs the quality units twice, untraced then with every layer
wrapped (``perfbench/layers.py``), checks that both passes give identical
simulated metrics, and prints per-layer self times, counters, span coverage
and the tracing overhead instead of the end-to-end metrics.

The last line of stdout is one JSON object: ``correct``, ``attempted``
(queries offered across all rounds), ``failed`` (queries failing an output
check) and ``metrics``.  Shedding and injected faults are scheduled outcomes,
not benchmark failures; they lower ``completed_fraction``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field

#: One BLAS / OpenMP thread, set before NumPy loads (the set-up probes
#: inherit it): the benchmark's load comes from one process, and an idle
#: OpenBLAS worker spinning on the second of two vCPUs adds noise, not speed,
#: at this program's matrix sizes.  The envelope records the setting.
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
from metrics import median, tail_value  # noqa: E402
from scenarios import SCENARIOS, Scenario, eval_base_round, trainer_seeds  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Timed fresh-interpreter constructions per run (after one warm-up that
#: compiles bytecode caches and fills the page cache), in pairs, one on each
#: CPU; see HOST_TIMING.
SETUP_PAIRS = 3
CHILD_TIMEOUT_S = 120
#: The CPUs the run may use, fixed at start; work is pinned to them in turn.
CPUS = sorted(os.sched_getaffinity(0))
PHASE_EVAL = "phase.evaluate"
FALLBACK_MESSAGE = "falling back to the tape"

#: HOST_TIMING: on a shared 2-vCPU virtual machine, each vCPU runs at one
#: of two speeds about 1.5x apart, and switches between them independently
#: of the other vCPU (correlation ~0.1 between the two), staying in a mode
#: from well under a second to a whole run (a fixed 0.1 ms task ran slow
#: ~60% of the time; CPU time shows the same, so it is the core slowing, not
#: the process being descheduled).  So host work is spread over both CPUs,
#: and the fast mode is read out of it where the work can be repeated:
#:
#: * the greedy passes -- deterministic for a given policy and input -- run
#:   ``Scenario.replays`` times, seconds apart and on the CPUs in turn; each
#:   decision's time is the fastest of its replays (each serve round's wall
#:   time likewise), as ``timeit`` takes the best of repeats;
#: * set-up is timed in ``SETUP_PAIRS`` pairs of constructions, one per
#:   CPU; ``setup_s`` is the median of the pairs' faster times;
#: * training is too long to replay, so units are trained on the CPUs in
#:   turn and ``time_to_policy_s`` is the mean over every unit the run's
#:   ``--seconds`` holds.
#:
#: The slow mode can also hold both CPUs for a whole run.  No estimator
#: inside one run removes that; across runs, means (of the best-of
#: decision times, of the trainings) varied least: over sets of five to ten
#: seeds in the same hours, the inter-quartile range over the median of the
#: mean time to policy was 0.12-0.20, against 0.13-0.32 for the median and
#: 0.11-0.39 for the fastest unit, and the mean decision time beat the
#: median decision time likewise.
#:
#: End-to-end metrics and their units; simulated-time metrics are ``SIM_METRICS``.
E2E_UNITS = {
    "setup_s": "s",
    "time_to_policy_s": "s",
    "makespan_s": "sim_s",
    "decision_ms_mean": "ms",
    "decision_ms_tail": "ms",
    "serve_decisions_per_s": "1/s",
    "query_latency_p50_s": "sim_s",
    "query_latency_tail_s": "sim_s",
    "slo_attainment": "fraction",
    "goodput_qps": "1/sim_s",
    "completed_fraction": "fraction",
    "peak_rss_mb": "MB",
}
SIM_METRICS = (
    "makespan_s",
    "query_latency_p50_s",
    "query_latency_tail_s",
    "slo_attainment",
    "goodput_qps",
    "completed_fraction",
)

#: Per-layer metrics: name -> (unit, how to read it from the traced pass).
#: ``("self", span)`` is the span's self time, ``("calls", span)`` its
#: outermost call count, ``("count", counter)`` a counter from a hook.
LAYER_SPANS = {
    "dbms.collect_logs_s": ("self", "dbms.collect_logs"),
    "dbms.history_queries": ("count", "dbms.history_queries"),
    "dbms.advance_s": ("self", "dbms.advance"),
    "dbms.advance_calls": ("calls", "dbms.advance"),
    "gain.fit_s": ("self", "gain.fit"),
    "gain.matrix_s": ("self", "gain.matrix"),
    "gain.observed_pairs": ("count", "gain.observed_pairs"),
    "gain.sgd_steps": ("count", "gain.sgd_steps"),
    "clustering.cluster_s": ("self", "clustering.cluster"),
    "simulator.train_s": ("self", "simulator.train"),
    "simulator.examples": ("count", "simulator.examples"),
    "simulator.advance_s": ("self", "simulator.advance"),
    "simulator.advance_calls": ("calls", "simulator.advance"),
    "env.step_s": ("self", "env.step"),
    "env.step_calls": ("calls", "env.step"),
    "env.snapshot_s": ("self", "env.snapshot"),
    "env.action_mask_s": ("self", "env.action_mask"),
    "env.reset_s": ("self", "env.reset"),
    "vecenv.step_many_s": ("self", "vecenv.step_many"),
    "policy.act_s": ("self", "policy.act"),
    "policy.act_calls": ("calls", "policy.act"),
    "policy.act_batch_s": ("self", "policy.act_batch"),
    "policy.evaluate_action_s": ("self", "policy.evaluate_action"),
    "policy.evaluate_action_calls": ("calls", "policy.evaluate_action"),
    "policy.evaluate_actions_batch_s": ("self", "policy.evaluate_actions_batch"),
    "policy.evaluate_auxiliary_s": ("self", "policy.evaluate_auxiliary"),
    "scheduler.select_action_s": ("self", "scheduler.select_action"),
    "scheduler.round_s": ("self", "scheduler.round"),
    "trainer.init_s": ("self", "trainer.init"),
    "trainer.train_s": ("self", "trainer.train"),
    "trainer.rollout_s": ("self", "trainer.rollout"),
    "trainer.update_s": ("self", "trainer.update"),
    "trainer.update_calls": ("calls", "trainer.update"),
    "trainer.aux_s": ("self", "trainer.aux"),
    "trainer.transitions": ("count", "trainer.transitions"),
    "trainer.fused_fallbacks": ("count", "trainer.fused_fallbacks"),
    "nn.backward_s": ("self", "nn.backward"),
    "nn.backward_calls": ("calls", "nn.backward"),
    "nn.adam_step_s": ("self", "nn.adam_step"),
    "nn.adam_step_calls": ("calls", "nn.adam_step"),
    "runtime.advance_s": ("self", "runtime.advance"),
    "runtime.events": ("calls", "runtime.advance"),
    "runtime.drive_self_s": ("self", "runtime.drive"),
    "runtime.report_s": ("self", "runtime.report"),
    "controlplane.admitted": ("count", "controlplane.admitted"),
    "controlplane.shed": ("count", "controlplane.shed"),
    "controlplane.parks": ("count", "controlplane.parks"),
    "controlplane.unparks": ("count", "controlplane.unparks"),
}
#: Setup layers, measured in the traced setup probes (median per construction).
SETUP_LAYERS = (
    "import.repro_s",
    "import.scipy_cluster_s",
    "workloads.make_s",
    "encoder.plan_embed_s",
    "knowledge.probe_s",
    "knowledge.probes",
)
#: Measured about the trace itself: unattributed phase time, span coverage
#: of the phase, and what tracing costs (traced minus untraced wall time).
TRACE_METRICS = (
    "trace.unattributed_time_to_policy_s",
    "trace.coverage_time_to_policy",
    "trace.unattributed_serve_s",
    "trace.coverage_serve",
    "trace.overhead_s",
    "trace.overhead_frac",
)
PER_LAYER_NAMES = SETUP_LAYERS + tuple(LAYER_SPANS) + TRACE_METRICS


def pin(turn: int) -> None:
    """Run this process (and children it starts) on CPU ``turn`` of ``CPUS``, round-robin."""
    os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


# ---------------------------------------------------------------------- #
# Set-up probes
# ---------------------------------------------------------------------- #
def parse_importtime(stderr: str) -> dict[str, float]:
    """Import cost of ``repro`` split into scipy's own modules and the rest.

    ``-X importtime`` prints ``self | cumulative | name`` in microseconds per
    module on its first import.  ``import.scipy_cluster_s`` sums the self
    time of every ``scipy`` module (all of them arrive through
    ``repro.core.clustering``); ``import.repro_s`` is the package's
    cumulative import time minus that share.
    """
    repro_cumulative = None
    scipy_self = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
        if name == "repro":
            repro_cumulative = cumulative_us
        elif name == "scipy" or name.startswith("scipy."):
            scipy_self += self_us
    if repro_cumulative is None:
        raise RuntimeError("-X importtime output has no line for repro")
    return {
        "import.repro_s": (repro_cumulative - scipy_self) / 1e6,
        "import.scipy_cluster_s": scipy_self / 1e6,
    }


def run_setup_probes(scenario: Scenario, trainer_seed: int, trace: bool) -> list[dict]:
    """Construct the scheduler in fresh interpreters; one dict per timed probe."""
    command = [sys.executable]
    if trace:
        command += ["-X", "importtime"]
    command += [os.path.join(HERE, "setup_probe.py"), scenario.name, str(trainer_seed)]
    if trace:
        command.append("--trace")
    samples = []
    for index in range(2 * SETUP_PAIRS + 1):
        # The child inherits the CPU; the warm-up and pairs alternate.
        pin(index)
        proc = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        if index == 0:
            continue
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if trace:
            sample["layers"].update(parse_importtime(proc.stderr))
        samples.append(sample)
    return samples


# ---------------------------------------------------------------------- #
# End-to-end probes and output checks
# ---------------------------------------------------------------------- #
class Recorder:
    """The probes the end-to-end metrics need, on every pass.

    Times each greedy ``select_action`` of the current pass during
    evaluation and serving, and keeps each evaluation round's result and each
    served runtime so the outputs can be checked.  ``decision_s`` collects
    the best-of-replays decision times that the run reports.
    """

    def __init__(self) -> None:
        self.phase = ""
        self.decision_s: list[float] = []
        self.pass_decision_s: list[float] = []
        self.rounds: list = []
        self.services: list = []

    def start_pass(self) -> None:
        self.pass_decision_s = []
        self.rounds = []
        self.services = []

    def install(self, tracer: Tracer) -> None:
        from repro.core.baselines import BaseScheduler
        from repro.core.bqsched import RLSchedulerBase
        from repro.runtime.report import ServiceReport

        clock = time.perf_counter
        recorder = self

        def time_decisions(func):
            def select_action(*args, **kwargs):
                start = clock()
                action = func(*args, **kwargs)
                elapsed = clock() - start
                if recorder.phase in ("evaluate", "serve"):
                    recorder.pass_decision_s.append(elapsed)
                return action

            return select_action

        def keep_rounds(func):
            def run_round(*args, **kwargs):
                result = func(*args, **kwargs)
                if recorder.phase == "evaluate":
                    recorder.rounds.append(result)
                return result

            return run_round

        def keep_runtimes(func):
            def from_runtime(cls, runtime, *args, **kwargs):
                report = func(cls, runtime, *args, **kwargs)
                recorder.services.append((report, runtime))
                return report

            return from_runtime

        tracer.patch(RLSchedulerBase, "select_action", time_decisions)
        tracer.patch(BaseScheduler, "run_round", keep_rounds)
        tracer.patch(ServiceReport, "from_runtime", keep_runtimes)


@dataclass
class Greedy:
    """Outcome of a unit's greedy rounds on the serving side."""

    arrived: int = 0
    completed: int = 0
    terminal_failed: int = 0
    shed: int = 0
    check_failed: int = 0
    sim_time: float = 0.0
    latencies: list[float] = field(default_factory=list)
    slo_met: int = 0
    slo_eligible: int = 0
    wall_s: float = 0.0
    decisions: int = 0


@dataclass
class Unit:
    trainer_seed: int
    makespan: float
    eval_makespans: list[float]
    greedy: Greedy
    attempted: int
    failed: int
    problems: list[str]
    serve_round_ids: list[int]


def check_eval_round(result, num_queries: int, problems: list[str]) -> int:
    """Queries an evaluation round failed to schedule exactly once (0 if sound)."""
    ids = [record.query_id for record in result.round_log]
    counts: dict[int, int] = {}
    for query_id in ids:
        counts[query_id] = counts.get(query_id, 0) + 1
    bad = sum(1 for query_id in range(num_queries) if counts.get(query_id) != 1)
    bad += sum(1 for query_id in counts if not 0 <= query_id < num_queries)
    if not (math.isfinite(result.makespan) and result.makespan > 0):
        bad = max(bad, 1)
    if bad:
        problems.append(f"evaluation round {result.round_log.round_id}: {bad} queries not scheduled exactly once")
    return bad


def check_service(report, runtime, batch_size: int, greedy: Greedy, problems: list[str]) -> None:
    """Conservation per tenant, and the report agrees with the sessions."""
    rows = {tenant.tenant: tenant for tenant in report.tenants}
    for name, session in runtime.sessions().items():
        completed = len(session.finished)
        shed = len(session.shed)
        terminal = len(session.failed) - shed
        row = rows.get(name)
        conserved = (
            completed + terminal + shed == batch_size
            and not (session.finished.keys() & session.failed.keys())
            and session.shed.keys() <= session.failed.keys()
        )
        agrees = (
            row is not None
            and row.num_queries == completed
            and row.num_failed == len(session.failed)
            and row.num_shed == shed
        )
        greedy.arrived += batch_size
        if not (conserved and agrees):
            lost = max(1, abs(batch_size - completed - terminal - shed))
            greedy.check_failed += lost
            problems.append(
                f"round {runtime.shared_session.log.round_id} tenant {name}: completed={completed} "
                f"failed={terminal} shed={shed} arrived={batch_size} report_row={'ok' if agrees else 'mismatch'}"
            )
            continue
        greedy.completed += completed
        greedy.terminal_failed += terminal
        greedy.shed += shed
        greedy.latencies.extend(session.latencies().values())
        if row.tenant_class == "interactive":
            greedy.slo_met += row.num_slo_met
            greedy.slo_eligible += row.num_slo_eligible
    greedy.sim_time += report.total_time


def best_of(replays: list[list[float]]) -> list[float]:
    """Element-wise fastest of equally long timing lists, one per replay."""
    return [min(times) for times in zip(*replays)]


@dataclass
class GreedyPass:
    """One run of a unit's greedy work: its evaluation rounds and serve rounds."""

    evaluation: object
    rounds: list
    eval_decision_s: list[float]
    eval_wall_s: float
    #: Per serve round: (round id, report, runtime, captured report, decision times, wall).
    serves: list = field(default_factory=list)

    def fingerprint(self) -> tuple:
        """What every replay must reproduce: outcomes and decision counts."""
        return (
            list(self.evaluation.makespans),
            len(self.eval_decision_s),
            [(json.dumps(report.as_dict(), sort_keys=True), len(times)) for _, report, _, _, times, _ in self.serves],
        )


def train_unit(scenario: Scenario, trainer_seed: int, recorder: Recorder, tracer: Tracer):
    """Build and train one scheduler; returns it with its time to policy."""
    scheduler = scenario.build(trainer_seed)
    train_kwargs = dict(scenario.train_kwargs)
    recorder.phase = "train"
    with tracer.span(layers.PHASE_TTP):
        start = time.perf_counter()
        scheduler.prepare(history_rounds=train_kwargs.get("history_rounds", 3))
        scheduler.train(**train_kwargs)
        time_to_policy = time.perf_counter() - start
    recorder.phase = ""
    return scheduler, time_to_policy


def greedy_pass(scenario: Scenario, scheduler, unit_index: int, run_seed: int, recorder: Recorder, tracer: Tracer):
    """Evaluate the trained policy, then serve its rounds; times every decision."""
    clock = time.perf_counter
    recorder.phase = "evaluate"
    recorder.start_pass()
    with tracer.span(PHASE_EVAL):
        start = clock()
        evaluation = scheduler.evaluate_policy(rounds=scenario.eval_rounds, base_round_id=eval_base_round(run_seed))
        wall = clock() - start
    result = GreedyPass(evaluation, recorder.rounds, recorder.pass_decision_s, wall)
    recorder.phase = "serve"
    for index in range(scenario.serve_rounds):
        kwargs = scenario.serve_kwargs(run_seed, unit_index, index)
        recorder.start_pass()
        with tracer.span(layers.PHASE_SERVE):
            start = clock()
            report = scheduler.serve(**kwargs)
            wall = clock() - start
        (captured, runtime), = recorder.services
        result.serves.append((kwargs["round_id"], report, runtime, captured, recorder.pass_decision_s, wall))
    recorder.phase = ""
    return result


def score_unit(trainer_seed: int, num_queries: int, passes: list[GreedyPass], recorder: Recorder) -> Unit:
    """Check a unit's outputs and reduce its replays to best-of timings.

    The first pass's outputs are checked in full; every later pass must
    reproduce them exactly.  Decision times and serve wall times are the
    fastest over the passes (see HOST_TIMING).
    """
    problems: list[str] = []
    first = passes[0]
    eval_failed = sum(check_eval_round(result, num_queries, problems) for result in first.rounds)
    replay_failed = sum(1 for later in passes[1:] if later.fingerprint() != first.fingerprint())
    if replay_failed:
        problems.append(
            f"trainer seed {trainer_seed}: {replay_failed} of {len(passes) - 1} replays differ from the first pass"
        )
    eval_decisions = best_of([p.eval_decision_s for p in passes])
    recorder.decision_s.extend(eval_decisions)
    attempted = num_queries * len(first.rounds)

    greedy = Greedy()
    for index, (_, report, runtime, captured, _, _) in enumerate(first.serves):
        if captured is not report:
            problems.append("serve() returned a report other than the one built from its runtime")
            greedy.check_failed += 1
        check_service(report, runtime, num_queries, greedy, problems)
        decisions = best_of([p.serves[index][4] for p in passes])
        recorder.decision_s.extend(decisions)
        greedy.decisions += len(decisions)
        greedy.wall_s += min(p.serves[index][5] for p in passes)
    if not first.serves:
        # Clustered policies cannot serve(); the serving-side metrics of this
        # workload come from its closed evaluation rounds (all queries arrive
        # at time 0, so latency is finish time).
        greedy.wall_s = min(p.eval_wall_s for p in passes)
        greedy.decisions = len(eval_decisions)
        for result in first.rounds:
            finishes = [record.finish_time for record in result.round_log]
            greedy.arrived += num_queries
            greedy.completed += len(finishes)
            greedy.latencies.extend(finishes)
            greedy.sim_time += result.makespan
        greedy.check_failed += eval_failed
        greedy.completed -= eval_failed
    else:
        attempted += greedy.arrived
    return Unit(
        trainer_seed=trainer_seed,
        makespan=first.evaluation.mean,
        eval_makespans=list(first.evaluation.makespans),
        greedy=greedy,
        attempted=attempted,
        failed=eval_failed + (greedy.check_failed if first.serves else 0) + replay_failed,
        problems=problems,
        serve_round_ids=[round_id for round_id, *_ in first.serves],
    )


@dataclass
class Kept:
    """A trained quality unit, kept for the replays of its greedy passes."""

    index: int
    trainer_seed: int
    scheduler: object
    passes: list[GreedyPass] = field(default_factory=list)


def run_pass(scenario: Scenario, seed: int, seeds: list[int], deadline: float):
    """Train and check the quality units, replay their greedy passes, then train more units while ``deadline`` allows.

    Each quality unit is trained and runs its first greedy pass on CPU
    ``index``; after all of them, ``scenario.replays - 1`` sweeps replay every unit's
    greedy pass, sweep ``r`` on CPU ``index + r`` (round-robin), so a unit's
    replays are spread over the run and over both CPUs.  Units trained after
    that add time-to-policy samples only.

    Returns (quality units, every time-to-policy sample, recorder, wall
    time, peak RSS in MB after the first unit's first pass).
    """
    tracer = Tracer()
    recorder = Recorder()
    ttp_samples: list[float] = []
    kept: list[Kept] = []
    rss_mb = 0.0
    started = time.perf_counter()
    try:
        recorder.install(tracer)
        for index, trainer_seed in enumerate(seeds):
            pin(index)
            scheduler, time_to_policy = train_unit(scenario, trainer_seed, recorder, tracer)
            ttp_samples.append(time_to_policy)
            entry = Kept(index, trainer_seed, scheduler)
            entry.passes.append(greedy_pass(scenario, scheduler, index, seed, recorder, tracer))
            kept.append(entry)
            if index == 0:
                # One pipeline's peak: later, the kept schedulers make the
                # peak depend on when the allocator and collector run.
                rss_mb = peak_rss_mb()
            gc.collect()
        for sweep in range(1, scenario.replays):
            for entry in kept:
                pin(entry.index + sweep)
                entry.passes.append(greedy_pass(scenario, entry.scheduler, entry.index, seed, recorder, tracer))
        units = [
            score_unit(entry.trainer_seed, len(entry.scheduler.batch), entry.passes, recorder)
            for entry in kept
        ]
        kept.clear()
        gc.collect()
        while True:
            elapsed = time.perf_counter() - started
            if elapsed + sum(ttp_samples) / len(ttp_samples) > deadline:
                break
            index = len(ttp_samples)
            pin(index)
            _, time_to_policy = train_unit(scenario, trainer_seeds(seed, 1, start=index)[0], recorder, tracer)
            ttp_samples.append(time_to_policy)
            gc.collect()
    finally:
        tracer.restore()
    return units, ttp_samples, recorder, time.perf_counter() - started, rss_mb


def run_paired(scenario: Scenario, seed: int, seeds: list[int]):
    """Each quality unit twice, untraced and traced, alternating which goes first.

    Returns (untraced units, traced units, traced-pass tracer, untraced wall,
    traced wall); the alternation keeps warm-up and drift out of the
    overhead estimate.  Each unit runs one greedy pass: the per-layer
    numbers describe one run of the pipeline.  The traced pass also counts
    the trainer's "falling back to the tape" warnings into
    ``trainer.fused_fallbacks``.
    """
    passes = {False: (Tracer(), Recorder(), []), True: (Tracer(), Recorder(), [])}
    walls = {False: 0.0, True: 0.0}
    for index, trainer_seed in enumerate(seeds):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            tracer, recorder, units = passes[traced]
            started = time.perf_counter()
            try:
                recorder.install(tracer)
                if traced:
                    layers.install(tracer)
                with warnings.catch_warnings(record=True) as caught:
                    # Every trainer warns once; "always" keeps the warning
                    # registry from hiding the repeats of later units.
                    warnings.simplefilter("always")
                    scheduler, _ = train_unit(scenario, trainer_seed, recorder, tracer)
                    greedy = greedy_pass(scenario, scheduler, index, seed, recorder, tracer)
                    units.append(score_unit(trainer_seed, len(scheduler.batch), [greedy], recorder))
                if traced:
                    tracer.count(
                        "trainer.fused_fallbacks",
                        sum(1 for warning in caught if FALLBACK_MESSAGE in str(warning.message)),
                    )
            finally:
                tracer.restore()
            walls[traced] += time.perf_counter() - started
    return passes[False][2], passes[True][2], passes[True][0], walls[False], walls[True]


def quality_metrics(units: list[Unit]) -> dict[str, float]:
    """Simulated-time metrics over the quality units (exact for a seed)."""
    latencies = [value for unit in units for value in unit.greedy.latencies]
    arrived = sum(unit.greedy.arrived for unit in units)
    lost = sum(unit.greedy.terminal_failed + unit.greedy.shed + unit.greedy.check_failed for unit in units)
    eligible = sum(unit.greedy.slo_eligible for unit in units)
    completed = sum(unit.greedy.completed for unit in units)
    sim_time = sum(unit.greedy.sim_time for unit in units)
    latency_tail_p, latency_tail = tail_value(latencies)
    return {
        "makespan_s": sum(unit.makespan for unit in units) / len(units),
        "query_latency_p50_s": median(latencies),
        "query_latency_tail_s": latency_tail,
        "query_latency_tail_percentile": latency_tail_p,
        "query_latency_n": len(latencies),
        # No SLO-eligible work (no tenant class with a latency target) reads
        # 1.0, as ServiceReport defines attainment.
        "slo_attainment": sum(unit.greedy.slo_met for unit in units) / eligible if eligible else 1.0,
        "goodput_qps": completed / sim_time,
        "completed_fraction": 1.0 - lost / arrived,
        "failed_fraction": lost / arrived,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with NumPy will use (None if not found)."""
    import ctypes
    import glob

    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def commit() -> str:
    """The checkout's commit when it is a git work tree, else ``unknown``."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown"
    with open(head_path) as handle:
        head = handle.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unknown"


def envelope(args, scenario: Scenario, quality_seeds: list[int], units: list[Unit]) -> dict:
    import numpy
    import scipy

    eval_start = eval_base_round(args.seed)
    return {
        "workload": scenario.name,
        "why": scenario.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": CPUS,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads": blas_threads(),
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit(),
        "quality_trainer_seeds": quality_seeds,
        "eval_round_ids": list(range(eval_start, eval_start + scenario.eval_rounds)),
        "serve_round_ids": sorted({round_id for unit in units for round_id in unit.serve_round_ids}),
    }


def end_to_end(args, scenario: Scenario, quality_seeds: list[int], setup: list[dict]) -> tuple[dict, dict, list[Unit]]:
    units, ttp_samples, recorder, wall, rss_mb = run_pass(scenario, args.seed, quality_seeds, deadline=args.seconds)
    quality = quality_metrics(units)
    decision_tail_p, decision_tail = tail_value(recorder.decision_s)
    greedy_decisions = sum(unit.greedy.decisions for unit in units)
    values = {
        "setup_s": median([min(a["setup_s"], b["setup_s"]) for a, b in zip(setup[0::2], setup[1::2])]),
        "time_to_policy_s": float(np.mean(ttp_samples)),
        "makespan_s": quality["makespan_s"],
        "decision_ms_mean": 1e3 * float(np.mean(recorder.decision_s)),
        "decision_ms_tail": 1e3 * decision_tail,
        "serve_decisions_per_s": greedy_decisions / sum(unit.greedy.wall_s for unit in units),
        "query_latency_p50_s": quality["query_latency_p50_s"],
        "query_latency_tail_s": quality["query_latency_tail_s"],
        "slo_attainment": quality["slo_attainment"],
        "goodput_qps": quality["goodput_qps"],
        "completed_fraction": quality["completed_fraction"],
        "peak_rss_mb": rss_mb,
    }
    info = {
        "measured_s": wall,
        "n": {
            "setup_s": len(setup),
            "time_to_policy_s": len(ttp_samples),
            "greedy_replays": scenario.replays,
            "decision_ms": len(recorder.decision_s),
            "serve_decisions_per_s": greedy_decisions,
            "query_latency": quality["query_latency_n"],
            "makespan_units": len(quality_seeds),
        },
        "tails": {
            "decision_ms_tail": {"percentile": decision_tail_p, "n": len(recorder.decision_s)},
            "query_latency_tail_s": {
                "percentile": quality["query_latency_tail_percentile"],
                "n": quality["query_latency_n"],
            },
        },
        "failed_fraction": quality["failed_fraction"],
        "per_unit_makespan": [unit.makespan for unit in units],
        "per_unit_time_to_policy_s": ttp_samples,
        "time_to_policy_trainer_seeds": trainer_seeds(args.seed, len(ttp_samples)),
        "per_unit_decisions_per_s": [unit.greedy.decisions / unit.greedy.wall_s for unit in units],
        "decision_ms_quantiles": {
            str(q): 1e3 * float(np.percentile(recorder.decision_s, q)) for q in (10, 25, 50, 75, 90)
        },
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    return metrics, info, units


def traced(args, scenario: Scenario, quality_seeds: list[int], setup: list[dict]) -> tuple[dict, dict, list[Unit]]:
    plain_units, units, tracer, plain_wall, traced_wall = run_paired(scenario, args.seed, quality_seeds)

    plain_all, traced_all = quality_metrics(plain_units), quality_metrics(units)
    plain_quality = {key: plain_all[key] for key in SIM_METRICS}
    traced_quality = {key: traced_all[key] for key in SIM_METRICS}
    mismatch = plain_quality != traced_quality or [u.eval_makespans for u in plain_units] != [
        u.eval_makespans for u in units
    ]

    values: dict[str, float] = {}
    for name in SETUP_LAYERS:
        values[name] = median([sample["layers"][name] for sample in setup])
    for name, (kind, key) in LAYER_SPANS.items():
        if kind == "self":
            values[name] = tracer.self_s(key)
        elif kind == "calls":
            values[name] = tracer.calls(key)
        else:
            values[name] = tracer.counters.get(key, 0)
    greedy_phase = layers.PHASE_SERVE if scenario.serve_rounds else PHASE_EVAL
    for label, phase in (("time_to_policy", layers.PHASE_TTP), ("serve", greedy_phase)):
        total = tracer.total_s(phase)
        unattributed = tracer.self_s(phase)
        values[f"trace.unattributed_{label}_s"] = unattributed
        values[f"trace.coverage_{label}"] = 1.0 - unattributed / total if total > 0 else 1.0
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall

    metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}
    info = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "sim_metrics_match": not mismatch,
        "sim_metrics": traced_quality,
    }
    if mismatch:
        units[0].problems.append(f"traced and untraced passes differ: {plain_quality} vs {traced_quality}")
        units[0].failed += 1
    return metrics, info, plain_units + units


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("trace.coverage") or name.endswith("_frac"):
        return "fraction"
    return "count"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    scenario = SCENARIOS[args.workload]
    quality_seeds = trainer_seeds(args.seed, scenario.quality_units)
    setup = run_setup_probes(scenario, quality_seeds[0], trace=bool(args.trace))

    import_start = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - import_start
    if args.trace:
        metrics, info, units = traced(args, scenario, quality_seeds, setup)
    else:
        metrics, info, units = end_to_end(args, scenario, quality_seeds, setup)

    problems = [problem for unit in units for problem in unit.problems]
    failed = sum(unit.failed for unit in units)
    attempted = sum(unit.attempted for unit in units)
    report = envelope(args, scenario, quality_seeds, units)
    report.update(info)
    report["main_import_s"] = import_s
    report["problems"] = problems
    for name, entry in metrics.items():
        print(f"{name:<36} {entry['value']:>14.6g} {entry['unit']}")
    print("envelope " + json.dumps(report, sort_keys=True))
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
