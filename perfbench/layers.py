"""Which public entry points of ``repro`` make up each traced layer.

Each entry wraps one function or method under a span name
``<module>.<operation>``; the per-layer metrics are the self times, outermost
call counts and counters of these spans.  Names nest by call, not by module:
an ``env.step`` that advances the engine shows the engine time under
``dbms.advance`` and only the env's own bookkeeping under ``env.step``.

``SETUP_LAYERS`` covers constructing a scheduler; ``install`` adds the rest.
"""

from __future__ import annotations

from typing import Any

from tracer import Tracer

__all__ = ["install_setup", "install", "PHASE_TTP", "PHASE_SERVE"]

#: Spans the benchmark opens itself around the phases it times end to end.
#: Their self time is the part of the phase no layer span covers.
PHASE_TTP = "phase.time_to_policy"
PHASE_SERVE = "phase.serve"


def _count_probes(tracer: Tracer, args: tuple, kwargs: dict, knowledge: Any) -> None:
    tracer.count("knowledge.probes", sum(len(times) for times in knowledge.config_times.values()))


def _count_history(tracer: Tracer, args: tuple, kwargs: dict, log: Any) -> None:
    tracer.count("dbms.history_queries", len(log.all_records()))


def _count_pairs(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    _, observed = result
    tracer.count("gain.observed_pairs", int(observed.sum()) // 2)


def _count_adam(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    if tracer.inside("gain.fit"):
        tracer.count("gain.sgd_steps")


def _count_examples(tracer: Tracer, args: tuple, kwargs: dict, examples: Any) -> None:
    tracer.count("simulator.examples", len(examples))


def _count_transitions(tracer: Tracer, args: tuple, kwargs: dict, buffer: Any) -> None:
    tracer.count("trainer.transitions", len(buffer))


def _count_verdicts(tracer: Tracer, args: tuple, kwargs: dict, report: Any) -> None:
    # from_runtime(cls, runtime, ...): read the finished round's ledgers.
    runtime = args[1] if len(args) > 1 else kwargs["runtime"]
    control = runtime.control
    if control.admission is not None:
        tracer.count("controlplane.admitted", sum(control.admission.admitted.values()))
        tracer.count("controlplane.shed", sum(control.admission.shed.values()))
    for event in control.scale_events():
        tracer.count("controlplane.parks" if event.action == "park" else "controlplane.unparks")


def install_setup(tracer: Tracer) -> None:
    """Wrap the layers that constructing a ``BQSched`` runs through."""
    import repro.workloads
    from repro.core.knowledge import ExternalKnowledge
    from repro.encoder.queryformer import PlanEmbeddingCache

    tracer.wrap_function(repro.workloads.make_workload, "workloads.make")
    tracer.wrap_method(PlanEmbeddingCache, "embeddings_for", "encoder.plan_embed")
    tracer.wrap_method(ExternalKnowledge, "from_probes", "knowledge.probe", after=_count_probes)


def install(tracer: Tracer) -> None:
    """Wrap every layer the pipeline runs through after construction."""
    from repro.core import env as env_module
    from repro.core import gain
    from repro.core.baselines import BaseScheduler
    from repro.core.bqsched import RLSchedulerBase
    from repro.core.clustering import cluster_queries
    from repro.core.cluster_env import ClusterSchedulingEnv
    from repro.core.iq_ppo import IQPPOTrainer
    from repro.core.policy import ActorCriticNetwork
    from repro.core.ppo import PPOTrainer
    from repro.core.simulator import LearnedSimulator, SimulatedSession
    from repro.core.vecenv import VectorSchedulingEnv
    from repro.dbms.cluster import Cluster, ClusterSession
    from repro.dbms.engine import DatabaseEngine, ExecutionSession
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.perf.model import ConcurrentPredictionModel
    from repro.perf.perfmodel import PerformanceModel
    from repro.perf.simcluster import SimulatedClusterSession
    from repro.runtime.report import ServiceReport
    from repro.runtime.runtime import ExecutionRuntime

    install_setup(tracer)
    wrap = tracer.wrap_method

    # repro.dbms: the real (simulated-hardware) engine and fleet.
    wrap(DatabaseEngine, "collect_logs", "dbms.collect_logs", after=_count_history)
    wrap(Cluster, "collect_logs", "dbms.collect_logs", after=_count_history)
    wrap(ExecutionSession, "advance", "dbms.advance")
    wrap(ClusterSession, "advance", "dbms.advance")

    # repro.core.gain / clustering.
    tracer.wrap_function(gain.build_gain_matrix, "gain.matrix")
    tracer.wrap_function(gain.compute_scheduling_gains, "gain.matrix", after=_count_pairs)
    wrap(gain.GainModel, "fit", "gain.fit")
    tracer.wrap_function(cluster_queries, "clustering.cluster")

    # repro.core.simulator / repro.perf: fitting and advancing the learned simulator.
    wrap(LearnedSimulator, "train_from_log", "simulator.train")
    wrap(PerformanceModel, "train_from_log", "simulator.train")
    wrap(PerformanceModel, "examples_from_log", "simulator.train", after=_count_examples)
    for owner, attr in (
        (SimulatedSession, "advance"),
        (SimulatedSession, "advance_features"),
        (SimulatedSession, "apply_advance"),
        (SimulatedClusterSession, "advance"),
        (ConcurrentPredictionModel, "predict_batched"),
    ):
        wrap(owner, attr, "simulator.advance")

    # repro.core.env / vecenv.
    for attr in ("step", "begin_step", "finish_step"):
        wrap(env_module.SchedulingEnv, attr, "env.step")
    wrap(env_module.SchedulingEnv, "reset", "env.reset")
    wrap(env_module.SchedulingEnv, "result", "env.reset")
    wrap(env_module.SchedulingEnv, "snapshot", "env.snapshot")
    wrap(env_module.SchedulingEnv, "action_mask", "env.action_mask")
    wrap(ClusterSchedulingEnv, "action_mask", "env.action_mask")
    wrap(VectorSchedulingEnv, "step_many", "vecenv.step_many")
    wrap(VectorSchedulingEnv, "reset_at", "env.reset")
    wrap(VectorSchedulingEnv, "masks_for", "env.action_mask")

    # repro.core.policy: encoder and heads.
    wrap(ActorCriticNetwork, "act", "policy.act")
    wrap(ActorCriticNetwork, "act_batch", "policy.act_batch")
    wrap(ActorCriticNetwork, "evaluate_action", "policy.evaluate_action")
    wrap(ActorCriticNetwork, "evaluate_actions_batch", "policy.evaluate_actions_batch")
    wrap(ActorCriticNetwork, "evaluate_auxiliary", "policy.evaluate_auxiliary")
    wrap(ActorCriticNetwork, "evaluate_auxiliary_batch", "policy.evaluate_auxiliary")

    # The scheduler facade's greedy loop (validation, evaluation, serving).
    wrap(RLSchedulerBase, "select_action", "scheduler.select_action")
    wrap(BaseScheduler, "run_round", "scheduler.round")

    # repro.core.ppo / iq_ppo.
    wrap(PPOTrainer, "__init__", "trainer.init")
    wrap(PPOTrainer, "train", "trainer.train")
    wrap(PPOTrainer, "collect_rollouts", "trainer.rollout", after=_count_transitions)
    wrap(PPOTrainer, "update", "trainer.update")
    wrap(PPOTrainer, "auxiliary_phase", "trainer.aux")
    wrap(IQPPOTrainer, "auxiliary_phase", "trainer.aux")

    # repro.nn.
    wrap(Tensor, "backward", "nn.backward")
    wrap(Adam, "step", "nn.adam_step", after=_count_adam)

    # repro.runtime.
    wrap(ExecutionRuntime, "advance", "runtime.advance")
    tracer.wrap_function(env_module.drive_service, "runtime.drive")
    wrap(ServiceReport, "from_runtime", "runtime.report", after=_count_verdicts)
