"""Tests for scheduling gain, query clustering and the learned simulator."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SimulatorConfig
from repro.core import (
    AdaptiveMask,
    FIFOScheduler,
    GainModel,
    LearnedSimulator,
    SchedulingEnv,
    build_gain_matrix,
    cluster_queries,
    compute_scheduling_gains,
)
from repro.dbms import RunningParameters
from repro.exceptions import SchedulingError, SimulationError
from repro.nn import MLP, Adam, Tensor, mse_loss, no_grad


@pytest.fixture(scope="module")
def history_log(tpch_batch, engine_x, config_space):
    orders = []
    base = [q.query_id for q in tpch_batch]
    for seed in range(3):
        order = list(base)
        np.random.default_rng(seed).shuffle(order)
        orders.append(order)
    return engine_x.collect_logs(tpch_batch, orders, config_space.default, num_connections=6)


@pytest.fixture(scope="module")
def plan_embeddings(tpch_workload, tpch_batch, small_config):
    from repro.encoder import PlanEmbeddingCache, QueryFormer
    from repro.plans import PlanFeaturizer

    queryformer = QueryFormer(PlanFeaturizer(tpch_workload.catalog), small_config.encoder, np.random.default_rng(0))
    return PlanEmbeddingCache(queryformer).embeddings_for(tpch_batch)


class TestSchedulingGain:
    def test_gain_matrix_symmetric(self, history_log, tpch_batch):
        gains, observed = compute_scheduling_gains(history_log, tpch_batch)
        np.testing.assert_allclose(gains, gains.T)
        assert observed.any()
        assert gains.shape == (len(tpch_batch), len(tpch_batch))

    def test_unobserved_pairs_are_zero(self, history_log, tpch_batch):
        gains, observed = compute_scheduling_gains(history_log, tpch_batch)
        assert np.all(gains[~observed] == 0.0)

    def test_gain_values_bounded(self, history_log, tpch_batch):
        gains, _ = compute_scheduling_gains(history_log, tpch_batch)
        assert np.all(gains <= 1.0 + 1e-9)

    def test_gain_model_fits_and_predicts_symmetrically(self, plan_embeddings):
        rng = np.random.default_rng(0)
        model = GainModel(plan_embeddings.shape[1], 16, rng)
        n = plan_embeddings.shape[0]
        gains = rng.normal(0, 0.1, size=(n, n))
        gains = (gains + gains.T) / 2
        observed = np.ones((n, n), dtype=bool)
        losses = model.fit(plan_embeddings, gains, observed, epochs=3)
        assert losses[-1] <= losses[0] * 1.5
        a = model.predict(plan_embeddings[0], plan_embeddings[1])
        b = model.predict(plan_embeddings[1], plan_embeddings[0])
        assert a == pytest.approx(b, abs=1e-9)

    def test_build_gain_matrix_fills_unobserved(self, history_log, tpch_batch, plan_embeddings):
        completed = build_gain_matrix(history_log, tpch_batch, plan_embeddings, hidden_dim=16, epochs=2)
        _, observed = compute_scheduling_gains(history_log, tpch_batch)
        np.testing.assert_allclose(completed, completed.T, atol=1e-9)
        assert completed.shape == observed.shape


def _tape_forward(model, embedding_i, embedding_j):
    forward_pair = Tensor(np.concatenate([embedding_i, embedding_j]))
    reverse_pair = Tensor(np.concatenate([embedding_j, embedding_i]))
    return (model.net(forward_pair) + model.net(reverse_pair)).reshape(1)


def _tape_fit(model, embeddings, gains, observed, epochs=30, learning_rate=1e-2, seed=0):
    """Reference fit through the autograd tape: the oracle for ``GainModel.fit``."""
    n = gains.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if observed[i, j]]
    optimizer = Adam(model.parameters(), lr=learning_rate)
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(epochs):
        rng.shuffle(pairs)
        epoch_losses = []
        for i, j in pairs:
            loss = mse_loss(_tape_forward(model, embeddings[i], embeddings[j]), np.array([gains[i, j]]))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_losses.append(float(loss.data))
        losses.append(float(np.mean(epoch_losses)))
    return losses


def _tape_gain_matrix(log, batch, plan_embeddings, hidden_dim=32, epochs=30, seed=0):
    """Reference ``build_gain_matrix``: tape fit, tape forward for the unobserved pairs."""
    gains, observed = compute_scheduling_gains(log, batch)
    model = GainModel(plan_embeddings.shape[1], hidden_dim, np.random.default_rng(seed))
    _tape_fit(model, plan_embeddings, gains, observed, epochs=epochs, seed=seed)
    completed = gains.copy()
    with no_grad():
        for i in range(len(batch)):
            for j in range(i + 1, len(batch)):
                if not observed[i, j]:
                    value = float(_tape_forward(model, plan_embeddings[i], plan_embeddings[j]).data[0])
                    completed[i, j] = completed[j, i] = value
    return completed


def _assert_fits_match_tape(embeddings, gains, observed, hidden, epochs, seed):
    fast = GainModel(embeddings.shape[1], hidden, np.random.default_rng(seed))
    tape = GainModel(embeddings.shape[1], hidden, np.random.default_rng(seed))
    fast_losses = fast.fit(embeddings, gains, observed, epochs=epochs, seed=seed)
    tape_losses = _tape_fit(tape, embeddings, gains, observed, epochs=epochs, seed=seed)
    assert fast_losses == tape_losses
    for (name, got), (_, want) in zip(fast.named_parameters(), tape.named_parameters()):
        assert np.array_equal(got.data, want.data), name
    return fast, tape


class TestGainModelMatchesTape:
    """The hand-derived fit is bit-identical to fitting through the tape."""

    def test_fit_is_bit_identical(self, history_log, tpch_batch, plan_embeddings):
        gains, observed = compute_scheduling_gains(history_log, tpch_batch)
        fast, tape = _assert_fits_match_tape(plan_embeddings, gains, observed, hidden=16, epochs=8, seed=3)
        with no_grad():
            want = float(_tape_forward(tape, plan_embeddings[0], plan_embeddings[5]).data[0])
        assert fast.predict(plan_embeddings[0], plan_embeddings[5]) == want

    def test_gain_matrix_is_bit_identical(self, history_log, tpch_batch, plan_embeddings):
        fast = build_gain_matrix(history_log, tpch_batch, plan_embeddings, hidden_dim=16, epochs=6, seed=7)
        tape = _tape_gain_matrix(history_log, tpch_batch, plan_embeddings, hidden_dim=16, epochs=6, seed=7)
        assert np.array_equal(fast, tape)

    @given(
        n=st.integers(min_value=2, max_value=7),
        dim=st.integers(min_value=1, max_value=9),
        hidden=st.integers(min_value=1, max_value=12),
        epochs=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
        mask_bits=st.integers(min_value=1, max_value=2**21 - 1),
    )
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_fit_matches_tape_on_generated_problems(self, n, dim, hidden, epochs, seed, mask_bits):
        rng = np.random.default_rng(seed)
        embeddings = rng.normal(size=(n, dim))
        gains = rng.normal(0.0, 0.3, size=(n, n))
        gains = gains + gains.T
        # One bit per pair i < j (at most 21 pairs for n = 7).
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        observed = np.zeros((n, n), dtype=bool)
        for bit, (i, j) in enumerate(upper):
            if mask_bits >> bit & 1:
                observed[i, j] = observed[j, i] = True
        if not observed.any():
            observed[0, 1] = observed[1, 0] = True
        _assert_fits_match_tape(embeddings, gains, observed, hidden, epochs, seed)


class TestGainInputValidation:
    @pytest.fixture
    def problem(self):
        rng = np.random.default_rng(0)
        embeddings = rng.normal(size=(4, 3))
        gains = np.full((4, 4), 0.1)
        observed = ~np.eye(4, dtype=bool)
        return GainModel(3, 5, rng), embeddings, gains, observed

    def test_embedding_rows_must_match_gains(self, problem):
        model, embeddings, gains, observed = problem
        with pytest.raises(SchedulingError, match="plan embeddings"):
            model.fit(embeddings[:3], gains, observed, epochs=1)

    def test_build_gain_matrix_checks_embedding_rows(self, history_log, tpch_batch, plan_embeddings):
        with pytest.raises(SchedulingError, match="plan embeddings"):
            build_gain_matrix(history_log, tpch_batch, plan_embeddings[:-1], hidden_dim=4, epochs=1)

    def test_observed_shape_must_match_gains(self, problem):
        model, embeddings, gains, observed = problem
        with pytest.raises(SchedulingError, match="observed mask shape"):
            model.fit(embeddings, gains, observed[:3, :3], epochs=1)

    def test_observed_must_be_symmetric(self, problem):
        model, embeddings, gains, observed = problem
        observed[0, 1] = False
        with pytest.raises(SchedulingError, match="symmetric"):
            model.fit(embeddings, gains, observed, epochs=1)

    def test_observed_gains_must_be_finite(self, problem):
        model, embeddings, gains, observed = problem
        gains[2, 3] = gains[3, 2] = np.nan
        with pytest.raises(SchedulingError, match="finite"):
            model.fit(embeddings, gains, observed, epochs=1)

    def test_unobserved_gains_may_be_anything(self, problem):
        model, embeddings, gains, observed = problem
        gains[2, 3] = gains[3, 2] = np.inf
        observed[2, 3] = observed[3, 2] = False
        assert len(model.fit(embeddings, gains, observed, epochs=1)) == 1

    def test_net_must_be_two_layer_tanh(self, problem):
        model, embeddings, gains, observed = problem
        model.net = MLP([6, 5, 1], np.random.default_rng(1), activation="relu")
        with pytest.raises(SchedulingError, match="tanh"):
            model.fit(embeddings, gains, observed, epochs=1)
        with pytest.raises(SchedulingError, match="tanh"):
            model.predict(embeddings[0], embeddings[1])

    def test_net_must_have_one_hidden_layer(self, problem):
        model, embeddings, gains, observed = problem
        model.net = MLP([6, 5, 5, 1], np.random.default_rng(1), activation="tanh")
        with pytest.raises(SchedulingError, match="MLP"):
            model.fit(embeddings, gains, observed, epochs=1)


class TestClustering:
    def test_cluster_count_and_coverage(self, history_log, tpch_batch, tpch_knowledge):
        gains, _ = compute_scheduling_gains(history_log, tpch_batch)
        clusters = cluster_queries(tpch_batch, gains, num_clusters=5, knowledge=tpch_knowledge)
        assert clusters.num_clusters <= 5
        covered = sorted(qid for c in range(clusters.num_clusters) for qid in clusters.members(c))
        assert covered == list(range(len(tpch_batch)))

    def test_intra_order_mcf_is_descending(self, history_log, tpch_batch, tpch_knowledge):
        gains, _ = compute_scheduling_gains(history_log, tpch_batch)
        clusters = cluster_queries(tpch_batch, gains, num_clusters=4, knowledge=tpch_knowledge, intra_cluster_order="mcf")
        for cluster_id in range(clusters.num_clusters):
            times = [tpch_knowledge.average_time(qid) for qid in clusters.intra_order(cluster_id)]
            assert times == sorted(times, reverse=True)

    def test_one_cluster_per_query_is_identity(self, tpch_batch):
        n = len(tpch_batch)
        clusters = cluster_queries(tpch_batch, np.zeros((n, n)), num_clusters=n)
        assert clusters.num_clusters == n
        assert all(len(clusters.members(c)) == 1 for c in range(n))

    def test_invalid_inputs_rejected(self, tpch_batch):
        n = len(tpch_batch)
        with pytest.raises(SchedulingError):
            cluster_queries(tpch_batch, np.zeros((2, 2)), num_clusters=2)
        with pytest.raises(SchedulingError):
            cluster_queries(tpch_batch, np.zeros((n, n)), num_clusters=0)

    def test_import_repro_leaves_scipy_cluster_unloaded(self):
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, repro; print(sorted(m for m in sys.modules if m.startswith('scipy.cluster')))"
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"

    def test_cluster_of_matches_members(self, history_log, tpch_batch):
        gains, _ = compute_scheduling_gains(history_log, tpch_batch)
        clusters = cluster_queries(tpch_batch, gains, num_clusters=3)
        for cluster_id in range(clusters.num_clusters):
            for qid in clusters.members(cluster_id):
                assert clusters.cluster_of(qid) == cluster_id


@pytest.fixture(scope="module")
def simulator(tpch_batch, plan_embeddings, tpch_knowledge, config_space, history_log):
    sim = LearnedSimulator(
        batch=tpch_batch,
        plan_embeddings=plan_embeddings,
        knowledge=tpch_knowledge,
        config_space=config_space,
        config=SimulatorConfig(hidden_dim=24, epochs=3),
        seed=0,
    )
    sim.train_from_log(history_log)
    return sim


class TestLearnedSimulator:
    def test_training_reports_metrics(self, tpch_batch, plan_embeddings, tpch_knowledge, config_space, history_log):
        sim = LearnedSimulator(tpch_batch, plan_embeddings, tpch_knowledge, config_space, SimulatorConfig(hidden_dim=16, epochs=2), seed=1)
        metrics = sim.train_from_log(history_log)
        assert 0.0 <= metrics.accuracy <= 1.0
        assert metrics.mse >= 0.0
        assert metrics.num_examples > 0

    def test_attention_and_multitask_flags_change_model(self, tpch_batch, plan_embeddings, tpch_knowledge, config_space, history_log):
        base = SimulatorConfig(hidden_dim=16, epochs=2)
        no_attention = SimulatorConfig(hidden_dim=16, epochs=2, use_attention=False)
        sim_a = LearnedSimulator(tpch_batch, plan_embeddings, tpch_knowledge, config_space, base, seed=2)
        sim_b = LearnedSimulator(tpch_batch, plan_embeddings, tpch_knowledge, config_space, no_attention, seed=2)
        metrics_a = sim_a.train_from_log(history_log)
        metrics_b = sim_b.train_from_log(history_log)
        assert metrics_a.num_examples == metrics_b.num_examples

    def test_update_from_log_runs(self, simulator, history_log):
        metrics = simulator.update_from_log(history_log)
        assert metrics.num_examples > 0

    def test_untrained_simulator_rejects_empty_log(self, tpch_batch, plan_embeddings, tpch_knowledge, config_space):
        from repro.dbms import ExecutionLog

        sim = LearnedSimulator(tpch_batch, plan_embeddings, tpch_knowledge, config_space, SimulatorConfig(hidden_dim=16), seed=0)
        with pytest.raises(SimulationError):
            sim.train_from_log(ExecutionLog())

    def test_simulated_session_protocol(self, simulator, tpch_batch):
        session = simulator.new_session(tpch_batch, num_connections=3, round_id=0)
        assert session.has_idle_connection and session.has_pending and not session.is_done
        session.submit(0, RunningParameters(1, 64))
        session.submit(1, RunningParameters(2, 256))
        assert session.num_running == 2
        session.advance()
        assert len(session.finished) == 1
        assert session.current_time > 0
        assert session.makespan == session.current_time

    def test_simulated_session_validation(self, simulator, tpch_batch):
        session = simulator.new_session(tpch_batch, num_connections=1)
        with pytest.raises(SimulationError):
            session.advance()
        session.submit(0, RunningParameters(1, 64))
        with pytest.raises(SimulationError):
            session.submit(0, RunningParameters(1, 64))
        with pytest.raises(SimulationError):
            session.submit(1, RunningParameters(1, 64))

    def test_full_episode_on_simulator_backend(self, simulator, tpch_batch, small_config, config_space, tpch_knowledge):
        env = SchedulingEnv(
            batch=tpch_batch,
            backend=simulator,
            scheduler_config=small_config.scheduler,
            config_space=config_space,
            knowledge=tpch_knowledge,
            mask=AdaptiveMask.unmasked(len(tpch_batch), len(config_space)),
        )
        result = FIFOScheduler().run_round(env, round_id=0)
        assert result.num_queries == len(tpch_batch)
        assert result.makespan > 0
