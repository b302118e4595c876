"""Scheduling gain between query pairs (Section IV-B).

The scheduling gain quantifies how much two queries help (or hurt) each
other when executed concurrently.  For every concurrent execution of queries
``i`` and ``j`` observed in the logs, the acceleration of each query over its
own average execution time is weighted by the fraction of its execution that
overlapped the other query, and by the square root of its average time (the
paper weights complex queries more heavily).  Averaging over all such
executions yields a symmetric gain.

Not every pair appears in the logs, so a small MLP over pairs of QueryFormer
plan embeddings is fitted to the observed gains and used to fill in the
missing entries, which is what lets the clustering generalise.
"""

from __future__ import annotations

import numpy as np

from ..dbms import ExecutionLog
from ..exceptions import SchedulingError
from ..nn import Activation, Adam, Linear, MLP, Module, Parameter
from ..workloads import BatchQuerySet

__all__ = ["compute_scheduling_gains", "GainModel", "build_gain_matrix"]


def compute_scheduling_gains(log: ExecutionLog, batch: BatchQuerySet) -> tuple[np.ndarray, np.ndarray]:
    """Compute observed pairwise scheduling gains from execution logs.

    Returns ``(gains, observed)``: an ``(n, n)`` symmetric gain matrix and a
    boolean matrix marking which pairs were actually observed concurrently.
    Unobserved pairs hold 0.
    """
    n = len(batch)
    averages = log.average_execution_times()
    gains = np.zeros((n, n), dtype=np.float64)
    observed = np.zeros((n, n), dtype=bool)
    for (query_i, query_j), executions in log.pairwise_overlaps().items():
        avg_i = averages.get(query_i)
        avg_j = averages.get(query_j)
        if not avg_i or not avg_j:
            continue
        weight_i, weight_j = np.sqrt(avg_i), np.sqrt(avg_j)
        terms = []
        for overlap, time_i, time_j in executions:
            if time_i <= 0 or time_j <= 0:
                continue
            acceleration_i = 1.0 - time_i / avg_i
            acceleration_j = 1.0 - time_j / avg_j
            overlap_i = overlap / time_i
            overlap_j = overlap / time_j
            terms.append(
                (overlap_i * acceleration_i * weight_i + overlap_j * acceleration_j * weight_j)
                / (weight_i + weight_j)
            )
        if not terms:
            continue
        value = float(np.mean(terms))
        gains[query_i, query_j] = gains[query_j, query_i] = value
        observed[query_i, query_j] = observed[query_j, query_i] = True
    return gains, observed


class GainModel(Module):
    """Symmetric MLP predicting the scheduling gain of a query pair.

    Symmetry is enforced by evaluating the MLP on both orderings of the pair
    and summing, exactly as in the paper.

    The net is a fixed ``MLP([2d, h, 1], tanh)``, so fitting and prediction
    run a hand-derived forward and backward on plain arrays instead of the
    autograd tape.  Every operation mirrors the tape's own arithmetic (one
    gemv per layer and ordering, ``tanh' = 1 - t**2``, each parameter's two
    branch gradients summed once), so the trained weights, the losses and
    the predictions are bit-identical to fitting through the tape.
    """

    def __init__(self, plan_embedding_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.net = MLP([2 * plan_embedding_dim, hidden_dim, 1], rng, activation="tanh")

    def _checked_parameters(self, embedding_dim: int) -> tuple[Parameter, Parameter, Parameter, Parameter]:
        """``(W1, b1, W2, b2)`` of the net; anything but ``Linear-tanh-Linear`` is refused."""
        layers = list(self.net.net) if isinstance(self.net, MLP) else []
        shape_ok = (
            len(layers) == 3
            and isinstance(layers[0], Linear)
            and isinstance(layers[1], Activation)
            and layers[1].name == "tanh"
            and isinstance(layers[2], Linear)
            and layers[0].bias is not None
            and layers[2].bias is not None
            and layers[0].out_features == layers[2].in_features
            and layers[2].out_features == 1
        )
        if not shape_ok:
            raise SchedulingError("gain model net must be MLP([2d, h, 1]) with tanh and biases")
        first, second = layers[0], layers[2]
        if first.in_features != 2 * embedding_dim:
            raise SchedulingError(
                f"gain model expects {first.in_features // 2}-dim plan embeddings, got {embedding_dim}"
            )
        return first.weight, first.bias, second.weight, second.bias

    def fit(
        self,
        embeddings: np.ndarray,
        gains: np.ndarray,
        observed: np.ndarray,
        epochs: int = 30,
        learning_rate: float = 1e-2,
        seed: int = 0,
    ) -> list[float]:
        """Fit the model to the observed entries of the gain matrix.

        Sequential per-pair Adam on the squared error, pairs reshuffled every
        epoch; returns the mean loss of each epoch.
        """
        embeddings = _check_gain_inputs(embeddings, gains, observed)
        params = self._checked_parameters(embeddings.shape[1])
        weights = [param.data for param in params]
        n = gains.shape[0]
        # (forward ordering, reverse ordering, target) per observed pair i < j.
        pairs = [
            (
                np.concatenate([embeddings[i], embeddings[j]]),
                np.concatenate([embeddings[j], embeddings[i]]),
                np.array([gains[i, j]], dtype=np.float64),
            )
            for i in range(n)
            for j in range(i + 1, n)
            if observed[i, j]
        ]
        if not pairs:
            raise SchedulingError("gain model needs at least one observed pair to fit")

        # One flat parameter holds W1|b1|W2|b2; the layers are views into it.
        layout = _flat_layout(weights)
        flat = Parameter(np.concatenate([w.ravel() for w in weights]))
        optimizer = Adam([flat], lr=learning_rate)
        flat.grad = np.empty_like(flat.data)
        grad_w1, grad_b1, grad_w2, grad_b2 = _views(flat.grad, layout)
        scratch_w1, scratch_w2 = np.empty_like(grad_w1), np.empty_like(grad_w2)

        rng = np.random.default_rng(seed)
        losses = []
        for _ in range(epochs):
            rng.shuffle(pairs)
            epoch_losses = []
            for pair_f, pair_r, target in pairs:
                # Adam replaces flat.data every step, so re-slice each time.
                w1, b1, w2, b2 = _views(flat.data, layout)
                prediction, hidden_f, hidden_r = _pair_forward(w1, b1, w2, b2, pair_f, pair_r)
                diff = prediction - target
                # d(diff*diff)/d(diff), accumulated the way the tape does.
                grad_out = diff + diff
                # Each parameter gets one gradient per ordering, summed once
                # (a two-term sum does not depend on the order).
                np.add(grad_out, grad_out, out=grad_b2)
                np.multiply(hidden_f[:, None], grad_out, out=grad_w2)
                grad_w2 += np.multiply(hidden_r[:, None], grad_out, out=scratch_w2)
                grad_hidden = grad_out @ w2.T
                delta_f = grad_hidden * (1.0 - hidden_f**2)
                delta_r = grad_hidden * (1.0 - hidden_r**2)
                np.add(delta_f, delta_r, out=grad_b1)
                np.multiply(pair_f[:, None], delta_f, out=grad_w1)
                grad_w1 += np.multiply(pair_r[:, None], delta_r, out=scratch_w1)
                optimizer.step()
                epoch_losses.append(float(diff[0] * diff[0]))
            losses.append(float(np.mean(epoch_losses)))

        for param, value in zip(params, _views(flat.data, layout)):
            param.data = value.copy()
        return losses

    def predict(self, embedding_i: np.ndarray, embedding_j: np.ndarray) -> float:
        """Predicted gain of running the two queries together (symmetric)."""
        embedding_i = np.asarray(embedding_i, dtype=np.float64)
        embedding_j = np.asarray(embedding_j, dtype=np.float64)
        w1, b1, w2, b2 = (param.data for param in self._checked_parameters(embedding_i.shape[0]))
        pair_f = np.concatenate([embedding_i, embedding_j])
        pair_r = np.concatenate([embedding_j, embedding_i])
        return float(_pair_forward(w1, b1, w2, b2, pair_f, pair_r)[0][0])


def _flat_layout(weights: list[np.ndarray]) -> list[tuple[slice, tuple[int, ...]]]:
    """Where each of ``weights`` lives in their concatenation, and its shape."""
    bounds = np.cumsum([0] + [w.size for w in weights])
    return [(slice(int(bounds[k]), int(bounds[k + 1])), w.shape) for k, w in enumerate(weights)]


def _views(flat: np.ndarray, layout: list[tuple[slice, tuple[int, ...]]]) -> list[np.ndarray]:
    return [flat[where].reshape(shape) for where, shape in layout]


def _pair_forward(
    w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray, pair_f: np.ndarray, pair_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``net(pair_f) + net(pair_r)`` plus both hidden activations, one gemv per layer."""
    hidden_f = np.tanh(pair_f @ w1 + b1)
    hidden_r = np.tanh(pair_r @ w1 + b1)
    return (hidden_f @ w2 + b2) + (hidden_r @ w2 + b2), hidden_f, hidden_r


def _check_gain_inputs(embeddings: np.ndarray, gains: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Validate the gain-fit inputs; returns the embeddings as float64."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    gains = np.asarray(gains)
    observed = np.asarray(observed, dtype=bool)
    if embeddings.ndim != 2 or gains.ndim != 2 or gains.shape[0] != gains.shape[1]:
        raise SchedulingError(
            f"need 2-D embeddings and a square gain matrix, got {embeddings.shape} and {gains.shape}"
        )
    if embeddings.shape[0] != gains.shape[0]:
        raise SchedulingError(f"{embeddings.shape[0]} plan embeddings for a {gains.shape[0]}-query gain matrix")
    if observed.shape != gains.shape:
        raise SchedulingError(f"observed mask shape {observed.shape} does not match gains {gains.shape}")
    if not np.array_equal(observed, observed.T):
        raise SchedulingError("observed mask must be symmetric")
    if not np.isfinite(gains[observed]).all():
        raise SchedulingError("observed scheduling gains must be finite")
    return embeddings


def build_gain_matrix(
    log: ExecutionLog,
    batch: BatchQuerySet,
    plan_embeddings: np.ndarray | None = None,
    hidden_dim: int = 32,
    epochs: int = 30,
    seed: int = 0,
) -> np.ndarray:
    """Observed gains completed with model predictions for unobserved pairs.

    When ``plan_embeddings`` is omitted (or no pair was observed concurrently)
    the unobserved entries stay at zero.
    """
    gains, observed = compute_scheduling_gains(log, batch)
    if plan_embeddings is None:
        return gains
    plan_embeddings = _check_gain_inputs(plan_embeddings, gains, observed)
    if not observed.any():
        return gains
    model = GainModel(plan_embeddings.shape[1], hidden_dim, np.random.default_rng(seed))
    model.fit(plan_embeddings, gains, observed, epochs=epochs, seed=seed)
    completed = gains.copy()
    n = len(batch)
    for i in range(n):
        for j in range(i + 1, n):
            if not observed[i, j]:
                value = model.predict(plan_embeddings[i], plan_embeddings[j])
                completed[i, j] = completed[j, i] = value
    return completed
