"""NetLLM adapters: frozen LLM + multimodal encoder + networking head.

Two adapter shapes cover the paper's tasks:

* :class:`VPAdapter` — the supervised-prediction shape (Figure 6): the history
  time series and the saliency image are each encoded into one token-like
  embedding, the frozen LLM contextualizes them, and the VP head regresses
  the future viewport residuals from the last output feature.
* :class:`DecisionAdapter` — the decision-making shape used for ABR and CJS
  under DD-LRNA (§4.3): trajectories are laid out as
  ``(return-to-go, state, action)`` token triples per timestep (the
  Transformer-based data-driven RL formulation the paper builds on); the
  action for step *t* is predicted from the LLM output feature at the state
  token of step *t* through the task's networking head.

In every adapter the LLM backbone is frozen; only the encoders, the heads and
the LoRA matrices inside the backbone are trainable.  :meth:`trainable_parameters`
therefore returns exactly the parameter set DD-LRNA updates.

Each adapter has two forwards: the graph ``forward`` DD-LRNA trains through,
and one raw-array inference implementation (``predict_batch`` /
``act_batch``; ``predict`` / ``act`` are its one-row call) that packs windows
of different lengths into a single LLM pass read at each row's last position
(``docs/decisions.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..llm import LanguageModel
from ..nn import (
    Embedding,
    LayerNorm,
    Module,
    Tensor,
    concatenate,
    get_default_dtype,
    no_grad,
    stack,
)
from .encoder import ImageEncoder, ScalarEncoder, TimeSeriesEncoder
from .heads import ABRHead, CJSHead, VPHead

#: Scale (degrees) for normalizing viewport angles inside the VP adapter.
VP_ANGLE_SCALE = 60.0


class NetLLMAdapter(Module):
    """Common plumbing shared by the task adapters."""

    def __init__(self, llm: LanguageModel) -> None:
        super().__init__()
        self.llm = llm
        self.llm.freeze_backbone()

    # ------------------------------------------------------------------ #
    def trainable_parameters(self):  # type: ignore[override]
        return [p for p in self.parameters() if p.requires_grad]

    def set_domain_knowledge_enabled(self, enabled: bool) -> None:
        """Enable/disable the learned LoRA matrices (Figure 13 ablation)."""
        self.llm.set_lora_enabled(enabled)

    def trainable_fraction(self) -> float:
        total = self.num_parameters()
        trainable = sum(p.size for p in self.trainable_parameters())
        return trainable / total if total else 0.0


class VPAdapter(NetLLMAdapter):
    """NetLLM adapter for viewport prediction (SL task)."""

    def __init__(self, llm: LanguageModel, prediction_steps: int,
                 use_saliency: bool = True, seed: int = 0) -> None:
        super().__init__(llm)
        rng = np.random.default_rng(seed)
        d_model = llm.d_model
        self.prediction_steps = prediction_steps
        self.use_saliency = use_saliency
        # The time-series feature encoder consumes both the position residuals
        # (relative to the last observed viewport) and their first differences
        # (angular velocity) — 6 channels in total.
        self.history_encoder = TimeSeriesEncoder(in_channels=6, d_model=d_model, rng=rng)
        if use_saliency:
            self.saliency_encoder = ImageEncoder(d_model=d_model, rng=rng)
        self.head = VPHead(d_model, prediction_steps, rng=rng)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _history_inputs(histories: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(batch, steps, 3)`` raw angles -> the encoder's 6 input channels
        and the last observed viewport ``(batch, 1, 3)`` they are relative to."""
        histories = np.asarray(histories, dtype=np.float64)
        last = histories[:, -1:, :]
        normalized = (histories - last) / VP_ANGLE_SCALE
        velocities = np.concatenate(
            [np.zeros_like(histories[:, :1, :]), np.diff(histories, axis=1)], axis=1) / 10.0
        return np.concatenate([normalized, velocities], axis=2), last

    def forward(self, histories: np.ndarray, saliencies: Optional[np.ndarray]) -> Tensor:
        """Predict future viewports.

        Parameters
        ----------
        histories:
            ``(batch, history_steps, 3)`` raw viewport angles in degrees.
        saliencies:
            ``(batch, H, W)`` saliency maps or ``None``.

        Returns
        -------
        Tensor
            ``(batch, prediction_steps, 3)`` predicted viewport angles.
        """
        inputs, last = self._history_inputs(histories)
        # One token per history step (so attention sees the temporal structure),
        # optionally followed by one token for the video-content saliency map.
        history_tokens = self.history_encoder.forward_sequence(Tensor(inputs))
        if self.use_saliency and saliencies is not None:
            saliency_token = self.saliency_encoder(np.asarray(saliencies, dtype=np.float64))
            sequence = concatenate(
                [history_tokens, saliency_token.reshape(len(inputs), 1, -1)], axis=1)
        else:
            sequence = history_tokens
        features = self.llm.forward_embeddings(sequence, causal=True)
        final = features[:, -1, :]
        residual = self.head(final)
        return residual * VP_ANGLE_SCALE + Tensor(last)

    def predict(self, sample) -> np.ndarray:
        """Predict for a single :class:`~repro.vp.task.VPSample` (inference API)."""
        return self.predict_batch([sample])[0]

    def predict_batch(self, samples: Sequence) -> List[np.ndarray]:
        """Predict for many samples in one packed forward (the inference path).

        Histories may differ in length from sample to sample: tokens are
        packed back to back, nothing is padded, and each prediction equals
        :meth:`predict` on its sample alone.  The video-content saliency map
        is used by all of the samples or by none (the serving engine groups
        requests accordingly before calling this).
        """
        if not samples:
            return []
        with_saliency = (sum(sample.saliency is not None for sample in samples)
                         if self.use_saliency else 0)
        if 0 < with_saliency < len(samples):
            raise ValueError(
                "predict_batch needs uniform saliency presence: got "
                f"{with_saliency}/{len(samples)} samples with saliency "
                "(group them before batching)")
        dtype = get_default_dtype()
        # Rows sorted by history length: equal lengths encode and attend as
        # one stacked run each.
        order = sorted(range(len(samples)), key=lambda row: len(samples[row].history))
        ordered = [samples[row] for row in order]
        with no_grad():
            saliency_tokens = None
            if with_saliency:
                saliency_tokens = self.saliency_encoder.apply(
                    np.stack([sample.saliency for sample in ordered]))
            packed, lasts, lengths = [], [], []
            for steps, run in groupby(ordered, key=lambda sample: len(sample.history)):
                inputs, last = self._history_inputs(
                    np.stack([sample.history for sample in run]))
                tokens = self.history_encoder.apply_sequence(inputs.astype(dtype, copy=False))
                if saliency_tokens is not None:
                    rows = slice(len(lengths), len(lengths) + len(tokens))
                    tokens = np.concatenate(
                        [tokens, saliency_tokens[rows, None, :]], axis=1)
                packed.append(tokens.reshape(-1, tokens.shape[-1]))
                lasts.append(last)
                lengths += [tokens.shape[1]] * len(tokens)
            features = self.llm.last_position_features(np.concatenate(packed), lengths)
            predictions = (self.head.apply(features) * VP_ANGLE_SCALE
                           + np.concatenate(lasts).astype(dtype, copy=False))
        return list(predictions[np.argsort(order)])


@dataclass
class DecisionBatch:
    """One mini-batch of trajectory windows for the decision adapter."""

    returns: np.ndarray        # (batch, window, 1) return-to-go, normalized
    states: np.ndarray         # (batch, window, state_dim)
    actions: np.ndarray        # (batch, window, num_components) integer actions
    valid_masks: Optional[np.ndarray] = None  # (batch, window, max_candidates) for CJS


class DecisionAdapter(NetLLMAdapter):
    """Return-conditioned NetLLM adapter for decision-making tasks (ABR, CJS)."""

    def __init__(self, llm: LanguageModel, state_dim: int, action_dims: Sequence[int],
                 context_window: int = 10, head: str = "abr", max_candidates: int = 8,
                 seed: int = 0) -> None:
        super().__init__(llm)
        rng = np.random.default_rng(seed)
        d_model = llm.d_model
        self.state_dim = state_dim
        self.action_dims = tuple(int(a) for a in action_dims)
        self.context_window = context_window
        self.head_kind = head

        # Modality encoders: return, state and (previous) action tokens.
        self.return_encoder = ScalarEncoder(1, d_model, rng=rng)
        self.state_encoder = ScalarEncoder(state_dim, d_model, rng=rng)
        self.action_embeddings = []
        for index, dim in enumerate(self.action_dims):
            embedding = Embedding(dim + 1, d_model, rng=rng)  # +1 for "no action yet"
            setattr(self, f"action_embedding{index}", embedding)
            self.action_embeddings.append(embedding)
        self.action_norm = LayerNorm(d_model)

        if head == "abr":
            if len(self.action_dims) != 1:
                raise ValueError("ABR head expects a single action component")
            self.head = ABRHead(d_model, self.action_dims[0], rng=rng)
        elif head == "cjs":
            if len(self.action_dims) != 2:
                raise ValueError("CJS head expects two action components")
            self.head = CJSHead(d_model, max_candidates=self.action_dims[0],
                                num_parallelism_buckets=self.action_dims[1], rng=rng)
        else:
            raise ValueError(f"unknown head kind {head!r}")

    # ------------------------------------------------------------------ #
    def _action_token(self, actions: np.ndarray) -> Tensor:
        """Embed a ``(batch, window, components)`` action array into tokens."""
        pieces = [emb(actions[..., i]) for i, emb in enumerate(self.action_embeddings)]
        token = pieces[0]
        for piece in pieces[1:]:
            token = token + piece
        return self.action_norm(token)

    def forward(self, batch: DecisionBatch) -> List[Tensor]:
        """Return per-component action logits at every timestep.

        The trajectory window is laid out as ``R_1 s_1 a_1 R_2 s_2 a_2 ...``;
        the logits for the action of step *t* are read from the LLM output at
        the *state* token of step *t* (so the model never peeks at ``a_t``).
        Previous actions are shifted right by one inside the action tokens.
        """
        returns = np.asarray(batch.returns, dtype=np.float64)
        states = np.asarray(batch.states, dtype=np.float64)
        actions = np.asarray(batch.actions, dtype=np.int64)
        batch_size, window, _ = states.shape

        # Previous-action tokens: shift actions right; position 0 uses the
        # dedicated "no action yet" embedding index (== dim).
        previous = np.empty_like(actions)
        previous[:, 1:, :] = actions[:, :-1, :]
        for index, dim in enumerate(self.action_dims):
            previous[:, 0, index] = dim

        return_tokens = self.return_encoder(Tensor(returns.reshape(batch_size * window, 1)))
        state_tokens = self.state_encoder(Tensor(states.reshape(batch_size * window, -1)))
        action_tokens = self._action_token(previous.reshape(batch_size * window, -1))

        d_model = self.llm.d_model
        return_tokens = return_tokens.reshape(batch_size, window, d_model)
        state_tokens = state_tokens.reshape(batch_size, window, d_model)
        action_tokens = action_tokens.reshape(batch_size, window, d_model)

        # Interleave: for each step stack [action_{t-1}, return_t, state_t].
        per_step = stack([action_tokens, return_tokens, state_tokens], axis=2)
        sequence = per_step.reshape(batch_size, window * 3, d_model)
        features = self.llm.forward_embeddings(sequence, causal=True)
        # State tokens sit at positions 2, 5, 8, ... = 3t + 2.
        state_positions = np.arange(window) * 3 + 2
        return list(self.head(features[:, state_positions, :]))

    # ------------------------------------------------------------------ #
    def last_logits(self, returns: Sequence[np.ndarray], states: Sequence[np.ndarray],
                    actions: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Per-component action logits at the latest state of every window.

        The inference counterpart of :meth:`forward`, on raw arrays: row *i*
        of ``returns`` / ``states`` / ``actions`` is one context window
        ``(w_i, 1)`` / ``(w_i, state_dim)`` / ``(w_i, components)`` and the
        ``w_i`` may all differ — a stacked ``(batch, window, ...)`` array is
        the same thing with one length.  All windows go through the LLM as
        one packed forward whose final block runs at each window's last
        state token only; the result is one ``(batch, dim)`` array per action
        component, equal to ``forward(...)[component][row, -1]`` for each row
        alone.
        """
        dtype = get_default_dtype()
        # Rows sorted by window length, so equal lengths attend as one run.
        order = sorted(range(len(states)), key=lambda row: len(states[row]))
        windows = [len(states[row]) for row in order]

        def packed(rows: Sequence[np.ndarray], as_type) -> np.ndarray:
            return np.concatenate([rows[row] for row in order]).astype(as_type, copy=False)

        taken = packed(actions, np.int64)
        # Previous-action tokens: shifted right by one inside every window,
        # whose first step takes the "no action yet" index (== dim).
        previous = np.empty_like(taken)
        previous[1:] = taken[:-1]
        previous[np.cumsum(windows) - windows] = self.action_dims
        with no_grad():
            action_tokens = self.action_embeddings[0].apply(previous[:, 0])
            for index, embedding in enumerate(self.action_embeddings[1:], start=1):
                action_tokens = action_tokens + embedding.apply(previous[:, index])
            # Interleave [action_{t-1}, return_t, state_t] per step.
            tokens = np.stack([self.action_norm.apply(action_tokens),
                               self.return_encoder.apply(packed(returns, dtype)),
                               self.state_encoder.apply(packed(states, dtype))], axis=1)
            features = self.llm.last_position_features(
                tokens.reshape(-1, tokens.shape[-1]), [3 * window for window in windows])
            logits = self.head.apply(features)
        inverse = np.argsort(order)
        return [component[inverse] for component in logits]

    def act(self, returns: np.ndarray, states: np.ndarray, actions: np.ndarray,
            valid_mask: Optional[np.ndarray] = None) -> Tuple[int, ...]:
        """Greedy action for the latest state in a context window (inference).

        ``returns``/``states``/``actions`` hold the most recent ``<= context_window``
        steps (the action for the last step is a placeholder and unused).
        """
        return self.act_batch([returns], [states], [actions],
                              None if valid_mask is None else [valid_mask])[0]

    def act_batch(self, returns: Sequence[np.ndarray], states: Sequence[np.ndarray],
                  actions: Sequence[np.ndarray],
                  valid_masks: Optional[Sequence[np.ndarray]] = None
                  ) -> List[Tuple[int, ...]]:
        """Greedy actions for many independent context windows in one forward.

        Inputs are sequences of per-row windows whose lengths may differ
        (see :meth:`last_logits`; a stacked ``(batch, window, ...)`` array is
        the equal-length case).  ``valid_masks`` holds one
        ``(max_candidates,)`` mask per row.  Returns one action tuple per
        row, equal to calling :meth:`act` on each row alone.
        """
        scores = self.last_logits(returns, states, actions)
        if valid_masks is not None:
            scores[0] = np.where(np.asarray(valid_masks) > 0, scores[0], -1e9)
        chosen = [np.argmax(component, axis=-1) for component in scores]
        return [tuple(int(choice[row]) for choice in chosen)
                for row in range(len(chosen[0]))]
