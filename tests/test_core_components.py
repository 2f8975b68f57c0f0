"""Tests for NetLLM core components: encoders, heads, adapters, experience pool."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ABRHead,
    DecisionAdapter,
    DecisionBatch,
    DiscreteEncoder,
    ExperiencePool,
    GraphModalityEncoder,
    ImageEncoder,
    ScalarEncoder,
    TASKS,
    TimeSeriesEncoder,
    Trajectory,
    VPAdapter,
    VPHead,
    tokens_to_sequence,
)
from repro.nn import Tensor, no_grad
from repro.vp import VPSample


class TestEncoders:
    def test_time_series_encoder_single_token(self):
        encoder = TimeSeriesEncoder(in_channels=3, d_model=32)
        out = encoder(Tensor(np.random.default_rng(0).normal(size=(4, 10, 3))))
        assert out.shape == (4, 32)

    def test_time_series_encoder_sequence_tokens(self):
        encoder = TimeSeriesEncoder(in_channels=3, d_model=32)
        out = encoder.forward_sequence(Tensor(np.random.default_rng(0).normal(size=(4, 10, 3))))
        assert out.shape == (4, 10, 32)

    def test_image_encoder_frozen_backbone(self):
        encoder = ImageEncoder(d_model=32, freeze_backbone=True)
        images = np.random.default_rng(0).random((2, 32, 32))
        assert encoder(images).shape == (2, 32)
        backbone_params = encoder.encoder.parameters()
        assert all(not p.requires_grad for p in backbone_params)
        projector_params = encoder.projector.parameters()
        assert all(p.requires_grad for p in projector_params)

    def test_scalar_encoder(self):
        encoder = ScalarEncoder(in_features=5, d_model=16)
        assert encoder(Tensor(np.ones((3, 5)))).shape == (3, 16)

    def test_graph_encoder_batches_graphs(self):
        encoder = GraphModalityEncoder(node_features=3, d_model=16)
        features = [np.random.default_rng(i).normal(size=(4, 3)) for i in range(2)]
        adjacency = [np.eye(4) * 0 for _ in range(2)]
        assert encoder(features, adjacency).shape == (2, 16)

    def test_discrete_encoder(self):
        encoder = DiscreteEncoder(num_values=7, d_model=12)
        assert encoder(np.array([[0, 6], [3, 2]])).shape == (2, 2, 12)

    def test_tokens_to_sequence(self):
        tokens = [Tensor(np.ones((2, 8))), Tensor(np.zeros((2, 8)))]
        assert tokens_to_sequence(tokens).shape == (2, 2, 8)
        with pytest.raises(ValueError):
            tokens_to_sequence([])

    def test_token_embeddings_are_normalized(self):
        """Layer normalization keeps token embeddings well-scaled (§4.1)."""
        encoder = ScalarEncoder(in_features=4, d_model=32)
        out = encoder(Tensor(np.random.default_rng(0).normal(0, 100, size=(6, 4)))).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(6), atol=1e-6)


class TestHeads:
    def test_vp_head_output_shape(self):
        head = VPHead(d_model=16, prediction_steps=5)
        out = head(Tensor(np.random.default_rng(0).normal(size=(3, 16))))
        assert out.shape == (3, 5, 3)

    @staticmethod
    def _random_windows(rows, window, state_dim, action_dims, seed):
        rng = np.random.default_rng(seed)
        returns = [rng.normal(size=(window, 1)) for _ in range(rows)]
        states = [rng.normal(size=(window, state_dim)) for _ in range(rows)]
        actions = [np.stack([rng.integers(0, dim, size=window) for dim in action_dims],
                            axis=1) for _ in range(rows)]
        return returns, states, actions

    def test_abr_head_always_valid(self, tiny_llm):
        """The answer rule (``act_batch``'s arg-max) picks a real bitrate."""
        adapter = DecisionAdapter(tiny_llm, state_dim=5, action_dims=(6,), context_window=3,
                                  head="abr", seed=1)
        answers = adapter.act_batch(*self._random_windows(10, 3, 5, (6,), seed=1))
        assert len(answers) == 10
        assert all(len(answer) == 1 and 0 <= answer[0] < 6 for answer in answers)

    def test_cjs_head_masking(self, tiny_llm):
        adapter = DecisionAdapter(tiny_llm, state_dim=5, action_dims=(8, 4), context_window=3,
                                  head="cjs", seed=2)
        mask = np.zeros(8)
        mask[:3] = 1.0
        answers = adapter.act_batch(*self._random_windows(5, 3, 5, (8, 4), seed=2),
                                    valid_masks=[mask] * 5)
        assert all(stage < 3 and 0 <= bucket < 4 for stage, bucket in answers)

    def test_single_inference_answer_generation(self, tiny_llm):
        """The networking head produces an answer from ONE LLM forward pass."""
        head = ABRHead(d_model=tiny_llm.d_model, num_bitrates=6)
        embeddings = np.random.default_rng(0).normal(size=(4, tiny_llm.d_model))
        with no_grad():
            features = tiny_llm.last_position_features(embeddings, [len(embeddings)])
        (logits,) = head.apply(features)
        choice = np.argmax(logits, axis=-1)
        assert choice.shape == (1,)
        assert 0 <= int(choice[0]) < 6


class TestVPAdapter:
    def test_forward_and_predict_shapes(self, tiny_llm, vp_data):
        setting, train, _ = vp_data
        adapter = VPAdapter(tiny_llm, prediction_steps=setting.prediction_steps, seed=0)
        histories = np.stack([s.history for s in train[:3]])
        saliencies = np.stack([s.saliency for s in train[:3]])
        out = adapter.forward(histories, saliencies)
        assert out.shape == (3, setting.prediction_steps, 3)
        single = adapter.predict(train[0])
        assert single.shape == (setting.prediction_steps, 3)

    def test_backbone_frozen_adapter_trainable(self, tiny_llm, vp_data):
        setting, _, _ = vp_data
        adapter = VPAdapter(tiny_llm, prediction_steps=setting.prediction_steps, seed=0)
        fraction = adapter.trainable_fraction()
        assert 0 < fraction < 1.0
        llm_frozen = [p for n, p in adapter.llm.named_parameters()
                      if not (n.endswith("lora_a") or n.endswith("lora_b"))]
        assert all(not p.requires_grad for p in llm_frozen)

    def test_works_without_saliency(self, tiny_llm, vp_data):
        setting, train, _ = vp_data
        adapter = VPAdapter(tiny_llm, prediction_steps=setting.prediction_steps,
                            use_saliency=False, seed=0)
        out = adapter.forward(np.stack([s.history for s in train[:2]]), None)
        assert out.shape == (2, setting.prediction_steps, 3)

    def test_domain_knowledge_toggle(self, tiny_llm, vp_data):
        setting, train, _ = vp_data
        adapter = VPAdapter(tiny_llm, prediction_steps=setting.prediction_steps, seed=0)
        adapter.set_domain_knowledge_enabled(False)
        adapter.set_domain_knowledge_enabled(True)


class TestDecisionAdapter:
    def test_abr_adapter_shapes(self, tiny_llm):
        adapter = DecisionAdapter(tiny_llm, state_dim=12, action_dims=(6,), context_window=4,
                                  head="abr", seed=0)
        batch = DecisionBatch(
            returns=np.ones((2, 4, 1)),
            states=np.random.default_rng(0).normal(size=(2, 4, 12)),
            actions=np.random.default_rng(1).integers(0, 6, size=(2, 4, 1)),
        )
        logits = adapter.forward(batch)
        assert len(logits) == 1
        assert logits[0].shape == (2, 4, 6)

    def test_cjs_adapter_two_heads(self, tiny_llm):
        adapter = DecisionAdapter(tiny_llm, state_dim=10, action_dims=(8, 4), context_window=3,
                                  head="cjs", seed=0)
        batch = DecisionBatch(
            returns=np.zeros((1, 3, 1)),
            states=np.zeros((1, 3, 10)),
            actions=np.zeros((1, 3, 2), dtype=np.int64),
        )
        stage_logits, parallel_logits = adapter.forward(batch)
        assert stage_logits.shape == (1, 3, 8)
        assert parallel_logits.shape == (1, 3, 4)

    def test_act_returns_valid_components(self, tiny_llm):
        adapter = DecisionAdapter(tiny_llm, state_dim=10, action_dims=(8, 4), context_window=3,
                                  head="cjs", seed=0)
        mask = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=float)
        stage, bucket = adapter.act(np.zeros((2, 1)), np.zeros((2, 10)),
                                    np.zeros((2, 2), dtype=np.int64), valid_mask=mask)
        assert stage in (0, 1)
        assert 0 <= bucket < 4

    def test_head_kind_validation(self, tiny_llm):
        with pytest.raises(ValueError):
            DecisionAdapter(tiny_llm, state_dim=4, action_dims=(3, 2), head="abr")
        with pytest.raises(ValueError):
            DecisionAdapter(tiny_llm, state_dim=4, action_dims=(3,), head="cjs")
        with pytest.raises(ValueError):
            DecisionAdapter(tiny_llm, state_dim=4, action_dims=(3,), head="unknown")


class TestExperiencePool:
    def _trajectory(self, length=6, reward=1.0, name="p"):
        return Trajectory(states=np.random.default_rng(0).normal(size=(length, 4)),
                          actions=np.zeros((length, 1), dtype=np.int64),
                          rewards=np.full(length, reward), policy_name=name)

    def test_returns_to_go(self):
        trajectory = Trajectory(states=np.zeros((3, 2)), actions=np.zeros((3, 1)),
                                rewards=np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(trajectory.returns_to_go(), [6.0, 5.0, 3.0])

    def test_pool_add_and_summary(self):
        pool = ExperiencePool(state_dim=4, action_dims=(3,))
        pool.add(self._trajectory(reward=1.0, name="good"))
        pool.add(self._trajectory(reward=-1.0, name="bad"))
        summary = pool.summary()
        assert summary["num_trajectories"] == 2
        assert pool.best_return == pytest.approx(6.0)
        assert pool.policy_names() == ["bad", "good"]

    def test_pool_validates_dimensions(self):
        pool = ExperiencePool(state_dim=4, action_dims=(3,))
        with pytest.raises(ValueError):
            pool.add(Trajectory(states=np.zeros((3, 5)), actions=np.zeros((3, 1)),
                                rewards=np.zeros(3)))
        with pytest.raises(ValueError):
            pool.add(Trajectory(states=np.zeros((3, 4)), actions=np.full((3, 1), 7),
                                rewards=np.zeros(3)))

    def test_sampling_shapes_and_padding(self):
        pool = ExperiencePool(state_dim=4, action_dims=(3,))
        pool.add(self._trajectory(length=3))
        returns, states, actions = pool.sample_windows(batch_size=5, window=6, seed=0)
        assert returns.shape == (5, 6, 1)
        assert states.shape == (5, 6, 4)
        assert actions.shape == (5, 6, 1)

    def test_sampling_from_empty_pool_rejected(self):
        pool = ExperiencePool(state_dim=4, action_dims=(3,))
        with pytest.raises(ValueError):
            pool.sample_windows(2, 4)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(states=np.zeros((0, 4)), actions=np.zeros((0, 1)), rewards=np.zeros(0))

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=20))
    def test_property_returns_to_go_first_equals_total(self, rewards):
        length = len(rewards)
        trajectory = Trajectory(states=np.zeros((length, 2)), actions=np.zeros((length, 1)),
                                rewards=np.asarray(rewards))
        rtg = trajectory.returns_to_go()
        assert rtg[0] == pytest.approx(sum(rewards), abs=1e-9)
        # Returns-to-go must satisfy the recursion R_t = r_t + R_{t+1}.
        for t in range(length - 1):
            assert rtg[t] == pytest.approx(rewards[t] + rtg[t + 1], abs=1e-9)


class TestTaskInventory:
    def test_table1_rows(self):
        assert set(TASKS) == {"vp", "abr", "cjs"}
        assert TASKS["vp"].learning_paradigm == "SL"
        assert TASKS["abr"].learning_paradigm == "RL"
        assert TASKS["cjs"].learning_paradigm == "RL"

    def test_packages_exist(self):
        import importlib

        for info in TASKS.values():
            assert importlib.import_module(info.package)
