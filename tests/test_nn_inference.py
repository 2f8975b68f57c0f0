"""Inference fast-path tests: no_grad semantics, dtype control, KV-cache parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm import LanguageModel, generate
from repro.llm.config import LLMConfig
from repro.nn import (
    KVCache,
    Linear,
    Tensor,
    TransformerBackbone,
    causal_mask,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    set_grad_enabled,
)


@pytest.fixture
def float64_default():
    """Guard: restore the float64 default dtype even if a test fails."""
    previous = set_default_dtype(np.float64)
    yield
    set_default_dtype(previous)


class TestNoGrad:
    def test_ops_inside_no_grad_record_nothing(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        with no_grad():
            out = (x * 2.0 + 1.0) @ x
        assert not out.requires_grad
        assert out._prev == ()
        assert out._backward() is None  # default no-op closure

    def test_backward_on_no_grad_result_fails_loudly(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with no_grad():
            loss = (x * x).sum()
        with pytest.raises(RuntimeError, match="no_grad"):
            loss.backward()

    def test_mode_restored_after_context_and_exception(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():  # nesting
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_decorator_form(self):
        @no_grad()
        def infer(t):
            return t * 3.0

        out = infer(Tensor(np.ones(4), requires_grad=True))
        assert not out.requires_grad and out._prev == ()

    def test_bare_decorator_form(self):
        @no_grad
        def infer(t):
            return t * 3.0

        out = infer(Tensor(np.ones(4), requires_grad=True))
        assert not out.requires_grad and out._prev == ()
        assert is_grad_enabled()

    def test_set_grad_enabled_returns_previous(self):
        previous = set_grad_enabled(False)
        try:
            assert previous is True
            assert not is_grad_enabled()
        finally:
            set_grad_enabled(previous)

    def test_grad_mode_does_not_leak_into_free_functions(self):
        from repro.nn import concatenate, stack, where

        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        with no_grad():
            for out in (concatenate([a, b]), stack([a, b]),
                        where(np.array([True, False, True]), a, b)):
                assert not out.requires_grad
                assert out._prev == ()

    def test_training_still_works_after_no_grad(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with no_grad():
            (x * x).sum()
        loss = (x * x).sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_grad_mode_is_thread_local(self):
        """A no_grad inference thread must not disable another thread's
        autograd (the background-serve-loop-vs-training regression)."""
        import threading

        inference_entered = threading.Event()
        training_done = threading.Event()
        observed = {}

        def inference_thread():
            # New threads start with grad enabled regardless of the spawner.
            observed["fresh_default"] = is_grad_enabled()
            with no_grad():
                observed["inference_off"] = not is_grad_enabled()
                out = Tensor(np.ones(3), requires_grad=True) * 2.0
                observed["no_graph"] = (not out.requires_grad and out._prev == ())
                inference_entered.set()
                # Hold no_grad while the main thread trains.
                assert training_done.wait(timeout=30)
            observed["restored"] = is_grad_enabled()

        worker = threading.Thread(target=inference_thread)
        worker.start()
        try:
            assert inference_entered.wait(timeout=30)
            # The worker sits inside no_grad right now; this thread still
            # records graphs and backpropagates.
            assert is_grad_enabled()
            x = Tensor(np.array([3.0]), requires_grad=True)
            loss = (x * x).sum()
            loss.backward()
            np.testing.assert_allclose(x.grad, [6.0])
        finally:
            training_done.set()
            worker.join(timeout=30)
        assert observed == {"fresh_default": True, "inference_off": True,
                            "no_graph": True, "restored": True}


class TestItemDetachDtype:
    def test_item_multi_element_raises_value_error(self):
        with pytest.raises(ValueError, match="one element"):
            Tensor(np.zeros((2, 2))).item()

    def test_item_scalar_shapes(self):
        assert Tensor(np.array(2.5)).item() == pytest.approx(2.5)
        assert Tensor(np.array([[4.0]])).item() == pytest.approx(4.0)

    def test_detach_propagates_dtype(self, float64_default):
        t = Tensor(np.ones(3, dtype=np.float32), dtype=np.float32)
        detached = t.detach()
        assert detached.dtype == np.float32
        assert not detached.requires_grad
        assert detached.data is t.data  # shares storage, cut from graph

    def test_set_default_dtype_controls_new_tensors(self, float64_default):
        assert get_default_dtype() == np.float64
        set_default_dtype(np.float32)
        assert Tensor([1.0, 2.0]).dtype == np.float32
        layer = Linear(4, 2)
        assert layer.weight.dtype == np.float32
        out = layer(Tensor(np.ones((1, 4), dtype=np.float32)))
        assert out.dtype == np.float32

    def test_ops_preserve_model_dtype_across_global_switch(self, float64_default):
        t = Tensor(np.ones(4))  # float64 model tensor
        set_default_dtype(np.float32)
        out = (t * 2.0 + 1.0).sum()
        assert out.dtype == np.float64  # not silently downcast by the switch

    def test_set_default_dtype_rejects_non_float(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)


class TestMaskAndPositionCaches:
    def test_causal_mask_cached_and_immutable(self):
        a = causal_mask(7)
        b = causal_mask(7)
        assert np.shares_memory(a, b)  # views into one cached base mask
        assert np.shares_memory(a, causal_mask(33))  # cycling lengths reuse it
        assert not a.flags.writeable
        assert a.shape == (7, 7)
        assert a[0, 1] == -1e9 and a[1, 0] == 0.0
        np.testing.assert_array_equal(np.tril(np.ones((7, 7))) * a, np.zeros((7, 7)))

    def test_causal_mask_follows_default_dtype(self, float64_default):
        assert causal_mask(5).dtype == np.float64
        set_default_dtype(np.float32)
        assert causal_mask(5).dtype == np.float32

    def test_causal_mask_explicit_dtype_overrides_default(self, float64_default):
        assert causal_mask(5, np.float32).dtype == np.float32

    def test_float32_model_gets_float32_masks(self, float64_default, monkeypatch):
        """The base is keyed by the dtype object, however the dtype is
        spelled; a model built under float32 keeps asking for (and getting)
        float32 masks after the default went back to float64."""
        from repro.nn import attention, transformer

        base = causal_mask(9, np.float32)
        for spelling in (np.dtype(np.float32), "float32", np.dtype("<f4")):
            assert np.shares_memory(causal_mask(9, spelling), base)
        assert not np.shares_memory(causal_mask(9, np.float64), base)
        set_default_dtype(np.float32)
        model = _tiny_model(0, seed=5)
        set_default_dtype(np.float64)
        served = []

        def spy(length, dtype=None):
            served.append(causal_mask(length, dtype))
            return served[-1]

        monkeypatch.setattr(transformer, "causal_mask", spy)
        monkeypatch.setattr(attention, "causal_mask", spy)
        ids = np.arange(12) % model.tokenizer.vocab_size
        with no_grad():
            model.forward_tokens(ids[None, :])
            model.forward_incremental(ids[None, :], model.init_cache())
            model.last_position_features(
                model.token_embedding(ids).data, [5, 7])
        assert len(served) >= 3
        assert all(mask.dtype == np.float32 for mask in served)

    def test_float32_model_exact_parity_under_float64_default(self, float64_default):
        # Build under float32, use after the global default is restored to
        # float64 (the benchmark pattern): masked full forward, re-primed
        # multi-token and single-token cached steps must all stay float32
        # and agree exactly.
        set_default_dtype(np.float32)
        model = _tiny_model(0, seed=5)
        set_default_dtype(np.float64)
        ids = np.random.default_rng(4).integers(0, model.tokenizer.vocab_size, size=20)
        with no_grad():
            full = model.forward_tokens(ids[None, :]).data
            cache = model.init_cache()
            parts = [model.forward_incremental(ids[None, :8], cache).data]
            for t in range(8, 20):
                parts.append(model.forward_incremental(ids[None, t:t + 1], cache).data)
            incremental = np.concatenate(parts, axis=1)
        assert full.dtype == np.float32 and incremental.dtype == np.float32
        # Parity at float32 machine precision: batched vs single-token sgemm
        # may round differently, unlike the exact float64 case above.
        np.testing.assert_allclose(incremental, full, atol=1e-5, rtol=0)


def _tiny_model(lora_rank: int, seed: int = 0) -> LanguageModel:
    config = LLMConfig(name="parity", family="test", d_model=32, num_layers=2,
                       num_heads=2, max_seq_len=48)
    model = LanguageModel(config, lora_rank=lora_rank, seed=seed)
    if lora_rank:
        # Standard LoRA init keeps B at zero (update inert); randomize it so
        # the parity test actually exercises the LoRA path.
        rng = np.random.default_rng(seed + 1)
        for name, param in model.named_parameters():
            if name.endswith("lora_b"):
                param.data = rng.normal(0.0, 0.05, size=param.data.shape)
    return model


class TestKVCacheParity:
    @pytest.mark.parametrize("lora_rank", [0, 4])
    def test_incremental_logits_match_full_forward(self, lora_rank):
        model = _tiny_model(lora_rank)
        ids = np.random.default_rng(0).integers(0, model.tokenizer.vocab_size, size=32)
        with no_grad():
            full = model.forward_tokens(ids[None, :]).data
            cache = model.init_cache()
            chunks = [model.forward_incremental(ids[None, :6], cache).data]
            for step in range(6, len(ids)):
                chunks.append(model.forward_incremental(ids[None, step:step + 1], cache).data)
            incremental = np.concatenate(chunks, axis=1)
        assert cache.seq_len == len(ids)
        np.testing.assert_allclose(incremental, full, atol=1e-9, rtol=0)

    def test_backbone_cache_parity_with_batch(self):
        backbone = TransformerBackbone(d_model=16, num_layers=2, num_heads=2, max_seq_len=24)
        emb = np.random.default_rng(3).normal(size=(2, 10, 16))
        with no_grad():
            full = backbone(Tensor(emb)).data
            cache = backbone.init_cache()
            parts = [backbone(Tensor(emb[:, :4, :]), cache=cache).data]
            for t in range(4, 10):
                parts.append(backbone(Tensor(emb[:, t:t + 1, :]), cache=cache).data)
            incremental = np.concatenate(parts, axis=1)
        np.testing.assert_allclose(incremental, full, atol=1e-9, rtol=0)

    def test_cache_overflow_raises(self):
        backbone = TransformerBackbone(d_model=16, num_layers=1, num_heads=2, max_seq_len=8)
        cache = backbone.init_cache()
        emb = np.zeros((1, 8, 16))
        with no_grad():
            backbone(Tensor(emb), cache=cache)
            with pytest.raises(ValueError, match="exceeds maximum"):
                backbone(Tensor(emb[:, :1, :]), cache=cache)

    def test_cached_path_requires_no_grad(self):
        backbone = TransformerBackbone(d_model=16, num_layers=1, num_heads=2, max_seq_len=8)
        cache = backbone.init_cache()
        with pytest.raises(RuntimeError, match="no_grad"):
            backbone(Tensor(np.zeros((1, 2, 16))), cache=cache)

    def test_mismatched_cache_layer_count_raises(self):
        backbone = TransformerBackbone(d_model=16, num_layers=2, num_heads=2, max_seq_len=8)
        with no_grad():
            with pytest.raises(ValueError, match="cache has 1 layers"):
                backbone(Tensor(np.zeros((1, 2, 16))), cache=KVCache(1))

    def test_load_state_dict_preserves_model_dtype(self, float64_default):
        layer = Linear(3, 2)  # built under the float64 default
        state = layer.state_dict()
        set_default_dtype(np.float32)  # global switch must not downcast it
        layer.load_state_dict(state)
        assert layer.weight.dtype == np.float64

    def test_cache_reset(self):
        cache = KVCache(3)
        assert cache.seq_len == 0
        cache.layers[0].append(np.zeros((1, 2, 5, 4)), np.zeros((1, 2, 5, 4)))
        assert cache.seq_len == 5
        cache.reset()
        assert cache.seq_len == 0

    def test_generate_cached_matches_uncached(self):
        model = _tiny_model(0, seed=7)
        cached = generate(model, "abc 1.0 2.0", max_new_tokens=20, use_cache=True)
        uncached = generate(model, "abc 1.0 2.0", max_new_tokens=20, use_cache=False)
        assert cached.token_ids == uncached.token_ids
        assert cached.num_inferences == uncached.num_inferences

    def test_generate_evals_dropout_model_so_paths_agree(self):
        # A dropout model left in training mode: generate() must switch to
        # eval (and restore), keeping cached and uncached decoding identical.
        config = LLMConfig(name="drop", family="test", d_model=32, num_layers=2,
                           num_heads=2, max_seq_len=48, dropout=0.2)
        model = LanguageModel(config, seed=0)
        assert model.training
        cached = generate(model, "abc", max_new_tokens=16, stop_on_eos=False)
        uncached = generate(model, "abc", max_new_tokens=16, stop_on_eos=False,
                            use_cache=False)
        assert cached.token_ids == uncached.token_ids
        assert model.training  # mode restored

    def test_non_causal_with_cache_rejected(self):
        backbone = TransformerBackbone(d_model=16, num_layers=1, num_heads=2, max_seq_len=8)
        with no_grad():
            with pytest.raises(ValueError, match="causal"):
                backbone(Tensor(np.zeros((1, 2, 16))), causal=False,
                         cache=backbone.init_cache())

    def test_cached_path_with_active_dropout_rejected(self):
        from repro.nn import MultiHeadAttention
        from repro.nn.attention import LayerKVCache

        attn = MultiHeadAttention(d_model=16, num_heads=2, dropout=0.3)
        assert attn.training
        with no_grad():
            with pytest.raises(RuntimeError, match="dropout"):
                attn(Tensor(np.zeros((1, 2, 16))), layer_cache=LayerKVCache())
        attn.eval()
        with no_grad():
            attn(Tensor(np.zeros((1, 2, 16))), layer_cache=LayerKVCache())

    def test_custom_mask_with_cache_rejected(self):
        from repro.nn import MultiHeadAttention
        from repro.nn.attention import LayerKVCache

        attn = MultiHeadAttention(d_model=16, num_heads=2)
        with no_grad():
            with pytest.raises(ValueError, match="causal"):
                attn(Tensor(np.zeros((1, 2, 16))), mask=np.zeros((2, 2)),
                     layer_cache=LayerKVCache())

    def test_generate_cached_matches_uncached_past_window_overflow(self):
        # max_seq_len=48: generating 60 tokens forces the sliding-window
        # re-priming path; token streams must still agree.
        model = _tiny_model(0, seed=11)
        cached = generate(model, "xyz", max_new_tokens=60, stop_on_eos=False)
        uncached = generate(model, "xyz", max_new_tokens=60, stop_on_eos=False,
                            use_cache=False)
        assert cached.token_ids == uncached.token_ids


def _randomize(module, rng) -> None:
    """Non-trivial values everywhere (zero biases / LoRA B / unit gammas would
    hide a skipped or reordered operation)."""
    for _, param in module.named_parameters():
        param.data = rng.normal(0.0, 0.3, size=param.data.shape).astype(param.data.dtype)


class TestRawApply:
    """``apply(ndarray)`` is the inference-only forward the paged step runs:
    the graph path's numpy operations in the same order, so the same bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_apply_is_bit_identical_to_graph_forward(self, dtype, float64_default):
        from repro.nn import FeedForward, LayerNorm, LoRALinear

        set_default_dtype(dtype)
        rng = np.random.default_rng(3)
        lora_off = LoRALinear(24, 40, rank=4, alpha=8.0)
        lora_off.enable_lora(False)
        layers = [Linear(24, 40), Linear(24, 40, bias=False),
                  LoRALinear(24, 40, rank=4, alpha=8.0), lora_off,
                  LayerNorm(24), FeedForward(24, 96),
                  FeedForward(24, 96, lora_rank=4, lora_alpha=8.0)]
        x = rng.normal(0.0, 2.0, size=(5, 3, 24)).astype(dtype)
        for layer in layers:
            _randomize(layer, rng)
            assert is_grad_enabled()
            graph = layer(Tensor(x, requires_grad=True, dtype=dtype))
            assert graph.requires_grad, "the reference must be the graph path"
            raw = layer.apply(x)
            assert raw.dtype == dtype
            assert np.array_equal(raw, graph.data), type(layer).__name__
            with no_grad():  # forward delegates to apply under no_grad
                assert np.array_equal(layer(Tensor(x, dtype=dtype)).data, raw)

    def test_feedforward_with_active_dropout(self):
        from repro.nn import FeedForward

        mlp = FeedForward(16, 32, dropout=0.5)
        x = np.ones((2, 3, 16))
        with pytest.raises(RuntimeError, match="dropout"):
            mlp.apply(x)
        with no_grad():
            # Training-mode forward still drops, even without a graph.
            assert np.any(mlp(Tensor(x)).data == 0.0)
            mlp.eval()
            assert np.array_equal(mlp(Tensor(x)).data, mlp.apply(x))

    @pytest.mark.parametrize("num_layers", [2, 4])
    @pytest.mark.parametrize("lora_rank", [0, 4])
    def test_paged_step_builds_a_constant_handful_of_tensors(
            self, num_layers, lora_rank, monkeypatch):
        config = LLMConfig(name="count", family="test", d_model=32,
                           num_layers=num_layers, num_heads=2, max_seq_len=48)
        model = LanguageModel(config, lora_rank=lora_rank, seed=0)
        paged = model.init_paged_cache(max_sessions=2, block_size=4)
        with no_grad():
            sids = []
            for prompt in ([5, 6, 7], [8, 9, 10, 11, 12]):
                cache = model.init_cache()
                model.forward_incremental(np.asarray([prompt]), cache)
                sids.append(paged.admit(cache))
            sids = np.asarray(sids)
            built = []
            original = Tensor.__init__

            def counting(self, *args, **kwargs):
                built.append(self)
                original(self, *args, **kwargs)

            monkeypatch.setattr(Tensor, "__init__", counting)
            model.forward_step(np.asarray([1, 2]), paged, sids)
            decode = len(built)
            model.forward_step(np.asarray([3, 4, 5, 6]), paged, sids,
                               counts=np.asarray([3, 1]))
            verify = len(built) - decode
        # Embedding lookup, backbone features, logits — whatever the depth.
        assert 0 < decode <= 3 and 0 < verify <= 3
