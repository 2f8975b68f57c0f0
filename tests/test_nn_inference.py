"""Inference fast-path tests: no_grad semantics, dtype control, KV-cache parity."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.llm import LanguageModel, generate
from repro.llm.config import LLMConfig
from repro.nn import (
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


#: The parity policy (``docs/paged_kv.md``): cached logits stay within this
#: of the full-window graph forward, the one reference.
PARITY_ATOL = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-4}

#: ``(dtype, temperature, lora_rank)``: every combination the parity tests
#: run.  A loop inside each test rather than pytest ids, so the tests keep
#: their names.
MATRIX = list(itertools.product((np.float64, np.float32), (0.0, 0.8), (0, 4)))


def _tiny_model(lora_rank: int, seed: int = 0, dtype=None) -> LanguageModel:
    """A parity model, built under ``dtype`` (default: the current default)."""
    config = LLMConfig(name="parity", family="test", d_model=32, num_layers=2,
                       num_heads=2, max_seq_len=48)
    previous = set_default_dtype(dtype or get_default_dtype())
    try:
        model = LanguageModel(config, lora_rank=lora_rank, seed=seed)
    finally:
        set_default_dtype(previous)
    dtype = model.lm_head.weight.data.dtype
    if lora_rank:
        # Standard LoRA init keeps B at zero (update inert); randomize it so
        # the parity test actually exercises the LoRA path.
        rng = np.random.default_rng(seed + 1)
        for name, param in model.named_parameters():
            if name.endswith("lora_b"):
                param.data = rng.normal(0.0, 0.05, size=param.data.shape).astype(dtype)
    return model


def _assert_same_stream(model, prompt, cached, reference, temperature, seed):
    """Cached and reference token streams are equal, except for a token the
    reference's sampler chose by less than the policy bound: the first flip
    is reported by step with its margin (the gap between the top two logits
    when greedy; between the uniform draw and the nearest CDF edge when
    sampling)."""
    if cached.token_ids == reference.token_ids:
        return
    step = next(i for i, (a, b) in enumerate(zip(cached.token_ids, reference.token_ids))
                if a != b)
    context = model.tokenizer.encode(prompt, add_bos=True) + reference.token_ids[:step]
    with no_grad():
        logits = model.forward_tokens(np.asarray(
            context[-model.config.max_seq_len:])[None, :]).data[0, -1]
    if temperature:
        rng = np.random.default_rng(seed)
        draw = [rng.random() for _ in range(step + 1)][-1]
        probs = np.exp((logits - logits.max()) / temperature)
        cdf = probs.cumsum(dtype=np.float64) / probs.sum(dtype=np.float64)
        margin = float(np.abs(cdf - draw).min())
    else:
        top = np.sort(logits)[-2:]
        margin = float(top[1] - top[0])
    bound = PARITY_ATOL[logits.dtype]
    assert margin < bound, (f"token flipped at step {step} with margin "
                            f"{margin:.3g} (bound {bound:g})")


class TestKVCacheParity:
    @pytest.mark.parametrize("lora_rank", [0, 4])
    def test_incremental_logits_match_full_forward(self, lora_rank):
        for dtype in (np.float64, np.float32):
            model = _tiny_model(lora_rank, dtype=dtype)
            vocab = model.tokenizer.vocab_size
            ids = np.random.default_rng(0).integers(0, vocab, size=32)
            with no_grad():
                full = model.forward_tokens(ids[None, :]).data
                cache = model.init_cache()
                chunks = [model.forward_incremental(ids[None, :6], cache).data]
                for step in range(6, len(ids)):
                    chunks.append(
                        model.forward_incremental(ids[None, step:step + 1], cache).data)
                incremental = np.concatenate(chunks, axis=1)
            assert cache.length(cache.sessions[0]) == len(ids)
            assert incremental.dtype == full.dtype == dtype
            np.testing.assert_allclose(incremental, full, rtol=0,
                                       atol=PARITY_ATOL[np.dtype(dtype)],
                                       err_msg=np.dtype(dtype).name)

    def test_cache_overflow_raises(self):
        config = LLMConfig(name="cap", family="test", d_model=16, num_layers=1,
                           num_heads=2, max_seq_len=8)
        model = LanguageModel(config, seed=0)
        cache = model.init_cache()
        with no_grad():
            model.forward_incremental(np.arange(8)[None, :], cache)
            with pytest.raises(ValueError, match="exceeds maximum"):
                model.forward_incremental(np.asarray([[1]]), cache)
        assert cache.length(cache.sessions[0]) == 8  # refused before it grew

    def test_cached_path_requires_no_grad(self):
        model = _tiny_model(0)
        with pytest.raises(RuntimeError, match="no_grad"):
            model.forward_incremental(np.asarray([[1, 2]]), model.init_cache())

    def test_mismatched_cache_layer_count_raises(self):
        config = LLMConfig(name="shallow", family="test", d_model=32, num_layers=1,
                           num_heads=2, max_seq_len=48)
        shallow = LanguageModel(config, seed=0)
        with no_grad():
            with pytest.raises(ValueError, match="cache has 1 layers"):
                _tiny_model(0).forward_incremental(np.asarray([[1, 2]]),
                                                   shallow.init_cache())

    def test_load_state_dict_preserves_model_dtype(self, float64_default):
        layer = Linear(3, 2)  # built under the float64 default
        state = layer.state_dict()
        set_default_dtype(np.float32)  # global switch must not downcast it
        layer.load_state_dict(state)
        assert layer.weight.dtype == np.float64

    def test_generate_cached_matches_uncached(self):
        for dtype, temperature, lora_rank in MATRIX:
            model = _tiny_model(lora_rank, seed=7, dtype=dtype)
            cached = generate(model, "abc 1.0 2.0", max_new_tokens=20,
                              temperature=temperature, seed=3, use_cache=True)
            uncached = generate(model, "abc 1.0 2.0", max_new_tokens=20,
                                temperature=temperature, seed=3, use_cache=False)
            _assert_same_stream(model, "abc 1.0 2.0", cached, uncached, temperature, 3)
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

    def test_cached_path_with_active_dropout_rejected(self):
        config = LLMConfig(name="drop", family="test", d_model=32, num_layers=2,
                           num_heads=2, max_seq_len=48, dropout=0.3)
        model = LanguageModel(config, seed=0)
        assert model.training
        cache = model.init_cache()
        with no_grad():
            with pytest.raises(RuntimeError, match="dropout"):
                model.forward_incremental(np.asarray([[1, 2]]), cache)
            model.eval()
            model.forward_incremental(np.asarray([[1, 2]]), cache)
        assert cache.length(cache.sessions[0]) == 2

    def test_generate_cached_matches_uncached_past_window_overflow(self):
        # max_seq_len=48: generating 60 tokens forces the sliding-window
        # re-priming path (evict, reopen, one prefill row); token streams
        # must still agree.
        for dtype, temperature, lora_rank in MATRIX:
            model = _tiny_model(lora_rank, seed=11, dtype=dtype)
            cached = generate(model, "xyz", max_new_tokens=60, stop_on_eos=False,
                              temperature=temperature, seed=5)
            uncached = generate(model, "xyz", max_new_tokens=60, stop_on_eos=False,
                                temperature=temperature, seed=5, use_cache=False)
            _assert_same_stream(model, "xyz", cached, uncached, temperature, 5)


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
