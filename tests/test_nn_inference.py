"""Inference fast-path tests: no_grad semantics, dtype control, KV-cache parity."""

from __future__ import annotations

import contextlib
import itertools

import numpy as np
import pytest
from reference import assert_logits, assert_stream, fill, reference_logits

from repro.llm import LanguageModel, generate
from repro.llm.config import LLMConfig
from repro.nn import (
    Linear,
    Tensor,
    causal_mask,
    concatenate,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    set_grad_enabled,
    stack,
    where,
)
from repro.nn.tensor import _noop_backward


@pytest.fixture
def float64_default():
    """Guard: restore the float64 default dtype even if a test fails."""
    previous = set_default_dtype(np.float64)
    yield
    set_default_dtype(previous)


# Every graph op, plus the ones derived from them, on two positive (3, 3)
# operands (positive so that log, pow and division stay finite).
_OFF_GRAPH_OPS = {
    "add": lambda x, y: x + y,
    "mul": lambda x, y: x * y,
    "sub": lambda x, y: x - y,
    "truediv": lambda x, y: x / y,
    "pow": lambda x, y: x ** 1.5,
    "matmul": lambda x, y: x @ y,
    "exp": lambda x, y: x.exp(),
    "log": lambda x, y: x.log(),
    "tanh": lambda x, y: x.tanh(),
    "sigmoid": lambda x, y: x.sigmoid(),
    "relu": lambda x, y: x.relu(),
    "gelu": lambda x, y: x.gelu(),
    "abs": lambda x, y: x.abs(),
    "clip": lambda x, y: x.clip(0.5, 1.5),
    "sum": lambda x, y: x.sum(axis=0),
    "mean": lambda x, y: x.mean(),
    "var": lambda x, y: x.var(axis=1),
    "max": lambda x, y: x.max(axis=1),
    "reshape": lambda x, y: x.reshape(9),
    "transpose": lambda x, y: x.transpose(),
    "getitem": lambda x, y: x[1:, np.array([0, 2])],
    "pad": lambda x, y: x.pad(((1, 0), (0, 1))),
    "softmax": lambda x, y: x.softmax(),
    "log_softmax": lambda x, y: x.log_softmax(),
    "concatenate": lambda x, y: concatenate([x, y], axis=1),
    "stack": lambda x, y: stack([x, y]),
    "where": lambda x, y: where(x.data > 1.0, x, y),
}


class TestNoGrad:
    @pytest.mark.parametrize("off_graph", ["no_grad", "no_parent_requires_grad"])
    @pytest.mark.parametrize("op", sorted(_OFF_GRAPH_OPS))
    def test_ops_off_graph_record_nothing(self, op, off_graph):
        values = np.linspace(0.25, 2.25, 9).reshape(3, 3)
        requires_grad = off_graph == "no_grad"
        x = Tensor(values, requires_grad=requires_grad)
        y = Tensor(values[::-1], requires_grad=requires_grad)
        with no_grad() if requires_grad else contextlib.nullcontext():
            out = _OFF_GRAPH_OPS[op](x, y)
        assert not out.requires_grad
        assert out._prev == ()
        assert out._backward is _noop_backward

    def test_parent_switched_off_before_backward_gets_no_gradient(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        b = Tensor(np.array([5.0, 7.0]), requires_grad=True)
        loss = (a * b).sum()
        b.requires_grad = False
        loss.backward()
        assert b.grad is None
        np.testing.assert_array_equal(a.grad, [5.0, 7.0])

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
            fill(model, model.init_paged_cache(max_sessions=1), ids)
            features = model.last_position_features(
                model.token_embedding(ids).data, [5, 7])
        # Only the graph forward adds a mask; the step and the decision
        # forward (a step with no pool) mask with booleans.
        assert len(served) == 1
        assert all(mask.dtype == np.float32 for mask in served)
        assert features.dtype == np.float32


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


class TestKVCacheParity:
    @pytest.mark.parametrize("lora_rank", [0, 4])
    def test_incremental_logits_match_full_forward(self, lora_rank):
        """A prompt row, then single-token steps, of a model built under its
        dtype and used after the default went back to float64 (the
        benchmark pattern): the step's and the graph forward's logits stay
        in the model's dtype, within the policy bound in float64 and 1e-5 in
        float32."""
        for dtype in (np.float64, np.float32):
            model = _tiny_model(lora_rank, dtype=dtype)
            vocab = model.tokenizer.vocab_size
            ids = np.random.default_rng(0).integers(0, vocab, size=32)
            with no_grad():
                pool = model.init_paged_cache(max_sessions=1)
                sid, prompt = fill(model, pool, ids[:6])
                _, steps = fill(model, pool, ids[6:], chunk=1, session=sid)
            incremental = np.concatenate([prompt, steps])
            assert pool.length(sid) == len(ids)
            assert incremental.dtype == reference_logits(model, ids).dtype == dtype
            assert_logits(model, ids, incremental, err_msg=np.dtype(dtype).name,
                          atol=1e-5 if dtype == np.float32 else None)

    @staticmethod
    def _one_session(model):
        pool = model.init_paged_cache(max_sessions=1)
        pool.open_session()
        return pool

    def test_cache_overflow_raises(self):
        config = LLMConfig(name="cap", family="test", d_model=16, num_layers=1,
                           num_heads=2, max_seq_len=8)
        model = LanguageModel(config, seed=0)
        cache = self._one_session(model)
        with no_grad():
            model.forward_incremental(np.arange(8)[None, :], cache)
            with pytest.raises(ValueError, match="exceeds maximum"):
                model.forward_incremental(np.asarray([[1]]), cache)
        assert cache.length(cache.sessions[0]) == 8  # refused before it grew

    def test_cached_path_requires_no_grad(self):
        model = _tiny_model(0)
        with pytest.raises(RuntimeError, match="no_grad"):
            model.forward_incremental(np.asarray([[1, 2]]), self._one_session(model))

    def test_cached_path_serves_a_training_mode_model(self):
        # The cached path checks grad mode and nothing else: a model left in
        # training mode is refused outside no_grad, before its cache grows,
        # and under no_grad fills it with the graph forward's logits and
        # keeps its mode.
        model = _tiny_model(4, seed=5)
        assert model.training
        pool = model.init_paged_cache(max_sessions=1)
        sid = pool.open_session()
        ids = [1, 2, 3, 4, 5, 6]
        with pytest.raises(RuntimeError, match="no_grad"):
            fill(model, pool, ids, session=sid)
        assert pool.length(sid) == 0
        with no_grad():
            _, logits = fill(model, pool, ids, chunk=2, session=sid)
        assert pool.length(sid) == len(ids)
        assert model.training
        assert_logits(model, ids, logits)

    def test_mismatched_cache_layer_count_raises(self):
        config = LLMConfig(name="shallow", family="test", d_model=32, num_layers=1,
                           num_heads=2, max_seq_len=48)
        shallow = LanguageModel(config, seed=0)
        with no_grad():
            with pytest.raises(ValueError, match="cache has 1 layers"):
                _tiny_model(0).forward_incremental(np.asarray([[1, 2]]),
                                                   self._one_session(shallow))

    def test_load_state_dict_preserves_model_dtype(self, float64_default):
        layer = Linear(3, 2)  # built under the float64 default
        state = layer.state_dict()
        set_default_dtype(np.float32)  # global switch must not downcast it
        layer.load_state_dict(state)
        assert layer.weight.dtype == np.float64

    def test_generate_cached_matches_uncached(self):
        for dtype, temperature, lora_rank in MATRIX:
            model = _tiny_model(lora_rank, seed=7, dtype=dtype)
            prompt = model.tokenizer.encode("abc 1.0 2.0", add_bos=True)
            for use_cache in (True, False):
                result = generate(model, "abc 1.0 2.0", max_new_tokens=20,
                                  temperature=temperature, seed=3,
                                  use_cache=use_cache)
                assert_stream(model, prompt, result.token_ids, temperature, 3,
                              result.stopped_by_eos, max_new_tokens=20)
                assert result.num_inferences == (len(result.token_ids)
                                                 + result.stopped_by_eos)

    def test_generate_cached_matches_uncached_past_window_overflow(self):
        # max_seq_len=48: generating 60 tokens forces the sliding-window
        # re-priming path (evict, reopen, one prefill row); both streams are
        # the reference's, every step past the window on its own window.
        for dtype, temperature, lora_rank in MATRIX:
            model = _tiny_model(lora_rank, seed=11, dtype=dtype)
            prompt = model.tokenizer.encode("xyz", add_bos=True)
            for use_cache in (True, False):
                result = generate(model, "xyz", max_new_tokens=60, stop_on_eos=False,
                                  temperature=temperature, seed=5,
                                  use_cache=use_cache)
                assert_stream(model, prompt, result.token_ids, temperature, 5,
                              False, max_new_tokens=60)

    def test_generate_reads_and_writes_no_mode(self, monkeypatch):
        # No layer of the model reads its train/eval mode: a training-mode
        # model decodes as it stands — no Module.train call, the mode left
        # as it was — and its streams are the eval-mode model's.
        from repro.nn import Module

        model = _tiny_model(4, seed=3)
        calls = [(use_cache, temperature) for use_cache in (True, False)
                 for temperature in (0.0, 0.8)]

        def streams():
            return [generate(model, "abc", max_new_tokens=12, stop_on_eos=False,
                             temperature=temperature, seed=3,
                             use_cache=use_cache).token_ids
                    for use_cache, temperature in calls]

        flips = []
        original = Module.train
        monkeypatch.setattr(Module, "train", lambda self, mode=True: (
            flips.append(mode), original(self, mode))[1])
        assert model.training
        in_training = streams()
        assert flips == []
        assert model.training
        monkeypatch.undo()
        model.eval()
        assert streams() == in_training


class TestParityOracle:
    """``assert_stream`` (``tests/reference.py``) accepts what ``generate()``
    samples and rejects, naming the step, a stream it did not sample.  Seed
    7 stops on EOS after 23 tokens at temperature 1; seed 1 and the greedy
    stream run the whole budget."""

    @pytest.fixture(scope="class", params=[np.float64, np.float32],
                    ids=["float64", "float32"])
    def streams(self, request):
        previous = set_default_dtype(request.param)
        try:
            model = LanguageModel(LLMConfig(name="oracle", family="test", d_model=32,
                                            num_layers=2, num_heads=2, max_seq_len=64),
                                  seed=3)
        finally:
            set_default_dtype(previous)
        prompt = model.tokenizer.encode("abc abc abc", add_bos=True)
        return model, [(prompt, generate(model, "abc abc abc", max_new_tokens=40,
                                         temperature=temperature, seed=seed),
                        temperature, seed)
                       for temperature, seed in ((1.0, 7), (1.0, 1), (0.0, 0))]

    def test_accepts_generated_streams(self, streams):
        model, streams = streams
        for prompt, result, temperature, seed in streams:
            assert_stream(model, prompt, result.token_ids, temperature, seed,
                          result.stopped_by_eos, max_new_tokens=40)
        assert [stream[1].stopped_by_eos for stream in streams] == [True, False, False]

    def test_rejects_a_changed_token(self, streams):
        model, streams = streams
        for prompt, result, temperature, seed in streams:
            tokens, step = list(result.token_ids), len(result.token_ids) // 2
            tokens[step] = (tokens[step] + 1) % model.tokenizer.vocab_size
            with pytest.raises(AssertionError, match=f"^step {step}: "):
                assert_stream(model, prompt, tokens, temperature, seed,
                              result.stopped_by_eos, max_new_tokens=40)

    def test_rejects_a_stream_cut_short(self, streams):
        model, streams = streams
        for prompt, result, temperature, seed in streams:
            cut = len(result.token_ids) - 1
            with pytest.raises(AssertionError, match=(
                    f"^step {cut}: " if result.stopped_by_eos
                    else f"^stream cut short at step {cut}:")):
                assert_stream(model, prompt, result.token_ids[:cut], temperature,
                              seed, result.stopped_by_eos, max_new_tokens=40)

    def test_rejects_an_eos_the_model_did_not_sample(self, streams):
        model, streams = streams
        eos = model.tokenizer.eos_id
        for prompt, result, temperature, seed in streams[1:]:
            with pytest.raises(AssertionError, match=f"^step 12: the stream has {eos} "):
                assert_stream(model, prompt, result.token_ids[:12], temperature,
                              seed, True)


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

    def test_feedforward_has_no_mode(self):
        # FeedForward reads no train/eval mode and takes no dropout: in
        # training mode its raw apply, no-grad forward and graph forward
        # all give the eval-mode bits.
        from repro.nn import FeedForward

        with pytest.raises(TypeError, match="dropout"):
            FeedForward(16, 32, dropout=0.5)
        mlp = FeedForward(16, 32, lora_rank=2)
        _randomize(mlp, np.random.default_rng(4))
        dtype = mlp.fc1.weight.data.dtype
        x = np.random.default_rng(5).normal(size=(2, 3, 16)).astype(dtype)
        mlp.eval()
        expected = mlp.apply(x)
        mlp.train()
        assert mlp.training
        assert np.array_equal(mlp.apply(x), expected)
        assert np.array_equal(mlp(Tensor(x, requires_grad=True, dtype=dtype)).data,
                              expected)
        with no_grad():
            assert np.array_equal(mlp(Tensor(x, dtype=dtype)).data, expected)
        assert mlp.training

    @pytest.mark.parametrize("num_layers", [2, 4])
    @pytest.mark.parametrize("lora_rank", [0, 4])
    def test_paged_step_builds_a_constant_handful_of_tensors(
            self, num_layers, lora_rank, monkeypatch):
        config = LLMConfig(name="count", family="test", d_model=32,
                           num_layers=num_layers, num_heads=2, max_seq_len=48)
        model = LanguageModel(config, lora_rank=lora_rank, seed=0)
        paged = model.init_paged_cache(max_sessions=2, block_size=4)
        with no_grad():
            sids = np.asarray([fill(model, paged, prompt)[0]
                               for prompt in ([5, 6, 7], [8, 9, 10, 11, 12])])
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
        # Only the logits are wrapped: the embedding lookup and the backbone
        # run on raw arrays, whatever the depth.
        assert decode == 1 and verify == 1

    def test_apply_writes_only_into_arrays_it_allocated(self):
        """Every raw-array entry point leaves its input, and the layer's
        parameters, byte-identical, and returns an array of its own."""
        from repro.nn import (SGD, FeedForward, LayerNorm, LoRALinear,
                              TransformerBackbone, TransformerBlock)
        from repro.nn.paged_cache import plan_fresh_rows
        from repro.nn.tensor import gelu_array

        rng = np.random.default_rng(7)
        lora_off = LoRALinear(24, 40, rank=4, alpha=8.0)
        lora_off.enable_lora(False)
        stepped = LoRALinear(24, 40, rank=4, alpha=8.0)
        _randomize(stepped, rng)
        arrays = (stepped.lora_a.data, stepped.lora_b.data)
        stepped(Tensor(rng.normal(size=(3, 24)))).sum().backward()
        SGD(stepped.lora_parameters(), lr=0.1).step()
        assert stepped.lora_a.data is not arrays[0] and stepped.lora_b.data is not arrays[1]
        block = TransformerBlock(24, 2, lora_rank=4, lora_alpha=8.0, rng=rng).eval()
        backbone = TransformerBackbone(24, 2, 2, max_seq_len=16, lora_rank=4,
                                       lora_alpha=8.0, rng=rng).eval()
        lengths = [5, 7, 7]  # 19 packed tokens: a run of one row, then of two
        layers = {"Linear": Linear(24, 40), "Linear, no bias": Linear(24, 40, bias=False),
                  "LoRALinear": LoRALinear(24, 40, rank=4, alpha=8.0),
                  "LoRALinear, LoRA off": lora_off, "LoRALinear, after SGD": stepped,
                  "LayerNorm": LayerNorm(24), "FeedForward": FeedForward(24, 96),
                  "TransformerBlock": block, "TransformerBackbone": backbone}
        for name, layer in layers.items():
            if name != "LoRALinear, after SGD":
                _randomize(layer, rng)
        calls = {name: layers[name].apply for name in
                 ("Linear", "Linear, no bias", "LoRALinear", "LoRALinear, LoRA off",
                  "LoRALinear, after SGD", "LayerNorm", "FeedForward")}
        calls["gelu_array"] = gelu_array
        calls["TransformerBlock"] = lambda x: block.forward_step(
            x, None, plan_fresh_rows(lengths))
        calls["TransformerBackbone"] = lambda x: backbone.last_position_features(
            x, lengths)
        with no_grad():
            for name, call in calls.items():
                x = rng.normal(0.0, 2.0, size=(sum(lengths), 24))
                before = x.tobytes()
                params = [p.data for p in layers[name].parameters()] if name in layers else []
                kept = [p.copy() for p in params]
                out = call(x)
                assert x.tobytes() == before, name
                assert all(np.array_equal(p, k) for p, k in zip(params, kept)), name
                assert not any(np.shares_memory(out, a) for a in (x, *params)), name

    @pytest.mark.parametrize("activations,layers", [(np.float32, np.float64),
                                                    (np.float64, np.float32)])
    def test_mixed_dtypes_promote_as_the_graph_does(self, activations, layers,
                                                    float64_default):
        """An in-place ``+=`` or ``*=`` keeps its left operand's dtype where
        ``a + b`` would promote; every ``apply`` still returns
        ``np.result_type`` of its input and its parameters, with the graph
        path's values."""
        from repro.nn import FeedForward, LayerNorm, LoRALinear, TransformerBackbone
        from repro.nn.tensor import gelu_array

        set_default_dtype(layers)
        rng = np.random.default_rng(11)
        x = rng.normal(0.0, 2.0, size=(6, 24)).astype(activations)
        promoted = np.result_type(activations, layers)
        for layer in (Linear(24, 40), LoRALinear(24, 40, rank=4, alpha=8.0),
                      LayerNorm(24), FeedForward(24, 96, lora_rank=4, lora_alpha=8.0)):
            _randomize(layer, rng)
            raw = layer.apply(x)
            graph = layer(Tensor(x, requires_grad=True, dtype=activations))
            assert raw.dtype == promoted == graph.dtype, type(layer).__name__
            assert np.array_equal(raw, graph.data), type(layer).__name__
        assert gelu_array(x).dtype == activations
        assert np.array_equal(gelu_array(x), Tensor(x, dtype=activations).gelu().data)

        backbone = TransformerBackbone(24, 2, 2, max_seq_len=16, lora_rank=4, lora_alpha=8.0,
                                       rng=rng).eval()
        _randomize(backbone, rng)
        with no_grad():
            features = backbone.last_position_features(x, [2, 4])
            rows = [backbone(Tensor(x[None, start:stop], dtype=activations)).data[0, -1]
                    for start, stop in ((0, 2), (2, 6))]
        assert features.dtype == promoted
        np.testing.assert_allclose(features, np.stack(rows), rtol=0, atol=1e-4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_applies_are_bit_identical_and_leave_their_input(self, dtype,
                                                                  float64_default):
        """The encoders' raw-array bodies keep the same rule: the graph's
        bits, written only into arrays they allocated."""
        from repro.nn import Conv1D, PatchImageEncoder, TemporalConvEncoder

        set_default_dtype(dtype)
        rng = np.random.default_rng(13)
        series = rng.normal(0.0, 2.0, size=(4, 9, 3)).astype(dtype)
        images = rng.random((3, 16, 16, 1)).astype(dtype)
        padded, strided = Conv1D(3, 5, kernel_size=3, padding=1), Conv1D(3, 5, 2, stride=2)
        temporal = TemporalConvEncoder(3, 8, hidden_channels=6)
        patches = PatchImageEncoder(image_size=16, patch_size=4, feature_dim=12)
        cases = [(padded.apply, padded, series), (strided.apply, strided, series),
                 (temporal.apply_sequence,
                  lambda x: temporal.project(temporal.convs(x)), series),
                 (patches.apply, lambda x: patches(x.data), images)]
        for module in (padded, strided, temporal, patches):
            _randomize(module, rng)
        for apply, graph, x in cases:
            before = x.tobytes()
            raw = apply(x)
            assert x.tobytes() == before
            expected = graph(Tensor(x, requires_grad=True, dtype=dtype))
            assert raw.dtype == dtype
            assert np.array_equal(raw, expected.data)
