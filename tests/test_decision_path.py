"""The decision path: one packed ragged forward per task, read at the answer.

``DecisionAdapter.act_batch`` / ``VPAdapter.predict_batch`` pack windows of
different lengths into one raw-array forward whose final block runs at each
row's last position only.  The contract pinned here: every row of a batch
equals the same row called alone, equals a stacked equal-length call of its
length peers, and equals the graph ``forward`` (what DD-LRNA trains through)
at that row's last state position — float64 at the parity policy's bound
(``tests/reference.py``, 1e-12) and argmax-exact, float32 at
``atol=1e-4``.  The forward is ``forward_step`` with no pool: it writes,
gathers and builds no KV storage.  The engine half: one group per task
whatever the window lengths, and a malformed payload refused at ``submit``
instead of failing its task's whole group.
"""

from __future__ import annotations

import copy
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import PARITY_ATOL

from repro.core import DecisionAdapter, VPAdapter
from repro.core.adapter import DecisionBatch
from repro.llm import LanguageModel
from repro.llm.config import LLMConfig
from repro.nn import Adam, Tensor, iter_lora_layers, no_grad, set_default_dtype
from repro.serve import DecisionRequest, InferenceServer
from repro.vp.task import VPSample

ATOL = PARITY_ATOL[np.dtype(np.float64)]
CONTEXT_WINDOW = 10
STATE_DIM = {"abr": 7, "cjs": 9}
ACTION_DIMS = {"abr": (6,), "cjs": (5, 3)}
SALIENCY_SIZE = 32
PREDICTION_STEPS = 4


def _llm(num_layers: int = 2, seed: int = 0) -> LanguageModel:
    config = LLMConfig(name="decisions", family="test", d_model=32,
                       num_layers=num_layers, num_heads=2, max_seq_len=48)
    llm = LanguageModel(config, lora_rank=4, seed=seed)
    # LoRA's B starts at zero; give the low-rank update something to say.
    rng = np.random.default_rng(seed)
    for layer in iter_lora_layers(llm):
        layer.lora_b.data = rng.normal(0.0, 0.05, layer.lora_b.data.shape).astype(
            layer.lora_b.data.dtype)
    return llm


def _decision_adapter(head: str, llm: LanguageModel = None) -> DecisionAdapter:
    return DecisionAdapter(llm or _llm(), state_dim=STATE_DIM[head],
                           action_dims=ACTION_DIMS[head],
                           context_window=CONTEXT_WINDOW, head=head, seed=0)


@pytest.fixture(scope="module")
def adapters():
    llm = _llm()
    return {"abr": _decision_adapter("abr", llm), "cjs": _decision_adapter("cjs", llm),
            "vp": VPAdapter(llm, prediction_steps=PREDICTION_STEPS, seed=0),
            "vp_plain": VPAdapter(llm, prediction_steps=PREDICTION_STEPS,
                                  use_saliency=False, seed=0)}


def _window(rng, head: str, steps: int) -> dict:
    dims = ACTION_DIMS[head]
    payload = {"returns": rng.normal(size=(steps, 1)),
               "states": rng.normal(size=(steps, STATE_DIM[head])),
               "actions": np.stack([rng.integers(0, dim, steps) for dim in dims], axis=1)}
    if head == "cjs":
        mask = np.zeros(dims[0])
        mask[:int(rng.integers(1, dims[0] + 1))] = 1.0
        payload["valid_mask"] = mask
    return payload


def _sample(rng, steps: int, saliency: bool = True) -> VPSample:
    return VPSample(history=np.cumsum(rng.normal(0.0, 3.0, (steps, 3)), axis=0),
                    future=np.zeros((PREDICTION_STEPS, 3)),
                    saliency=rng.random((SALIENCY_SIZE, SALIENCY_SIZE)) if saliency else None)


def _columns(windows, *names):
    return [[window[name] for window in windows] for name in names]


def _graph_logits(adapter: DecisionAdapter, windows) -> list:
    """The graph forward's logits at the last state position of stacked
    equal-length windows, one array per action component."""
    adapter.eval()
    returns, states, actions = (np.stack(column) for column in
                                _columns(windows, "returns", "states", "actions"))
    with no_grad():
        logits = adapter.forward(DecisionBatch(returns, states, actions))
    return [component.data[:, -1, :] for component in logits]


def _by_length(items, length_of) -> dict:
    peers = defaultdict(list)
    for row, item in enumerate(items):
        peers[length_of(item)].append(row)
    return peers


def _assert_decision_parity(adapter: DecisionAdapter, windows, atol: float = ATOL) -> None:
    head = adapter.head_kind
    columns = _columns(windows, "returns", "states", "actions")
    masks = _columns(windows, "valid_mask")[0] if head == "cjs" else None
    batch = adapter.last_logits(*columns)
    answers = adapter.act_batch(*columns, valid_masks=masks)
    for row, window in enumerate(windows):
        alone = adapter.last_logits(*([column[row]] for column in columns))
        for mine, theirs in zip(batch, alone):
            np.testing.assert_allclose(mine[row], theirs[0], atol=atol, rtol=0)
        assert answers[row] == adapter.act(
            window["returns"], window["states"], window["actions"],
            valid_mask=window.get("valid_mask"))
    for rows in _by_length(windows, lambda w: len(w["states"])).values():
        peers = [windows[row] for row in rows]
        stacked = adapter.last_logits(*(np.stack(column) for column in
                                        _columns(peers, "returns", "states", "actions")))
        for mine, theirs, graph in zip(batch, stacked, _graph_logits(adapter, peers)):
            np.testing.assert_allclose(mine[rows], theirs, atol=atol, rtol=0)
            np.testing.assert_allclose(mine[rows], graph, atol=atol, rtol=0)


def _assert_vp_parity(adapter: VPAdapter, samples, atol: float = ATOL) -> None:
    batch = adapter.predict_batch(samples)
    for sample, prediction in zip(samples, batch):
        np.testing.assert_allclose(prediction, adapter.predict(sample), atol=atol, rtol=0)
    for rows in _by_length(samples, lambda s: len(s.history)).values():
        peers = [samples[row] for row in rows]
        saliencies = (np.stack([s.saliency for s in peers])
                      if adapter.use_saliency and peers[0].saliency is not None else None)
        with no_grad():
            graph = adapter.forward(np.stack([s.history for s in peers]), saliencies).data
        for row, theirs, ours in zip(rows, adapter.predict_batch(peers), graph):
            np.testing.assert_allclose(batch[row], theirs, atol=atol, rtol=0)
            np.testing.assert_allclose(batch[row], ours, atol=atol, rtol=0)


_LENGTHS = st.lists(st.integers(1, CONTEXT_WINDOW), min_size=1, max_size=16)


class TestPackedParity:
    @pytest.mark.parametrize("head", ["abr", "cjs"])
    @settings(max_examples=15, deadline=None)
    @given(lengths=_LENGTHS, seed=st.integers(0, 2 ** 16))
    def test_decision_rows_equal_alone_stacked_and_graph(self, adapters, head,
                                                         lengths, seed):
        rng = np.random.default_rng(seed)
        _assert_decision_parity(adapters[head],
                                [_window(rng, head, steps) for steps in lengths])

    @pytest.mark.parametrize("name", ["vp", "vp_plain"])
    @settings(max_examples=15, deadline=None)
    @given(lengths=_LENGTHS, seed=st.integers(0, 2 ** 16))
    def test_vp_rows_equal_alone_stacked_and_graph(self, adapters, name, lengths, seed):
        rng = np.random.default_rng(seed)
        _assert_vp_parity(adapters[name],
                          [_sample(rng, steps, saliency=name == "vp") for steps in lengths])

    def test_saliency_adapter_answers_samples_without_saliency(self, adapters):
        rng = np.random.default_rng(1)
        _assert_vp_parity(adapters["vp"],
                          [_sample(rng, steps, saliency=False) for steps in (3, 7, 3)])

    def test_lora_toggle_and_optimizer_step_leave_no_stale_state(self):
        adapter = _decision_adapter("abr")
        rng = np.random.default_rng(2)
        windows = [_window(rng, "abr", steps) for steps in (2, 9, 5, 9, 1)]
        columns = _columns(windows, "returns", "states", "actions")
        adapted = adapter.last_logits(*columns)[0]
        _assert_decision_parity(adapter, windows)

        adapter.set_domain_knowledge_enabled(False)
        plain = adapter.last_logits(*columns)[0]
        assert np.abs(plain - adapted).max() > 1e-6  # the update was being applied
        _assert_decision_parity(adapter, windows)
        adapter.set_domain_knowledge_enabled(True)
        np.testing.assert_array_equal(adapter.last_logits(*columns)[0], adapted)

        # One DD-LRNA-style step through the graph forward rebinds the LoRA
        # (and encoder / head) arrays; inference must read the new ones.
        adapter.train()
        peers = [w for w in windows if len(w["states"]) == 9]
        optimizer = Adam(adapter.trainable_parameters(), lr=1e-2)
        logits = adapter.forward(DecisionBatch(*(
            np.stack(column) for column in _columns(peers, "returns", "states", "actions"))))
        (logits[0] * logits[0]).sum().backward()
        optimizer.step()
        stepped = adapter.last_logits(*columns)[0]
        assert np.abs(stepped - adapted).max() > 1e-6
        _assert_decision_parity(adapter, windows)

    def test_float32_model_within_its_stated_bound(self):
        previous = set_default_dtype(np.float32)
        try:
            llm = _llm(seed=3)
            abr = _decision_adapter("abr", llm)
            vp = VPAdapter(llm, prediction_steps=PREDICTION_STEPS, seed=0)
            rng = np.random.default_rng(3)
            windows = [_window(rng, "abr", steps) for steps in (4, 1, 10, 4, 6)]
            assert abr.last_logits(*_columns(windows, "returns", "states", "actions")
                                   )[0].dtype == np.float32
            _assert_decision_parity(abr, windows, atol=1e-4)
            # Viewport angles are of order 100 degrees, hence the looser bound.
            _assert_vp_parity(vp, [_sample(rng, steps) for steps in (5, 2, 5, 9)],
                              atol=1e-3)
        finally:
            set_default_dtype(previous)

    @pytest.mark.parametrize("task", ["abr", "cjs", "vp"])
    def test_tensors_built_are_constant_in_depth_and_window(self, task, monkeypatch):
        built = []
        original = Tensor.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        counts = set()
        for num_layers in (1, 3):
            llm = _llm(num_layers=num_layers)
            adapter = (VPAdapter(llm, prediction_steps=PREDICTION_STEPS, seed=0)
                       if task == "vp" else _decision_adapter(task, llm))
            for steps in (2, 8):
                rng = np.random.default_rng(steps)
                with monkeypatch.context() as patch:
                    patch.setattr(Tensor, "__init__", counting)
                    before = len(built)
                    if task == "vp":
                        adapter.predict_batch([_sample(rng, steps), _sample(rng, steps + 1)])
                    else:
                        windows = [_window(rng, task, steps), _window(rng, task, steps + 1)]
                        adapter.act_batch(*_columns(windows, "returns", "states", "actions"))
                    counts.add(len(built) - before)
        assert counts == {0}  # raw arrays end to end: no graph node at any depth

    def test_the_decision_forward_is_the_step_with_no_pool(self, adapters,
                                                           monkeypatch):
        from repro.nn import MultiHeadAttention, PagedKVCache, PagedLayerKVCache

        touched, caches = [], []
        for cls, name in ((PagedKVCache, "__init__"),
                          (PagedLayerKVCache, "append_step"),
                          (PagedLayerKVCache, "gather")):
            monkeypatch.setattr(cls, name,
                                lambda *args, _name=name, **kwargs: touched.append(_name))
        step = MultiHeadAttention.forward_step

        def spy(self, x, layer_cache, context):
            caches.append(layer_cache)
            return step(self, x, layer_cache, context)

        monkeypatch.setattr(MultiHeadAttention, "forward_step", spy)
        rng = np.random.default_rng(6)
        _assert_decision_parity(adapters["cjs"], [_window(rng, "cjs", steps)
                                                  for steps in (4, 4, 9, 1, 7)])
        _assert_vp_parity(adapters["vp"], [_sample(rng, steps) for steps in (3, 8, 3)])
        assert touched == []
        assert caches and all(layer_cache is None for layer_cache in caches)

    def test_backbone_entry_checks_its_packing(self):
        backbone = _llm().backbone
        tokens = np.zeros((5, 32))
        with pytest.raises(ValueError, match="packed tokens"):
            backbone.last_position_features(tokens, [2, 2])
        with pytest.raises(ValueError, match="packed tokens"):
            backbone.last_position_features(tokens, [5, 0])
        with pytest.raises(ValueError, match="exceeds maximum"):
            backbone.last_position_features(np.zeros((49, 32)), [49])
        with pytest.raises(ValueError, match="expected packed"):
            backbone.last_position_features(np.zeros((5, 16)), [5])
        with pytest.raises(RuntimeError, match="no_grad"):
            backbone.last_position_features(tokens, [5])


# ---------------------------------------------------------------------- #
# Through the engine: one group per task, refusal at submit
# ---------------------------------------------------------------------- #
def _server(adapters) -> InferenceServer:
    return InferenceServer(adapters={task: adapters[task] for task in ("vp", "abr", "cjs")})


def _payload(rng, task: str, steps: int):
    return _sample(rng, steps) if task == "vp" else _window(rng, task, steps)


class TestServedDecisionGroups:
    def test_mixed_windows_flush_as_one_group_per_task(self, adapters):
        rng = np.random.default_rng(4)
        tasks = ["abr"] * 16 + ["cjs"] * 8 + ["vp"] * 8
        payloads = [_payload(rng, task, int(rng.integers(1, CONTEXT_WINDOW + 1)))
                    for task in tasks]
        server = _server(adapters)
        handles = [server.submit(DecisionRequest(task=task, payload=payload))
                   for task, payload in zip(tasks, payloads)]
        server.run_until_idle()
        sizes = {"abr": 16, "cjs": 8, "vp": 8}
        for task, payload, handle in zip(tasks, payloads, handles):
            assert handle.metrics.batch_sizes == [sizes[task]]  # exactly 3 groups
            if task == "vp":
                np.testing.assert_allclose(handle.result().viewport,
                                           adapters[task].predict(payload),
                                           atol=ATOL, rtol=0)
            else:
                assert handle.result().value == adapters[task].act(
                    payload["returns"], payload["states"], payload["actions"],
                    valid_mask=payload.get("valid_mask"))

    def test_ten_window_lengths_in_one_batch_equal_ten_calls(self, adapters):
        rng = np.random.default_rng(5)
        adapter = adapters["cjs"]
        windows = [_window(rng, "cjs", steps)
                   for steps in rng.permutation(np.repeat(np.arange(1, 11), 2))]
        names = ("returns", "states", "actions", "valid_mask")
        together = adapter.act_batch(*_columns(windows, *names))
        for rows in _by_length(windows, lambda w: len(w["states"])).values():
            stacked = (np.stack(column) for column in
                       _columns([windows[row] for row in rows], *names))
            assert [together[row] for row in rows] == adapter.act_batch(*stacked)

    def test_one_malformed_request_is_refused_at_submit_not_in_the_group(self, adapters):
        rng = np.random.default_rng(6)
        server = _server(adapters)
        good = [_window(rng, "abr", int(rng.integers(1, CONTEXT_WINDOW + 1)))
                for _ in range(31)]
        bad = _window(rng, "abr", 4)
        bad["states"] = bad["states"][:, :-1]  # one feature short
        handles = [server.submit(DecisionRequest(task="abr", payload=payload))
                   for payload in good[:15]]
        with pytest.raises(ValueError, match="malformed 'abr' payload: states"):
            server.submit(DecisionRequest(task="abr", payload=bad))
        handles += [server.submit(DecisionRequest(task="abr", payload=payload))
                    for payload in good[15:]]
        server.run_until_idle()
        for payload, handle in zip(good, handles):
            assert handle.metrics.batch_sizes == [31]
            assert handle.result().action == adapters["abr"].act(
                payload["returns"], payload["states"], payload["actions"])
        assert server.stats().report()["failed"] == 0

    @pytest.mark.parametrize("task, spoil, match", [
        ("abr", lambda p: p.update(returns=p["returns"][:-1]), "returns must be"),
        ("abr", lambda p: p.update(actions=p["actions"][:, [0, 0]]), "actions must be"),
        ("abr", lambda p: p["actions"].__setitem__((0, 0), 6), "action indices"),
        ("abr", lambda p: p["actions"].__setitem__((0, 0), -1), "action indices"),
        ("abr", lambda p: p.update({k: v[:0] for k, v in p.items()}), "window of 0"),
        ("abr", lambda p: p.update({k: np.repeat(v, 5, axis=0) for k, v in p.items()}),
         "window of 20"),
        ("cjs", lambda p: p.update(valid_mask=p["valid_mask"][:-1]), "valid_mask must be"),
    ])
    def test_window_validation(self, adapters, task, spoil, match):
        payload = _window(np.random.default_rng(7), task, 4)
        server = _server(adapters)
        server.submit(DecisionRequest(task=task, payload=copy.deepcopy(payload)))
        spoil(payload)
        with pytest.raises(ValueError, match=match):
            server.submit(DecisionRequest(task=task, payload=payload))

    def test_the_placeholder_action_is_not_range_checked(self, adapters):
        payload = _window(np.random.default_rng(8), "abr", 3)
        payload["actions"][-1, 0] = -1  # unused: the action being chosen
        server = _server(adapters)
        handle = server.submit(DecisionRequest(task="abr", payload=payload))
        server.run_until_idle()
        assert handle.result().action == adapters["abr"].act(
            payload["returns"], payload["states"], payload["actions"])

    def test_vp_validation_and_saliency_key(self, adapters):
        rng = np.random.default_rng(9)
        server = _server(adapters)
        for history, match in [(np.zeros((4, 2)), "history must be"),
                               (np.zeros((0, 3)), "history must be"),
                               (np.zeros((48, 3)), "exceed max_seq_len")]:
            sample = _sample(rng, 4)
            sample.history = history  # VPSample checks only at construction
            with pytest.raises(ValueError, match=match):
                server.submit(DecisionRequest(task="vp", payload=sample))
        flat = _sample(rng, 4)
        flat.saliency = flat.saliency.ravel()
        with pytest.raises(ValueError, match="saliency must be"):
            server.submit(DecisionRequest(task="vp", payload=flat))
        # With and without saliency cannot share a forward: two groups.
        samples = [_sample(rng, 3), _sample(rng, 6), _sample(rng, 6, saliency=False)]
        handles = [server.submit(DecisionRequest(task="vp", payload=sample))
                   for sample in samples]
        server.run_until_idle()
        assert [h.metrics.batch_sizes for h in handles] == [[2], [2], [1]]
        for sample, handle in zip(samples, handles):
            np.testing.assert_allclose(handle.result().viewport,
                                       adapters["vp"].predict(sample), atol=ATOL, rtol=0)


# ---------------------------------------------------------------------- #
# Mode: inference neither reads nor writes an adapter's mode
# ---------------------------------------------------------------------- #
class TestInferenceMode:
    def test_a_round_on_eval_adapters_calls_no_module_train(self, adapters,
                                                            monkeypatch):
        from repro.nn import Module

        rng = np.random.default_rng(10)
        tasks = ["abr"] * 16 + ["cjs"] * 8 + ["vp"] * 8
        payloads = [_payload(rng, task, int(rng.integers(1, CONTEXT_WINDOW + 1)))
                    for task in tasks]
        server = _server(adapters)
        for adapter in adapters.values():
            adapter.eval()
        walked = []
        train = Module.train

        def counting(self, mode=True):
            walked.append(type(self).__name__)
            return train(self, mode)

        monkeypatch.setattr(Module, "train", counting)
        handles = [server.submit(DecisionRequest(task=task, payload=payload))
                   for task, payload in zip(tasks, payloads)]
        server.run_until_idle()
        assert all(handle.result() is not None for handle in handles)
        assert walked == []

    @pytest.mark.parametrize("task", ["abr", "cjs", "vp"])
    def test_train_mode_still_answers_as_eval(self, task):
        # No layer reads the mode: an adapter left in training mode answers
        # as in eval mode, and its inference leaves the mode as it was.
        config = LLMConfig(name="decisions", family="test", d_model=32,
                           num_layers=2, num_heads=2, max_seq_len=48)
        llm = LanguageModel(config, lora_rank=4, seed=0)
        rng = np.random.default_rng(11)
        if task == "vp":
            adapter = VPAdapter(llm, prediction_steps=PREDICTION_STEPS, seed=0)
            samples = [_sample(rng, steps) for steps in (3, 7, 3)]

            def answer():
                return np.stack(adapter.predict_batch(samples))
        else:
            adapter = _decision_adapter(task, llm)
            windows = [_window(rng, task, steps) for steps in (2, 9, 5)]
            columns = _columns(windows, "returns", "states", "actions")

            def answer():
                return np.concatenate([*adapter.last_logits(*columns),
                                       np.asarray(adapter.act_batch(*columns))], axis=1)
        adapter.eval()
        expected = answer()
        adapter.train()
        assert np.array_equal(answer(), expected)
        assert adapter.training
