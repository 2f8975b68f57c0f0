"""Tests for the LLM substitute: configs, tokenizer, model, pre-training, generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.llm import (
    CharTokenizer,
    LanguageModel,
    available_configs,
    build_corpus,
    build_llm,
    generate,
    get_config,
    pretrain,
    profile_generation,
)
from repro.llm.config import LLMConfig


class TestConfigs:
    def test_known_configs_exist(self):
        names = available_configs()
        for required in ("llama2-7b-sim", "opt-7b-sim", "mistral-7b-sim", "llava-7b-sim",
                         "opt-0.35b-sim", "opt-1.3b-sim", "opt-13b-sim", "tiny-test"):
            assert required in names

    def test_unknown_config_raises(self):
        with pytest.raises(KeyError):
            get_config("gpt-5")

    def test_size_ordering_preserved(self):
        """The size sweep must preserve capacity ordering of the real models."""
        sizes = ["opt-0.35b-sim", "opt-1.3b-sim", "opt-2.7b-sim", "opt-7b-sim", "opt-13b-sim"]
        widths = [get_config(name).d_model * get_config(name).num_layers for name in sizes]
        assert widths == sorted(widths)
        simulated = [get_config(name).simulated_param_count for name in sizes]
        assert simulated == sorted(simulated)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LLMConfig(name="bad", family="x", d_model=10, num_layers=1, num_heads=3)

    def test_scaled_override(self):
        cfg = get_config("tiny-test").scaled(num_layers=4)
        assert cfg.num_layers == 4
        assert cfg.d_model == get_config("tiny-test").d_model

    def test_llava_is_multimodal(self):
        assert get_config("llava-7b-sim").multimodal
        assert not get_config("llama2-7b-sim").multimodal


class TestTokenizer:
    def test_roundtrip(self):
        tok = CharTokenizer()
        text = "viewport (6.76,4.40,150.33) next"
        assert tok.decode(tok.encode(text)) == text

    def test_special_tokens(self):
        tok = CharTokenizer()
        ids = tok.encode("abc", add_bos=True, add_eos=True)
        assert ids[0] == tok.bos_id
        assert ids[-1] == tok.eos_id
        assert tok.decode(ids) == "abc"

    def test_unknown_characters_map_to_unk(self):
        tok = CharTokenizer()
        ids = tok.encode("a€b")
        assert tok.unk_id in ids

    def test_batch_encoding_pads(self):
        tok = CharTokenizer()
        batch = tok.encode_batch(["ab", "abcdef"], max_len=10)
        assert batch.shape == (2, 10)
        assert batch[0, -1] == tok.pad_id

    def test_decode_out_of_range(self):
        tok = CharTokenizer()
        with pytest.raises(ValueError):
            tok.decode([tok.vocab_size + 5])

    def test_tokens_per_answer_counts_eos(self):
        tok = CharTokenizer()
        assert tok.tokens_per_answer("12") == 3

    @settings(max_examples=25, deadline=None)
    @given(st.text(alphabet="0123456789. ,()-abcdef", max_size=40))
    def test_property_roundtrip(self, text):
        tok = CharTokenizer()
        assert tok.decode(tok.encode(text)) == text


class TestModel:
    def test_forward_tokens_shape(self, tiny_llm_plain):
        ids = np.array([[1, 5, 9, 12]])
        logits = tiny_llm_plain.forward_tokens(ids)
        assert logits.shape == (1, 4, tiny_llm_plain.tokenizer.vocab_size)

    def test_forward_embeddings_bypasses_lm_head(self, tiny_llm_plain):
        emb = np.random.default_rng(0).normal(size=(2, 3, tiny_llm_plain.d_model))
        from repro.nn import Tensor

        out = tiny_llm_plain.forward_embeddings(Tensor(emb))
        assert out.shape == (2, 3, tiny_llm_plain.d_model)

    def test_freeze_backbone_keeps_lora_trainable(self, tiny_llm):
        tiny_llm.freeze_backbone()
        trainable = [n for n, p in tiny_llm.named_parameters() if p.requires_grad]
        assert trainable
        assert all(n.endswith("lora_a") or n.endswith("lora_b") for n in trainable)
        assert tiny_llm.trainable_fraction() < 0.5

    def test_num_lora_parameters_positive(self, tiny_llm):
        assert tiny_llm.num_lora_parameters() > 0

    def test_set_lora_enabled_changes_output(self, tiny_llm):
        from repro.nn import Tensor

        rng = np.random.default_rng(0)
        # Give LoRA B matrices non-zero values so disabling them matters.
        for name, param in tiny_llm.named_parameters():
            if name.endswith("lora_b"):
                param.data = rng.normal(0, 0.1, size=param.data.shape)
        emb = Tensor(rng.normal(size=(1, 4, tiny_llm.d_model)))
        with_lora = tiny_llm.forward_embeddings(emb).data.copy()
        tiny_llm.set_lora_enabled(False)
        without = tiny_llm.forward_embeddings(emb).data
        tiny_llm.set_lora_enabled(True)
        for name, param in tiny_llm.named_parameters():
            if name.endswith("lora_b"):
                param.data = np.zeros_like(param.data)
        assert not np.allclose(with_lora, without)

    def test_randomize_weights_changes_parameters(self):
        model = build_llm("tiny-test", pretrained=False, seed=3)
        before = model.backbone.position_embedding.data.copy()
        model.randomize_weights(seed=99)
        assert not np.allclose(before, model.backbone.position_embedding.data)

    def test_parameter_memory_accounting(self, tiny_llm):
        total = tiny_llm.parameter_memory_bytes()
        trainable = tiny_llm.parameter_memory_bytes(trainable_only=True)
        assert 0 < trainable < total


class TestPretraining:
    def test_corpus_contains_series_and_text(self):
        corpus = build_corpus(num_documents=40, seed=1)
        assert len(corpus) == 40
        assert any(doc.startswith("series:") for doc in corpus)
        assert any(doc.startswith("wave:") for doc in corpus)

    def test_pretraining_reduces_loss(self):
        model = LanguageModel(get_config("tiny-test"), seed=0)
        result = pretrain(model, steps=40, seed=0)
        assert result.steps == 40
        assert result.improved
        assert result.final_loss < result.initial_loss

    def test_pretrain_validates_steps(self):
        model = LanguageModel(get_config("tiny-test"), seed=0)
        with pytest.raises(ValueError):
            pretrain(model, steps=0)


class TestGeneration:
    def test_greedy_generation_is_deterministic(self, tiny_llm_plain):
        a = generate(tiny_llm_plain, "series: 1.0 2.0", max_new_tokens=8)
        b = generate(tiny_llm_plain, "series: 1.0 2.0", max_new_tokens=8)
        assert a.text == b.text
        assert a.num_inferences <= 8

    def test_generation_counts_inferences(self, tiny_llm_plain):
        result = generate(tiny_llm_plain, "abc", max_new_tokens=5, temperature=0.8, seed=1)
        # One transformer inference per generated token: the latency problem
        # Figure 2 quantifies.
        assert result.num_inferences >= len(result.token_ids)
        assert result.elapsed_seconds > 0

    def test_generation_validates_budget(self, tiny_llm_plain):
        with pytest.raises(ValueError):
            generate(tiny_llm_plain, "abc", max_new_tokens=0)
        # The served request's check: neither decodes greedily any more.
        for temperature in (-0.5, float("nan")):
            with pytest.raises(ValueError, match="temperature must be >= 0"):
                generate(tiny_llm_plain, "abc", temperature=temperature)

    def test_profile_generation_validity_fraction(self, tiny_llm_plain):
        profile = profile_generation(tiny_llm_plain, ["1.0 2.0", "3.0 4.0"],
                                     validator=lambda text: "." in text,
                                     max_new_tokens=6, temperature=0.9)
        assert profile.num_answers == 2
        assert 0.0 <= profile.valid_fraction <= 1.0
        assert profile.mean_latency > 0

    def test_collect_timing_breakdown(self, tiny_llm_plain):
        off = generate(tiny_llm_plain, "abc", max_new_tokens=6, stop_on_eos=False)
        assert off.token_seconds is None
        assert off.prefill_seconds == 0.0 and off.decode_seconds_per_token == 0.0
        result = generate(tiny_llm_plain, "abc", max_new_tokens=6, stop_on_eos=False,
                          collect_timing=True)
        assert len(result.token_seconds) == result.num_inferences
        assert all(t >= 0 for t in result.token_seconds)
        assert result.prefill_seconds == result.token_seconds[0]
        expected = sum(result.token_seconds[1:]) / (result.num_inferences - 1)
        assert result.decode_seconds_per_token == pytest.approx(expected)
        # The per-token breakdown accounts for (almost all of) the total.
        assert sum(result.token_seconds) <= result.elapsed_seconds

    def test_profile_generation_through_server_matches_validity(self, tiny_llm_plain):
        from repro.serve import InferenceServer, SchedulerPolicy

        prompts = ["1.0 2.0", "3.0 4.0", "5.5"]
        direct = profile_generation(tiny_llm_plain, prompts,
                                    validator=lambda text: "." in text,
                                    max_new_tokens=6, temperature=0.0)
        server = InferenceServer(tiny_llm_plain, SchedulerPolicy(max_batch_size=3))
        served = profile_generation(tiny_llm_plain, prompts,
                                    validator=lambda text: "." in text,
                                    max_new_tokens=6, temperature=0.0, server=server)
        assert served.num_answers == direct.num_answers
        assert served.valid_fraction == direct.valid_fraction
        assert served.total_inferences == direct.total_inferences


class TestSampleToken:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_draw_matches_generator_choice(self, dtype):
        """``sample_token`` inlines the draw ``Generator.choice(n, p=probs)``
        performs.  Same token ids *and* the same generator state afterwards,
        over >10k random logits: a numpy upgrade that changes the algorithm
        must fail here, not change served tokens."""
        from repro.llm.generation import sample_token

        meta = np.random.default_rng(0)
        draws = 0
        for seed in range(130):
            ours = np.random.default_rng(seed)
            reference = np.random.default_rng(seed)
            for _ in range(40):
                vocab = int(meta.integers(2, 160))
                temperature = float(meta.choice([0.3, 0.7, 1.0, 2.5]))
                logits = (meta.normal(size=vocab)
                          * meta.choice([0.1, 1.0, 10.0])).astype(dtype)
                scaled = logits / temperature
                scaled = scaled - scaled.max()
                probs = np.exp(scaled)
                probs = probs / probs.sum()
                expected = int(reference.choice(len(probs), p=probs))
                assert sample_token(logits, temperature, ours) == expected
                draws += 1
            assert ours.bit_generator.state == reference.bit_generator.state
        assert draws >= 5000  # x2 dtypes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_table_rows_match_the_one_row_case(self, dtype):
        """``SamplingTable`` over a ``(rows, vocab)`` block, drawn row by row
        with ``draw_token``, is ``sample_token`` on each row: the same ids as
        ``Generator.choice`` (argmax for greedy rows), the same generator
        state afterwards, and every CDF row bitwise equal to the one-row
        table's."""
        from repro.llm.generation import SamplingTable, draw_token

        meta = np.random.default_rng(1)
        rows_checked = 0
        for seed in range(250):
            rows = int(meta.integers(1, 24))
            vocab = int(meta.integers(2, 301))
            temperatures = [float(t) for t in
                            meta.choice([0.0, 0.3, 0.7, 1.0, 2.5], size=rows)]
            logits = (meta.normal(size=(rows, vocab))
                      * meta.choice([0.1, 1.0, 10.0])).astype(dtype)
            table = SamplingTable(logits, temperatures)
            ours = np.random.default_rng(seed)
            reference = np.random.default_rng(seed)
            for row, temperature in enumerate(temperatures):
                if temperature > 0:
                    scaled = logits[row] / temperature
                    scaled = scaled - scaled.max()
                    probs = np.exp(scaled)
                    probs = probs / probs.sum()
                    expected = int(reference.choice(vocab, p=probs))
                    one_row = SamplingTable(logits[row][None], [temperature])
                    assert table.cdf[row].tobytes() == one_row.cdf[0].tobytes()
                else:
                    expected = int(np.argmax(logits[row]))
                    assert table.cdf[row] is None
                assert draw_token(table, row, ours) == expected
                rows_checked += 1
            assert ours.bit_generator.state == reference.bit_generator.state
        assert rows_checked >= 2500  # x2 dtypes

    def test_table_raises_only_for_a_drawn_non_finite_row(self):
        from repro.llm.generation import SamplingTable, draw_token

        logits = np.asarray([[0.1, 3.0, -1.0],
                             [0.1, np.nan, -1.0],
                             [0.2, np.inf, 0.0],
                             [np.nan, 1.0, 0.0]])
        with np.errstate(invalid="ignore"):
            table = SamplingTable(logits, [1.0, 1.0, 0.7, 0.0])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        draw_token(table, 0, rng)  # a finite row draws past its neighbours
        assert rng.bit_generator.state != state
        for row in (1, 2):  # as Generator.choice: "contain NaN"
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match="NaN"):
                draw_token(table, row, rng)
            assert rng.bit_generator.state == state  # nothing was drawn
        # A greedy row is an argmax, NaN and all: it never raises.
        assert draw_token(table, 3, rng) == int(np.argmax(logits[3]))

    def test_greedy_and_non_finite_logits(self):
        from repro.llm.generation import sample_token

        rng = np.random.default_rng(0)
        assert sample_token(np.asarray([0.1, 3.0, -1.0]), 0.0, rng) == 1
        for bad in (np.nan, np.inf):  # as Generator.choice: "contain NaN"
            with np.errstate(invalid="ignore"), \
                    pytest.raises(ValueError, match="NaN"):
                sample_token(np.asarray([0.1, bad, -1.0]), 1.0, rng)


class TestRegistry:
    def test_build_llm_without_pretraining(self):
        model = build_llm("tiny-test", pretrained=False, seed=7)
        assert isinstance(model, LanguageModel)
