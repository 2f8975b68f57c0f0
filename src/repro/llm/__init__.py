"""``repro.llm`` — the foundation-model substitute used by NetLLM.

Provides named configurations standing in for Llama2/OPT/Mistral/LLaVa, a
character-level tokenizer, a decoder-only transformer with optional LoRA
adapters, synthetic-corpus pre-training and autoregressive generation (used
only by the baselines NetLLM replaces).
"""

from .config import DEFAULT_CONFIGS, LLMConfig, available_configs, get_config
from .tokenizer import BOS_TOKEN, EOS_TOKEN, PAD_TOKEN, UNK_TOKEN, CharTokenizer
from .model import LanguageModel
from .pretrain import PretrainResult, build_corpus, pretrain
from .generation import (
    GenerationProfile,
    GenerationResult,
    generate,
    profile_generation,
    sample_token,
)
from .registry import build_llm

__all__ = [
    "DEFAULT_CONFIGS", "LLMConfig", "available_configs", "get_config",
    "BOS_TOKEN", "EOS_TOKEN", "PAD_TOKEN", "UNK_TOKEN", "CharTokenizer",
    "LanguageModel",
    "PretrainResult", "build_corpus", "pretrain",
    "GenerationProfile", "GenerationResult", "generate", "profile_generation",
    "sample_token",
    "build_llm",
]
