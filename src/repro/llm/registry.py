"""Registry that builds (and optionally pre-trains) named LLM substitutes.

:func:`build_llm` is the one constructor: every call returns a fresh model,
so an experiment that fine-tunes it shares it with nothing else.
"""

from __future__ import annotations

from .config import get_config
from .model import LanguageModel
from .pretrain import pretrain
from .tokenizer import CharTokenizer


def build_llm(name: str = "llama2-7b-sim", lora_rank: int = 0, pretrained: bool = True,
              pretrain_steps: int = 60, seed: int = 0) -> LanguageModel:
    """Construct a fresh LLM substitute for config ``name``.

    When ``pretrained`` is true the model is pre-trained on the synthetic
    corpus; otherwise the random initialization is kept (the "no pre-trained
    knowledge" ablation of Figure 13).
    """
    config = get_config(name)
    model = LanguageModel(config, tokenizer=CharTokenizer(), lora_rank=lora_rank, seed=seed)
    if pretrained:
        pretrain(model, steps=pretrain_steps, seed=seed)
    return model

