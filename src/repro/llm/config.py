"""Configuration objects for the LLM substitute.

The paper adapts Llama2-7B (and OPT / Mistral / LLaVa variants as well as an
OPT size sweep from 0.35B to 13B parameters).  The offline reproduction
environment has no GPU and no pre-trained checkpoints, so each of those models
is represented by a *simulated* configuration: a decoder-only transformer of a
size we can actually pre-train and fine-tune on CPU, annotated with the
parameter count of the model it stands in for (``simulated_param_count``) so
cost reports can be expressed in the paper's terms.

The relative capacity ordering of the real models (0.35B < 1.3B < 2.7B < 7B
< 13B) is preserved by scaling width/depth, which is what matters for the
size-sweep experiment (Figure 16).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass(frozen=True)
class LLMConfig:
    """Architecture hyper-parameters for one LLM substitute."""

    name: str
    family: str
    d_model: int
    num_layers: int
    num_heads: int
    max_seq_len: int = 192
    d_hidden: Optional[int] = None
    multimodal: bool = False
    simulated_param_count: float = 7e9
    description: str = ""

    def __post_init__(self) -> None:
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")

    @property
    def hidden_dim(self) -> int:
        return self.d_hidden if self.d_hidden is not None else 4 * self.d_model

    def scaled(self, **overrides) -> "LLMConfig":
        """Return a copy with some fields overridden (for ablations)."""
        data = self.__dict__.copy()
        data.update(overrides)
        return LLMConfig(**data)


def _cfg(name: str, family: str, d_model: int, num_layers: int, num_heads: int,
         simulated: float, multimodal: bool = False, description: str = "") -> LLMConfig:
    return LLMConfig(
        name=name,
        family=family,
        d_model=d_model,
        num_layers=num_layers,
        num_heads=num_heads,
        multimodal=multimodal,
        simulated_param_count=simulated,
        description=description,
    )


#: Named configurations standing in for the checkpoints used in the paper.
DEFAULT_CONFIGS: Dict[str, LLMConfig] = {
    # Main foundation model used throughout the paper.
    "llama2-7b-sim": _cfg("llama2-7b-sim", "llama2", d_model=64, num_layers=3, num_heads=4,
                          simulated=7e9,
                          description="Stand-in for Llama2-7B, the default foundation model."),
    # Figure 15: other 7B-class families.  The families share the 7B capacity
    # class but differ architecturally (head count, FFN width, depth), like
    # their real counterparts, so adapted results are family-specific.
    "opt-7b-sim": LLMConfig(name="opt-7b-sim", family="opt", d_model=64, num_layers=3,
                            num_heads=8, simulated_param_count=6.7e9,
                            description="Stand-in for OPT-6.7B (more, narrower heads)."),
    "mistral-7b-sim": LLMConfig(name="mistral-7b-sim", family="mistral", d_model=64,
                                num_layers=3, num_heads=4, d_hidden=192,
                                simulated_param_count=7e9,
                                description="Stand-in for Mistral-7B (narrower FFN)."),
    "llava-7b-sim": LLMConfig(name="llava-7b-sim", family="llava", d_model=64, num_layers=4,
                              num_heads=4, multimodal=True, simulated_param_count=7e9,
                              description="Stand-in for LLaVa-7B (multimodal pre-training)."),
    # Figure 16: OPT size sweep.
    "opt-0.35b-sim": _cfg("opt-0.35b-sim", "opt", d_model=16, num_layers=1, num_heads=2,
                          simulated=0.35e9, description="Stand-in for OPT-350M."),
    "opt-1.3b-sim": _cfg("opt-1.3b-sim", "opt", d_model=32, num_layers=2, num_heads=2,
                         simulated=1.3e9, description="Stand-in for OPT-1.3B."),
    "opt-2.7b-sim": _cfg("opt-2.7b-sim", "opt", d_model=48, num_layers=2, num_heads=4,
                         simulated=2.7e9, description="Stand-in for OPT-2.7B."),
    "opt-13b-sim": _cfg("opt-13b-sim", "opt", d_model=80, num_layers=4, num_heads=4,
                        simulated=13e9, description="Stand-in for OPT-13B."),
    # Small, fast configuration used by unit tests and examples.
    "tiny-test": _cfg("tiny-test", "test", d_model=32, num_layers=2, num_heads=2,
                      simulated=0.1e9, description="Tiny configuration for tests and CI."),
}


def get_config(name: str) -> LLMConfig:
    """Look up a named configuration, raising a helpful error when unknown."""
    try:
        return DEFAULT_CONFIGS[name]
    except KeyError:
        known = ", ".join(sorted(DEFAULT_CONFIGS))
        raise KeyError(f"unknown LLM config {name!r}; known configs: {known}") from None


def available_configs() -> list[str]:
    return sorted(DEFAULT_CONFIGS)
