"""``repro.nn`` — a compact numpy autodiff / neural-network substrate.

The reproduction environment provides no deep-learning framework, so this
package implements the parts of one that NetLLM needs: a reverse-mode
autograd tensor, standard layers (linear, layer norm, embedding, dropout,
1-D convolution, LSTM, GNN, multi-head attention, transformer blocks), LoRA
adapters, optimizers and checkpointing.
"""

from .tensor import (
    Tensor,
    concatenate,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    set_grad_enabled,
    stack,
    where,
)
from .functional import (
    clip_grad_norm,
    cross_entropy,
    dropout,
    gelu,
    huber_loss,
    log_softmax,
    mae_loss,
    mse_loss,
    one_hot,
    relu,
    sigmoid,
    softmax,
    tanh,
)
from .layers import (
    Dropout,
    Embedding,
    GELU,
    LayerNorm,
    Linear,
    MLP,
    Module,
    ModuleList,
    Parameter,
    ReLU,
    Sequential,
    Tanh,
)
from .conv import Conv1D, PatchImageEncoder, TemporalConvEncoder
from .attention import MultiHeadAttention, causal_mask
from .paged_cache import (
    DEFAULT_BLOCK_SIZE,
    BlockAllocator,
    PagedKVCache,
    PagedLayerKVCache,
    PagedStepContext,
)
from .transformer import FeedForward, TransformerBackbone, TransformerBlock
from .rnn import LSTM, LSTMCell
from .gnn import GraphConv, GraphEncoder, normalized_adjacency
from .lora import LoRALinear, iter_lora_layers, mark_only_lora_trainable
from .optim import Adam, CosineSchedule, Optimizer, SGD
from .serialization import load_into, load_state_dict, save_state_dict

__all__ = [
    "Tensor", "concatenate", "stack", "where",
    "no_grad", "set_grad_enabled", "is_grad_enabled",
    "set_default_dtype", "get_default_dtype",
    "clip_grad_norm", "cross_entropy", "dropout", "gelu", "huber_loss", "log_softmax",
    "mae_loss", "mse_loss", "one_hot", "relu", "sigmoid", "softmax", "tanh",
    "Dropout", "Embedding", "GELU", "LayerNorm", "Linear", "MLP", "Module", "ModuleList",
    "Parameter", "ReLU", "Sequential", "Tanh",
    "Conv1D", "PatchImageEncoder", "TemporalConvEncoder",
    "MultiHeadAttention", "causal_mask",
    "DEFAULT_BLOCK_SIZE", "BlockAllocator",
    "PagedKVCache", "PagedLayerKVCache", "PagedStepContext",
    "FeedForward", "TransformerBackbone", "TransformerBlock",
    "LSTM", "LSTMCell",
    "GraphConv", "GraphEncoder", "normalized_adjacency",
    "LoRALinear", "iter_lora_layers", "mark_only_lora_trainable",
    "Adam", "CosineSchedule", "Optimizer", "SGD",
    "load_into", "load_state_dict", "save_state_dict",
]
