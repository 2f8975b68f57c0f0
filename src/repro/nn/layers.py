"""Parameterized neural-network layers built on the autodiff Tensor.

The :class:`Module` base class provides parameter registration, train/eval
mode, freezing and a flat state-dict interface used for checkpointing.  The
layers implemented here cover everything the NetLLM reproduction needs:
linear projections, layer normalization, embeddings, dropout, MLPs and small
utility containers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import init as weight_init
from .functional import dropout as dropout_fn
from .tensor import Tensor, add_into, is_grad_enabled, mul_into


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural network modules.

    Submodules and parameters assigned as attributes are discovered
    automatically, mirroring the familiar PyTorch ``nn.Module`` contract.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # -- attribute magic ------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # -- parameter access ------------------------------------------------ #
    def parameters(self) -> List[Parameter]:
        """Return all parameters of this module and its submodules."""
        return [param for _, param in self.named_parameters()]

    def trainable_parameters(self) -> List[Parameter]:
        """Return only parameters with ``requires_grad=True``."""
        return [p for p in self.parameters() if p.requires_grad]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for mod_name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def num_parameters(self, trainable_only: bool = False) -> int:
        params = self.trainable_parameters() if trainable_only else self.parameters()
        return int(sum(p.size for p in params))

    # -- mode / grad control --------------------------------------------- #
    def train(self, mode: bool = True) -> "Module":
        # A bool is neither Parameter nor Module: skip __setattr__'s dispatch.
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def freeze(self) -> "Module":
        """Disable gradient updates for all parameters of this module."""
        for param in self.parameters():
            param.requires_grad = False
        return self

    def unfreeze(self) -> "Module":
        for param in self.parameters():
            param.requires_grad = True
        return self

    # -- serialization ---------------------------------------------------- #
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, value in state.items():
            if name in own:
                if own[name].data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: {own[name].data.shape} vs {value.shape}"
                    )
                # Cast to the receiving parameter's own dtype, not the global
                # default: a float64 model must stay float64 even if the
                # process has switched the default to float32 for inference.
                own[name].data = np.asarray(value, dtype=own[name].data.dtype).copy()

    # -- call ------------------------------------------------------------- #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine transformation ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(weight_init.xavier_uniform((in_features, out_features), rng),
                                name="weight")
        self.use_bias = bias
        if bias:
            self.bias = Parameter(np.zeros(out_features), name="bias")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Inference-only forward on a raw array: the graph path's numpy
        operations in the same order (bit-identical), with no ``Tensor``.
        Like every raw-array ``apply``, it writes only into arrays it
        allocated — never into its argument, a parameter, or a view of
        either."""
        out = x @ self.weight.data
        if self.use_bias:
            out = add_into(out, self.bias.data)
        return out

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            out = self.apply(x.data)
            return Tensor(out, dtype=out.dtype)
        out = x @ self.weight
        if self.use_bias:
            out = out + self.bias
        return out


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.normalized_shape = normalized_shape
        self.gamma = Parameter(np.ones(normalized_shape), name="gamma")
        self.beta = Parameter(np.zeros(normalized_shape), name="beta")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Inference-only forward on a raw array, bit-identical to the graph
        path (which computes ``x - mean`` twice; once is the same value, and
        ``x - mean`` is its ``x + mean * -1.0`` exactly, negation being
        exact).  It writes only into arrays it allocated: the centred
        activations become the output in place."""
        scale = 1.0 / x.shape[-1]
        mean = x.sum(axis=-1, keepdims=True)
        mean *= scale
        centered = x - mean
        var = (centered * centered).sum(axis=-1, keepdims=True)
        var *= scale
        var += self.eps
        centered *= np.power(var, -0.5, out=var)  # repro: noqa[REP002] one variance per token, and 1/sqrt would not match Tensor.pow bit for bit
        return add_into(mul_into(centered, self.gamma.data), self.beta.data)

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            out = self.apply(x.data)
            return Tensor(out, dtype=out.dtype)
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normalized = (x - mean) * ((var + self.eps).pow(-0.5))
        return normalized * self.gamma + self.beta


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(weight_init.normal((num_embeddings, embedding_dim), rng),
                                name="weight")

    def _checked(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if np.any(indices < 0) or np.any(indices >= self.num_embeddings):
            raise IndexError("embedding index out of range")
        return indices

    def apply(self, indices: np.ndarray) -> np.ndarray:
        """Inference-only lookup: the rows of the table, with no ``Tensor``."""
        return self.weight.data[self._checked(indices)]

    def forward(self, indices: np.ndarray) -> Tensor:
        return self.weight[self._checked(indices)]


class Dropout(Module):
    """Inverted dropout layer."""

    def __init__(self, p: float = 0.1, seed: int = 0) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return dropout_fn(x, self.p, self.training, self._rng)


class ReLU(Module):
    def apply(self, x: np.ndarray) -> np.ndarray:
        return x * (x > 0)

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sequential(Module):
    """Chain modules and apply them in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._ordered: List[Module] = []
        for index, module in enumerate(modules):
            setattr(self, f"layer{index}", module)
            self._ordered.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)

    def forward(self, x):
        for module in self._ordered:
            x = module(x)
        return x


class ModuleList(Module):
    """Container that registers a list of submodules."""

    def __init__(self, modules: Optional[Sequence[Module]] = None) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> None:
        setattr(self, f"item{len(self._items)}", module)
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called directly")


class MLP(Module):
    """Multi-layer perceptron with configurable hidden sizes and activation."""

    def __init__(self, in_features: int, hidden_sizes: Sequence[int], out_features: int,
                 activation: str = "relu", rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        activations = {"relu": ReLU, "gelu": GELU, "tanh": Tanh}
        if activation not in activations:
            raise ValueError(f"unknown activation {activation!r}")
        layers: List[Module] = []
        previous = in_features
        for hidden in hidden_sizes:
            layers.append(Linear(previous, hidden, rng=rng))
            layers.append(activations[activation]())
            previous = hidden
        layers.append(Linear(previous, out_features, rng=rng))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
