"""Graph neural network layers for DAG-structured inputs.

Cluster job scheduling represents jobs as directed acyclic graphs.  Both the
Decima baseline and the NetLLM multimodal encoder use a message-passing graph
encoder to turn per-node features plus the adjacency structure into fixed-size
embeddings.  The implementation here is a mean-aggregation graph convolution
(GraphSAGE-style) that works directly on dense adjacency matrices, which is
adequate for the DAG sizes produced by the synthetic TPC-H-like generator.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .layers import Linear, Module
from .tensor import Tensor, concatenate, get_default_dtype


def normalized_adjacency(adjacency: np.ndarray, add_self_loops: bool = True) -> np.ndarray:
    """Row-normalize an adjacency matrix (optionally with self loops).

    Aggregating with the row-normalized matrix averages the features of each
    node's neighbours, which keeps activations well-scaled regardless of node
    degree.
    """
    adjacency = np.asarray(adjacency, dtype=get_default_dtype())
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    matrix = adjacency.copy()
    if add_self_loops:
        matrix = matrix + np.eye(matrix.shape[0])
    row_sums = matrix.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0] = 1.0
    return matrix / row_sums


class GraphConv(Module):
    """Single message-passing layer: ``h' = act(A_norm h W_neigh + h W_self)``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.self_transform = Linear(in_features, out_features, rng=rng)
        self.neighbor_transform = Linear(in_features, out_features, rng=rng)

    def forward(self, node_features: Tensor, norm_adjacency: np.ndarray) -> Tensor:
        aggregated = Tensor(norm_adjacency) @ node_features
        return (self.self_transform(node_features) + self.neighbor_transform(aggregated)).relu()


class GraphEncoder(Module):
    """Stack of :class:`GraphConv` layers plus global mean pooling.

    ``forward`` returns per-node embeddings; :meth:`encode_graph` additionally
    pools them into a single graph-level feature vector, which is what the
    multimodal encoder feeds to the LLM as a token-like embedding.
    """

    def __init__(self, in_features: int, hidden_features: int, out_features: int,
                 num_layers: int = 2, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        dims = [in_features] + [hidden_features] * (num_layers - 1) + [out_features]
        layers = [GraphConv(dims[i], dims[i + 1], rng=rng) for i in range(num_layers)]
        self._layers = layers
        for index, layer in enumerate(layers):
            setattr(self, f"conv{index}", layer)
        self.out_features = out_features

    def forward(self, node_features: Tensor, adjacency: np.ndarray) -> Tensor:
        norm = normalized_adjacency(adjacency)
        h = node_features
        for layer in self._layers:
            h = layer(h, norm)
        return h

    def encode_graph(self, node_features: Tensor, adjacency: np.ndarray) -> Tensor:
        """Return a single ``(out_features,)`` embedding for the whole graph."""
        node_embeddings = self.forward(node_features, adjacency)
        return node_embeddings.mean(axis=0)
