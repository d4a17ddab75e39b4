"""AliNet: gated multi-hop neighborhood aggregation (Sun et al., AAAI 2020).

The paper's §5.1 names AliNet as the contemporaneous approach to be
included in the next OpenEA release; this module provides it as an
extension beyond the 12 benchmarked systems.

AliNet addresses the *non-isomorphism* of counterpart neighborhoods: an
entity's 1-hop neighborhood in KG1 may correspond to a mix of 1-hop and
2-hop neighbors in KG2.  Each layer therefore aggregates the 1-hop and
the 2-hop neighborhoods separately and combines them through a learned
gate.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..autodiff import Highway, Module, Parameter, sparse_matmul, xavier_init
from ..embedding import normalized_adjacency
from .base import ApproachInfo
from .gcn_family import GCNApproachBase

__all__ = ["AliNet"]


class _AliNetEncoder(Module):
    """Stacked gated dual-hop aggregation layers."""

    def __init__(self, one_hop: sparse.csr_matrix, two_hop: sparse.csr_matrix,
                 dim: int, n_layers: int, rng: np.random.Generator):
        from ..autodiff import orthogonal_init

        self.one_hop = one_hop
        self.two_hop = two_hop
        n = one_hop.shape[0]
        self.features = Parameter(xavier_init((n, dim), rng), name="alinet.features")
        self.one_weights = [
            Parameter(orthogonal_init((dim, dim), rng), name=f"alinet.w1_{i}")
            for i in range(n_layers)
        ]
        self.two_weights = [
            Parameter(orthogonal_init((dim, dim), rng), name=f"alinet.w2_{i}")
            for i in range(n_layers)
        ]
        self.gates = [Highway(dim, rng, name=f"alinet.gate{i}") for i in range(n_layers)]

    def __call__(self):
        hidden = self.features
        for w1, w2, gate in zip(self.one_weights, self.two_weights, self.gates):
            near = (sparse_matmul(self.one_hop, hidden) @ w1).tanh()
            far = (sparse_matmul(self.two_hop, hidden) @ w2).tanh()
            # the gate picks, per entity, how much distant evidence to mix in
            hidden = gate(near, far)
        return hidden

    def embeddings(self) -> np.ndarray:
        """Gradient-free forward pass."""
        hidden = self.features.data
        for w1, w2, gate in zip(self.one_weights, self.two_weights, self.gates):
            near = np.tanh(self.one_hop @ hidden @ w1.data)
            far = np.tanh(self.two_hop @ hidden @ w2.data)
            t = 1.0 / (1.0 + np.exp(-(near @ gate.gate.weight.data + gate.gate.bias.data)))
            hidden = t * far + (1.0 - t) * near
        return hidden


class AliNet(GCNApproachBase):
    """Gated 1-hop/2-hop aggregation with seed calibration."""

    info = ApproachInfo(
        name="AliNet", relation_embedding="Neighbor", attribute_embedding="-",
        metric="manhattan", combination="Calibration", learning="Supervised",
    )
    steps_per_epoch = 10

    def _build_encoders(self, pair, rng):
        two_hop = self._two_hop_adjacency()
        encoder = _AliNetEncoder(
            self.adjacency, two_hop, dim=self.config.dim,
            n_layers=self.n_layers, rng=rng,
        )
        return [(encoder, 1.0)]

    def _two_hop_adjacency(self) -> sparse.csr_matrix:
        """Row-normalized 2-hop reachability (diagonal removed)."""
        squared = (self.adjacency @ self.adjacency).tolil()
        squared.setdiag(0.0)
        squared = squared.tocsr()
        squared.eliminate_zeros()
        row_sums = np.asarray(squared.sum(axis=1)).ravel()
        scaling = sparse.diags(1.0 / np.maximum(row_sums, 1e-12))
        return (scaling @ squared).tocsr()

    def _parameters(self):
        return [p for encoder, _ in self.encoders for p in encoder.parameters()]


def _register() -> None:
    """Expose AliNet through the extension registry."""
    from . import registry

    registry.EXTRA_APPROACHES["AliNet"] = AliNet


_register()
