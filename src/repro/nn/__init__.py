"""Minimal neural-network substrate (numpy, explicit forward/backward).

The paper trains DLRM and TBSM with PyTorch; this package provides the
layer set those models need — dense linear stacks, embedding bags with
sparse gradients, DLRM's dot-interaction, TBSM's attention — with exact,
hand-derived backward passes.  Keeping the substrate this small makes the
placement semantics of FAE (which parameter lives on which device, what
must be synchronized when) fully explicit and testable.
"""

from repro.nn.parameter import Parameter, SparseGrad
from repro.nn.initializers import xavier_uniform, normal_init
from repro.nn.linear import Linear
from repro.nn.activations import ReLU, Sigmoid
from repro.nn.mlp import MLP
from repro.nn.embedding import EmbeddingBag, EmbeddingTable
from repro.nn.interaction import DotInteraction
from repro.nn.attention import SequenceAttention
from repro.nn.losses import BCEWithLogits
from repro.nn.optim import SGD
from repro.nn.quantization import Fp16EmbeddingTable, Int8EmbeddingTable

__all__ = [
    "Fp16EmbeddingTable",
    "Int8EmbeddingTable",
    "BCEWithLogits",
    "DotInteraction",
    "EmbeddingBag",
    "EmbeddingTable",
    "Linear",
    "MLP",
    "Parameter",
    "ReLU",
    "SGD",
    "SequenceAttention",
    "Sigmoid",
    "SparseGrad",
    "normal_init",
    "xavier_uniform",
]
