"""Multi-layer perceptron stacks (DLRM's bottom/top MLPs).

Layer sizes follow the paper's Table I notation: ``"13-512-256-64-16"``
means a 13-wide input followed by four Linear+ReLU layers.  The final
layer's activation is configurable because DLRM's top MLP ends in a
logit fed to a fused sigmoid-BCE loss.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU, Sigmoid
from repro.nn.linear import Linear
from repro.nn.parameter import Parameter

__all__ = ["MLP", "parse_layer_spec"]


def parse_layer_spec(spec: str) -> tuple[int, ...]:
    """Parse a Table I layer string like ``"13-512-256-64-16"``.

    Raises:
        ValueError: on malformed specs or non-positive widths.
    """
    try:
        sizes = tuple(int(part) for part in spec.split("-"))
    except ValueError:
        raise ValueError(f"malformed layer spec {spec!r}") from None
    if len(sizes) < 2:
        raise ValueError(f"layer spec needs at least two sizes, got {spec!r}")
    if any(s <= 0 for s in sizes):
        raise ValueError(f"layer sizes must be positive in {spec!r}")
    return sizes


class MLP:
    """A Linear(+ReLU) stack.

    Args:
        layer_sizes: widths including input, e.g. ``(13, 512, 256, 64, 16)``.
        rng: seeded generator for weight init.
        final_activation: ``"relu"``, ``"sigmoid"``, or ``None`` (logits).
        name: parameter name prefix.
    """

    def __init__(
        self,
        layer_sizes: tuple[int, ...] | str,
        rng: np.random.Generator,
        final_activation: str | None = "relu",
        name: str = "mlp",
    ) -> None:
        if isinstance(layer_sizes, str):
            layer_sizes = parse_layer_spec(layer_sizes)
        if len(layer_sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        self.layer_sizes = tuple(layer_sizes)
        self.layers: list = []
        last = len(layer_sizes) - 2
        for i, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            self.layers.append(Linear(fan_in, fan_out, rng, name=f"{name}.{i}"))
            if i < last:
                self.layers.append(ReLU())
            elif final_activation == "relu":
                self.layers.append(ReLU())
            elif final_activation == "sigmoid":
                self.layers.append(Sigmoid())
            elif final_activation is not None:
                raise ValueError(f"unknown final_activation {final_activation!r}")

    @property
    def in_features(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_features(self) -> int:
        return self.layer_sizes[-1]

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the stack; ``x`` is read, never written."""
        # A ReLU's input is the buffer the Linear before it allocated: ours to rectify.
        for layer in self.layers:
            x = layer.forward(x, out=x) if isinstance(layer, ReLU) else layer.forward(x)
        return x

    def predict(self, x: np.ndarray, start: int = 0) -> np.ndarray:
        """Run ``layers[start:]`` forward-only: no layer keeps state for a
        backward.  ``x`` is read, never written, unless ``layers[start]`` is
        a ReLU: then it rectifies ``x`` in place."""
        for layer in self.layers[start:]:
            x = layer.predict(x, out=x) if isinstance(layer, ReLU) else layer.predict(x)
        return x

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Backpropagate; the caller's ``grad_out`` is read, never written.

        Returns the gradient w.r.t. the input, or None with
        ``input_grad=False``: then the first layer skips its input GEMM
        (a bottom MLP's input is the batch's dense features, which
        nothing differentiates).
        """
        first, *rest = self.layers
        grad = grad_out
        for layer in reversed(rest):
            # The last layer copies; from there on the gradient is ours to overwrite.
            if grad is not grad_out and isinstance(layer, ReLU):
                grad = layer.backward(grad, out=grad)
            else:
                grad = layer.backward(grad)
        return first.backward(grad, input_grad=input_grad)

    def flops_per_sample(self) -> int:
        """Forward multiply-accumulate count per sample (cost model input)."""
        return sum(
            layer.flops_per_sample() for layer in self.layers if isinstance(layer, Linear)
        )

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())
