"""Dense (fully connected) layers with backpropagation.

The layer stores its parameters and, during the forward pass, caches the
inputs needed by the backward pass.  Gradients are accumulated into
``gradients`` with the same keys as ``parameters`` so that any optimizer can
update them generically.
"""

from __future__ import annotations

import numpy as np

from .activations import Activation, get_activation
from .initializers import Initializer, get_initializer


class DenseLayer:
    """A fully connected layer ``a = activation(x @ W + b)``.

    Args:
        input_size: Number of input features.
        output_size: Number of output units.
        activation: Activation function or its registered name.
        initializer: Weight initializer or its registered name.
        rng: Random generator used to draw the initial weights.
    """

    def __init__(
        self,
        input_size: int,
        output_size: int,
        activation: str | Activation = "relu",
        initializer: str | Initializer = "he_normal",
        rng: np.random.Generator | None = None,
    ) -> None:
        if input_size <= 0 or output_size <= 0:
            raise ValueError("layer sizes must be positive")
        self.input_size = input_size
        self.output_size = output_size
        self.activation = get_activation(activation)
        init = get_initializer(initializer)
        rng = rng or np.random.default_rng()
        self.parameters: dict[str, np.ndarray] = {
            "weights": init(rng, input_size, output_size),
            "bias": np.zeros(output_size),
        }
        self.gradients: dict[str, np.ndarray] = {
            "weights": np.zeros_like(self.parameters["weights"]),
            "bias": np.zeros_like(self.parameters["bias"]),
        }
        self._cache_input: np.ndarray | None = None
        self._cache_preactivation: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for a batch of inputs.

        The bias is added into the matmul's own result.  Outside training
        nothing keeps the pre-activation, so the activation overwrites it in
        place and the pass allocates one ``(batch, output_size)`` array; the
        outputs are bitwise the same either way.

        Args:
            inputs: Array of shape ``(batch, input_size)``.
            training: If True, cache intermediates for the backward pass.

        Returns:
            Activations of shape ``(batch, output_size)``.
        """
        inputs = np.atleast_2d(inputs)
        if inputs.shape[1] != self.input_size:
            raise ValueError(
                f"expected input with {self.input_size} features, got {inputs.shape[1]}"
            )
        preactivation = inputs @ self.parameters["weights"]
        preactivation += self.parameters["bias"]
        if not training:
            return self.activation.forward(preactivation, out=preactivation)
        self._cache_input = inputs
        self._cache_preactivation = preactivation
        return self.activation.forward(preactivation)

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        """Backpropagate through the layer.

        Args:
            upstream: Gradient of the loss with respect to this layer's
                output, shape ``(batch, output_size)``.

        Returns:
            Gradient of the loss with respect to this layer's input, shape
            ``(batch, input_size)``.

        Raises:
            RuntimeError: If called before a training-mode forward pass.
        """
        if self._cache_input is None or self._cache_preactivation is None:
            raise RuntimeError("backward() called before a training forward pass")
        delta = self.activation.backward(self._cache_preactivation, upstream)
        # The loss gradient already carries the batch normalisation (MSE
        # divides by the number of elements), so the parameter gradients are
        # plain accumulations — this keeps them equal to the true derivative
        # of the scalar loss, which the gradient-check tests verify.
        self.gradients["weights"] = self._cache_input.T @ delta
        self.gradients["bias"] = delta.sum(axis=0)
        return delta @ self.parameters["weights"].T

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        """Total number of trainable scalars in this layer."""
        return sum(param.size for param in self.parameters.values())

    def get_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Return copies of ``(weights, bias)``."""
        return self.parameters["weights"].copy(), self.parameters["bias"].copy()

    def set_weights(self, weights: np.ndarray, bias: np.ndarray) -> None:
        """Overwrite the layer parameters (shapes must match).

        Raises:
            ValueError: If the shapes do not match the layer dimensions.
        """
        if weights.shape != (self.input_size, self.output_size):
            raise ValueError("weights shape mismatch")
        if bias.shape != (self.output_size,):
            raise ValueError("bias shape mismatch")
        self.parameters["weights"] = weights.astype(float).copy()
        self.parameters["bias"] = bias.astype(float).copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DenseLayer({self.input_size} -> {self.output_size}, "
            f"activation={self.activation.name})"
        )
