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

BLOCK_ROWS = 896
"""Most rows one product of :meth:`DenseLayer.forward` holds.

With OpenBLAS on AVX-512, a 32 x 32 product of up to 976 rows runs in the
small-matrix kernel: 768 rows take 26 us where 2 304 rows in one product
take 122 us.  ibmpg1's 784 crossings are one block.
"""

ROW_ALIGNMENT = 16
"""Every row block starts at a multiple of this many rows.

BLAS kernels compute rows in groups (of up to 16 rows for AVX-512 double
kernels) and the rows left over in narrower kernels, and NumPy hands a
one-row product to ``gemv``.  Aligned, near-equal blocks put each row in
the same kind of group as one product over the whole batch, so they give
that product's bits wherever BLAS computes a row independently of the
product's height: OpenBLAS's AVX-512 kernels do, but its AVX2 kernels on
several threads split a product at heights that leave single rows in a
narrower kernel.
"""


def row_blocks(num_rows: int) -> list[slice]:
    """Cut ``num_rows`` rows into near-equal blocks of at most ``BLOCK_ROWS``.

    Each block starts at the multiple of ``ROW_ALIGNMENT`` at or after its
    share of the rows, so the first block is the largest; zero rows are one
    empty block.
    """
    num_blocks = -(-num_rows // BLOCK_ROWS)
    step = num_blocks * ROW_ALIGNMENT
    starts = [ROW_ALIGNMENT * -(-index * num_rows // step) for index in range(1, num_blocks)]
    return [slice(start, stop) for start, stop in zip([0, *starts], [*starts, num_rows])]


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

        The product runs over the row blocks of :func:`row_blocks`, each
        written into its rows of the pre-activation (a batch of at most
        ``BLOCK_ROWS`` rows is one product), and the bias is added into
        that array.  Training and inference cut the same blocks, so a
        prediction is bitwise the training forward pass on any BLAS.
        Outside training nothing keeps the pre-activation, so the activation
        overwrites it in place and the pass allocates one
        ``(batch, output_size)`` array; the outputs are bitwise the same
        either way.

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
        weights = self.parameters["weights"]
        if inputs.shape[0] <= BLOCK_ROWS:
            # One block: the plain product skips a few microseconds of
            # slicing per call, which a 128-row training step notices.
            preactivation = inputs @ weights
        else:
            preactivation = np.empty((inputs.shape[0], self.output_size))
            for rows in row_blocks(inputs.shape[0]):
                np.matmul(inputs[rows], weights, out=preactivation[rows])
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
