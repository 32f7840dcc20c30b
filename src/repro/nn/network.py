"""The multilayer perceptron used for multi-target regression.

The paper's model is a fully connected network with one input layer, a stack
of hidden layers (10 in the paper, found by hyper-parameter optimisation) and
one output layer, trained with Adam on an MSE loss.
:class:`NeuralNetwork` assembles :class:`~repro.nn.layers.DenseLayer` objects
into that topology and provides forward prediction and the
backpropagation-based gradient computation used by the trainer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import DenseLayer
from .losses import Loss, get_loss


@dataclass(frozen=True)
class NetworkArchitecture:
    """Topology description of a multilayer perceptron.

    Attributes:
        input_size: Number of input features (3 in the paper: X, Y, Id).
        hidden_sizes: Width of each hidden layer; the paper uses 10 hidden
            layers of equal width.
        output_size: Number of regression targets (the predicted widths).
        hidden_activation: Activation of the hidden layers.
        output_activation: Activation of the output layer (``linear`` or
            ``softplus`` for strictly positive widths).
    """

    input_size: int
    hidden_sizes: tuple[int, ...]
    output_size: int
    hidden_activation: str = "relu"
    output_activation: str = "linear"

    def __post_init__(self) -> None:
        if self.input_size <= 0 or self.output_size <= 0:
            raise ValueError("input_size and output_size must be positive")
        if not self.hidden_sizes:
            raise ValueError("at least one hidden layer is required")
        if any(size <= 0 for size in self.hidden_sizes):
            raise ValueError("hidden layer sizes must be positive")

    @property
    def num_hidden_layers(self) -> int:
        """Number of hidden layers."""
        return len(self.hidden_sizes)

    @classmethod
    def paper_default(
        cls, input_size: int = 3, output_size: int = 1, hidden_width: int = 32
    ) -> "NetworkArchitecture":
        """The paper's topology: 10 hidden layers (width chosen by hyperopt)."""
        return cls(
            input_size=input_size,
            hidden_sizes=(hidden_width,) * 10,
            output_size=output_size,
            hidden_activation="relu",
            output_activation="linear",
        )


class NeuralNetwork:
    """A feed-forward multilayer perceptron for multi-target regression.

    Args:
        architecture: The network topology.
        initializer: Weight initializer name passed to every layer.
        seed: Seed for reproducible weight initialisation.
    """

    def __init__(
        self,
        architecture: NetworkArchitecture,
        initializer: str = "he_normal",
        seed: int | None = 0,
    ) -> None:
        self.architecture = architecture
        rng = np.random.default_rng(seed)
        sizes = (architecture.input_size, *architecture.hidden_sizes, architecture.output_size)
        activations = (
            [architecture.hidden_activation] * architecture.num_hidden_layers
            + [architecture.output_activation]
        )
        self.layers: list[DenseLayer] = []
        for index in range(len(sizes) - 1):
            self.layers.append(
                DenseLayer(
                    input_size=sizes[index],
                    output_size=sizes[index + 1],
                    activation=activations[index],
                    initializer=initializer,
                    rng=rng,
                )
            )

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the forward pass on a batch of inputs."""
        outputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        for layer in self.layers:
            outputs = layer.forward(outputs, training=training)
        return outputs

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Alias for a non-training forward pass.

        Bitwise equal to ``forward(inputs, training=True)``; it neither
        writes to ``inputs`` nor touches the layers' backward caches.
        """
        return self.forward(inputs, training=False)

    def backward(self, loss: Loss, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Backpropagate the loss gradient through every layer.

        The forward pass must have been run with ``training=True`` so that
        each layer holds its caches.

        Returns:
            The scalar loss value for the batch.
        """
        value = loss.forward(predictions, targets)
        gradient = loss.backward(predictions, targets)
        for layer in reversed(self.layers):
            gradient = layer.backward(gradient)
        return value

    def train_batch(self, loss: Loss | str, inputs: np.ndarray, targets: np.ndarray) -> float:
        """Run one forward + backward pass and return the batch loss.

        The caller is responsible for applying an optimizer step afterwards.
        """
        loss = get_loss(loss)
        predictions = self.forward(inputs, training=True)
        return self.backward(loss, predictions, np.atleast_2d(np.asarray(targets, dtype=float)))

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        """Total number of trainable scalars in the network."""
        return sum(layer.num_parameters for layer in self.layers)

    def get_parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Return copies of every layer's ``(weights, bias)``."""
        return [layer.get_weights() for layer in self.layers]

    def set_parameters(self, parameters: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Load parameters previously returned by :meth:`get_parameters`.

        Raises:
            ValueError: If the number of layers does not match.
        """
        if len(parameters) != len(self.layers):
            raise ValueError("parameter list length does not match the number of layers")
        for layer, (weights, bias) in zip(self.layers, parameters):
            layer.set_weights(weights, bias)

    def copy(self) -> "NeuralNetwork":
        """Return a deep copy of the network (same architecture and weights)."""
        clone = NeuralNetwork(self.architecture, seed=None)
        clone.set_parameters(self.get_parameters())
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        hidden = "x".join(str(size) for size in self.architecture.hidden_sizes)
        return (
            f"NeuralNetwork({self.architecture.input_size} -> [{hidden}] -> "
            f"{self.architecture.output_size}, params={self.num_parameters})"
        )
