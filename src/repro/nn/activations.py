"""Activation functions and their derivatives.

Each activation is a small object exposing ``forward`` and ``backward``:
``backward`` receives the activation *input* (pre-activation values) and the
gradient flowing back from above, and returns the gradient with respect to
the pre-activation values.  This is everything the dense layer needs for
backpropagation.  ``forward`` takes an optional ``out`` array, which may be
``z`` itself: inference applies the activation in place, and the result is
the same, bit for bit, as the allocating call's.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class Activation(ABC):
    """Base class for activation functions."""

    name: str = "activation"

    @abstractmethod
    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply the activation elementwise to the pre-activation ``z``.

        When ``out`` is given (an array shaped like ``z``, or ``z`` itself)
        the result is written into it and ``out`` is returned.
        """

    @abstractmethod
    def derivative(self, z: np.ndarray) -> np.ndarray:
        """Return the elementwise derivative evaluated at ``z``."""

    def backward(self, z: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        """Chain the upstream gradient through the activation."""
        return upstream * self.derivative(z)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"


class Linear(Activation):
    """Identity activation (used on regression output layers)."""

    name = "linear"

    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            return z
        np.copyto(out, z)
        return out

    def derivative(self, z: np.ndarray) -> np.ndarray:
        return np.ones_like(z)


class ReLU(Activation):
    """Rectified linear unit, ``max(0, z)``."""

    name = "relu"

    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.maximum(z, 0.0, out=out)

    def derivative(self, z: np.ndarray) -> np.ndarray:
        return (z > 0.0).astype(z.dtype)


class LeakyReLU(Activation):
    """Leaky ReLU with a configurable negative-side slope."""

    name = "leaky_relu"

    def __init__(self, alpha: float = 0.01) -> None:
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha

    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # z * 1.0 is z exactly, NaN and signed zeros included.
        return np.multiply(z, np.where(z > 0.0, 1.0, self.alpha), out=out)

    def derivative(self, z: np.ndarray) -> np.ndarray:
        return np.where(z > 0.0, 1.0, self.alpha)


class Tanh(Activation):
    """Hyperbolic tangent activation."""

    name = "tanh"

    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.tanh(z, out=out)

    def derivative(self, z: np.ndarray) -> np.ndarray:
        return 1.0 - np.tanh(z) ** 2


class Sigmoid(Activation):
    """Logistic sigmoid activation."""

    name = "sigmoid"

    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty_like(z)
        positive = z >= 0
        # Each half reads only its own entries of z, so out may be z.
        out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
        exp_z = np.exp(z[~positive])
        out[~positive] = exp_z / (1.0 + exp_z)
        return out

    def derivative(self, z: np.ndarray) -> np.ndarray:
        s = self.forward(z)
        return s * (1.0 - s)


class Softplus(Activation):
    """Softplus activation, ``log(1 + exp(z))`` — a smooth ReLU.

    Useful as an output activation when the target (a wire width) must be
    strictly positive.
    """

    name = "softplus"

    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.logaddexp(0.0, z, out=out)

    def derivative(self, z: np.ndarray) -> np.ndarray:
        return Sigmoid().forward(z)


_ACTIVATIONS: dict[str, type[Activation]] = {
    "linear": Linear,
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "tanh": Tanh,
    "sigmoid": Sigmoid,
    "softplus": Softplus,
}


def get_activation(name: str | Activation) -> Activation:
    """Resolve an activation by name, or pass an instance through.

    Raises:
        KeyError: If the name is unknown.
    """
    if isinstance(name, Activation):
        return name
    try:
        return _ACTIVATIONS[name]()
    except KeyError as exc:
        raise KeyError(
            f"unknown activation {name!r}; available: {', '.join(_ACTIVATIONS)}"
        ) from exc


def available_activations() -> tuple[str, ...]:
    """Return the names of the registered activation functions."""
    return tuple(_ACTIVATIONS)
