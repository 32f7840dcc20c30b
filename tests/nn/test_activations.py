"""Tests for activation functions and their derivatives."""

import numpy as np
import pytest

from repro.nn import available_activations, get_activation
from repro.nn.activations import LeakyReLU, Linear, ReLU, Sigmoid, Softplus, Tanh


def numerical_derivative(activation, z, epsilon=1e-6):
    return (activation.forward(z + epsilon) - activation.forward(z - epsilon)) / (2 * epsilon)


@pytest.mark.parametrize("name", available_activations())
def test_derivative_matches_finite_difference(name, rng):
    activation = get_activation(name)
    z = rng.normal(0.0, 2.0, size=200)
    z = z[np.abs(z) > 1e-3]  # avoid the ReLU kink
    analytic = activation.derivative(z)
    numeric = numerical_derivative(activation, z)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)


SPECIAL_VALUES = (np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e300, 40.0, -40.0)


@pytest.mark.parametrize("name", available_activations())
def test_in_place_forward_is_bitwise(name, rng):
    """``forward(z, out=z)`` and ``forward(z, out=other)`` equal ``forward(z)``
    bit for bit, NaN, signed zeros and infinities included."""
    activation = get_activation(name)
    z = np.concatenate([SPECIAL_VALUES, rng.normal(0.0, 3.0, size=64)]).reshape(15, 5)
    original = z.tobytes()
    in_place = z.copy()
    out = np.full_like(z, 7.0)
    # Softplus's logaddexp flags a NaN input as invalid either way; the
    # values, not the flag, are compared here.
    with np.errstate(invalid="ignore"):
        expected = activation.forward(z)
        assert z.tobytes() == original
        assert activation.forward(in_place, out=in_place) is in_place
        assert activation.forward(z, out=out) is out
    assert in_place.dtype == expected.dtype
    assert in_place.tobytes() == expected.tobytes()
    assert out.tobytes() == expected.tobytes()
    assert z.tobytes() == original


@pytest.mark.parametrize("name", available_activations())
def test_backward_chains_upstream_gradient(name, rng):
    activation = get_activation(name)
    z = rng.normal(size=50)
    upstream = rng.normal(size=50)
    np.testing.assert_allclose(
        activation.backward(z, upstream), upstream * activation.derivative(z)
    )


class TestSpecificActivations:
    def test_relu_clips_negatives(self):
        z = np.asarray([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(ReLU().forward(z), [0.0, 0.0, 3.0])

    def test_leaky_relu_slope(self):
        z = np.asarray([-2.0, 2.0])
        np.testing.assert_allclose(LeakyReLU(alpha=0.1).forward(z), [-0.2, 2.0])

    def test_leaky_relu_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            LeakyReLU(alpha=-0.1)

    def test_linear_is_identity(self, rng):
        z = rng.normal(size=10)
        np.testing.assert_allclose(Linear().forward(z), z)

    def test_sigmoid_range_and_stability(self):
        z = np.asarray([-1000.0, -10.0, 0.0, 10.0, 1000.0])
        out = Sigmoid().forward(z)
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert np.all(np.isfinite(out))
        assert out[2] == pytest.approx(0.5)

    def test_tanh_bounds(self, rng):
        out = Tanh().forward(rng.normal(0, 5, size=100))
        assert np.all(np.abs(out) <= 1.0)

    def test_softplus_positive(self, rng):
        out = Softplus().forward(rng.normal(0, 5, size=100))
        assert np.all(out > 0.0)

    def test_unknown_activation_raises(self):
        with pytest.raises(KeyError):
            get_activation("swishish")

    def test_instance_passthrough(self):
        relu = ReLU()
        assert get_activation(relu) is relu
