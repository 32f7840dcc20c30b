"""Tests for the multilayer perceptron."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    MeanSquaredError,
    NetworkArchitecture,
    NeuralNetwork,
    get_loss,
)


@pytest.fixture()
def small_architecture():
    return NetworkArchitecture(input_size=3, hidden_sizes=(8, 8), output_size=2)


class TestArchitecture:
    def test_paper_default_has_ten_hidden_layers(self):
        arch = NetworkArchitecture.paper_default()
        assert arch.num_hidden_layers == 10
        assert arch.input_size == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkArchitecture(input_size=0, hidden_sizes=(4,), output_size=1)
        with pytest.raises(ValueError):
            NetworkArchitecture(input_size=3, hidden_sizes=(), output_size=1)
        with pytest.raises(ValueError):
            NetworkArchitecture(input_size=3, hidden_sizes=(0,), output_size=1)


class TestForward:
    def test_output_shape(self, small_architecture, rng):
        network = NeuralNetwork(small_architecture)
        out = network.predict(rng.normal(size=(12, 3)))
        assert out.shape == (12, 2)

    def test_layer_count(self, small_architecture):
        network = NeuralNetwork(small_architecture)
        assert len(network.layers) == 3  # two hidden + output

    def test_deterministic_given_seed(self, small_architecture, rng):
        inputs = rng.normal(size=(5, 3))
        first = NeuralNetwork(small_architecture, seed=7).predict(inputs)
        second = NeuralNetwork(small_architecture, seed=7).predict(inputs)
        np.testing.assert_allclose(first, second)

    def test_num_parameters(self, small_architecture):
        network = NeuralNetwork(small_architecture)
        expected = (3 * 8 + 8) + (8 * 8 + 8) + (8 * 2 + 2)
        assert network.num_parameters == expected


class TestInPlaceInference:
    """``predict`` runs each activation in place over a fresh pre-activation,
    bitwise equal to the training forward pass and touching nothing else."""

    @pytest.mark.parametrize(
        "hidden, output",
        [("relu", "linear"), ("tanh", "softplus"), ("leaky_relu", "sigmoid"),
         ("sigmoid", "linear"), ("softplus", "relu"), ("linear", "tanh")],
    )
    def test_predict_equals_training_forward(self, hidden, output, rng):
        architecture = NetworkArchitecture(
            input_size=3, hidden_sizes=(16, 16, 16), output_size=2,
            hidden_activation=hidden, output_activation=output,
        )
        network = NeuralNetwork(architecture, seed=3)
        inputs = rng.normal(0.0, 4.0, size=(257, 3))
        original = inputs.tobytes()
        predicted = network.predict(inputs)
        assert inputs.tobytes() == original
        trained = network.forward(inputs, training=True)
        assert predicted.dtype == trained.dtype
        assert predicted.tobytes() == trained.tobytes()
        single = network.predict(inputs[0])
        assert single.tobytes() == network.forward(inputs[0], training=True).tobytes()
        assert inputs.tobytes() == original

    @pytest.mark.parametrize("hidden", ["relu", "linear", "sigmoid"])
    def test_predict_between_forward_and_backward_keeps_gradients(self, hidden, rng):
        architecture = NetworkArchitecture(
            input_size=3, hidden_sizes=(8, 8), output_size=2, hidden_activation=hidden
        )
        inputs = rng.normal(size=(40, 3))
        targets = rng.normal(size=(40, 2))
        loss = MeanSquaredError()
        gradients = []
        for interleave in (False, True):
            network = NeuralNetwork(architecture, seed=5)
            predictions = network.forward(inputs, training=True)
            if interleave:
                network.predict(rng.normal(size=(64, 3)))
            value = network.backward(loss, predictions, targets)
            gradients.append(
                (value, [(layer.gradients["weights"], layer.gradients["bias"])
                         for layer in network.layers])
            )
        (plain_value, plain), (mixed_value, mixed) = gradients
        assert plain_value == mixed_value
        for (weights, bias), (mixed_weights, mixed_bias) in zip(plain, mixed):
            assert weights.tobytes() == mixed_weights.tobytes()
            assert bias.tobytes() == mixed_bias.tobytes()


class TestTrainingStep:
    def test_train_batch_reduces_loss_with_adam(self, small_architecture, rng):
        network = NeuralNetwork(small_architecture, seed=0)
        optimizer = Adam(learning_rate=5e-3)
        inputs = rng.normal(size=(64, 3))
        targets = np.column_stack([inputs.sum(axis=1), inputs[:, 0] - inputs[:, 1]])
        losses = []
        for _ in range(150):
            losses.append(network.train_batch("mse", inputs, targets))
            optimizer.step(network.layers)
        assert losses[-1] < 0.1 * losses[0]

    def test_backward_returns_loss_value(self, small_architecture, rng):
        network = NeuralNetwork(small_architecture)
        loss = get_loss("mse")
        inputs = rng.normal(size=(4, 3))
        targets = rng.normal(size=(4, 2))
        predictions = network.forward(inputs, training=True)
        value = network.backward(loss, predictions, targets)
        assert value == pytest.approx(MeanSquaredError().forward(predictions, targets))


class TestPersistence:
    def test_get_set_parameters_roundtrip(self, small_architecture, rng):
        source = NeuralNetwork(small_architecture, seed=1)
        target = NeuralNetwork(small_architecture, seed=2)
        target.set_parameters(source.get_parameters())
        inputs = rng.normal(size=(6, 3))
        np.testing.assert_allclose(source.predict(inputs), target.predict(inputs))

    def test_set_parameters_length_check(self, small_architecture):
        network = NeuralNetwork(small_architecture)
        with pytest.raises(ValueError):
            network.set_parameters(network.get_parameters()[:-1])

    def test_copy_is_independent(self, small_architecture, rng):
        network = NeuralNetwork(small_architecture, seed=1)
        clone = network.copy()
        inputs = rng.normal(size=(4, 3))
        np.testing.assert_allclose(network.predict(inputs), clone.predict(inputs))
        clone.layers[0].parameters["weights"] += 1.0
        assert not np.allclose(network.predict(inputs), clone.predict(inputs))
