"""Tests for the dense layer, including a numerical gradient check."""

import numpy as np
import pytest

from repro.nn import DenseLayer, MeanSquaredError
from repro.nn.layers import BLOCK_ROWS, ROW_ALIGNMENT, row_blocks


class TestForward:
    def test_output_shape(self, rng):
        layer = DenseLayer(4, 3, rng=rng)
        out = layer.forward(rng.normal(size=(10, 4)))
        assert out.shape == (10, 3)

    def test_single_sample_promoted_to_batch(self, rng):
        layer = DenseLayer(4, 3, rng=rng)
        assert layer.forward(np.zeros(4)).shape == (1, 3)

    def test_wrong_feature_count_raises(self, rng):
        layer = DenseLayer(4, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((5, 7)))

    def test_linear_layer_matches_matmul(self, rng):
        layer = DenseLayer(4, 2, activation="linear", rng=rng)
        inputs = rng.normal(size=(6, 4))
        expected = inputs @ layer.parameters["weights"] + layer.parameters["bias"]
        np.testing.assert_allclose(layer.forward(inputs), expected)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            DenseLayer(0, 3)


class TestRowBlocks:
    def test_blocks_are_aligned_near_equal_and_cover_the_rows(self):
        """Every block starts on a multiple of ROW_ALIGNMENT, so none but the
        last ends inside a BLAS row group, and the blocks are near-equal, so
        no batch of two rows or more leaves a one-row (``gemv``) block."""
        assert BLOCK_ROWS % ROW_ALIGNMENT == 0
        for num_rows in range(4 * BLOCK_ROWS + 2 * ROW_ALIGNMENT):
            blocks = row_blocks(num_rows)
            assert len(blocks) == max(1, -(-num_rows // BLOCK_ROWS))
            assert blocks[0].start == 0 and blocks[-1].stop == num_rows
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert all(block.start % ROW_ALIGNMENT == 0 for block in blocks)
            sizes = [block.stop - block.start for block in blocks]
            assert sizes[0] == max(sizes) <= BLOCK_ROWS, num_rows
            assert max(sizes) - min(sizes) < 2 * ROW_ALIGNMENT, num_rows
            assert num_rows < 2 or min(sizes) > 1, num_rows

    @pytest.mark.parametrize("training", [False, True])
    def test_each_block_is_its_own_product(self, training, rng):
        """Training and inference cut the same blocks, so a row's bits depend
        only on its block, whatever BLAS does with a product's height."""
        layer = DenseLayer(32, 32, rng=rng)
        inputs = rng.normal(size=(2 * BLOCK_ROWS + 17, 32))
        outputs = layer.forward(inputs, training=training)
        blocks = row_blocks(len(inputs))
        assert len(blocks) == 3
        for rows in blocks:
            alone = layer.forward(inputs[rows], training=training)
            assert outputs[rows].tobytes() == alone.tobytes()


class TestBackward:
    def test_backward_requires_training_forward(self, rng):
        layer = DenseLayer(4, 3, rng=rng)
        layer.forward(np.zeros((2, 4)), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((2, 3)))

    def test_backward_returns_input_gradient_shape(self, rng):
        layer = DenseLayer(4, 3, rng=rng)
        layer.forward(rng.normal(size=(5, 4)), training=True)
        grad = layer.backward(rng.normal(size=(5, 3)))
        assert grad.shape == (5, 4)

    @pytest.mark.parametrize("activation", ["linear", "tanh", "sigmoid"])
    def test_weight_gradient_matches_finite_difference(self, activation, rng):
        """Numerical gradient check of d(MSE)/d(weights) for smooth activations."""
        layer = DenseLayer(3, 2, activation=activation, rng=rng)
        loss = MeanSquaredError()
        inputs = rng.normal(size=(8, 3))
        targets = rng.normal(size=(8, 2))

        predictions = layer.forward(inputs, training=True)
        layer.backward(loss.backward(predictions, targets))
        analytic = layer.gradients["weights"].copy()

        epsilon = 1e-6
        numeric = np.zeros_like(analytic)
        weights = layer.parameters["weights"]
        for i in range(weights.shape[0]):
            for j in range(weights.shape[1]):
                original = weights[i, j]
                weights[i, j] = original + epsilon
                loss_plus = loss.forward(layer.forward(inputs), targets)
                weights[i, j] = original - epsilon
                loss_minus = loss.forward(layer.forward(inputs), targets)
                weights[i, j] = original
                numeric[i, j] = (loss_plus - loss_minus) / (2 * epsilon)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_bias_gradient_matches_finite_difference(self, rng):
        layer = DenseLayer(3, 2, activation="tanh", rng=rng)
        loss = MeanSquaredError()
        inputs = rng.normal(size=(8, 3))
        targets = rng.normal(size=(8, 2))
        predictions = layer.forward(inputs, training=True)
        layer.backward(loss.backward(predictions, targets))
        analytic = layer.gradients["bias"].copy()

        epsilon = 1e-6
        numeric = np.zeros_like(analytic)
        bias = layer.parameters["bias"]
        for j in range(bias.shape[0]):
            original = bias[j]
            bias[j] = original + epsilon
            loss_plus = loss.forward(layer.forward(inputs), targets)
            bias[j] = original - epsilon
            loss_minus = loss.forward(layer.forward(inputs), targets)
            bias[j] = original
            numeric[j] = (loss_plus - loss_minus) / (2 * epsilon)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)


class TestWeights:
    def test_get_set_roundtrip(self, rng):
        layer = DenseLayer(4, 3, rng=rng)
        weights, bias = layer.get_weights()
        other = DenseLayer(4, 3, rng=np.random.default_rng(99))
        other.set_weights(weights, bias)
        inputs = rng.normal(size=(5, 4))
        np.testing.assert_allclose(layer.forward(inputs), other.forward(inputs))

    def test_set_weights_shape_check(self, rng):
        layer = DenseLayer(4, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.set_weights(np.zeros((3, 4)), np.zeros(3))
        with pytest.raises(ValueError):
            layer.set_weights(np.zeros((4, 3)), np.zeros(4))

    def test_num_parameters(self):
        layer = DenseLayer(4, 3)
        assert layer.num_parameters == 4 * 3 + 3
