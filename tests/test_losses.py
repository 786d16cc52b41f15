import math

import numpy as np
import numpy.testing as npt
import pytest

from conftest import fd_grads
from minidl import losses
from minidl.activations import sigmoid, softmax


class TestMSE:
    def test_value_manual(self):
        # Manually calculated: ((1-0)^2 + (2-4)^2) / 2 = 2.5
        loss = losses.MeanSquaredError()
        assert loss.value(np.array([[1.0, 2.0]]), np.array([[0.0, 4.0]])) == 2.5

    def test_grad_is_two_diff_over_n(self):
        loss = losses.MeanSquaredError()
        pred = np.array([[1.0, 2.0], [3.0, 4.0]])
        target = np.zeros((2, 2))
        npt.assert_allclose(loss.grad(pred, target), 2.0 * pred / 4.0)

    def test_grad_matches_numeric(self):
        loss = losses.MeanSquaredError()
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))
        num = fd_grads(lambda: loss.value(pred, target), 1e-6, pred=pred)["pred"]
        npt.assert_allclose(loss.grad(pred, target), num, atol=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="share a shape"):
            losses.MeanSquaredError().value(np.ones((2, 2)), np.ones((2, 3)))


class TestMAE:
    def test_value_manual(self):
        loss = losses.MeanAbsoluteError()
        assert loss.value(np.array([[1.0, -2.0]]), np.array([[0.0, 2.0]])) == 2.5

    def test_sign_zero_is_zero(self):
        loss = losses.MeanAbsoluteError()
        g = loss.grad(np.array([[1.0, 2.0, 3.0]]), np.array([[0.0, 2.0, 4.0]]))
        npt.assert_allclose(g, [[1.0 / 3.0, 0.0, -1.0 / 3.0]])

    def test_grad_matches_numeric_away_from_kink(self):
        loss = losses.MeanAbsoluteError()
        pred = np.array([[0.7, -1.3], [2.2, 0.4]])
        target = np.array([[0.1, 0.5], [-0.6, 1.0]])
        num = fd_grads(lambda: loss.value(pred, target), 1e-6, pred=pred)["pred"]
        npt.assert_allclose(loss.grad(pred, target), num, atol=1e-8)


class TestSoftmaxCrossEntropy:
    def test_value_is_mean_negative_log_prob(self):
        loss = losses.SoftmaxCrossEntropy()
        logits = np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        target = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        p = softmax(logits)
        want = -(math.log(p[0, 0]) + math.log(p[1, 2])) / 2.0
        npt.assert_allclose(loss.value(logits, target), want, atol=1e-12)

    def test_value_positive_for_wrong_confident_prediction(self):
        # the minus sign matters: confidently wrong must cost a lot
        loss = losses.SoftmaxCrossEntropy()
        logits = np.array([[10.0, -10.0]])
        target = np.array([[0.0, 1.0]])
        assert loss.value(logits, target) > 19.0

    def test_grad_formula(self):
        loss = losses.SoftmaxCrossEntropy()
        logits = np.array([[1.0, -1.0, 0.5], [0.0, 2.0, -2.0]])
        target = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        npt.assert_allclose(
            loss.grad(logits, target), (softmax(logits) - target) / 2.0, atol=1e-12
        )

    def test_grad_matches_numeric(self):
        loss = losses.SoftmaxCrossEntropy()
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(4, 5))
        target = np.zeros((4, 5))
        target[np.arange(4), rng.integers(0, 5, 4)] = 1.0
        num = fd_grads(lambda: loss.value(logits, target), 1e-6, logits=logits)["logits"]
        npt.assert_allclose(loss.grad(logits, target), num, atol=1e-8)

    def test_rejects_non_one_hot_rows(self):
        loss = losses.SoftmaxCrossEntropy()
        with pytest.raises(ValueError, match="one-hot"):
            loss.value(np.zeros((1, 3)), np.array([[0.5, 0.5, 0.0]]))
        with pytest.raises(ValueError, match="row 1"):
            loss.value(np.zeros((2, 3)), np.array([[1.0, 0, 0], [1.0, 1.0, 0]]))

    def test_sequence_targets_average_over_rows(self):
        loss = losses.SoftmaxCrossEntropy()
        logits = np.zeros((2, 3, 4))
        target = np.zeros((2, 3, 4))
        target[..., 0] = 1.0
        # uniform softmax over 4 classes: -log(1/4) per row
        npt.assert_allclose(loss.value(logits, target), math.log(4.0), atol=1e-12)
        npt.assert_allclose(
            loss.grad(logits, target),
            (softmax(logits) - target) / 6.0,
            atol=1e-12,
        )

    def test_huge_logits_stay_finite(self):
        loss = losses.SoftmaxCrossEntropy()
        logits = np.array([[1000.0, 0.0]])
        target = np.array([[0.0, 1.0]])
        v = loss.value(logits, target)
        assert np.isfinite(v) and v > 999.0


class TestBinaryCrossEntropy:
    def test_value_manual(self):
        loss = losses.BinaryCrossEntropy()
        pred = np.array([[0.9], [0.2]])
        target = np.array([[1.0], [0.0]])
        want = -(math.log(0.9) + math.log(0.8)) / 2.0
        npt.assert_allclose(loss.value(pred, target), want, atol=1e-12)

    def test_clamp_keeps_logs_finite(self):
        loss = losses.BinaryCrossEntropy()
        v = loss.value(np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]]))
        assert np.isfinite(v)
        npt.assert_allclose(v, -math.log(1e-7), rtol=1e-6)

    def test_grad_is_wrt_logits(self):
        # the fused gradient through the sigmoid: d/dz bce(sigmoid(z))
        loss = losses.BinaryCrossEntropy()
        z = np.array([[0.3, -1.2], [2.0, 0.0]])
        p = sigmoid(z)
        target = np.array([[1.0, 0.0], [0.0, 1.0]])
        eps = 1e-6
        num = np.zeros_like(z)
        for idx in np.ndindex(z.shape):
            zp = z.copy()
            zp[idx] += eps
            up = loss.value(sigmoid(zp), target)
            zp[idx] -= 2 * eps
            down = loss.value(sigmoid(zp), target)
            num[idx] = (up - down) / (2 * eps)
        npt.assert_allclose(loss.grad(p, target), num, atol=1e-8)

    def test_multi_label_elementwise_mean(self):
        loss = losses.BinaryCrossEntropy()
        pred = np.full((2, 3), 0.5)
        target = np.array([[1.0, 0, 1], [0.0, 1, 0]])
        npt.assert_allclose(loss.value(pred, target), math.log(2.0), atol=1e-12)
        npt.assert_allclose(loss.grad(pred, target), (pred - target) / 6.0)


def test_registry():
    assert isinstance(losses.get("mse"), losses.MeanSquaredError)
    assert isinstance(losses.get("mae"), losses.MeanAbsoluteError)
    assert isinstance(
        losses.get("categorical_crossentropy"), losses.SoftmaxCrossEntropy
    )
    assert isinstance(losses.get("binary_crossentropy"), losses.BinaryCrossEntropy)
    with pytest.raises(ValueError, match="unknown loss"):
        losses.get("hinge")
    assert losses.get("categorical_crossentropy").fused == "softmax"
    assert losses.get("binary_crossentropy").fused == "sigmoid"
    assert losses.get("mse").fused is None
