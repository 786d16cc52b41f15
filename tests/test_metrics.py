import numpy as np
import numpy.testing as npt
import pytest

from minidl.metrics import binary_accuracy, categorical_accuracy


def test_binary_accuracy_elementwise():
    pred = np.array([[0.9, 0.2], [0.4, 0.7]])
    target = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert binary_accuracy(pred, target) == 0.5


def test_threshold_is_inclusive_at_half():
    assert binary_accuracy(np.array([0.5]), np.array([1.0])) == 1.0


def test_binary_accuracy_shape_check():
    with pytest.raises(ValueError):
        binary_accuracy(np.ones((2, 2)), np.ones((2, 3)))


def test_categorical_accuracy_rows():
    pred = np.array([[0.1, 0.7, 0.2], [0.5, 0.3, 0.2], [0.2, 0.2, 0.6]])
    target = np.array([[0, 1.0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    npt.assert_allclose(categorical_accuracy(pred, target), 2 / 3)


def test_categorical_accuracy_tie_lowest_index():
    pred = np.array([[0.5, 0.5]])
    assert categorical_accuracy(pred, np.array([[1.0, 0.0]])) == 1.0
    assert categorical_accuracy(pred, np.array([[0.0, 1.0]])) == 0.0


def test_categorical_accuracy_sequences():
    pred = np.zeros((2, 3, 4))
    pred[..., 1] = 1.0
    target = np.zeros((2, 3, 4))
    target[0, :, 1] = 1.0
    target[1, :, 0] = 1.0
    assert categorical_accuracy(pred, target) == 0.5
