"""Accuracy metrics that ``SequentialModel`` averages over batches:
binary (elementwise, thresholded) and categorical (row argmax).
"""

from __future__ import annotations

import numpy as np

THRESHOLD = 0.5


def binary_accuracy(pred, target, threshold=THRESHOLD):
    """Fraction of elements on the correct side of the threshold.
    Works elementwise, so multi-label targets are averaged over every
    label, not per row."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(
            "prediction and target shapes differ: %s vs %s"
            % (pred.shape, target.shape)
        )
    return float(np.mean((pred >= threshold) == (target >= threshold)))


def categorical_accuracy(pred, target):
    """Fraction of rows whose argmax matches the target argmax. Ties go
    to the lowest index on both sides."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(
            "prediction and target shapes differ: %s vs %s"
            % (pred.shape, target.shape)
        )
    pred2 = pred.reshape(-1, pred.shape[-1])
    target2 = target.reshape(-1, target.shape[-1])
    return float(np.mean(np.argmax(pred2, axis=1) == np.argmax(target2, axis=1)))
