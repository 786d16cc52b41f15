"""A small dense-tensor deep learning library.

Everything runs on float64 numpy arrays with hand-written backward
passes; no autodiff. The public surface is re-exported here so typical
use is ``from minidl import SequentialModel, Dense, Adam``.
"""

from .activations import leaky_relu, linear, relu, sigmoid, softmax, tanh
from .conv import Conv2D, Pool2D, conv_output_size
from .data import (
    CharVocab,
    MinMaxScaler,
    Tokenizer,
    build_char_dataset,
    build_embedding_matrix,
    clean_text,
    load_csv,
    load_idx,
    load_text_embeddings,
    normalize_pixels,
    one_hot,
    pad_sequences,
    save_idx,
)
from .gan import GanTrainer, default_image_gan
from .layers import BatchNorm, Dense, Dropout, Flatten, Layer
from .losses import (
    BinaryCrossEntropy,
    MeanAbsoluteError,
    MeanSquaredError,
    SoftmaxCrossEntropy,
)
from .metrics import binary_accuracy, categorical_accuracy
from .model import (
    History,
    ModelFileError,
    NanLossError,
    SequentialModel,
    load_model,
    train_val_test_split,
)
from .optim import (
    SGD,
    Adadelta,
    Adagrad,
    Adam,
    GDTrace,
    Momentum,
    Nesterov,
    RMSprop,
    gd_scalar,
)
from .perceptron import Perceptron
from .recurrent import LSTM, Embedding, SimpleRNN, TimeDistributedDense, generate_greedy
from .tensor import Rng

__version__ = "0.1.0"

__all__ = [
    "Adadelta",
    "Adagrad",
    "Adam",
    "BatchNorm",
    "BinaryCrossEntropy",
    "CharVocab",
    "Conv2D",
    "Dense",
    "Dropout",
    "Embedding",
    "Flatten",
    "GanTrainer",
    "GDTrace",
    "History",
    "LSTM",
    "Layer",
    "MeanAbsoluteError",
    "MeanSquaredError",
    "MinMaxScaler",
    "ModelFileError",
    "Momentum",
    "NanLossError",
    "Nesterov",
    "Perceptron",
    "Pool2D",
    "RMSprop",
    "Rng",
    "SGD",
    "SequentialModel",
    "SimpleRNN",
    "SoftmaxCrossEntropy",
    "TimeDistributedDense",
    "Tokenizer",
    "binary_accuracy",
    "build_char_dataset",
    "build_embedding_matrix",
    "categorical_accuracy",
    "clean_text",
    "conv_output_size",
    "default_image_gan",
    "gd_scalar",
    "generate_greedy",
    "leaky_relu",
    "linear",
    "load_csv",
    "load_idx",
    "load_model",
    "load_text_embeddings",
    "normalize_pixels",
    "one_hot",
    "pad_sequences",
    "relu",
    "save_idx",
    "sigmoid",
    "softmax",
    "tanh",
    "train_val_test_split",
]
