"""PIF-level classifier and the interface PIF weight table.

A small fully connected network (3 -> 128 -> 64 -> 32 -> K) maps the
three interface metrics to a PIF level. Each hidden layer is linear,
batch normalization, ReLU, dropout(0.3); the head is linear + softmax.
Training minimizes cross-entropy with adaptive-moment gradient descent
(full batch), run as whole-buffer operations on one flat buffer that
holds every parameter. Inputs are standardized per feature with
statistics fitted on the training split only.

Each ``train`` call builds one workspace for the model and its batch: it
holds every buffer the forward pass, the backward pass, the dropout draw,
the gradients and the Adam update write into, so an epoch runs through
``out=`` and in-place ufuncs and allocates no arrays. The passes exist
once, in the workspace; ``loss_and_gradients`` runs them on a fresh
workspace. Every operation keeps its operands and their order, so the
trained bits are those of the plain array expressions in the comments.

The weight table maps PIF levels HSI0..HSI15 to multipliers for the five
macro-cognitive functions (detection, understanding, decision making,
execution, teamwork); entries without an applicable weight stay None.
"""
from __future__ import annotations

import json
import math
import re
import zipfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import forked
from .config import TrainConfig
from .ingest import csv_lines

INPUT_DIM = 3
HIDDEN_SIZES = (128, 64, 32)
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam moment decays and denominator floor
BN_MOMENTUM, BN_EPS = 0.1, 1e-5  # batch-norm running-statistics update and variance floor


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray | Sequence[Sequence[float]]) -> "Standardizer":
        """The column means and stds of ``X``, as a saved model holds them in
        float32: a mean or std beyond float32's range is an error, and a std
        that float32 rounds to 0 is taken as 0 and becomes 1.0."""
        X = np.asarray(X, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = X.mean(axis=0)
            std = X.std(axis=0)
            saved_std = std.astype(np.float32)
            if not (np.isfinite(mean.astype(np.float32)).all() and np.isfinite(saved_std).all()):
                raise ValueError("the mean or standard deviation of a feature overflows the float32 range of a model file")
        std = np.where(saved_std == 0.0, 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.std


@dataclass(frozen=True)
class CvResult:
    fold_accuracies: tuple[float, ...]
    mean: float
    std: float  # sample std, n-1 denominator


def _label_key(label: str):
    match = re.fullmatch(r"([A-Za-z]+)(\d+)", label)
    if match:
        return (match.group(1), int(match.group(2)), label)  # the label itself orders HSI02 and HSI2
    return (label, -1, label)


def ordered_labels(labels: Iterable[str]) -> tuple[str, ...]:
    """The distinct labels in model order: by prefix, then number (HSI2 before HSI10)."""
    return tuple(sorted(set(labels), key=_label_key))


class PifModel:
    """Network parameters, batch-norm running statistics, and standardizer."""

    def __init__(self, label_order: Sequence[str], seed: int = 0):
        if not label_order:
            raise ValueError("label_order must be nonempty")
        self.label_order: tuple[str, ...] = tuple(label_order)
        self.seed = int(seed)
        self.sizes = (INPUT_DIM, *HIDDEN_SIZES, len(self.label_order))
        self.params: dict[str, np.ndarray] = {}
        self.running_mean: list[np.ndarray] = []
        self.running_var: list[np.ndarray] = []
        self.standardizer: Standardizer | None = None
        self.trained = False

        rng = np.random.default_rng(self.seed)
        for i in range(len(self.sizes) - 1):
            fan_in, fan_out = self.sizes[i], self.sizes[i + 1]
            bound = 1.0 / math.sqrt(fan_in)
            self.params[f"W{i}"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            self.params[f"b{i}"] = rng.uniform(-bound, bound, size=fan_out)
        for i, width in enumerate(HIDDEN_SIZES):
            self.params[f"gamma{i}"] = np.ones(width)
            self.params[f"beta{i}"] = np.zeros(width)
            self.running_mean.append(np.zeros(width))
            self.running_var.append(np.ones(width))


def init_model(seed: int, label_order: Sequence[str]) -> PifModel:
    """Fresh model; identical seeds give bit-identical parameters."""
    return PifModel(label_order=label_order, seed=seed)


def _softmax(logits: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Row-wise softmax of ``logits``, in place; ``row`` is an ``(m, 1)``
    buffer for the row maxima and sums."""
    np.maximum.reduce(logits, axis=1, keepdims=True, out=row)
    np.subtract(logits, row, out=logits)
    np.exp(logits, out=logits)
    np.add.reduce(logits, axis=1, keepdims=True, out=row)
    return np.divide(logits, row, out=logits)


def _views(flat: np.ndarray, shapes: Iterable[tuple[int, ...]]) -> list[np.ndarray]:
    """Views of ``flat`` with these shapes, laid end to end."""
    views, start = [], 0
    for shape in shapes:
        views.append(flat[start : start + math.prod(shape)].reshape(shape))
        start += math.prod(shape)
    return views


class _Layer:
    """The buffers of one hidden layer for a batch of ``m`` rows. ``x_hat``
    holds z, then z minus the batch mean, then the normalized z; ``da``
    holds the output gradient, then dh, dx_hat and dz in turn."""

    def __init__(self, m: int, width: int):
        self.x_hat, self.r, self.out, self.tmp, self.da = (np.empty((m, width)) for _ in range(5))
        self.positive = np.empty((m, width), dtype=bool)
        self.inv_std, self.scale, self.sum_dx_hat, self.sum_dx_hat_x_hat = np.empty((4, width))
        self.a_in: np.ndarray | None = None  # the layer's input in the current pass


class _Workspace:
    """Every buffer one full-batch training pass of ``model`` on ``X`` and
    ``y_idx`` writes: the forward and backward passes, the dropout draw,
    the gradients and Adam. An epoch runs through ``out=`` and in-place
    ufuncs only, so it allocates no arrays."""

    def __init__(self, model: PifModel, X: np.ndarray, y_idx: np.ndarray):
        m, head = X.shape[0], len(HIDDEN_SIZES)
        self.model, self.X, self.m = model, X, m
        self.params = [tuple(model.params[f"{name}{i}"] for name in ("W", "b", "gamma", "beta")) for i in range(head)]
        self.head = model.params[f"W{head}"], model.params[f"b{head}"]
        self.layers = [_Layer(m, width) for width in HIDDEN_SIZES]
        # The batch means of every layer, then the batch variances, laid out
        # like the running means and variances they update.
        vectors = [(width,) for width in HIDDEN_SIZES] * 2
        self.stats = np.empty(2 * sum(HIDDEN_SIZES))
        stat_views = _views(self.stats, vectors)
        self.means, self.variances = stat_views[:head], stat_views[head:]
        self.running = np.concatenate(model.running_mean + model.running_var)
        running_views = _views(self.running, vectors)
        self.running_means, self.running_vars = running_views[:head], running_views[head:]
        self.logits = np.empty((m, len(model.label_order)))
        self.row = np.empty((m, 1))
        self.onehot = np.zeros_like(self.logits)
        self.onehot[np.arange(m), y_idx] = 1.0
        self.picks = np.flatnonzero(self.onehot)  # of probs[rows, y], one per row
        self.picked = np.empty(m)
        self.draw = np.empty(m * sum(HIDDEN_SIZES))
        self.keep = np.empty_like(self.draw)  # 1.0 or 0.0: multiplies faster than a bool mask
        self.masks = _views(self.keep, [(m, width) for width in HIDDEN_SIZES])
        shapes = [p.shape for p in model.params.values()]
        self.grad = np.empty(sum(map(math.prod, shapes)))
        self.grads = dict(zip(model.params, _views(self.grad, shapes)))
        self.layer_grads = [tuple(self.grads[f"{name}{i}"] for name in ("W", "b", "gamma", "beta")) for i in range(head)]
        self.adam_m, self.adam_v = np.zeros_like(self.grad), np.zeros_like(self.grad)
        self.update, self.adam_tmp = np.empty_like(self.grad), np.empty_like(self.grad)

    def dropout_masks(self, rng: np.random.Generator, dropout: float) -> list[np.ndarray]:
        """This epoch's keep masks, one draw for all layers: the same stream
        as one draw per layer."""
        rng.random(out=self.draw)
        np.greater_equal(self.draw, dropout, out=self.keep)
        return self.masks

    def backprop(self, masks: Sequence[np.ndarray] | None, dropout: float, update_running: bool) -> float:
        """Batch-statistics forward pass, cross-entropy loss and analytic
        gradients into ``grads``; returns the loss. The batch statistics
        are ``z.mean(axis=0)`` and ``z.var(axis=0)`` bit for bit; the
        running statistics of all layers are updated at once."""
        m, head, keep_scale = self.m, len(HIDDEN_SIZES), 1.0 - dropout
        a = self.X
        for i, (layer, (W, b, gamma, beta)) in enumerate(zip(self.layers, self.params)):
            layer.a_in = a
            x_hat, mean, var, inv_std, r = layer.x_hat, self.means[i], self.variances[i], layer.inv_std, layer.r
            np.add(np.matmul(a, W, out=x_hat), b, out=x_hat)  # z = a @ W + b
            np.divide(np.add.reduce(x_hat, axis=0, out=mean), m, out=mean)  # mean = z.sum(axis=0) / m
            np.subtract(x_hat, mean, out=x_hat)  # d = z - mean
            np.add.reduce(np.multiply(x_hat, x_hat, out=layer.tmp), axis=0, out=var)
            np.divide(var, m, out=var)  # var = (d * d).sum(axis=0) / m
            np.divide(1.0, np.sqrt(np.add(var, BN_EPS, out=inv_std), out=inv_std), out=inv_std)
            np.multiply(x_hat, inv_std, out=x_hat)  # x_hat = d * (1.0 / np.sqrt(var + BN_EPS))
            np.maximum(np.add(np.multiply(gamma, x_hat, out=r), beta, out=r), 0.0, out=r)  # max(gamma * x_hat + beta, 0)
            a = r
            if masks is not None:  # a = r * mask / (1 - dropout)
                a = np.divide(np.multiply(r, masks[i], out=layer.out), keep_scale, out=layer.out)
        if update_running:  # running = (1 - momentum) * running + momentum * batch statistics
            self.running *= 1 - BN_MOMENTUM
            self.stats *= BN_MOMENTUM
            self.running += self.stats
            self.model.running_mean[:], self.model.running_var[:] = self.running_means, self.running_vars
        W_head, b_head = self.head
        probs = _softmax(np.add(np.matmul(a, W_head, out=self.logits), b_head, out=self.logits), self.row)
        # mode="clip" writes straight into picked, which the default mode buffers; every index is valid
        picked = np.add(np.take(probs, self.picks, out=self.picked, mode="clip"), 1e-300, out=self.picked)
        loss = float(-np.log(picked, out=picked).mean())  # -log(probs[rows, y] + 1e-300).mean()
        dlogits = np.subtract(probs, self.onehot, out=probs)  # probs[rows, y] -= 1
        dlogits /= m

        np.matmul(a.T, dlogits, out=self.grads[f"W{head}"])
        np.add.reduce(dlogits, axis=0, out=self.grads[f"b{head}"])
        np.matmul(dlogits, W_head.T, out=self.layers[-1].da)
        for i in range(head - 1, -1, -1):
            layer, (W, _, gamma, _) = self.layers[i], self.params[i]
            grad_W, grad_b, grad_gamma, grad_beta = self.layer_grads[i]
            da, x_hat, tmp = layer.da, layer.x_hat, layer.tmp
            if masks is not None:  # da = da * mask / (1 - dropout)
                np.divide(np.multiply(da, masks[i], out=da), keep_scale, out=da)
            np.multiply(da, np.greater(layer.r, 0, out=layer.positive), out=da)  # dh = da * (r > 0)
            np.add.reduce(np.multiply(da, x_hat, out=tmp), axis=0, out=grad_gamma)  # (dh * x_hat).sum(axis=0)
            np.add.reduce(da, axis=0, out=grad_beta)
            np.multiply(da, gamma, out=da)  # dx_hat = dh * gamma
            # dz = (inv_std / m) * (m * dx_hat - dx_hat.sum(axis=0) - x_hat * (dx_hat * x_hat).sum(axis=0))
            np.divide(layer.inv_std, m, out=layer.scale)
            np.add.reduce(da, axis=0, out=layer.sum_dx_hat)
            np.add.reduce(np.multiply(da, x_hat, out=tmp), axis=0, out=layer.sum_dx_hat_x_hat)
            np.subtract(np.multiply(m, da, out=da), layer.sum_dx_hat, out=da)
            np.subtract(da, np.multiply(x_hat, layer.sum_dx_hat_x_hat, out=tmp), out=da)
            np.multiply(layer.scale, da, out=da)  # dz
            np.matmul(layer.a_in.T, da, out=grad_W)
            np.add.reduce(da, axis=0, out=grad_b)
            if i:  # the input needs no gradient; da of the layer below = dz @ W.T
                np.matmul(da, W.T, out=self.layers[i - 1].da)
        return loss

    def adam_step(self, flat: np.ndarray, step: int, learning_rate: float) -> None:
        """One Adam update of the parameters in ``flat`` from ``grad``."""
        grad, tmp, update = self.grad, self.adam_tmp, self.update
        self.adam_m *= BETA1
        self.adam_m += np.multiply(1 - BETA1, grad, out=tmp)  # m = BETA1 * m + (1 - BETA1) * grad
        self.adam_v *= BETA2
        self.adam_v += np.multiply(1 - BETA2, np.square(grad, out=tmp), out=tmp)  # likewise with grad**2
        # flat -= learning_rate * (m / (1 - BETA1**step)) / (np.sqrt(v / (1 - BETA2**step)) + ADAM_EPS)
        np.multiply(learning_rate, np.divide(self.adam_m, 1 - BETA1**step, out=update), out=update)
        update /= np.add(np.sqrt(np.divide(self.adam_v, 1 - BETA2**step, out=tmp), out=tmp), ADAM_EPS, out=tmp)
        flat -= update


def _forward_eval(model: PifModel, X: np.ndarray) -> np.ndarray:
    """Inference pass: running batch-norm statistics, dropout off."""
    a = X
    for i in range(len(HIDDEN_SIZES)):
        z = a @ model.params[f"W{i}"] + model.params[f"b{i}"]
        x_hat = (z - model.running_mean[i]) / np.sqrt(model.running_var[i] + BN_EPS)
        a = np.maximum(model.params[f"gamma{i}"] * x_hat + model.params[f"beta{i}"], 0.0)
    head = len(HIDDEN_SIZES)
    return a @ model.params[f"W{head}"] + model.params[f"b{head}"]


def loss_and_gradients(
    model: PifModel,
    X: np.ndarray,
    y_idx: np.ndarray,
    cfg: TrainConfig | None = None,
    masks: Sequence[np.ndarray] | None = None,
    update_running: bool = False,
):
    """Cross-entropy loss and analytic gradients for one batch.

    With ``masks=None`` dropout is off and the pass is deterministic in
    the batch, which is the mode finite-difference checks use. The
    gradients are views of one flat buffer laid out like ``model.params``.
    """
    cfg = cfg or TrainConfig()
    workspace = _Workspace(model, X, y_idx)
    return workspace.backprop(masks, cfg.dropout, update_running), workspace.grads


def _as_features(features) -> np.ndarray:
    arr = np.asarray(features, dtype=np.float64)
    if arr.shape != (INPUT_DIM,):
        raise ValueError(f"expected {INPUT_DIM} features, got shape {arr.shape}")
    return arr


def _rows_to_arrays(rows: Sequence[tuple], label_order: Sequence[str]):
    X = np.stack([_as_features(f) for f, _ in rows])
    index = {label: i for i, label in enumerate(label_order)}
    try:
        y = np.array([index[label] for _, label in rows], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"row label {exc.args[0]!r} not in label order {list(label_order)}") from None
    return X, y


def train(model: PifModel, rows: Sequence[tuple], hyper: TrainConfig | None = None) -> list[float]:
    """Fit in place; returns the per-epoch training loss trace.

    A zero-epoch budget leaves the model untouched (empty trace); a
    negative one, or a dropout outside [0, 1), is an error. The
    standardizer is fitted on these rows before the first pass.
    """
    cfg = hyper or TrainConfig()
    if cfg.epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {cfg.epochs}")
    if not 0.0 <= cfg.dropout < 1.0:
        raise ValueError(f"dropout must be in [0, 1), got {cfg.dropout}")
    if cfg.epochs == 0:
        return []
    if len(rows) < 2:
        raise ValueError("need at least 2 training rows")
    X, y = _rows_to_arrays(rows, model.label_order)
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    if (y == y[0]).all():  # not np.unique, which imports numpy.ma
        raise ValueError("training rows contain a single class")

    model.standardizer = Standardizer.fit(X)
    Xs = model.standardizer.transform(X)

    # Adam runs on one flat buffer; the parameters become views of it.
    flat = np.concatenate([p.ravel() for p in model.params.values()])
    model.params = dict(zip(model.params, _views(flat, [p.shape for p in model.params.values()])))
    workspace = _Workspace(model, Xs, y)
    drop_rng = np.random.default_rng([model.seed, 0x5EED])
    losses = []
    for step in range(1, cfg.epochs + 1):
        masks = workspace.dropout_masks(drop_rng, cfg.dropout) if cfg.dropout > 0.0 else None
        losses.append(workspace.backprop(masks, cfg.dropout, update_running=True))
        workspace.adam_step(flat, step, cfg.learning_rate)
    model.trained = True
    return losses


def predict(model: PifModel, features) -> tuple[str, dict[str, float]]:
    """Label and class probabilities for one metric vector. Features so far
    from the training data that the standardized input or the
    probabilities overflow are a ValueError, not a warning."""
    if not model.trained or model.standardizer is None:
        raise ValueError("model is not trained")
    x = _as_features(features)
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    with np.errstate(all="ignore"):
        standardized = model.standardizer.transform(x[None, :])
        probs = _softmax(_forward_eval(model, standardized), np.empty((1, 1)))[0]
    for name, values in (("standardized features", standardized), ("class probabilities", probs)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} are not finite: the features lie too far outside the training data")
    label = model.label_order[int(np.argmax(probs))]
    return label, {lab: float(p) for lab, p in zip(model.label_order, probs)}


def evaluate(model: PifModel, rows: Sequence[tuple]) -> float:
    """Fraction of rows whose predicted label matches."""
    hits = sum(1 for features, label in rows if predict(model, features)[0] == label)
    return hits / len(rows)


def stratified_folds(labels: Sequence[str], k: int, seed: int) -> list[list[int]]:
    """Disjoint index folds covering all rows, class-balanced, seeded."""
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    by_label: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)
    cursor = 0
    for label in ordered_labels(by_label):
        indices = np.array(by_label[label])
        rng.shuffle(indices)
        for idx in indices:
            folds[cursor % k].append(int(idx))
            cursor += 1
    return folds


def _fold_accuracy(rows, folds, fold_index: int, label_order, seed: int, hyper) -> float:
    """Held-out accuracy of fold ``fold_index``, trained from the seed ``seed * 1000 + fold_index``."""
    held = set(folds[fold_index])
    train_rows = [row for i, row in enumerate(rows) if i not in held]
    model = init_model(seed * 1000 + fold_index, label_order)
    train(model, train_rows, hyper)
    return evaluate(model, [rows[i] for i in folds[fold_index]])


def kfold_cv(rows: Sequence[tuple], k: int = 5, seed: int = 0, hyper: TrainConfig | None = None) -> CvResult:
    """Stratified k-fold cross-validation; per-fold standardizer, no leakage.

    Each fold is one task of ``forked.fork_map``, so the folds train on
    every usable CPU, each process claiming the next fold when it is done.
    Every fold keeps its seed, so the result is the same on any number of
    CPUs."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > len(rows):
        raise ValueError(f"k={k} exceeds {len(rows)} rows")
    labels = [label for _, label in rows]
    label_order = ordered_labels(labels)
    folds = stratified_folds(labels, k, seed)
    tasks = [(f"the process training fold {i + 1} of {k}", partial(_fold_accuracy, rows, folds, i, label_order, seed, hyper))
             for i in range(k)]
    accuracies = forked.fork_map(tasks)[0]
    mean = sum(accuracies) / len(accuracies)
    variance = sum((a - mean) ** 2 for a in accuracies) / (len(accuracies) - 1)
    return CvResult(tuple(accuracies), mean, math.sqrt(variance))


# --- persistence ----------------------------------------------------------

MODEL_FORMAT_VERSION = 1


def _named_arrays(model: PifModel) -> dict[str, np.ndarray]:
    """The model's arrays under their names in a model file."""
    arrays = {f"param_{k}": v for k, v in model.params.items()}
    for i in range(len(HIDDEN_SIZES)):
        arrays[f"running_mean{i}"] = model.running_mean[i]
        arrays[f"running_var{i}"] = model.running_var[i]
    if model.standardizer is not None:
        arrays["std_mean"] = model.standardizer.mean
        arrays["std_std"] = model.standardizer.std
    return arrays


def save_model(model: PifModel, path: str | Path) -> None:
    arrays = _named_arrays(model)
    meta = {
        "format_version": MODEL_FORMAT_VERSION,
        "label_order": list(model.label_order),
        "seed": model.seed,
        "trained": model.trained,
    }
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    float32 = {
        k: (v.astype(np.float32) if v.dtype.kind == "f" else v) for k, v in arrays.items()
    }
    with open(path, "wb") as fh:  # plain handle: keep the exact filename
        np.savez(fh, **float32)


_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def _read_member(archive: zipfile.ZipFile, name: str, shape: tuple[int, ...] | None) -> np.ndarray:
    """Array ``name`` of a model archive as float64, its ``.npy`` header
    checked before any data is read; ``shape`` None reads a byte string no
    longer than the member itself, as uint8."""
    info = archive.getinfo(f"{name}.npy")
    with archive.open(info) as fp:
        version = np.lib.format.read_magic(fp)
        if version not in _NPY_HEADER_READERS:
            raise ValueError(f"{name}: unsupported .npy format version {version}")
        claimed, _, dtype = _NPY_HEADER_READERS[version](fp)
        if shape is None:
            fits = dtype == np.uint8 and len(claimed) == 1 and claimed[0] <= info.file_size
            expected = f"at most {info.file_size} bytes"
        else:
            fits = dtype.kind == "f" and claimed == shape
            expected = f"a float array of shape {shape}"
        if not fits:
            raise ValueError(f"{name}: {dtype} array of shape {claimed}, expected {expected}")
        fp.seek(0)
        array = np.lib.format.read_array(fp, allow_pickle=False)
    return array if shape is None else array.astype(np.float64)


def _check_numbers(model: PifModel) -> None:
    """Numbers a prediction can use: every array finite, the standardizer's
    std positive and the batch-norm running variances non-negative."""
    for name, array in _named_arrays(model).items():
        if not np.isfinite(array).all():
            raise ValueError(f"{name}: holds a NaN or an infinity")
    if model.standardizer is not None and not (model.standardizer.std > 0).all():
        raise ValueError(f"std_std: must be positive, got {model.standardizer.std.tolist()}")
    for i, var in enumerate(model.running_var):
        if (var < 0).any():
            raise ValueError(f"running_var{i}: must be non-negative")


def load_model(path: str | Path) -> PifModel:
    """A model written by :func:`save_model`; a file that is not one is a
    ValueError, and one that cannot be opened an OSError that names it.
    Every array must have the shape the network of the file's labels
    implies, checked before the array is read, and numbers a prediction
    can use (:func:`_check_numbers`)."""
    file = open(path, "rb")
    try:
        with file, zipfile.ZipFile(file) as archive:
            meta = json.loads(bytes(_read_member(archive, "meta_json", None)).decode("utf-8"))
            if meta["format_version"] != MODEL_FORMAT_VERSION:
                raise ValueError(f"unsupported model format {meta['format_version']}")
            labels = meta["label_order"]
            if type(labels) is not list or not all(type(label) is str for label in labels) or len(set(labels)) < len(labels):
                raise ValueError(f"label_order must be distinct strings, got {labels!r}")
            model = PifModel(labels, meta["seed"])
            for key, value in model.params.items():
                model.params[key] = _read_member(archive, f"param_{key}", value.shape)
            for i, width in enumerate(HIDDEN_SIZES):
                model.running_mean[i] = _read_member(archive, f"running_mean{i}", (width,))
                model.running_var[i] = _read_member(archive, f"running_var{i}", (width,))
            if "std_mean.npy" in archive.namelist():
                model.standardizer = Standardizer(
                    mean=_read_member(archive, "std_mean", (INPUT_DIM,)),
                    std=_read_member(archive, "std_std", (INPUT_DIM,)),
                )
            model.trained = bool(meta["trained"])
            _check_numbers(model)
    except (OSError, ValueError, KeyError, TypeError, EOFError, RecursionError, NotImplementedError, zipfile.BadZipFile) as err:
        raise ValueError(f"not a readable model file ({err})") from None
    return model


# --- training-data CSV ----------------------------------------------------

TRAINING_CSV_HEADER = "path_id,vd,sid,is,label"


def training_csv_rows(lines: Iterable[str]) -> Iterator[tuple[int, tuple[float, float, float], str]]:
    """(line number, (vd, sid, is), label) for each row of the lines of the
    `path_id,vd,sid,is,label` CSV; an error names the line."""
    for line_no, line, fields in csv_lines(lines, TRAINING_CSV_HEADER):
        try:
            features = (float(fields[1]), float(fields[2]), float(fields[3]))
        except ValueError:
            raise ValueError(f"line {line_no}: non-numeric feature in {line!r}") from None
        if not all(map(math.isfinite, features)):
            raise ValueError(f"line {line_no}: non-finite feature in {line!r}")
        if not fields[4].strip():
            raise ValueError(f"line {line_no}: empty label in {line!r}")
        yield line_no, features, fields[4].strip()


def load_training_csv(lines: Iterable[str]) -> list[tuple[tuple[float, float, float], str]]:
    """Rows of ((vd, sid, is), label) of :func:`training_csv_rows`."""
    return [(features, label) for _, features, label in training_csv_rows(lines)]


def training_csv(entries: Iterable[tuple[str, tuple[float, float, float], str]]) -> str:
    lines = [TRAINING_CSV_HEADER]
    for path_id, (vd, sid, is_norm), label in entries:
        lines.append(f"{path_id},{vd!r},{sid!r},{is_norm!r},{label}")
    return "\n".join(lines) + "\n"


# --- PIF weight table -----------------------------------------------------

@dataclass(frozen=True)
class PifWeights:
    label: str
    attribute: str
    weights: Mapping[str, float | None]  # keys D, U, DM, E, T; None = not applicable

    def max_weight(self) -> float:
        values = [w for w in self.weights.values() if w is not None]
        return max(values) if values else 0.0


def _weights(d=None, u=None, dm=None, e=None, t=None) -> dict[str, float | None]:
    return {"D": d, "U": u, "DM": dm, "E": e, "T": t}


PIF_WEIGHT_TABLE: dict[str, PifWeights] = {
    "HSI0": PifWeights("HSI0", "No impact: well designed HSI supporting the task", _weights(1, 1, 1, 1, 1)),
    "HSI1": PifWeights("HSI1", "Indicator is similar to other nearby information sources", _weights(d=1.5)),
    "HSI2": PifWeights("HSI2", "No sign of technical difference from adjacent sources", _weights(d=3)),
    "HSI3": PifWeights("HSI3", "Task information spatially distributed or not co-accessible", _weights(d=1.5, u=2)),
    "HSI4": PifWeights("HSI4", "Unintuitive or unconventional indications", _weights(d=2)),
    "HSI5": PifWeights("HSI5", "Poor salience of the target out of a crowded background", _weights(d=3)),
    "HSI6": PifWeights("HSI6", "Inconsistent formats, units, symbols, or tables", _weights(d=5)),
    "HSI7": PifWeights("HSI7", "Inconsistent interpretation of displays", _weights(u=5.7)),
    "HSI8": PifWeights("HSI8", "Wrong but similar control element within reach selected", _weights(e=1.2)),
    "HSI9": PifWeights("HSI9", "Poor functional localization: 2-5 displays/panels per task", _weights(e=2)),
    "HSI10": PifWeights("HSI10", "Ergonomic deficits of controls, labels, scales, or maneuvers", _weights(e=3.38)),
    "HSI11": PifWeights("HSI11", "Control labels disagree with document nomenclature", _weights(e=5)),
    "HSI12": PifWeights("HSI12", "Controls without labels or indications", _weights(e=10)),
    "HSI13": PifWeights("HSI13", "Inadequate or ambiguous control feedback", _weights(e=4.5)),
    "HSI14": PifWeights("HSI14", "Confusing action maneuver states", _weights(e=10)),
    "HSI15": PifWeights("HSI15", "Unclear functional allocation between human and automation", _weights(e=9)),
}


def pif_weights(label: str) -> PifWeights:
    """Static weight row for a PIF level; unknown labels raise KeyError."""
    try:
        return PIF_WEIGHT_TABLE[label]
    except KeyError:
        raise KeyError(f"unknown PIF level {label!r}") from None
