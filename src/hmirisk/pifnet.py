"""PIF-level classifier and the interface PIF weight table.

A small fully connected network (3 -> 128 -> 64 -> 32 -> K) maps the
three interface metrics to a PIF level. Each hidden layer is linear,
batch normalization, ReLU, dropout(0.3); the head is linear + softmax.
Training minimizes cross-entropy with adaptive-moment gradient descent
(full batch). Inputs are standardized per feature with statistics
fitted on the training split only.

The weight table maps PIF levels HSI0..HSI15 to multipliers for the five
macro-cognitive functions (detection, understanding, decision making,
execution, teamwork); entries without an applicable weight stay None.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

INPUT_DIM = 3
HIDDEN_SIZES = (128, 64, 32)
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam moment decays and denominator floor
BN_MOMENTUM, BN_EPS = 0.1, 1e-5  # batch-norm running-statistics update and variance floor


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 300
    dropout: float = 0.3


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
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
        return (match.group(1), int(match.group(2)))
    return (label, -1)


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


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _forward_train(
    model: PifModel,
    X: np.ndarray,
    cfg: TrainConfig,
    masks: Sequence[np.ndarray] | None,
    update_running: bool,
):
    """Batch-statistics forward pass; returns logits and per-layer caches."""
    a = X
    caches = []
    for i in range(len(HIDDEN_SIZES)):
        W, b = model.params[f"W{i}"], model.params[f"b{i}"]
        gamma, beta = model.params[f"gamma{i}"], model.params[f"beta{i}"]
        z = a @ W + b
        mean = z.mean(axis=0)
        var = z.var(axis=0)
        if update_running:
            model.running_mean[i] = (1 - BN_MOMENTUM) * model.running_mean[i] + BN_MOMENTUM * mean
            model.running_var[i] = (1 - BN_MOMENTUM) * model.running_var[i] + BN_MOMENTUM * var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = (z - mean) * inv_std
        h = gamma * x_hat + beta
        r = np.maximum(h, 0.0)
        if masks is not None:
            out = r * masks[i] / (1.0 - cfg.dropout)
        else:
            out = r
        caches.append((a, x_hat, inv_std, r, None if masks is None else masks[i]))
        a = out
    head = len(HIDDEN_SIZES)
    logits = a @ model.params[f"W{head}"] + model.params[f"b{head}"]
    caches.append((a,))
    return logits, caches


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
    the batch, which is the mode finite-difference checks use.
    """
    cfg = cfg or TrainConfig()
    m = X.shape[0]
    logits, caches = _forward_train(model, X, cfg, masks, update_running)
    probs = _softmax(logits)
    loss = float(-np.log(probs[np.arange(m), y_idx] + 1e-300).mean())

    grads: dict[str, np.ndarray] = {}
    dlogits = probs.copy()
    dlogits[np.arange(m), y_idx] -= 1.0
    dlogits /= m

    head = len(HIDDEN_SIZES)
    (a_head,) = caches[head]
    grads[f"W{head}"] = a_head.T @ dlogits
    grads[f"b{head}"] = dlogits.sum(axis=0)
    da = dlogits @ model.params[f"W{head}"].T

    for i in range(len(HIDDEN_SIZES) - 1, -1, -1):
        a_prev, x_hat, inv_std, r, mask = caches[i]
        if mask is not None:
            da = da * mask / (1.0 - cfg.dropout)
        dh = da * (r > 0)
        grads[f"gamma{i}"] = (dh * x_hat).sum(axis=0)
        grads[f"beta{i}"] = dh.sum(axis=0)
        dx_hat = dh * model.params[f"gamma{i}"]
        dz = (inv_std / m) * (m * dx_hat - dx_hat.sum(axis=0) - x_hat * (dx_hat * x_hat).sum(axis=0))
        grads[f"W{i}"] = a_prev.T @ dz
        grads[f"b{i}"] = dz.sum(axis=0)
        da = dz @ model.params[f"W{i}"].T
    return loss, grads


def _as_features(features) -> np.ndarray:
    if hasattr(features, "features"):
        features = features.features()
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
    if len(np.unique(y)) < 2:
        raise ValueError("training rows contain a single class")

    model.standardizer = Standardizer.fit(X)
    Xs = model.standardizer.transform(X)

    adam_m = {k: np.zeros_like(v) for k, v in model.params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in model.params.items()}
    drop_rng = np.random.default_rng([model.seed, 0x5EED])
    losses = []
    for step in range(1, cfg.epochs + 1):
        masks = None
        if cfg.dropout > 0.0:
            masks = [
                (drop_rng.random((Xs.shape[0], width)) >= cfg.dropout).astype(np.float64)
                for width in HIDDEN_SIZES
            ]
        loss, grads = loss_and_gradients(model, Xs, y, cfg, masks, update_running=True)
        losses.append(loss)
        for key, grad in grads.items():
            adam_m[key] = BETA1 * adam_m[key] + (1 - BETA1) * grad
            adam_v[key] = BETA2 * adam_v[key] + (1 - BETA2) * grad**2
            m_hat = adam_m[key] / (1 - BETA1**step)
            v_hat = adam_v[key] / (1 - BETA2**step)
            model.params[key] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    model.trained = True
    return losses


def predict(model: PifModel, features) -> tuple[str, dict[str, float]]:
    """Label and class probabilities for one metric vector."""
    if not model.trained or model.standardizer is None:
        raise ValueError("model is not trained")
    x = _as_features(features)
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    logits = _forward_eval(model, model.standardizer.transform(x[None, :]))
    probs = _softmax(logits)[0]
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
    for label in sorted(by_label, key=_label_key):
        indices = np.array(by_label[label])
        rng.shuffle(indices)
        for idx in indices:
            folds[cursor % k].append(int(idx))
            cursor += 1
    return folds


def kfold_cv(rows: Sequence[tuple], k: int = 5, seed: int = 0, hyper: TrainConfig | None = None) -> CvResult:
    """Stratified k-fold cross-validation; per-fold standardizer, no leakage."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > len(rows):
        raise ValueError(f"k={k} exceeds {len(rows)} rows")
    labels = [label for _, label in rows]
    label_order = tuple(sorted(set(labels), key=_label_key))
    folds = stratified_folds(labels, k, seed)
    accuracies = []
    for fold_index, held_out in enumerate(folds):
        held = set(held_out)
        train_rows = [row for i, row in enumerate(rows) if i not in held]
        test_rows = [rows[i] for i in held_out]
        model = init_model(seed * 1000 + fold_index, label_order)
        train(model, train_rows, hyper)
        accuracies.append(evaluate(model, test_rows))
    mean = sum(accuracies) / len(accuracies)
    variance = sum((a - mean) ** 2 for a in accuracies) / (len(accuracies) - 1)
    return CvResult(tuple(accuracies), mean, math.sqrt(variance))


# --- persistence ----------------------------------------------------------

MODEL_FORMAT_VERSION = 1


def save_model(model: PifModel, path: str | Path) -> None:
    arrays = {f"param_{k}": v for k, v in model.params.items()}
    for i in range(len(HIDDEN_SIZES)):
        arrays[f"running_mean{i}"] = model.running_mean[i]
        arrays[f"running_var{i}"] = model.running_var[i]
    if model.standardizer is not None:
        arrays["std_mean"] = model.standardizer.mean
        arrays["std_std"] = model.standardizer.std
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


def load_model(path: str | Path) -> PifModel:
    with np.load(Path(path)) as data:
        meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
        if meta["format_version"] != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format {meta['format_version']}")
        model = PifModel(meta["label_order"], meta["seed"])
        for key in model.params:
            model.params[key] = data[f"param_{key}"].astype(np.float64)
        for i in range(len(HIDDEN_SIZES)):
            model.running_mean[i] = data[f"running_mean{i}"].astype(np.float64)
            model.running_var[i] = data[f"running_var{i}"].astype(np.float64)
        if "std_mean" in data:
            model.standardizer = Standardizer(
                mean=data["std_mean"].astype(np.float64), std=data["std_std"].astype(np.float64)
            )
        model.trained = bool(meta["trained"])
    return model


# --- training-data CSV ----------------------------------------------------

TRAINING_CSV_HEADER = "path_id,vd,sid,is,label"


def load_training_csv(source: str | Path | Iterable[str]) -> list[tuple[tuple[float, float, float], str]]:
    """Rows of ((vd, sid, is), label) from the `path_id,vd,sid,is,label` CSV,
    given as the path of a file or an iterable of its lines."""
    if isinstance(source, (str, Path)):
        source = Path(source).read_text(encoding="utf-8").splitlines()
    rows = []
    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("path_id"):
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"line {line_no}: expected 5 columns, got {len(parts)}")
        try:
            features = (float(parts[1]), float(parts[2]), float(parts[3]))
        except ValueError:
            raise ValueError(f"line {line_no}: non-numeric feature in {line!r}") from None
        if not all(map(math.isfinite, features)):
            raise ValueError(f"line {line_no}: non-finite feature in {line!r}")
        rows.append((features, parts[4].strip()))
    return rows


def training_csv(entries: Iterable[tuple[str, tuple[float, float, float], str]]) -> str:
    lines = [TRAINING_CSV_HEADER]
    for path_id, (vd, sid, is_norm), label in entries:
        lines.append(f"{path_id},{vd!r},{sid!r},{is_norm!r},{label}")
    return "\n".join(lines) + "\n"


# --- PIF weight table -----------------------------------------------------

MACRO_FUNCTIONS = ("D", "U", "DM", "E", "T")


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
