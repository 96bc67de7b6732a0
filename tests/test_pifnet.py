from __future__ import annotations

import copy
import faulthandler
import hashlib
import io
import json
import math
import os
import re
import sys
import tracemalloc
import zipfile

import numpy as np
import pytest

import hmirisk.pifnet as pifnet
from hmirisk import dataset, forked
from hmirisk.pifnet import (
    CvResult,
    Standardizer,
    TrainConfig,
    evaluate,
    init_model,
    kfold_cv,
    load_model,
    load_training_csv,
    loss_and_gradients,
    pif_weights,
    predict,
    save_model,
    stratified_folds,
    train,
    training_csv,
)

LABELS = ("HSI0", "HSI1", "HSI5")


def separable_rows(per_class=4, jitter=0.05, seed=0):
    rng = np.random.default_rng(seed)
    centers = {"HSI0": (0.0, 0.0, 0.0), "HSI1": (5.0, 5.0, 5.0), "HSI5": (-5.0, 5.0, -5.0)}
    rows = []
    for label, center in centers.items():
        for _ in range(per_class):
            rows.append((tuple(c + rng.uniform(-jitter, jitter) for c in center), label))
    return rows


class TestInitModel:
    def test_same_seed_bit_identical(self):
        a, b = init_model(42, LABELS), init_model(42, LABELS)
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_different_seeds_differ(self):
        a, b = init_model(1, LABELS), init_model(2, LABELS)
        assert any(not np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_output_width_tracks_labels(self):
        assert init_model(0, LABELS).params["W3"].shape == (32, 3)
        assert init_model(0, ("A", "B")).params["W3"].shape == (32, 2)

    def test_layer_shapes(self):
        m = init_model(0, LABELS)
        assert m.params["W0"].shape == (3, 128)
        assert m.params["W1"].shape == (128, 64)
        assert m.params["W2"].shape == (64, 32)
        assert m.params["gamma0"].shape == (128,)
        assert all(np.all(m.params[f"gamma{i}"] == 1) for i in range(3))
        assert all(np.all(m.params[f"beta{i}"] == 0) for i in range(3))


class TestTrain:
    def test_three_point_fixture_fits_within_200_epochs(self):
        rows = [((0.0, 0.0, 0.0), "HSI0"), ((5.0, 5.0, 5.0), "HSI1"), ((-5.0, 5.0, -5.0), "HSI5")]
        model = init_model(0, LABELS)
        losses = train(model, rows, TrainConfig(epochs=200))
        assert evaluate(model, rows) == 1.0
        assert losses[-1] < losses[0]

    def test_zero_epochs_leaves_model_unchanged(self):
        model = init_model(0, LABELS)
        before = {k: v.copy() for k, v in model.params.items()}
        losses = train(model, separable_rows(), TrainConfig(epochs=0))
        assert losses == []
        assert model.trained is False
        assert all(np.array_equal(before[k], model.params[k]) for k in before)

    @pytest.mark.parametrize(
        "hyper, message",
        [
            (TrainConfig(epochs=-5), "epochs must be non-negative"),
            (TrainConfig(dropout=1.0), "dropout must be in"),
            (TrainConfig(dropout=-0.1), "dropout must be in"),
        ],
    )
    def test_invalid_hyperparameters_rejected(self, hyper, message):
        model = init_model(0, LABELS)
        with pytest.raises(ValueError, match=message):
            train(model, separable_rows(), hyper)
        assert model.trained is False

    def test_single_class_rejected(self):
        model = init_model(0, LABELS)
        with pytest.raises(ValueError, match="single class"):
            train(model, [((0.0, 0.0, 0.0), "HSI0"), ((1.0, 1.0, 1.0), "HSI0")])

    def test_non_finite_features_rejected(self):
        model = init_model(0, LABELS)
        rows = [((float("nan"), 0.0, 0.0), "HSI0"), ((1.0, 1.0, 1.0), "HSI1")]
        with pytest.raises(ValueError, match="finite"):
            train(model, rows)

    def test_deterministic_given_seed_and_rows(self):
        rows = separable_rows()
        m1, m2 = init_model(3, LABELS), init_model(3, LABELS)
        l1 = train(m1, rows)
        l2 = train(m2, rows)
        assert l1 == l2
        assert all(np.array_equal(m1.params[k], m2.params[k]) for k in m1.params)


class TestPredict:
    def test_probability_simplex(self):
        model = init_model(0, LABELS)
        train(model, separable_rows())
        _, probs = predict(model, (0.1, 0.2, 0.3))
        values = np.array(list(probs.values()))
        assert np.all(values >= 0) and np.all(values <= 1)
        assert abs(values.sum() - 1.0) <= 1e-9

    def test_training_rows_recovered_after_convergence(self):
        rows = separable_rows()
        model = init_model(1, LABELS)
        train(model, rows)
        for features, label in rows:
            assert predict(model, features)[0] == label

    def test_untrained_model_rejected(self):
        with pytest.raises(ValueError, match="not trained"):
            predict(init_model(0, LABELS), (0.0, 0.0, 0.0))

    def test_argmax_consistent_with_logit_order(self):
        # softmax is strictly increasing componentwise, so the argmax of the
        # probabilities must match the argmax of any monotone rescaling
        model = init_model(0, LABELS)
        train(model, separable_rows())
        label, probs = predict(model, (4.9, 5.1, 5.0))
        transformed = {k: math.log(v + 1e-300) * 3.0 + 7.0 for k, v in probs.items()}
        assert max(transformed, key=transformed.get) == label

    def test_standardizer_applied(self):
        rows = [((1000.0, 2000.0, 3000.0), "HSI0"), ((1001.0, 2001.0, 3001.0), "HSI1")] * 3
        model = init_model(0, ("HSI0", "HSI1"))
        train(model, rows)
        assert model.standardizer is not None
        assert evaluate(model, rows) == 1.0

    @pytest.mark.parametrize(
        "features, name",
        [((1e308, 1e308, 1e308), "standardized features"), ((1e308, 1e308, -1e308), "class probabilities")],
        ids=["standardized", "probabilities"],
    )
    def test_an_overflow_is_an_error_not_a_warning(self, features, name):
        """Finite features far outside the training data are a ValueError
        naming what overflowed; numpy warns of nothing (warnings are errors
        in this suite)."""
        model = init_model(0, LABELS)
        train(model, separable_rows())
        if name == "standardized features":  # a std below 1 takes 1e308 past the float range
            model.standardizer = Standardizer(model.standardizer.mean, np.full(3, 0.5))
        with pytest.raises(ValueError, match=f"^{name} are not finite: the features lie too far outside the training data$"):
            predict(model, features)


class TestStandardizer:
    def test_fit_transform(self):
        X = np.array([[1.0, 2.0], [3.0, 2.0]])
        s = Standardizer.fit(X)
        out = s.transform(X)
        assert out[:, 0] == pytest.approx([-1.0, 1.0])
        assert out[:, 1] == pytest.approx([0.0, 0.0])  # zero-std column guarded

    def test_zero_std_guard(self):
        s = Standardizer.fit(np.array([[5.0], [5.0]]))
        assert s.std[0] == 1.0


class TestKFold:
    def test_partition_disjoint_and_covering(self):
        labels = ["HSI0"] * 16 + ["HSI1"] * 12 + ["HSI5"] * 11
        folds = stratified_folds(labels, 5, seed=0)
        flat = [i for fold in folds for i in fold]
        assert sorted(flat) == list(range(39))
        sizes = sorted(len(f) for f in folds)
        assert sizes == [7, 8, 8, 8, 8]
        for fold in folds:
            assert {labels[i] for i in fold} == {"HSI0", "HSI1", "HSI5"}

    def test_identical_copies_of_separable_set_score_one(self):
        rows = separable_rows(per_class=5)
        result = kfold_cv(rows, k=5, seed=0)
        assert result.fold_accuracies == (1.0,) * 5
        assert result.mean == 1.0 and result.std == 0.0

    def test_deterministic(self):
        rows = separable_rows(per_class=4, jitter=0.5)
        assert kfold_cv(rows, k=3, seed=9) == kfold_cv(rows, k=3, seed=9)

    def test_k_bounds(self):
        rows = separable_rows(per_class=1)
        with pytest.raises(ValueError):
            kfold_cv(rows, k=1)
        with pytest.raises(ValueError):
            kfold_cv(rows, k=len(rows) + 1)

    def test_no_leakage_into_fold_standardizer(self, monkeypatch, tmp_path):
        rows = separable_rows(per_class=4)
        # shift what will be held out; a leaky standardizer would absorb it
        # Folds may train in forked children, so every call is recorded in a
        # file: a child keeps the parent's object ids.
        record = tmp_path / "train_calls.jsonl"
        original = pifnet.train

        def recording_train(model, train_rows, hyper=None):
            result = original(model, train_rows, hyper)
            call = {"seed": model.seed, "rows": [id(row) for row in train_rows], "mean": model.standardizer.mean.tolist()}
            with record.open("a") as out:
                out.write(json.dumps(call) + "\n")
            return result

        monkeypatch.setattr(pifnet, "train", recording_train)
        folds = stratified_folds([label for _, label in rows], 3, seed=5)
        kfold_cv(rows, k=3, seed=5)
        seen = sorted((json.loads(line) for line in record.read_text().splitlines()), key=lambda call: call["seed"])
        assert len(seen) == 3
        by_id = {id(row): row for row in rows}
        for fold_index, (call, held) in enumerate(zip(seen, folds)):
            assert call["seed"] == 5 * 1000 + fold_index
            held_rows = {id(rows[i]) for i in held}
            assert all(row_id not in held_rows for row_id in call["rows"])
            expected_mean = np.stack([np.asarray(by_id[row_id][0]) for row_id in call["rows"]]).mean(axis=0)
            assert call["mean"] == pytest.approx(expected_mean)


class FoldFailure(Exception):
    pass


@pytest.fixture
def cv_on(monkeypatch):
    """``cv_on(cpus, *args)``: ``kfold_cv(*args)`` with ``cpus`` usable CPUs.
    No child process may outlive the call, and a call that hangs for a
    minute ends the test run."""

    def run(cpus, *args):
        monkeypatch.setattr(forked, "usable_cpus", lambda: cpus)
        faulthandler.dump_traceback_later(60, exit=True, file=sys.__stderr__)
        try:
            return kfold_cv(*args)
        finally:
            faulthandler.cancel_dump_traceback_later()
            with pytest.raises(ChildProcessError):  # no child, running or unreaped
                os.waitpid(-1, os.WNOHANG)

    return run


class TestParallelKFold:
    def test_result_does_not_depend_on_the_cpu_count(self, cv_on):
        """One process, two processes that claim folds in turn, and one process per fold."""
        rows = dataset.training_rows()
        expected = CvResult((1.0, 0.875, 0.875, 0.75, 0.8571428571428571), 0.8714285714285713, 0.08874838314135126)
        for cpus in (1, 2, 8):
            assert cv_on(cpus, rows, 5, 0) == expected

    def test_first_error_in_fold_order_reaches_the_caller(self, cv_on, monkeypatch):
        parent, original = os.getpid(), pifnet.train

        def failing(model, train_rows, hyper=None):
            if os.getpid() != parent and model.seed % 1000 >= 1:
                raise FoldFailure(f"fold {model.seed % 1000} failed")
            return original(model, train_rows, hyper)

        monkeypatch.setattr(pifnet, "train", failing)
        with pytest.raises(FoldFailure, match=r"^fold 1 failed$"):
            cv_on(3, separable_rows(per_class=3), 3, 0)

    def test_a_child_that_dies_is_an_error(self, cv_on, monkeypatch):
        parent, original = os.getpid(), pifnet.train

        def dying(model, train_rows, hyper=None):
            if os.getpid() != parent:
                os._exit(7)
            return original(model, train_rows, hyper)

        monkeypatch.setattr(pifnet, "train", dying)
        message = "the process training fold 2 of 3 exited with code 7 before sending its result"
        with pytest.raises(ChildProcessError, match=f"^{message}$"):
            cv_on(2, separable_rows(per_class=3), 3, 0)


class TestGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        cfg = TrainConfig(dropout=0.0)
        for trial in range(3):
            model = init_model(trial, LABELS)
            X = rng.normal(size=(5, 3))
            y = rng.integers(0, 3, size=5)
            _, grads = loss_and_gradients(model, X, y, cfg)
            for key in ("W0", "gamma1", "beta2", "W3", "b3"):
                param = model.params[key]
                for idx in rng.integers(0, param.size, size=3):
                    original = param.flat[idx]
                    param.flat[idx] = original + 1e-5
                    up, _ = loss_and_gradients(model, X, y, cfg)
                    param.flat[idx] = original - 1e-5
                    down, _ = loss_and_gradients(model, X, y, cfg)
                    param.flat[idx] = original
                    fd = (up - down) / 2e-5
                    analytic = grads[key].flat[idx]
                    rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-6)
                    assert rel < 1e-4, f"{key}[{idx}]: fd={fd} analytic={analytic}"

    def test_bias_before_batchnorm_has_zero_gradient(self):
        # batch norm subtracts the batch mean, so a uniform pre-BN shift is
        # invisible: analytic b0..b2 gradients must vanish
        model = init_model(0, LABELS)
        rng = np.random.default_rng(0)
        _, grads = loss_and_gradients(model, rng.normal(size=(6, 3)), rng.integers(0, 3, size=6), TrainConfig(dropout=0.0))
        for i in range(3):
            assert np.max(np.abs(grads[f"b{i}"])) < 1e-12


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        rows = separable_rows()
        model = init_model(5, LABELS)
        train(model, rows)
        path = tmp_path / "pif_model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.label_order == model.label_order
        assert loaded.trained is True
        for features, label in rows:
            expected_label, expected_probs = predict(model, features)
            got_label, got_probs = predict(loaded, features)
            assert got_label == expected_label
            # parameters are stored as float32; probabilities match loosely
            assert got_probs[expected_label] == pytest.approx(expected_probs[expected_label], abs=1e-4)

    def test_untrained_round_trip(self, tmp_path):
        model = init_model(1, LABELS)
        save_model(model, tmp_path / "raw.npz")
        assert load_model(tmp_path / "raw.npz").trained is False

    @pytest.mark.parametrize("labels, shown", [((1, 2), "[1, 2]"), (("A", "A"), "['A', 'A']")], ids=["ints", "duplicates"])
    def test_labels_must_be_distinct_strings(self, tmp_path, labels, shown):
        save_model(init_model(1, labels), tmp_path / "labels.npz")
        with pytest.raises(ValueError, match=re.escape(f"label_order must be distinct strings, got {shown})")):
            load_model(tmp_path / "labels.npz")

    @pytest.mark.parametrize(
        "name, index, value, message",
        [
            ("param_W1", (0, 0), np.inf, "param_W1: holds a NaN or an infinity"),
            ("running_mean2", 0, np.nan, "running_mean2: holds a NaN or an infinity"),
            ("std_std", 0, np.nan, "std_std: holds a NaN or an infinity"),
            ("std_std", 2, 0.0, "std_std: must be positive, got ["),
            ("running_var1", 3, -1e-3, "running_var1: must be non-negative"),
        ],
        ids=["inf-weight", "nan-running-mean", "nan-std", "zero-std", "negative-variance"],
    )
    def test_numbers_a_prediction_cannot_use_are_rejected(self, tmp_path, name, index, value, message):
        model = init_model(5, LABELS)
        train(model, separable_rows())
        pifnet._named_arrays(model)[name][index] = value
        save_model(model, tmp_path / "poisoned.npz")
        with pytest.raises(ValueError, match=f"^not a readable model file \\({re.escape(message)}"):
            load_model(tmp_path / "poisoned.npz")

    def test_shape_claimed_in_header_checked_before_reading(self, tmp_path):
        """A member whose .npy header claims 10**13 floats is rejected by
        name without allocating them."""
        good, bad = tmp_path / "good.npz", tmp_path / "huge.npz"
        save_model(init_model(1, LABELS), good)
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f4", "fortran_order": False, "shape": (10_000_000_000_000,)}
        )
        with zipfile.ZipFile(good) as src, zipfile.ZipFile(bad, "w") as dst:
            for name in src.namelist():
                data = header.getvalue() + bytes(16) if name == "param_W0.npy" else src.read(name)
                dst.writestr(name, data)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"param_W0: float32 array of shape \(10000000000000,\)"):
                load_model(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000


class TestPifWeights:
    def test_well_designed_row_all_ones(self):
        assert pif_weights("HSI0").weights == {"D": 1, "U": 1, "DM": 1, "E": 1, "T": 1}

    def test_similar_indicator_row(self):
        w = pif_weights("HSI1").weights
        assert w["D"] == 1.5
        assert all(w[k] is None for k in ("U", "DM", "E", "T"))

    def test_poor_salience_row(self):
        w = pif_weights("HSI5").weights
        assert w["D"] == 3
        assert all(w[k] is None for k in ("U", "DM", "E", "T"))

    def test_numeric_spot_checks(self):
        assert pif_weights("HSI7").weights["U"] == 5.7
        assert pif_weights("HSI10").weights["E"] == 3.38
        assert pif_weights("HSI12").weights["E"] == 10
        assert pif_weights("HSI15").weights["E"] == 9

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            pif_weights("HSI16")

    def test_na_never_numeric(self):
        for label in (f"HSI{i}" for i in range(16)):
            for value in pif_weights(label).weights.values():
                assert value is None or isinstance(value, (int, float))


def test_reference_dataset_training_accuracy():
    rows = dataset.training_rows()
    model = init_model(0, sorted({label for _, label in rows}))
    train(model, rows)
    assert evaluate(model, rows) >= 0.9


def test_training_csv_round_trip(tmp_path):
    entries = [("P_1", (0.25, 0.0, 0.477), "HSI0"), ("P_2", (1 / 43, 1 / 42, 0.19276), "HSI1")]
    text = training_csv(entries)
    file = tmp_path / "train.csv"
    file.write_text(text)
    rows = load_training_csv(file.read_text().splitlines())
    assert rows == [((0.25, 0.0, 0.477), "HSI0"), ((1 / 43, 1 / 42, 0.19276), "HSI1")]


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_training_csv_rejects_non_finite_feature(value):
    with pytest.raises(ValueError, match=f"^line 2: non-finite feature in 'P_1,0.25,{value},0.4,HSI0'$"):
        load_training_csv(["path_id,vd,sid,is,label", f"P_1,0.25,{value},0.4,HSI0"])


def test_training_csv_skips_only_its_first_line_as_the_header():
    lines = ["", "path_id,vd,sid,is,label", "path_id_7,0.1,0.2,0.3,HSI0", "P_8,0.4,0.5,0.6,HSI1"]
    assert load_training_csv(lines) == [((0.1, 0.2, 0.3), "HSI0"), ((0.4, 0.5, 0.6), "HSI1")]


def test_training_csv_names_line_of_non_numeric_feature():
    with pytest.raises(ValueError, match="^line 3: non-numeric feature in 'P_2,abc,0,0,HSI0'$"):
        load_training_csv(["path_id,vd,sid,is,label", "P_1,0.25,0,0.4,HSI0", "P_2,abc,0,0,HSI0"])


def _trained_digest(model, losses) -> str:
    """SHA-256 over the parameters, the running statistics and the loss trace."""
    digest = hashlib.sha256()
    for key, value in model.params.items():
        digest.update(key.encode() + np.ascontiguousarray(value, dtype=np.float64).tobytes())
    for value in (*model.running_mean, *model.running_var):
        digest.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
    digest.update(np.array(losses, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _trained(case, tmp_path):
    """The model and loss trace of one pinned training run on the 39
    reference rows at seed 0; ``small`` is 8 rows of 2 labels at seed 7."""
    rows = dataset.training_rows()
    if case == "small":  # a batch size and head width no other case has
        rows = rows[:8]
        model = init_model(7, sorted({label for _, label in rows}, key=pifnet._label_key))
        return model, train(model, rows, TrainConfig(epochs=40, dropout=0.5))
    model = init_model(0, sorted({label for _, label in rows}, key=pifnet._label_key))
    if case == "default":
        return model, train(model, rows)
    if case == "no_dropout":
        return model, train(model, rows, TrainConfig(dropout=0.0))
    if case == "retrained":  # the second run starts from the first run's parameters
        first = train(model, rows, TrainConfig(epochs=100))
        return model, first + train(model, rows, TrainConfig(epochs=200))
    assert case == "reloaded"  # trained, saved, loaded, and trained again
    train(model, rows)
    save_model(model, tmp_path / "m.npz")
    model = load_model(tmp_path / "m.npz")
    return model, train(model, rows, TrainConfig(epochs=50))


class TestTrainedBits:
    """The trained bits, pinned: a faster training loop must reproduce every
    parameter, running statistic and loss exactly."""

    @pytest.mark.parametrize(
        "case, expected",
        [
            ("default", "a9b10cdd09afac49982d7ce04dc30ac957608aab8dbfedd10f09b012bb996733"),
            ("no_dropout", "301d9268c583206cf2467a0a1fbfc21687a6c29882e3befc0c45900e366b0df9"),
            ("retrained", "ff918248eb6195038b20f3adae88a4ab93ee484cd690acc1deb243a2abeebcc0"),
            ("reloaded", "510ca40770dd3922a6682ce6a89a9b655bb305946d2a20981a63283f6b354d25"),
            ("small", "4e2fcf75b0da8a426938e3d32bc4b1a44168638e9bfafb529f20c90a04c9b0ad"),
        ],
    )
    def test_digest(self, case, expected, tmp_path):
        assert _trained_digest(*_trained(case, tmp_path)) == expected

    def test_one_epoch_is_one_adam_step_of_loss_and_gradients(self):
        """train takes its gradients from loss_and_gradients, not from a
        copy of the forward and backward passes."""
        rows = dataset.training_rows()
        model = init_model(0, sorted({label for _, label in rows}, key=pifnet._label_key))
        twin = copy.deepcopy(model)
        cfg = TrainConfig(epochs=1, dropout=0.0)
        losses = train(model, rows, cfg)
        X, y = pifnet._rows_to_arrays(rows, model.label_order)
        loss, grads = loss_and_gradients(twin, model.standardizer.transform(X), y, cfg, update_running=True)
        assert losses == [loss]
        assert set(grads) == set(model.params)
        for key, grad in grads.items():
            m_hat = ((1 - pifnet.BETA1) * grad) / (1 - pifnet.BETA1)
            v_hat = ((1 - pifnet.BETA2) * grad**2) / (1 - pifnet.BETA2)
            expected = twin.params[key] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + pifnet.ADAM_EPS)
            assert np.array_equal(model.params[key], expected), key
        for got, want in zip((*model.running_mean, *model.running_var), (*twin.running_mean, *twin.running_var)):
            assert np.array_equal(got, want)

    def test_an_epoch_allocates_no_arrays(self):
        """After the workspace is built, the dropout draw, the passes and the
        Adam update write only into its buffers: an epoch's peak of traced
        memory stays below the size of its smallest per-row array, the
        logits. A small ufunc buffer size keeps numpy's own iteration
        buffers, which broadcasting operands need, below that too."""
        rows = dataset.training_rows() * 4
        model = init_model(0, sorted({label for _, label in rows}, key=pifnet._label_key))
        X, y = pifnet._rows_to_arrays(rows, model.label_order)
        workspace = pifnet._Workspace(model, X, y)
        flat, rng = np.zeros_like(workspace.grad), np.random.default_rng(0)
        buffer_size = np.setbufsize(16)
        tracemalloc.start()
        try:
            for step in range(1, 4):
                workspace.backprop(workspace.dropout_masks(rng, 0.3), 0.3, update_running=True)
                workspace.adam_step(flat, step, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            np.setbufsize(buffer_size)
        assert peak < workspace.logits.nbytes

    def test_kfold_cv_result(self):
        assert kfold_cv(dataset.training_rows(), 5, 0) == CvResult(
            (1.0, 0.875, 0.875, 0.75, 0.8571428571428571), 0.8714285714285713, 0.08874838314135126
        )


def test_training_csv_header_in_any_letter_case():
    lines = ["PATH_ID,VD,SID,IS,LABEL", "P_1,0.1,0.2,0.3,HSI0"]
    assert load_training_csv(lines) == [((0.1, 0.2, 0.3), "HSI0")]


def test_training_csv_names_line_with_wrong_field_count():
    with pytest.raises(ValueError, match=r"^line 3: expected 'path_id,vd,sid,is,label', got 'P_2,0,0'$"):
        load_training_csv(["path_id,vd,sid,is,label", "P_1,0.25,0,0.4,HSI0", "P_2,0,0"])
