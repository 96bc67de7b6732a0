from __future__ import annotations

import math

import numpy as np
import pytest

import hmirisk.pifnet as pifnet
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

    def test_no_leakage_into_fold_standardizer(self, monkeypatch):
        rows = separable_rows(per_class=4)
        # shift what will be held out; a leaky standardizer would absorb it
        seen = []
        original = pifnet.train

        def recording_train(model, train_rows, hyper=None):
            result = original(model, train_rows, hyper)
            seen.append((model, list(train_rows)))
            return result

        monkeypatch.setattr(pifnet, "train", recording_train)
        folds = stratified_folds([label for _, label in rows], 3, seed=5)
        kfold_cv(rows, k=3, seed=5)
        assert len(seen) == 3
        for (model, train_rows), held in zip(seen, folds):
            held_rows = {id(rows[i]) for i in held}
            assert all(id(row) not in held_rows for row in train_rows)
            expected_mean = np.stack([np.asarray(f) for f, _ in train_rows]).mean(axis=0)
            assert model.standardizer.mean == pytest.approx(expected_mean)


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
    from hmirisk import dataset

    rows = dataset.training_rows()
    model = init_model(0, sorted({label for _, label in rows}))
    train(model, rows)
    assert evaluate(model, rows) >= 0.9


def test_training_csv_round_trip(tmp_path):
    entries = [("P_1", (0.25, 0.0, 0.477), "HSI0"), ("P_2", (1 / 43, 1 / 42, 0.19276), "HSI1")]
    text = training_csv(entries)
    file = tmp_path / "train.csv"
    file.write_text(text)
    rows = load_training_csv(file)
    assert rows == [((0.25, 0.0, 0.477), "HSI0"), ((1 / 43, 1 / 42, 0.19276), "HSI1")]


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_training_csv_rejects_non_finite_feature(value):
    with pytest.raises(ValueError, match=f"^line 2: non-finite feature in 'P_1,0.25,{value},0.4,HSI0'$"):
        load_training_csv(["path_id,vd,sid,is,label", f"P_1,0.25,{value},0.4,HSI0"])


def test_training_csv_names_line_of_non_numeric_feature():
    with pytest.raises(ValueError, match="^line 3: non-numeric feature in 'P_2,abc,0,0,HSI0'$"):
        load_training_csv(["path_id,vd,sid,is,label", "P_1,0.25,0,0.4,HSI0", "P_2,abc,0,0,HSI0"])
