"""PIF-level classification from the three metrics.
===================================================

A 3-128-64-32-K network (batch norm, ReLU, dropout 0.3) is trained on
the 39 evaluated paths and applied to three procedures that were never
observed. Five-fold stratified cross-validation gives the accuracy band.
"""
from hmirisk.dataset import PREDICTION_ROWS, training_rows
from hmirisk.pifnet import evaluate, init_model, kfold_cv, ordered_labels, pif_weights, predict, train

rows = training_rows()
labels = ordered_labels(label for _, label in rows)
print(f"{len(rows)} training rows, labels {labels}")

cv = kfold_cv(rows, k=5, seed=0)
print(f"cross-validation: folds {[round(a, 4) for a in cv.fold_accuracies]}")
print(f"mean {cv.mean:.4f} +/- {cv.std:.4f} (sample std)")

model = init_model(seed=0, label_order=labels)
losses = train(model, rows)
print(f"\ntraining loss {losses[0]:.4f} -> {losses[-1]:.4f}, accuracy {evaluate(model, rows):.4f}")

print("\npredictions for untested procedures:")
for row in PREDICTION_ROWS:
    label, probs = predict(model, row.features())
    top = ", ".join(f"{k}={v:.3f}" for k, v in sorted(probs.items(), key=lambda kv: -kv[1]))
    print(f"  {row.path_id}: {label}  ({top})")

# Each level carries macro-cognitive weights (None = not applicable).
print("\nweight rows:")
for label in ("HSI0", "HSI1", "HSI5"):
    w = pif_weights(label)
    print(f"  {label}: {dict(w.weights)}  -- {w.attribute}")
