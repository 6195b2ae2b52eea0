"""Localize faults inside the forecast window and compare against broadcast.

The localize objective adds a squared stepwise loss, shaping the decoder's
per-step scores. Decisions are then made per step by a linear SVM on those
scores. The baseline broadcasts each segment decision to every forecast
step: it can only say "this fault is present somewhere", so it over-covers,
which shows up as high recall but low precision. Localization trades a
little recall for much better precision and F1.
"""

from faultcast import (
    SynthConfig,
    TrainConfig,
    broadcast_baseline,
    classify,
    fit_classifier,
    init_model,
    make_rng,
    split_samples,
    stepwise_report,
    synth_generate,
    train,
)
from faultcast.data import stack_samples
from faultcast.model import forward

meta, samples = synth_generate(SynthConfig(seed=0), 700)
train_s, val_s, test_s = split_samples(samples, (400, 100, 200), seed=0)

model = init_model(make_rng(1), meta.dims)
config = TrainConfig(loss="localize", eta=0.01, lam=0.01, batch_size=16,
                     max_epochs=400, patience=80, seed=0)
best, history = train(model, train_s, val_s, config)
print(f"trained the localize objective for {len(history)} epochs\n")

obs, ctx, labels, steps = stack_samples(train_s)
pred = forward(best, obs, ctx, keep_tape=False)[0]
segment_clf = fit_classifier("svm", pred.embedding, labels, seed=3)
step_clf = fit_classifier(
    "svm",
    pred.step_scores.reshape(-1, meta.n_labels),
    steps.reshape(-1, meta.n_labels),
    seed=3,
)

obs, ctx, labels, steps = stack_samples(test_s)
pred = forward(best, obs, ctx, keep_tape=False)[0]
truth = steps.astype(int)
localized = stepwise_report(classify(step_clf, pred.step_scores), truth)
segment_decisions = classify(segment_clf, pred.embedding)
broadcast = stepwise_report(
    broadcast_baseline(segment_decisions, meta.horizon), truth
)

print(f"{'decisions':<12}{'micro F1':>10}{'precision':>11}{'recall':>9}")
for name, report in (("localized", localized), ("broadcast", broadcast)):
    print(f"{name:<12}{report.micro_f1:>10.4f}"
          f"{report.micro_precision:>11.4f}{report.micro_recall:>9.4f}")

print("\nbroadcast marks every forecast step of a predicted fault, so its")
print("recall is near the segment recall while precision pays for the")
print("over-coverage; per-step decisions recover most of that precision.")
