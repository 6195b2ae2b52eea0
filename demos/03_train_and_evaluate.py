"""Train a segment-label forecaster and compare the three decision rules.

Trains the base objective (weighted cross entropy on segment labels only),
then turns embeddings into decisions three ways: a per-label linear SVM, the
bare threshold at zero, and nearest class mean. The embedding space is
trained so zero separates the classes, so the threshold rule is already
strong; how close the fitted rules land to it depends on how cleanly the
model separated the clusters.
"""

from faultcast.classifiers import classify, fit_classifier
from faultcast.data import SynthConfig, split_samples, stack_samples, synth_generate
from faultcast.metrics import segment_report
from faultcast.model import init_model, predict
from faultcast.num import make_rng
from faultcast.training import TrainConfig, train

meta, samples = synth_generate(SynthConfig(seed=0), 700)
train_s, val_s, test_s = split_samples(samples, (400, 100, 200), seed=0)

model = init_model(make_rng(1), meta.dims)
config = TrainConfig(loss="base", eta=0.01, lam=0.01, batch_size=16,
                     max_epochs=300, patience=60, seed=0)
best, history = train(model, train_s, val_s, config)
print(f"trained for {len(history)} epochs "
      f"(early stopping on validation micro+macro F1)")
print(f"final epoch loss: {history[-1].loss.total:.4f}\n")

obs, ctx, labels, _ = stack_samples(train_s)
train_embeddings = predict(best, obs, ctx).embedding
obs, ctx, labels_test, _ = stack_samples(test_s)
test_embeddings = predict(best, obs, ctx).embedding

print(f"{'classifier':<16}{'micro F1':>10}{'macro F1':>10}")
for kind in ("svm", "threshold_zero", "nearest_mean"):
    clf = fit_classifier(kind, train_embeddings, labels, seed=3)
    report = segment_report(classify(clf, test_embeddings), labels_test.astype(int))
    print(f"{kind:<16}{report.micro_f1:>10.4f}{report.macro_f1:>10.4f}")

print("\nmacro weighs each label equally, so it is the score to watch when")
print("the rare faults matter most.")
