"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them as they complete).

The generalization, localization, and classifier-ordering criteria run
against the committed default synthetic generator with the standard
500/100/400 split. Scores recorded at the first green run, as regression
context for the committed generator (seed 0):

    grid winner eta=0.1 lambda=0.01
    segment svm        micro 0.8477  macro 0.7429
    segment threshold  micro 0.8261  macro 0.7078
    segment nearest    micro 0.7633  macro 0.6811
    stepwise localized micro 0.7246  precision 0.6829  recall 0.7717
    stepwise broadcast micro 0.5756  precision 0.4203  recall 0.9131
"""

import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from faultcast import training
from faultcast.classifiers import (
    broadcast_baseline,
    classify,
    fit_classifier,
)
from faultcast.cli import main as cli_main
from faultcast.data import (
    DEFAULT_SYNTH_CONFIG,
    SynthConfig,
    split_samples,
    stack_samples,
    synth_generate,
)
from faultcast.losses import batch_loss, class_weights, l2_penalty
from faultcast.metrics import segment_report, stepwise_report
from faultcast.model import (ForecastModel, ModelDims, forward, init_model, param_items,
                             param_size, predict, stack_models)
from faultcast.num import make_rng
from faultcast.training import TrainConfig, default_grid, grad_check, grid_search, train


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def default_splits():
    meta, samples = synth_generate(DEFAULT_SYNTH_CONFIG, 1000)
    train_s, val_s, test_s = split_samples(samples, (500, 100, 400), seed=0)
    return meta, meta.dims, train_s, val_s, test_s


@pytest.fixture(scope="module")
def searched_base(default_splits):
    """Base-loss model grid-searched over the stock eta x lambda grid."""
    meta, dims, train_s, val_s, test_s = default_splits
    base = TrainConfig(loss="base", batch_size=16, max_epochs=250, patience=50)
    best_cfg, best_model, results = grid_search(
        default_grid("base", base), dims, train_s, val_s, base_seed=0
    )
    return best_cfg, best_model


@pytest.fixture(scope="module")
def segment_scores(default_splits, searched_base):
    """Test-split micro+macro F1 per decision rule for the searched model."""
    meta, dims, train_s, val_s, test_s = default_splits
    _, model = searched_base
    obs, ctx, labels, _ = stack_samples(train_s)
    emb_train = forward(model, obs, ctx, keep_tape=False)[0].embedding
    classifiers = {
        kind: fit_classifier(kind, emb_train, labels, seed=3)
        for kind in ("svm", "threshold_zero", "nearest_mean")
    }
    obs, ctx, labels, _ = stack_samples(test_s)
    emb_test = forward(model, obs, ctx, keep_tape=False)[0].embedding
    reports = {
        kind: segment_report(classify(clf, emb_test), labels.astype(int))
        for kind, clf in classifiers.items()
    }
    return reports


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_c01_gradient_exactness():
    """Analytic gradients of each batch loss match finite differences.

    Some 2-sample instances legitimately contain an always-present label
    (weight 0, warned about); the gradient check covers that edge too.
    """
    start = time.perf_counter()
    worst_overall = 0.0
    for kind in ("base", "localize", "siamese"):
        for trial in range(20):
            rng = make_rng(1000 + trial)
            tau = int(rng.integers(1, 4))
            horizon = int(rng.integers(1, 4))
            dims = ModelDims(
                n_labels=int(rng.integers(1, 4)),
                d_obs=int(rng.integers(1, 3)),
                d_ctx=int(rng.integers(1, 3)),
                tau=tau,
                total_steps=tau + horizon,
            )
            cfg_synth = SynthConfig(
                tau=dims.tau, total_steps=dims.total_steps, n_labels=dims.n_labels,
                d_obs=dims.d_obs, d_ctx=dims.d_ctx,
                thresholds=(0.5,) * dims.n_labels,
                rarity=tuple(1.0 + k for k in range(dims.n_labels)),
                seed=trial,
            )
            samples = synth_generate(cfg_synth, 2)[1]
            model = init_model(make_rng(2000 + trial), dims)
            config = TrainConfig(loss=kind, lam=0.05, beta=0.4, batch_size=2)
            err, worst = grad_check(model, samples, config, fd_step=1e-5)
            assert err < 1e-4, f"{kind} trial {trial}: {err:.3e} at {worst}"
            worst_overall = max(worst_overall, err)
    elapsed = time.perf_counter() - start
    _report(
        "C1 gradient-exactness",
        worst_overall < 1e-4 and elapsed < 60.0,
        f"max rel err {worst_overall:.2e} < 1e-4 over 60 instances; "
        f"{elapsed:.1f}s < 60s",
    )


def _brute_force_scores(pred, truth):
    n, n_labels = len(pred), len(pred[0])
    per_label, tp_all, fp_all, fn_all = [], 0, 0, 0
    for l in range(n_labels):
        tp = sum(1 for s in range(n) if pred[s][l] == 1 and truth[s][l] == 1)
        fp = sum(1 for s in range(n) if pred[s][l] == 1 and truth[s][l] == 0)
        fn = sum(1 for s in range(n) if pred[s][l] == 0 and truth[s][l] == 1)
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        per_label.append((p, r, 2 * p * r / (p + r) if p + r > 0 else 0.0))
    micro_p = tp_all / (tp_all + fp_all) if tp_all + fp_all > 0 else 0.0
    micro_r = tp_all / (tp_all + fn_all) if tp_all + fn_all > 0 else 0.0
    return {
        "micro_precision": micro_p,
        "micro_recall": micro_r,
        "micro_f1": 2 * micro_p * micro_r / (micro_p + micro_r)
        if micro_p + micro_r > 0 else 0.0,
        "macro_precision": sum(t[0] for t in per_label) / n_labels,
        "macro_recall": sum(t[1] for t in per_label) / n_labels,
        "macro_f1": sum(t[2] for t in per_label) / n_labels,
    }


def test_c02_metric_oracle_equivalence():
    """Micro/macro P/R/F1 match a brute-force scorer exactly."""
    rng = make_rng(7)
    checked_zero_denominator = False
    for _ in range(100):
        n = int(rng.integers(1, 11))
        n_labels = int(rng.integers(1, 6))
        density = rng.uniform(0.0, 1.0)
        pred = (rng.uniform(size=(n, n_labels)) < density).astype(int)
        truth = (rng.uniform(size=(n, n_labels)) < density).astype(int)
        if pred.sum() == 0 or truth.sum() == 0:
            checked_zero_denominator = True
        got = segment_report(pred, truth).as_dict()
        want = _brute_force_scores(pred.tolist(), truth.tolist())
        for key in want:
            assert got[key] == want[key], key
    empty = segment_report(np.zeros((3, 2), dtype=int), np.zeros((3, 2), dtype=int))
    assert all(v == 0.0 for v in empty.as_dict().values())
    _report(
        "C2 metric-oracle-equivalence",
        True,
        "exact on 100 random instances plus the all-empty zero-denominator case"
        + ("" if checked_zero_denominator else " (forced explicitly)"),
    )


def test_c03_loss_unit_fixtures():
    """Loss examples at 1e-10 absolute tolerance, including the p=0 edge."""
    tol = 1e-10

    def w(*vals):
        return np.asarray(vals, dtype=float)

    # each term is its field of batch_loss's breakdown: a batch of one holds
    # one sample's segment or stepwise loss, a batch of two at beta 0 the
    # one pair's loss
    def term(kind, field, g, labels, steps, probs=None, scores=None, weights=None):
        g, labels, steps = (np.asarray(a, dtype=float) for a in (g, labels, steps))
        probs = 1.0 / (1.0 + np.exp(-g)) if probs is None else np.asarray(probs, dtype=float)
        scores = np.zeros_like(steps) if scores is None else np.asarray(scores, dtype=float)
        weights = w(*[1.0] * g.shape[1]) if weights is None else weights
        pred = SimpleNamespace(embedding=g, label_probs=probs, step_scores=scores)
        return getattr(batch_loss(kind, pred, labels, steps, weights, beta=0.0), field)

    def segment(probs, labels, weights):
        logits = [math.log(p / (1.0 - p)) for p in probs]
        return term("base", "segment", [logits], [labels], np.zeros((1, 1, len(labels))),
                    probs=[probs], weights=weights)

    def stepwise(scores, steps):
        steps = np.asarray(steps, dtype=float)
        return term("localize", "stepwise", np.zeros((1, steps.shape[1])),
                    np.zeros((1, steps.shape[1])), [steps], scores=[scores])

    def pair(g_i, g_j, t_i, t_j):
        return term("siamese", "pairwise", [g_i, g_j], [t_i, t_j],
                    np.zeros((2, 1, len(g_i))))

    def similarity(g_i, g_j):  # the pair loss of disagreeing labels is s^2
        return math.sqrt(pair([g_i], [g_j], [1.0], [0.0]))

    checks = [
        ("segment negative term", segment([0.5], [0.0], w(1.0)), math.log(2.0)),
        ("segment positive term", segment([0.5], [1.0], w(1.0)), math.log(2.0)),
        ("segment weighted", segment([0.5, 0.25], [1.0, 0.0], w(2.0, 1.0)),
         2.0 * math.log(2.0) - math.log(0.75)),
        ("stepwise corners", stepwise([[1.0, 0.0]], [[1.0, 0.0]]), 0.0),
        ("stepwise quarter", stepwise(np.full((3, 2), 0.25), np.zeros((3, 2))), 0.0625),
        ("stepwise single", stepwise([[0.25]], [[1.0]]), 0.5625),
        ("similarity equal", similarity(1.0, 1.0), 1.0),
        ("similarity log2", similarity(math.log(2.0), 0.0), 0.5),
        ("similarity hand", similarity(1.0, 0.0), math.exp(-1.0)),
        ("pair corners", pair([0.0], [0.0], [1.0], [1.0]), 0.0),
        ("pair half", pair([math.log(2.0)], [0.0], [1.0], [0.0]), 0.25),
        ("pair hand", pair([math.log(2.0), math.log(10.0)], [0.0, 0.0], [1.0, 0.0],
                           [1.0, 1.0]), 0.13),
    ]
    for name, got, want in checks:
        assert abs(float(got) - want) < tol, f"{name}: {got} vs {want}"

    cw = class_weights(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))
    assert cw[1] == 1.0  # absent label weighted exactly 1
    cw_half = class_weights(np.array([[1.0], [0.0]]))
    assert abs(cw_half[0] - math.log(2.0)) < tol

    dims = ModelDims(1, 1, 1, 1, 3)
    model = init_model(make_rng(0), dims)
    for _, arr in param_items(model):
        arr[...] = 0.0
    key, w_f = param_items(model)[0]
    assert key.split(".") == ["encoder", "w_f"]
    w_f[0, :2] = (3.0, 4.0)
    assert abs(l2_penalty(model, 2.0) - 25.0) < tol
    _report("C3 loss-unit-fixtures", True,
            f"{len(checks) + 3} fixtures at 1e-10; p=0 edge weighted 1")


def test_c04_parameter_accounting():
    """The model file's parameters, param_size and the closed form 4(h^2 +
    h*i + h) per cell plus out_bias agree over a size sweep."""
    checked = 0
    for n_labels in range(1, 9):
        for features in range(0, 41):  # d_obs + d_ctx
            dims = ModelDims(n_labels, features - features // 3, features // 3, 1, 2)
            model = ForecastModel(np.zeros(param_size(dims)), dims)
            total = sum(arr.size for _, arr in param_items(model))
            h = n_labels
            formula = sum(4 * (h**2 + h * i + h) for i in (dims.enc_input, dims.dec_input)) + h
            assert total == param_size(dims) == formula
            checked += 1
    _report("C4 parameter-accounting", True, f"{checked} (hidden, input) pairs")


def test_c05_overfit_capacity():
    """64-sample default synthetic set reaches training micro-F1 >= 0.95."""
    start = time.perf_counter()
    meta, samples = synth_generate(replace(DEFAULT_SYNTH_CONFIG, seed=0), 64)
    model = init_model(make_rng(1), meta.dims)
    cfg = TrainConfig(loss="base", eta=0.01, batch_size=16, max_epochs=2000,
                      patience=150, seed=0)
    _, history = train(model, samples, [], cfg)
    hit = next((r.epoch for r in history if r.val_micro_f1 >= 0.95), None)
    elapsed = time.perf_counter() - start
    _report(
        "C5 overfit-capacity",
        hit is not None and elapsed < 600.0,
        f"training micro-F1 >= 0.95 at epoch {hit} (< 2000); {elapsed:.1f}s < 600s",
    )


def test_c06_generalization(segment_scores):
    """Grid-searched base model clears micro 0.80 / macro 0.60 on test."""
    svm = segment_scores["svm"]
    ok = svm.micro_f1 >= 0.80 and svm.macro_f1 >= 0.60
    _report(
        "C6 generalization",
        ok,
        f"svm micro {svm.micro_f1:.4f} >= 0.80, macro {svm.macro_f1:.4f} >= 0.60",
    )


def test_c07_localization_benefit(default_splits):
    """Localized stepwise decisions beat the broadcast baseline on F1 and
    precision while broadcast keeps recall."""
    meta, dims, train_s, val_s, test_s = default_splits
    model = init_model(make_rng(1), dims)
    cfg = TrainConfig(loss="localize", eta=0.01, lam=0.01, batch_size=16,
                      max_epochs=600, patience=120, seed=0)
    best, _ = train(model, train_s, val_s, cfg)

    obs, ctx, labels, steps = stack_samples(train_s)
    pred = forward(best, obs, ctx, keep_tape=False)[0]
    seg_clf = fit_classifier("svm", pred.embedding, labels, seed=3)
    step_clf = fit_classifier(
        "svm",
        pred.step_scores.reshape(-1, meta.dims.n_labels),
        steps.reshape(-1, meta.dims.n_labels),
        seed=3,
    )
    obs, ctx, labels, steps = stack_samples(test_s)
    pred = forward(best, obs, ctx, keep_tape=False)[0]
    truth = steps.astype(int)
    localized = stepwise_report(classify(step_clf, pred.step_scores), truth)
    broadcast = stepwise_report(
        broadcast_baseline(classify(seg_clf, pred.embedding), meta.dims.horizon), truth
    )
    ok = (
        localized.micro_f1 > broadcast.micro_f1
        and localized.micro_precision > broadcast.micro_precision
        and broadcast.micro_recall >= localized.micro_recall
    )
    _report(
        "C7 localization-benefit",
        ok,
        f"localized f1 {localized.micro_f1:.4f} > broadcast {broadcast.micro_f1:.4f}; "
        f"precision {localized.micro_precision:.4f} > {broadcast.micro_precision:.4f}; "
        f"broadcast recall {broadcast.micro_recall:.4f} >= {localized.micro_recall:.4f}",
    )


def test_c08_classifier_ordering(segment_scores):
    """svm >= threshold-at-zero >= nearest-mean on micro+macro, -0.01 slack."""
    sums = {k: r.micro_f1 + r.macro_f1 for k, r in segment_scores.items()}
    ok = (
        sums["svm"] >= sums["threshold_zero"] - 0.01
        and sums["threshold_zero"] >= sums["nearest_mean"] - 0.01
        and sums["svm"] >= sums["nearest_mean"] - 0.01
    )
    _report(
        "C8 classifier-ordering",
        ok,
        f"svm {sums['svm']:.4f} >= threshold {sums['threshold_zero']:.4f} >= "
        f"nearest-mean {sums['nearest_mean']:.4f} (slack 0.01)",
    )


def test_c09_benchmark_reproduction_shipped_not_run():
    """Published-benchmark reproduction needs the raw public datasets; the
    package ships the converters and a documented recipe instead of the
    numbers."""
    from faultcast.adapters import convert_activity_dat, convert_plant_csv  # noqa: F401
    from pathlib import Path

    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    ok = (
        "Reproducing the published benchmarks" in text
        and "convert-phm" in text
        and "convert-har" in text
    )
    _report(
        "C9 benchmark-recipe-shipped",
        ok,
        "converters importable; README carries the reproduction recipe "
        "(raw data user-supplied, not exercised in CI)",
    )


def test_c10_training_determinism(tmp_path):
    """Identical train invocations produce byte-identical model files."""
    data = tmp_path / "data.jsonl"
    assert cli_main(["generate", "--out", str(data), "--n", "200", "--seed", "11"]) == 0
    blobs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = cli_main([
            "train", "--data", str(data), "--out-model", str(out),
            "--n-train", "100", "--n-val", "40", "--n-test", "60",
            "--max-epochs", "15", "--batch-size", "16", "--seed", "4",
        ])
        assert code == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1]
    _report("C10 training-determinism", ok,
            f"two runs, {len(blobs[0])} bytes each, byte-identical: {ok}")


def _rarest_label_decisions(default_splits, seeds):
    """(rarest, decisions, truth): the label with the lowest training
    frequency, its threshold-at-zero test decisions, one row per seed s,
    each seed trained (init seed s + 1, base loss, B 16, 60 epochs, the
    default patience) as a member of one lockstep population, and its test
    positives."""
    meta, dims, train_s, val_s, test_s = default_splits
    configs = [TrainConfig(loss="base", batch_size=16, max_epochs=60, seed=s) for s in seeds]
    rarest = int(np.argmin(stack_samples(train_s)[2].mean(axis=0)))
    obs, ctx, labels, _ = stack_samples(test_s)
    models = [init_model(make_rng(s + 1), dims) for s in seeds]
    runs = training.train_population(models, train_s, val_s, configs)
    embedding = predict(stack_models([best for best, _ in runs]), obs, ctx).embedding
    return rarest, embedding[..., rarest] > 0.0, labels[:, rarest] == 1


# The seeds and the bound were fixed before the first run. That run tied on
# seed 4 (3 of the rarest label's 19 test positives found either way; that
# member stopped on patience at epoch 37) and was higher on the other four:
# recall 0.421, 0.263, 0.526, 0.158, 0.579 against 0.263, 0.053, 0.105,
# 0.158, 0.316. The per-seed claim stays as stated and is expected to fail
# until a criterion fixed in advance settles it; strict, so a pass shows.
@pytest.mark.xfail(strict=True, reason="tie on seed 4: recall 0.158 both ways")
def test_c11_class_weights_lift_the_rarest_label(default_splits, monkeypatch):
    """The -log(p) class weights, the paper's cost function for imbalanced
    labels, raise the rarest label's test recall under threshold-at-zero
    decisions, on each of seeds 1-5, against the same runs with every
    weight 1. Each side trains its five seeds as one lockstep population."""
    seeds = (1, 2, 3, 4, 5)
    rarest, decisions, truth = _rarest_label_decisions(default_splits, seeds)
    weighted = np.count_nonzero(decisions & truth, axis=-1) / truth.sum()
    monkeypatch.setattr(training, "class_weights", lambda t: np.ones(t.shape[1]))
    decisions = _rarest_label_decisions(default_splits, seeds)[1]
    unweighted = np.count_nonzero(decisions & truth, axis=-1) / truth.sum()
    ok = bool(np.all(weighted > unweighted))
    _report("C11 class-weights-lift-rare-labels", ok,
            f"label {rarest} test recall weighted {np.round(weighted, 3).tolist()} > "
            f"unweighted {np.round(unweighted, 3).tolist()} on each seed")


# Fixed in ROADMAP.md before its first run, with its seeds, data and
# statistic: pooled over ten seeds, so one tied seed cannot decide it. Its
# first run passed: 80 of 190 positives weighted against 40 of 190.
def test_c11_pooled_rarest_recall(default_splits, monkeypatch):
    """The -log(p) class weights find more of the rarest label's test
    positives, under threshold-at-zero decisions summed over seeds 6-15,
    than the same runs with every weight 1. Both sides share the
    denominator, so this is pooled recall; the report line also shows the
    per-seed recalls and the pooled precision and F1 of both sides."""
    seeds = range(6, 16)
    rarest, weighted, truth = _rarest_label_decisions(default_splits, seeds)
    monkeypatch.setattr(training, "class_weights", lambda t: np.ones(t.shape[1]))
    unweighted = _rarest_label_decisions(default_splits, seeds)[1]
    detail, tp = [], {}
    for side, decisions in (("weighted", weighted), ("unweighted", unweighted)):
        hits = np.count_nonzero(decisions & truth, axis=-1)
        tp[side], called = int(hits.sum()), np.count_nonzero(decisions)
        detail.append(
            f"{side} {tp[side]} of {truth.sum() * len(seeds)} (recall by seed "
            f"{np.round(hits / truth.sum(), 3).tolist()}, pooled precision "
            f"{tp[side] / max(called, 1):.3f}, F1 "
            f"{2 * tp[side] / (called + truth.sum() * len(seeds)):.3f})")
    _report("C11 pooled rarest-label recall", tp["weighted"] > tp["unweighted"],
            f"label {rarest} true positives: " + "; ".join(detail))
