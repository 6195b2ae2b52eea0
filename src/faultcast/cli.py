"""Command-line workflow: generate, convert, train, search, evaluate.

Every command is deterministic given its flags: all randomness flows from
one --seed, with sub-seeds derived as documented in training (split shuffle
= seed, model init = seed + 1, batch shuffle = seed + 2, classifier fits =
seed + 3, grid point k = seed + k). Outputs contain no timestamps, so
identical invocations produce byte-identical files.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 verification failure (gradcheck).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .adapters import convert_activity_dat, convert_plant_csv
from .classifiers import (
    KINDS,
    classifier_from_dict,
    classifier_to_dict,
    classify,
    fit_classifier,
    fit_svm_blocks,
    broadcast_baseline,
)
from .data import (
    DatasetError,
    JsonField,
    ModelDims,
    SynthConfig,
    class_stats,
    load_dataset,
    read_json,
    save_dataset,
    split_samples,
    stack_samples,
    synth_generate,
)
from .metrics import format_report, segment_report, stepwise_report
from .model import forward, init_model, load_model, save_model
from .num import make_rng
from .training import (
    TrainConfig,
    default_grid,
    grad_check,
    grid_search,
    train,
    write_grid_report,
    write_history,
)

GRADCHECK_TOLERANCE = 1e-4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _values(kind, sep=",", count=None):
    """An argparse type: sep-separated `kind` values as a tuple, exactly
    `count` of them when given; anything else is a usage error."""
    def parse(text):
        try:
            values = tuple(kind(v) for v in text.split(sep))
        except ValueError:
            values = None
        if values is None or count not in (None, len(values)):
            want = f"{count or 'one or more'} {sep!r}-separated {kind.__name__} values"
            raise argparse.ArgumentTypeError(f"need {want}, got {text!r}")
        return values
    return parse


def _split_flags(p):
    p.add_argument("--n-train", type=int, default=500, help="training split size")
    p.add_argument("--n-val", type=int, default=100, help="validation split size")
    p.add_argument("--n-test", type=int, default=400, help="test split size")
    p.add_argument("--seed", type=int, default=0)


def _train_flags(p):
    p.add_argument("--loss", choices=("base", "localize", "siamese"), default="base")
    p.add_argument("--eta", type=float, default=0.01, help="learning rate")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="l2 regularization coefficient")
    p.add_argument("--beta", type=float, default=0.5, help="pair-loss mixing weight")
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--max-epochs", type=int, default=200)
    p.add_argument("--patience", type=int, default=25)
    p.add_argument("--clip-norm", type=float, default=None,
                   help="bound on the global gradient norm, > 0")
    p.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")


def build_parser() -> _Parser:
    parser = _Parser(prog="faultcast", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", type=int, default=None)
    p.add_argument("--total-steps", type=int, default=None)
    p.add_argument("--labels", dest="n_labels", type=int, default=None)
    p.add_argument("--d-obs", type=int, default=None)
    p.add_argument("--d-ctx", type=int, default=None)
    p.add_argument("--lag", type=float, default=None)
    p.add_argument("--noise", dest="noise_scale", type=float, default=None)
    p.add_argument("--thresholds", type=_values(float), help="comma-separated, one per label")
    p.add_argument("--rarity", type=_values(float), help="comma-separated, one per label")
    p.add_argument("--persistence", type=_values(int, count=2), help="lo,hi step range")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("convert-phm", help="convert plant signals + fault log")
    p.add_argument("--signals", required=True)
    p.add_argument("--faults", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-samples", type=int, required=True)
    p.add_argument("--tau", type=int, default=30)
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--n-labels", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-overlap", action="store_true",
                   help="sample non-overlapping windows only")
    p.add_argument("--obs-prefix", action="append", default=None,
                   help="column-name prefix of observation columns (repeatable)")
    p.add_argument("--ctx-prefix", action="append", default=None,
                   help="column-name prefix of context columns (repeatable)")
    p.set_defaults(func=cmd_convert_phm)

    p = sub.add_parser("convert-har", help="convert activity recordings")
    p.add_argument("--data", action="append", required=True,
                   help="recording file (repeatable)")
    p.add_argument("--out", required=True)
    p.add_argument("--n-samples", type=int, required=True)
    p.add_argument("--obs-cols", type=_values(int, ":", 2), required=True,
                   help="inclusive 0-based range lo:hi")
    p.add_argument("--ctx-col", type=int, required=True)
    p.add_argument("--motion-col", type=int, required=True)
    p.add_argument("--object-col", type=int, required=True)
    p.add_argument("--tau", type=int, default=75)
    p.add_argument("--horizon", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-overlap", action="store_true")
    p.add_argument("--ctx-codes", type=_values(int), help="comma-separated code list")
    p.add_argument("--motion-codes", type=_values(int))
    p.add_argument("--object-codes", type=_values(int))
    p.set_defaults(func=cmd_convert_har)

    p = sub.add_parser("train", help="train one model and fit its classifiers")
    p.add_argument("--data", required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-history", default=None)
    _train_flags(p)
    _split_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gridsearch", help="hyperparameter grid search")
    p.add_argument("--data", required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-report", required=True)
    p.add_argument("--grid-file", default=None,
                   help="JSON list of {eta, lambda, beta} points")
    _train_flags(p)
    _split_flags(p)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("evaluate", help="score a trained model on one split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="report path prefix")
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    p.add_argument("--classifier",
                   choices=("svm", "threshold", "nearest-mean", "all"), default="all")
    p.add_argument("--localize", action="store_true",
                   help="also score stepwise decisions against the broadcast baseline")
    _split_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="emit per-sample predictions")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    p.add_argument("--classifier",
                   choices=("svm", "threshold", "nearest-mean"), default="svm")
    _split_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("localize", help="emit per-step label decisions")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    _split_flags(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    p.add_argument("--loss", choices=("base", "localize", "siamese", "all"),
                   default="all")
    p.add_argument("--fd-step", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("compare", help="difference of two evaluation reports")
    p.add_argument("--report", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_compare)

    return parser


def cmd_generate(args) -> int:
    cfg = SynthConfig(seed=args.seed)
    # each flag's dest is the SynthConfig field it overrides
    fields = ("tau", "total_steps", "n_labels", "d_obs", "d_ctx", "lag", "noise_scale",
              "thresholds", "rarity", "persistence")
    overrides = {f: getattr(args, f) for f in fields if getattr(args, f) is not None}
    if "n_labels" in overrides:
        n = overrides["n_labels"]
        overrides.setdefault("thresholds", (cfg.thresholds[0],) * n)
        overrides.setdefault("rarity", tuple(np.linspace(1.2, 6.6, n)))
    cfg = replace(cfg, **overrides)
    meta, samples = synth_generate(cfg, args.n)
    save_dataset(args.out, meta, samples)
    print(f"wrote {len(samples)} samples to {args.out}")
    if samples:
        counts = class_stats(samples)
        print(f"{'label':<12}{'count':>8}{'frequency':>12}")
        for name, count in zip(meta.label_names, counts):
            print(f"{name:<12}{count:>8}{count / len(samples):>12.4f}")
    return 0


def cmd_convert_phm(args) -> int:
    meta, samples = convert_plant_csv(
        args.signals,
        args.faults,
        n_samples=args.n_samples,
        tau=args.tau,
        horizon=args.horizon,
        n_labels=args.n_labels,
        seed=args.seed,
        allow_overlap=not args.no_overlap,
        obs_prefixes=tuple(args.obs_prefix) if args.obs_prefix else ("S", "E"),
        ctx_prefixes=tuple(args.ctx_prefix) if args.ctx_prefix else ("R",),
    )
    save_dataset(args.out, meta, samples)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_convert_har(args) -> int:
    meta, samples = convert_activity_dat(
        args.data,
        n_samples=args.n_samples,
        obs_cols=args.obs_cols,
        ctx_col=args.ctx_col,
        motion_col=args.motion_col,
        object_col=args.object_col,
        tau=args.tau,
        horizon=args.horizon,
        seed=args.seed,
        allow_overlap=not args.no_overlap,
        ctx_codes=args.ctx_codes,
        motion_codes=args.motion_codes,
        object_codes=args.object_codes,
    )
    save_dataset(args.out, meta, samples)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def _load_splits(args):
    meta, samples = load_dataset(args.data)
    return meta, split_samples(samples, (args.n_train, args.n_val, args.n_test), args.seed)


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        loss=args.loss,
        eta=args.eta,
        lam=args.lam,
        beta=args.beta,
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=args.seed,
        clip_norm=args.clip_norm,
        optimizer=args.optimizer,
    )


def _fit_all_classifiers(model, train_split, seed):
    obs, ctx, labels, steps = stack_samples(train_split)
    pred = forward(model, obs, ctx, keep_tape=False)[0]
    n_labels = labels.shape[1]
    # the segment and stepwise svms share one Pegasos loop
    segment_svm, stepwise = fit_svm_blocks(
        [(pred.embedding, labels),
         (pred.step_scores.reshape(-1, n_labels), steps.reshape(-1, n_labels))],
        seed=seed,
    )
    segment = {"svm": segment_svm}
    for kind in ("threshold_zero", "nearest_mean"):
        segment[kind] = fit_classifier(kind, pred.embedding, labels, seed=seed)
    return {
        "segment": {kind: classifier_to_dict(clf) for kind, clf in segment.items()},
        "stepwise": classifier_to_dict(stepwise),
    }


def cmd_train(args) -> int:
    meta, (train_split, val_split, _) = _load_splits(args)
    config = _train_config(args)
    model = init_model(make_rng(args.seed + 1), meta.dims)
    best, history = train(model, train_split, val_split, config)
    classifiers = _fit_all_classifiers(best, train_split, args.seed + 3)
    save_model(best, args.out_model, classifiers)
    if args.out_history is not None:
        write_history(history, args.out_history)
    last = history[-1] if history else None
    print(
        f"trained {config.loss} for {len(history)} epochs; "
        f"best validation micro+macro F1 = "
        f"{max((r.val_micro_f1 + r.val_macro_f1 for r in history), default=float('nan')):.4f}"
    )
    if last is not None and not np.isfinite(last.loss.total):
        print("warning: final epoch loss was not finite (run diverged)", file=sys.stderr)
    print(f"model written to {args.out_model}")
    return 0


def _read_grid_file(path, base: TrainConfig):
    """Grid points from a JSON list of {"eta", "lambda" (or "lam"), "beta"}
    objects; a missing key keeps the base config's value."""
    points = read_json(path).read(list)
    if not points:
        raise DatasetError(f"{path}: grid file must be a non-empty JSON list")
    return [replace(base, eta=rec.get("eta", float, base.eta),
                    lam=rec.get("lambda", float, rec.get("lam", float, base.lam)),
                    beta=rec.get("beta", float, base.beta))
            for rec in points]


def cmd_gridsearch(args) -> int:
    meta, (train_split, val_split, _) = _load_splits(args)
    base = _train_config(args)
    if args.grid_file is not None:
        grid = _read_grid_file(args.grid_file, base)
    else:
        grid = default_grid(args.loss, base)
    best_cfg, best_model, results = grid_search(
        grid, meta.dims, train_split, val_split, base_seed=args.seed
    )
    classifiers = _fit_all_classifiers(best_model, train_split, args.seed + 3)
    save_model(best_model, args.out_model, classifiers)
    write_grid_report(results, args.out_report)
    print(f"searched {len(grid)} grid points")
    print(
        f"selected eta={best_cfg.eta} lambda={best_cfg.lam} beta={best_cfg.beta}; "
        f"report written to {args.out_report}"
    )
    return 0


_KIND_FLAG = {"svm": "svm", "threshold": "threshold_zero", "nearest-mean": "nearest_mean"}


def _select_split(args, samples):
    if args.split == "all":
        return samples
    parts = dict(
        zip(("train", "val", "test"),
            split_samples(samples, (args.n_train, args.n_val, args.n_test), args.seed))
    )
    return parts[args.split]


def _load_model_with_classifiers(path):
    """The model and its classifiers, {"segment": {kind: clf}, "stepwise":
    clf}, every record checked against the model's n_labels."""
    model, records = load_model(path)
    if not records:
        raise DatasetError(f"{path} has no classifier records; train it with the train command")
    records = JsonField(records, str(path), "classifiers")

    def read(key):
        return classifier_from_dict(records.field(key), model.dims.n_labels)

    return model, {"segment": {kind: read(f"segment.{kind}") for kind in KINDS},
                   "stepwise": read("stepwise")}


def _score_split(args):
    """Load args.model and args.data, check that they agree, and score the
    selected split in one untaped batched forward.

    Returns (meta, classifiers, pred, labels, steps), with the split's
    stacked segment and stepwise labels as ints; pred, labels and steps are
    None when the split is empty.
    """
    model, classifiers = _load_model_with_classifiers(args.model)
    meta, samples = load_dataset(args.data)
    if meta.dims != model.dims:
        raise DatasetError(f"{args.data} has {meta.dims} but model {args.model} has {model.dims}")
    part = _select_split(args, samples)
    if not part:
        return meta, classifiers, None, None, None
    obs, ctx, labels, steps = stack_samples(part)
    pred = forward(model, obs, ctx, keep_tape=False)[0]
    return meta, classifiers, pred, labels.astype(int), steps.astype(int)


def _write_records(path, **columns):
    """Write row i of every column array as line i, one compact JSON object
    with sorted keys; returns the number of lines."""
    lines = [
        json.dumps(dict(zip(columns, row)), sort_keys=True, separators=(",", ":")) + "\n"
        for row in zip(*(arr.tolist() for arr in columns.values()))
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return len(lines)


def cmd_evaluate(args) -> int:
    meta, classifiers, pred, truth, step_truth = _score_split(args)
    if pred is None:
        raise DatasetError(f"split {args.split!r} is empty")
    n_samples = len(truth)

    kinds = (
        list(_KIND_FLAG.values())
        if args.classifier == "all"
        else [_KIND_FLAG[args.classifier]]
    )
    doc = {"split": args.split, "n_samples": n_samples, "segment": {}}
    lines = [f"split: {args.split}", f"n_samples: {n_samples}"]
    for kind in kinds:
        clf = classifiers["segment"][kind]
        report = segment_report(classify(clf, pred.embedding), truth)
        doc["segment"][kind] = report.as_dict()
        lines.append(f"[segment {kind}]")
        lines.append(format_report(report).rstrip())

    if args.localize:
        step_clf = classifiers["stepwise"]
        seg_clf = classifiers["segment"][kinds[0]]
        localized = classify(step_clf, pred.step_scores)
        broadcast = broadcast_baseline(classify(seg_clf, pred.embedding), meta.horizon)
        reports = {"localized": stepwise_report(localized, step_truth),
                   "broadcast": stepwise_report(broadcast, step_truth)}
        doc["stepwise"] = {name: report.as_dict() for name, report in reports.items()}
        for name, report in reports.items():
            lines.append(f"[stepwise {name}]")
            lines.append(format_report(report).rstrip())

    with open(f"{args.out}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(f"{args.out}.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"reports written to {args.out}.txt and {args.out}.json")
    return 0


def cmd_predict(args) -> int:
    _, classifiers, pred, _, _ = _score_split(args)
    clf = classifiers["segment"][_KIND_FLAG[args.classifier]]
    columns = {} if pred is None else {
        "embedding": pred.embedding,
        "probs": pred.label_probs,
        "decision": classify(clf, pred.embedding),
    }
    n = _write_records(args.out, **columns)
    print(f"wrote {n} predictions to {args.out}")
    return 0


def cmd_localize(args) -> int:
    _, classifiers, pred, _, _ = _score_split(args)
    step_clf = classifiers["stepwise"]
    columns = {} if pred is None else {
        "step_scores": pred.step_scores,
        "step_decisions": classify(step_clf, pred.step_scores),
    }
    n = _write_records(args.out, **columns)
    print(f"wrote {n} localizations to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    kinds = ("base", "localize", "siamese") if args.loss == "all" else (args.loss,)
    dims = ModelDims(n_labels=2, d_obs=2, d_ctx=1, tau=3, total_steps=5)
    rng = make_rng(args.seed)
    cfg = SynthConfig(
        tau=dims.tau, total_steps=dims.total_steps, n_labels=dims.n_labels,
        d_obs=dims.d_obs, d_ctx=dims.d_ctx,
        thresholds=(0.5, 0.5), rarity=(1.0, 2.0), seed=args.seed,
    )
    _, samples = synth_generate(cfg, 2)
    ok = True
    for kind in kinds:
        model = init_model(rng, dims)
        config = TrainConfig(loss=kind, lam=0.1, beta=0.4, batch_size=2, seed=args.seed)
        err, worst = grad_check(model, samples, config, fd_step=args.fd_step)
        passed = err < GRADCHECK_TOLERANCE
        ok = ok and passed
        print(
            f"{kind}: max relative error {err:.3e} at {worst} "
            f"[{'pass' if passed else 'FAIL'}]"
        )
    return 0 if ok else 3


def _flatten(doc, prefix=""):
    out = {}
    for key, value in doc.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            out.update(_flatten(value, path))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[path] = float(value)
    return out


def cmd_compare(args) -> int:
    flat = []
    for path in (args.report, args.baseline):
        doc = read_json(path).value
        if not isinstance(doc, dict):
            raise DatasetError(f"{path}: a report must be a JSON object")
        flat.append(_flatten(doc))
    report, baseline = flat
    shared = sorted(set(report) & set(baseline))
    if not shared:
        raise DatasetError("the two reports share no numeric fields")
    diff = {key: report[key] - baseline[key] for key in shared}
    with open(f"{args.out}.json", "w", encoding="utf-8") as fh:
        json.dump(diff, fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(f"{args.out}.txt", "w", encoding="utf-8") as fh:
        fh.write(f"{'metric':<44}{'report':>10}{'baseline':>10}{'diff':>10}\n")
        for key in shared:
            fh.write(
                f"{key:<44}{report[key]:>10.4f}{baseline[key]:>10.4f}{diff[key]:>10.4f}\n"
            )
    print(f"comparison written to {args.out}.txt and {args.out}.json")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (DatasetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
