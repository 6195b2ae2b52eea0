"""Command-line workflow: generate, convert, train, search, evaluate.

Every command is deterministic given its flags: all randomness flows from
one --seed, with sub-seeds derived as documented in training (split shuffle
= seed, model init = seed + 1, batch shuffle = seed + 2, classifier fits =
seed + 3, grid point k = seed + k). Outputs contain no timestamps, so
identical invocations produce byte-identical files.

A flag that sets a library parameter or config field is named like it and
has no default of its own: left unset, the library's default holds
(SynthConfig, TrainConfig, the converters, grad_check).

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 verification failure (gradcheck).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import replace

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
    write_json_lines,
)
from .losses import LOSS_KINDS
from .metrics import format_report, segment_report, stepwise_report
from .model import init_model, load_model, predict, save_model
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


_KIND_FLAG = {"svm": "svm", "threshold": "threshold_zero", "nearest-mean": "nearest_mean"}


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


def _given(args, call) -> dict:
    """The flags of `args` whose dests name parameters or fields of `call`,
    as its keyword arguments, leaving out the unset ones (None) so that the
    library's default holds: every such flag has no argparse default."""
    names = inspect.signature(call).parameters
    return {key: value for key, value in vars(args).items()
            if key in names and value is not None}


def _split_flags(p):
    p.add_argument("--n-train", type=int, default=500, help="training split size")
    p.add_argument("--n-val", type=int, default=100, help="validation split size")
    p.add_argument("--n-test", type=int, default=400, help="test split size")
    p.add_argument("--seed", type=int, default=0, help="root of every sub-seed")


def _train_flags(p):
    # each dest is the TrainConfig field it sets
    p.add_argument("--loss", choices=LOSS_KINDS)
    p.add_argument("--eta", type=float, help="learning rate")
    p.add_argument("--lambda", dest="lam", type=float, help="l2 regularization coefficient")
    p.add_argument("--beta", type=float, help="pair-loss mixing weight")
    for flag in ("--batch-size", "--max-epochs", "--patience"):
        p.add_argument(flag, type=int)
    p.add_argument("--clip-norm", type=float, help="bound on the global gradient norm, > 0")
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    _split_flags(p)


def _convert_flags(p, convert):
    # each dest but --out's is the name of a parameter of `convert`
    p.add_argument("--out", required=True)
    p.add_argument("--n-samples", type=int, required=True)
    for flag in ("--tau", "--horizon", "--seed"):
        p.add_argument(flag, type=int)
    p.add_argument("--no-overlap", dest="allow_overlap", action="store_false", default=None,
                   help="sample non-overlapping windows only")
    p.set_defaults(func=cmd_convert, convert=convert)


def _score_flags(p, func):
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output path (evaluate: report path prefix)")
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    _split_flags(p)
    p.set_defaults(func=func)


def build_parser() -> _Parser:
    parser = _Parser(prog="faultcast", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=1000)
    # the other dests are the SynthConfig fields they set
    for flag in ("--seed", "--tau", "--total-steps", "--d-obs", "--d-ctx"):
        p.add_argument(flag, type=int)
    p.add_argument("--labels", dest="n_labels", type=int)
    p.add_argument("--lag", type=float)
    p.add_argument("--noise", dest="noise_scale", type=float)
    p.add_argument("--thresholds", type=_values(float), help="comma-separated, one per label")
    p.add_argument("--rarity", type=_values(float), help="comma-separated, one per label")
    p.add_argument("--persistence", type=_values(int, count=2), help="lo,hi step range")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("convert-phm", help="convert plant signals + fault log")
    p.add_argument("--signals", dest="signals_path", required=True)
    p.add_argument("--faults", dest="faults_path", required=True)
    p.add_argument("--n-labels", type=int)
    p.add_argument("--obs-prefix", dest="obs_prefixes", action="append",
                   help="column-name prefix of observation columns (repeatable)")
    p.add_argument("--ctx-prefix", dest="ctx_prefixes", action="append",
                   help="column-name prefix of context columns (repeatable)")
    _convert_flags(p, convert_plant_csv)

    p = sub.add_parser("convert-har", help="convert activity recordings")
    p.add_argument("--data", dest="paths", action="append", required=True,
                   help="recording file (repeatable)")
    p.add_argument("--obs-cols", type=_values(int, ":", 2), required=True,
                   help="inclusive 0-based range lo:hi")
    for flag in ("--ctx-col", "--motion-col", "--object-col"):
        p.add_argument(flag, type=int, required=True)
    for flag in ("--ctx-codes", "--motion-codes", "--object-codes"):
        p.add_argument(flag, type=_values(int), help="comma-separated code list")
    _convert_flags(p, convert_activity_dat)

    p = sub.add_parser("train", help="train one model and fit its classifiers")
    p.add_argument("--data", required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-history")
    _train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gridsearch", help="hyperparameter grid search")
    p.add_argument("--data", required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-report", required=True)
    p.add_argument("--grid-file", help="JSON list of {eta, lambda, beta} points")
    _train_flags(p)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("evaluate", help="score a trained model on one split")
    _score_flags(p, cmd_evaluate)
    p.add_argument("--classifier", choices=(*_KIND_FLAG, "all"), default="all")
    p.add_argument("--localize", action="store_true",
                   help="also score stepwise decisions against the broadcast baseline")

    p = sub.add_parser("predict", help="emit per-sample predictions")
    _score_flags(p, cmd_predict)
    p.add_argument("--classifier", choices=tuple(_KIND_FLAG), default="svm")

    p = sub.add_parser("localize", help="emit per-step label decisions")
    _score_flags(p, cmd_localize)

    p = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    p.add_argument("--loss", choices=(*LOSS_KINDS, "all"), default="all")
    p.add_argument("--fd-step", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("compare", help="difference of two evaluation reports")
    p.add_argument("--report", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_compare)

    return parser


def cmd_generate(args) -> int:
    cfg = SynthConfig(**_given(args, SynthConfig))
    meta, samples = synth_generate(cfg, args.n)
    save_dataset(args.out, meta, samples)
    print(f"wrote {len(samples)} samples to {args.out}")
    if samples:
        counts = class_stats(samples)
        print(f"{'label':<12}{'count':>8}{'frequency':>12}")
        for name, count in zip(meta.label_names, counts):
            print(f"{name:<12}{count:>8}{count / len(samples):>12.4f}")
    return 0


def cmd_convert(args) -> int:
    meta, samples = args.convert(**_given(args, args.convert))
    save_dataset(args.out, meta, samples)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def _splits(args, samples):
    """The seeded (train, val, test) split of samples that args asks for."""
    return split_samples(samples, (args.n_train, args.n_val, args.n_test), args.seed)


def _load_splits(args):
    meta, samples = load_dataset(args.data)
    return meta, _splits(args, samples)


def _fit_all_classifiers(model, train_split, seed):
    obs, ctx, labels, steps = stack_samples(train_split)
    pred = predict(model, obs, ctx)
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
    config = TrainConfig(**_given(args, TrainConfig))
    model = init_model(make_rng(args.seed + 1), meta.dims)
    best, history = train(model, train_split, val_split, config)
    classifiers = _fit_all_classifiers(best, train_split, args.seed + 3)
    save_model(best, args.out_model, classifiers)
    if args.out_history is not None:
        write_history(history, args.out_history)
    diverged = bool(history) and history[-1].stopped == "diverged"
    returnable = history[:-1] if diverged else history  # a diverged epoch is never the best
    print(
        f"trained {config.loss} for {len(history)} epochs; "
        f"best validation micro+macro F1 = "
        f"{max((r.val_micro_f1 + r.val_macro_f1 for r in returnable), default=float('nan')):.4f}"
    )
    if diverged:
        print(f"warning: run diverged in epoch {history[-1].epoch}; the saved model predates it",
              file=sys.stderr)
    print(f"model written to {args.out_model}")
    return 0


_GRID_KEYS = {"eta": "eta", "lambda": "lam", "beta": "beta"}  # grid-file key: its field


def _read_grid_file(path, base: TrainConfig):
    """Grid points from a JSON list of objects that hold only the keys
    "eta", "lambda" and "beta"; a missing key keeps the base config's value."""
    points = read_json(path).read(list)
    if not points:
        raise DatasetError(f"{path}: grid file must be a non-empty JSON list")
    grid = []
    for rec in points:
        for key in rec.read(dict).value:
            if key not in _GRID_KEYS:
                raise JsonField(None, rec.where, f"{rec.key}.{key}").error(
                    "unknown grid key; a point holds only eta, lambda and beta")
        grid.append(replace(base, **{field: rec.get(key, float, getattr(base, field))
                                     for key, field in _GRID_KEYS.items()}))
    return grid


def cmd_gridsearch(args) -> int:
    meta, (train_split, val_split, _) = _load_splits(args)
    base = TrainConfig(**_given(args, TrainConfig))
    if args.grid_file is not None:
        grid = _read_grid_file(args.grid_file, base)
    else:
        grid = default_grid(base.loss, base)
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


def _select_split(args, samples):
    if args.split == "all":
        return samples
    return _splits(args, samples)[("train", "val", "test").index(args.split)]


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
    pred = predict(model, obs, ctx)
    return meta, classifiers, pred, labels.astype(int), steps.astype(int)


def _write_records(path, **columns):
    """Write row i of every column array as JSON line i (write_json_lines);
    returns the number of lines."""
    rows = zip(*(arr.tolist() for arr in columns.values()))
    return write_json_lines(path, (dict(zip(columns, row)) for row in rows))


def _write_report(out, doc, lines, what) -> None:
    """Write `doc` to <out>.json (sorted keys, indent 1) and the text
    `lines` to <out>.txt, and say so in one stdout line."""
    with open(f"{out}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(f"{out}.txt", "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)
    print(f"{what} written to {out}.txt and {out}.json")


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

    _write_report(args.out, doc, lines, "reports")
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
        err, worst = grad_check(model, samples, config, **_given(args, grad_check))
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
    lines = [f"{'metric':<44}{'report':>10}{'baseline':>10}{'diff':>10}"]
    lines += [f"{key:<44}{report[key]:>10.4f}{baseline[key]:>10.4f}{diff[key]:>10.4f}"
              for key in shared]
    _write_report(args.out, diff, lines, "comparison")
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
