"""Command-line surface.

Every run echoes its full resolved configuration (defaults and seed
included) before doing work. Exit status is 0 only on complete success;
every handled failure prints a one-line machine-parsable cause to stderr.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Optional

import numpy as np

from . import formats
from .errors import AmfpmcError, InvalidConfigError, ParseError
from .graph import HOLDOUT, MODES, RETROSPECTIVE
from .model import Hyperparameters
from .phrases import build_vocabulary, check_grouping, extract_phrase, load_stoplist, load_verb_forms
from .pipeline import (
    DEFAULT_TEST_PAIR_CAP,
    GRID_FIELDS,
    MAX_GRID_CANDIDATES,
    OBJECTIVES,
    attach_targets,
    grid_search,
    holdout_evaluate,
    reconcile_rosters,
    retrospective_evaluate,
    retrospective_split,
    scored_chunks,
    train,
)
from .synth import SyntheticConfig, generate_synthetic


#: (flag, Hyperparameters field, help) of every hyperparameter flag, in --help order
_HP_FLAGS = (
    ("dim", "embedding_dim", "embedding size"),
    ("dropout", "dropout", None),
    ("epochs", "epochs", None),
    ("batch", "batch_size", "mini-batch size"),
    ("lr", "learning_rate", "learning rate"),
    ("alpha", "alpha", "propagation factor in [0, 1]"),
    ("seed", "seed", "single seed driving all randomness"),
)
#: the same for synth's SyntheticConfig flags before --mode and --seed
_SYNTH_FLAGS = (
    ("n", "n_drugs", "drug count"),
    ("blocks", "n_blocks", None),
    ("k", "n_classes", "class count"),
    ("p", "edge_probability", "edge probability"),
    ("noise", "label_noise", "wrong-label fraction"),
    ("holdout", "holdout_fraction", "held-out edge fraction"),
)


def _print_config(args: argparse.Namespace) -> None:
    print("# amfpmc", args.command, *([args.eval_kind] if args.command == "evaluate" else []))
    for key in sorted(vars(args).keys() - {"func", "command", "eval_kind"}):
        print(f"# {key} = {getattr(args, key)}")


def _default(fn, name: str):
    """The default of fn's parameter name, so a flag and the library share one value."""
    return inspect.signature(fn).parameters[name].default


def _add_field_flags(p: argparse.ArgumentParser, defaults, rows) -> None:
    """One flag per (flag, field, help) row, typed and defaulted by the field's default."""
    for flag, field, help_text in rows:
        default = getattr(defaults, field)
        p.add_argument(f"--{flag}", type=type(default), default=default, help=help_text)


def _fields(args: argparse.Namespace, rows) -> dict:
    return {field: getattr(args, flag) for flag, field, _ in rows}


def _add_hp_flags(p: argparse.ArgumentParser) -> None:
    _add_field_flags(p, Hyperparameters(), _HP_FLAGS)
    p.add_argument("--no-balance", action="store_true", help="disable class weight balancing")


def _hp_from_args(args: argparse.Namespace) -> Hyperparameters:
    return Hyperparameters(**_fields(args, _HP_FLAGS), balance_classes=not args.no_balance)


def _grid_point_text(hp: Hyperparameters) -> str:
    """The searchable hyperparameters of one grid point, as gridsearch prints them."""
    return " ".join(f"{flag}={getattr(hp, field)}" for flag, field, _ in _HP_FLAGS
                    if field in GRID_FIELDS)


def _add_graph_flags(p: argparse.ArgumentParser, files=("--interactions",), mode=True) -> None:
    """The index-mode interactions files, the mode unless the harness fixes it, and --classes."""
    for flag in files:
        p.add_argument(flag, required=True)
    if mode:
        p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--classes", type=int, default=None, help="class count (default: max index + 1)")


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vocab", default=None, help="vocabulary file for per-class names")
    p.add_argument("--report", default=None, help="write the text report here")
    p.add_argument("--json", default=None, help="write the structured report here")


def _class_names_from_vocab(path: Optional[str], graph) -> Optional[dict[int, str]]:
    """The class labels of the vocabulary file at path, refused unless it names every class
    of graph in graph's mode."""
    if path is None:
        return None
    vocab = formats.read_vocabulary(path)
    if vocab.mode != graph.mode or vocab.n_classes < graph.n_classes:
        raise InvalidConfigError(
            f"{path}: a {vocab.mode} vocabulary of class count {vocab.n_classes} cannot name "
            f"the classes 0..{graph.n_classes - 1} of a {graph.mode} run")
    return dict(enumerate(vocab.labels))


def _read_graphs(paths, mode: str, n_classes: Optional[int]):
    """The graphs of index-mode interactions files, with one class count: n_classes, or else
    the largest over the files. The parsed rows are dropped on return."""
    records = [formats.parse_interactions_file(path, "indices") for path in paths]
    if n_classes is None:
        n_classes = max(formats.class_count(rec) for rec in records)
    return [formats.graph_from_index_records(rec, mode, n_classes) for rec in records]


def _training_rows(graph, seed: int) -> np.ndarray:
    """The (i, j, label) rows train and gridsearch fit: the graph's edges, and in retrospective
    mode the sampled no-interaction pairs evaluate retrospective adds to them, drawn the same way
    (every unlabeled pair when there are fewer than the edges)."""
    if graph.mode == HOLDOUT:
        return graph.edge_list()
    return retrospective_split(graph, graph, seed=seed, test_pair_cap=1).train_items


def _emit_report(report, args, class_names=None) -> None:
    sys.stdout.write(formats.format_report_text(report, class_names))
    if args.report:
        formats.write_report(report, args.report, "text", class_names)
    if args.json:
        formats.write_report(report, args.json, "structured")


# -- subcommands ---------------------------------------------------------------


def cmd_extract(args) -> int:
    check_grouping(args.mode, args.top_n, args.min_count)
    stoplist = load_stoplist(args.stoplist)
    verb_forms = load_verb_forms(args.verb_table)
    rows = formats.parse_interactions_file(args.input, "sentences")

    phrases = []
    for _, _, sentence, line_no in rows:
        try:
            phrases.append(extract_phrase(sentence, stoplist, verb_forms))
        except AmfpmcError as exc:
            raise ParseError(args.input, line_no, str(exc)) from None

    vocab = build_vocabulary(phrases, args.mode, top_n=args.top_n, min_count=args.min_count)
    formats.write_vocabulary(vocab, args.out_vocab)

    dropped = 0
    with open(args.out_indexed, "w", encoding="utf-8") as fh:
        for (a, b, _, _), phrase in zip(rows, phrases):
            try:
                cls = vocab.encode(phrase)
            except AmfpmcError:
                dropped += 1
                continue
            fh.write(f"{a}\t{b}\t{cls}\n")
    print(f"classes: {vocab.n_classes}  records: {len(rows)}  dropped: {dropped}")
    return 0


def cmd_train(args) -> int:
    hp = _hp_from_args(args)
    [graph] = _read_graphs([args.interactions], args.mode, args.classes)
    rows = _training_rows(graph, args.seed)
    fitted = f"{graph.num_edges} edges"
    if graph.mode == RETROSPECTIVE:
        fitted += f" and {len(rows) - graph.num_edges} sampled no-interaction pairs"
    params = train(attach_targets(rows, graph, hp.alpha), hp, graph.n_drugs, graph.n_classes)
    formats.write_model(params, graph.roster, args.out)
    print(
        f"trained on {fitted}: n={graph.n_drugs} K={graph.n_classes} "
        f"d={hp.embedding_dim} -> {args.out}"
    )
    return 0


def cmd_evaluate_holdout(args) -> int:
    hp = _hp_from_args(args)
    [graph] = _read_graphs([args.interactions], HOLDOUT, args.classes)
    class_names = _class_names_from_vocab(args.vocab, graph)
    result = holdout_evaluate(graph, hp, k=args.k, seed=args.seed)
    for f, rep in enumerate(result.folds):
        print(f"fold {f}: accuracy {rep.accuracy:.4f}")
    _emit_report(result.mean, args, class_names)
    return 0


def cmd_evaluate_retrospective(args) -> int:
    hp = _hp_from_args(args)
    g0, g1 = reconcile_rosters(*_read_graphs([args.t0, args.t1], RETROSPECTIVE, args.classes))
    class_names = _class_names_from_vocab(args.vocab, g0)
    split = retrospective_split(
        g0, g1, negative_ratio=args.negative_ratio, seed=args.seed, test_pair_cap=args.test_cap
    )
    if not len(split.test_items):
        unlabeled = len(split.train_items) - g0.num_edges  # each one a training negative
        raise InvalidConfigError(
            f"no test pair is left: T0 leaves {unlabeled} pairs unlabeled and negative_ratio "
            f"{args.negative_ratio} samples {unlabeled} of them as training negatives"
        )
    subset = None
    if args.subset:
        wanted = formats.load_drug_subset(args.subset)
        subset = {g0.roster.index_of(ext) for ext in wanted if ext in g0.roster}
        print(f"subset: {len(subset)} of {len(wanted)} listed drugs are in both snapshots")
    report = retrospective_evaluate(split, hp, subset=subset)
    # the pairs the report scored: with --subset, fewer than the split's
    scored = sum(r.support for r in report.per_class)
    print(f"train pairs: {len(split.train_items)}  test pairs: {scored}")
    _emit_report(report, args, class_names)
    return 0


def cmd_gridsearch(args) -> int:
    base_hp = _hp_from_args(args)
    [graph] = _read_graphs([args.interactions], args.mode, args.classes)
    grid = formats.parse_grid_file(args.grid)
    best, results = grid_search(
        _training_rows(graph, args.seed),
        graph.n_drugs,
        graph.n_classes,
        args.mode,
        base_hp,
        grid,
        validation_fraction=args.validation_fraction,
        seed=args.seed,
        objective=args.objective,
        allow_large=args.allow_large,
    )
    for hp_c, score in results:
        print(f"{_grid_point_text(hp_c)} {args.objective}={score:.4f}")
    print(f"best: {_grid_point_text(best)}")
    return 0


def cmd_predict(args) -> int:
    if args.top_k < 1:
        raise InvalidConfigError(f"--top-k must be >= 1, got {args.top_k}")
    params, roster = formats.read_model(args.model)
    pairs = formats.read_pairs(args.pairs, roster)
    ids = roster.external_ids
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for start, probs in scored_chunks(params, pairs):
            # ties list the lowest class first
            top = np.argsort(-probs, axis=1, kind="stable")[:, : args.top_k]
            top_probs = np.take_along_axis(probs, top, axis=1)
            rows = pairs[start:start + len(probs)].tolist()
            out.write("".join(
                f"{ids[i]}\t{ids[j]}\t{cls}\t{value:.6f}\n"
                for (i, j), classes, values in zip(rows, top.tolist(), top_probs.tolist())
                for cls, value in zip(classes, values)
            ))
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_export_embeddings(args) -> int:
    params, roster = formats.read_model(args.model)
    with open(args.out, "w", encoding="utf-8") as fh:
        header = ["drug_id"] + [f"e{t}" for t in range(params.embedding_dim)]
        fh.write(",".join(header) + "\n")
        # RFC 4180: an id holding a comma or a quote is quoted, each inner quote doubled
        ids = ['"' + ext.replace('"', '""') + '"' if "," in ext or '"' in ext else ext
               for ext in roster.external_ids]
        formats.write_float_rows(fh, params.embeddings, ",", ids)
    print(f"wrote {len(roster)} x {params.embedding_dim} embeddings to {args.out}")
    return 0


def cmd_synth(args) -> int:
    cfg = SyntheticConfig(**_fields(args, _SYNTH_FLAGS), seed=args.seed, mode=args.mode)
    data = generate_synthetic(cfg)
    formats.write_interactions_file(data.graph_t0, args.out_t0)
    if args.out_t1:
        formats.write_interactions_file(data.graph_t1, args.out_t1)
    if args.out_blocks:
        with open(args.out_blocks, "w", encoding="utf-8") as fh:
            roster = data.graph_t0.roster
            for i, blk in enumerate(data.block_of):
                fh.write(f"{roster.external_id(i)}\t{int(blk)}\n")
    print(
        f"snapshot edges: t0={data.graph_t0.num_edges} t1={data.graph_t1.num_edges} "
        f"held out={len(data.held_out)}"
    )
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amfpmc",
        description="Multi-class drug interaction prediction from the interaction graph alone",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="sentences TSV -> vocabulary + indexed TSV")
    p.add_argument("--input", required=True, help="TSV: drug_a, drug_b, sentence[, surface_a, surface_b]")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--top-n", type=int, default=None, help="common phrase count (retrospective)")
    p.add_argument("--min-count", type=int, default=None, help="phrase support floor (holdout)")
    p.add_argument("--stoplist", default=None, help="override the packaged stop list")
    p.add_argument("--verb-table", default=None, help="override the packaged verb table")
    p.add_argument("--out-vocab", required=True)
    p.add_argument("--out-indexed", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train on an indexed interactions TSV")
    _add_graph_flags(p)
    _add_hp_flags(p)
    p.add_argument("--out", required=True, help="model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="holdout or retrospective evaluation")
    esub = p.add_subparsers(dest="eval_kind", required=True)

    ph = esub.add_parser("holdout", help="stratified k-fold over one snapshot")
    _add_graph_flags(ph, mode=False)
    ph.add_argument("--k", type=int, default=_default(holdout_evaluate, "k"))
    _add_hp_flags(ph)
    _add_report_flags(ph)
    ph.set_defaults(func=cmd_evaluate_holdout)

    pr = esub.add_parser("retrospective", help="train on snapshot T0, test against T1")
    _add_graph_flags(pr, ("--t0", "--t1"), mode=False)
    pr.add_argument("--negative-ratio", type=float,
                    default=_default(retrospective_split, "negative_ratio"))
    pr.add_argument("--test-cap", type=int, default=DEFAULT_TEST_PAIR_CAP)
    pr.add_argument("--subset", default=None, help="restrict test pairs to these drugs")
    _add_hp_flags(pr)
    _add_report_flags(pr)
    pr.set_defaults(func=cmd_evaluate_retrospective)

    p = sub.add_parser("gridsearch", help="grid search on a stratified validation split")
    _add_graph_flags(p)
    p.add_argument("--grid", required=True, help="grid file: '<name> <value> <value> ...' lines")
    p.add_argument("--validation-fraction", type=float,
                   default=_default(grid_search, "validation_fraction"))
    p.add_argument("--objective", choices=OBJECTIVES, default=_default(grid_search, "objective"))
    p.add_argument("--allow-large", action="store_true",
                   help=f"permit grids beyond {MAX_GRID_CANDIDATES} points")
    _add_hp_flags(p)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("predict", help="score drug pairs with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True, help="TSV: drug_a, drug_b")
    p.add_argument("--top-k", type=int, default=1)
    p.add_argument("--out", default=None, help="default: stdout")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("export-embeddings", help="write drug embeddings as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("synth", help="generate a typed block-model graph")
    cfg = SyntheticConfig()
    _add_field_flags(p, cfg, _SYNTH_FLAGS)
    p.add_argument("--mode", choices=MODES, default=cfg.mode)
    p.add_argument("--seed", type=int, default=cfg.seed)
    p.add_argument("--out-t0", required=True)
    p.add_argument("--out-t1", default=None)
    p.add_argument("--out-blocks", default=None)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _print_config(args)
        # A diverging run overflows inside numpy; it is reported once, as a
        # NonFiniteError, not as a stream of warnings.
        with np.errstate(all="ignore"):
            return args.func(args)
    except AmfpmcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: IoError: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's allocation error is a subclass; it is named as MemoryError
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
