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
from .errors import AmfpmcError, InvalidConfigError, NonFiniteError, ParseError, ShapeMismatchError
from .graph import HOLDOUT, MODES, RETROSPECTIVE
from .model import Hyperparameters, export_embeddings
from .phrases import build_vocabulary, extract_phrase, load_stoplist, load_verb_forms
from .pipeline import (
    DEFAULT_TEST_PAIR_CAP,
    MAX_GRID_CANDIDATES,
    OBJECTIVES,
    attach_targets,
    grid_search,
    holdout_evaluate,
    reconcile_rosters,
    retrospective_evaluate,
    retrospective_split,
    score_pairs,
    train,
)
from .synth import SyntheticConfig, generate_synthetic


def _print_config(cmd: str, args: argparse.Namespace) -> None:
    print(f"# amfpmc {cmd}")
    for key in sorted(vars(args)):
        if key in ("func", "command", "eval_kind"):
            continue
        print(f"# {key} = {getattr(args, key)}")


def _default(fn, name: str):
    """The default of fn's parameter name, so a flag and the library share one value."""
    return inspect.signature(fn).parameters[name].default


def _add_hp_flags(p: argparse.ArgumentParser) -> None:
    hp = Hyperparameters()
    p.add_argument("--dim", type=int, default=hp.embedding_dim, help="embedding size")
    p.add_argument("--dropout", type=float, default=hp.dropout)
    p.add_argument("--epochs", type=int, default=hp.epochs)
    p.add_argument("--batch", type=int, default=hp.batch_size, help="mini-batch size")
    p.add_argument("--lr", type=float, default=hp.learning_rate, help="learning rate")
    p.add_argument("--alpha", type=float, default=hp.alpha, help="propagation factor in [0, 1]")
    p.add_argument("--seed", type=int, default=hp.seed, help="single seed driving all randomness")
    p.add_argument("--no-balance", action="store_true", help="disable class weight balancing")


def _hp_from_args(args: argparse.Namespace) -> Hyperparameters:
    return Hyperparameters(
        embedding_dim=args.dim,
        dropout=args.dropout,
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        alpha=args.alpha,
        seed=args.seed,
        balance_classes=not args.no_balance,
    ).validate()


def _class_names_from_vocab(path: Optional[str]) -> Optional[dict[int, str]]:
    if path is None:
        return None
    vocab = formats.read_vocabulary(path)
    return {idx: vocab.class_label(idx) for idx in range(vocab.n_classes)}


def _model_and_roster(args: argparse.Namespace):
    """The model and its roster, refused here if their drug counts disagree."""
    params = formats.read_model(args.model)
    roster = formats.read_roster(args.roster or args.model + ".roster")
    if len(roster) != params.n_drugs:
        raise ShapeMismatchError(
            f"roster lists {len(roster)} drugs but the model has {params.n_drugs} rows"
        )
    return params, roster


def _read_graph(path: str, mode: str, n_classes: Optional[int]):
    """The graph of an index-mode interactions file; the parsed rows are dropped on return."""
    return formats.graph_from_index_records(
        formats.parse_interactions_file(path, "indices"), mode, n_classes
    )


def _emit_report(report, args, class_names=None) -> None:
    sys.stdout.write(formats.format_report_text(report, class_names))
    if getattr(args, "report", None):
        formats.write_report(report, args.report, "text", class_names)
    if getattr(args, "json", None):
        formats.write_report(report, args.json, "structured")


# -- subcommands ---------------------------------------------------------------


def cmd_extract(args) -> int:
    _print_config("extract", args)
    rows = formats.parse_interactions_file(args.input, "sentences")
    stoplist = load_stoplist(args.stoplist)
    verb_forms = load_verb_forms(args.verb_table)

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
    _print_config("train", args)
    hp = _hp_from_args(args)
    graph = _read_graph(args.interactions, args.mode, args.classes)
    params = train(attach_targets(graph.edge_list(), graph, hp.alpha),
                   hp, graph.n_drugs, graph.n_classes)
    if not all(np.all(np.isfinite(a)) for a in params.arrays()):
        raise NonFiniteError("trained parameters are not finite (did training diverge?)")
    formats.write_model(params, args.out)
    roster_path = args.out_roster or args.out + ".roster"
    formats.write_roster(graph.roster, roster_path)
    print(
        f"trained on {graph.num_edges} edges: n={graph.n_drugs} K={graph.n_classes} "
        f"d={hp.embedding_dim} -> {args.out}"
    )
    return 0


def cmd_evaluate_holdout(args) -> int:
    _print_config("evaluate holdout", args)
    hp = _hp_from_args(args)
    class_names = _class_names_from_vocab(args.vocab)
    graph = _read_graph(args.interactions, HOLDOUT, args.classes)
    result = holdout_evaluate(graph, hp, k=args.k, seed=args.seed)
    for f, rep in enumerate(result.folds):
        print(f"fold {f}: accuracy {rep.accuracy:.4f}")
    _emit_report(result.mean, args, class_names)
    return 0


def cmd_evaluate_retrospective(args) -> int:
    _print_config("evaluate retrospective", args)
    hp = _hp_from_args(args)
    class_names = _class_names_from_vocab(args.vocab)
    rec0 = formats.parse_interactions_file(args.t0, "indices")
    rec1 = formats.parse_interactions_file(args.t1, "indices")
    n_classes = formats.class_count(rec0 + rec1) if args.classes is None else args.classes
    g0 = formats.graph_from_index_records(rec0, RETROSPECTIVE, n_classes)
    g1 = formats.graph_from_index_records(rec1, RETROSPECTIVE, n_classes)
    del rec0, rec1
    g0, g1 = reconcile_rosters(g0, g1)
    split = retrospective_split(
        g0, g1, negative_ratio=args.negative_ratio, seed=args.seed, test_pair_cap=args.test_cap
    )
    subset = None
    if args.subset:
        wanted = formats.load_drug_subset(args.subset)
        subset = {g0.roster.index_of(ext) for ext in wanted if ext in g0.roster}
        print(f"subset: {len(subset)} of {len(wanted)} listed drugs are in both snapshots")
    report = retrospective_evaluate(split, hp, subset=subset)
    print(f"train pairs: {len(split.train_items)}  test pairs: {len(split.test_items)}")
    _emit_report(report, args, class_names)
    return 0


def _grid_point_text(hp: Hyperparameters) -> str:
    """The searchable hyperparameters of one grid point, as gridsearch prints them."""
    return (f"dim={hp.embedding_dim} dropout={hp.dropout} epochs={hp.epochs} "
            f"batch={hp.batch_size} lr={hp.learning_rate} alpha={hp.alpha}")


def cmd_gridsearch(args) -> int:
    _print_config("gridsearch", args)
    base_hp = _hp_from_args(args)
    graph = _read_graph(args.interactions, args.mode, args.classes)
    grid = formats.parse_grid_file(args.grid)
    best, results = grid_search(
        graph.edge_list(),
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
    _print_config("predict", args)
    if args.top_k < 1:
        raise InvalidConfigError(f"--top-k must be >= 1, got {args.top_k}")
    params, roster = _model_and_roster(args)
    pairs = formats.parse_pairs_file(args.pairs)
    I = np.array([roster.index_of(a) for a, _ in pairs], dtype=np.int64)
    J = np.array([roster.index_of(b) for _, b in pairs], dtype=np.int64)
    probs = score_pairs(params, np.column_stack([I, J]))
    # ties list the lowest class first
    top = np.argsort(-probs, axis=1, kind="stable")[:, : args.top_k]
    top_probs = np.take_along_axis(probs, top, axis=1)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for (a, b), classes, values in zip(pairs, top.tolist(), top_probs.tolist()):
            for cls, value in zip(classes, values):
                out.write(f"{a}\t{b}\t{cls}\t{value:.6f}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_export_embeddings(args) -> int:
    _print_config("export-embeddings", args)
    params, roster = _model_and_roster(args)
    ids, matrix = export_embeddings(params, roster)
    with open(args.out, "w", encoding="utf-8") as fh:
        header = ["drug_id"] + [f"e{t}" for t in range(matrix.shape[1])]
        fh.write(",".join(header) + "\n")
        for ext, row in zip(ids, matrix):
            fh.write(ext + "," + ",".join(formats.FLOAT_FMT % v for v in row) + "\n")
    print(f"wrote {len(ids)} x {matrix.shape[1]} embeddings to {args.out}")
    return 0


def cmd_synth(args) -> int:
    _print_config("synth", args)
    cfg = SyntheticConfig(
        n_drugs=args.n,
        n_blocks=args.blocks,
        n_classes=args.k,
        edge_probability=args.p,
        label_noise=args.noise,
        holdout_fraction=args.holdout,
        seed=args.seed,
        mode=args.mode,
    )
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
    p.add_argument("--interactions", required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--classes", type=int, default=None, help="class count (default: max index + 1)")
    _add_hp_flags(p)
    p.add_argument("--out", required=True, help="model file")
    p.add_argument("--out-roster", default=None, help="roster sidecar (default: <out>.roster)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="holdout or retrospective evaluation")
    esub = p.add_subparsers(dest="eval_kind", required=True)

    ph = esub.add_parser("holdout", help="stratified k-fold over one snapshot")
    ph.add_argument("--interactions", required=True)
    ph.add_argument("--classes", type=int, default=None)
    ph.add_argument("--k", type=int, default=_default(holdout_evaluate, "k"))
    _add_hp_flags(ph)
    ph.add_argument("--vocab", default=None, help="vocabulary file for per-class names")
    ph.add_argument("--report", default=None, help="write the text report here")
    ph.add_argument("--json", default=None, help="write the structured report here")
    ph.set_defaults(func=cmd_evaluate_holdout)

    pr = esub.add_parser("retrospective", help="train on snapshot T0, test against T1")
    pr.add_argument("--t0", required=True)
    pr.add_argument("--t1", required=True)
    pr.add_argument("--classes", type=int, default=None)
    pr.add_argument("--negative-ratio", type=float,
                    default=_default(retrospective_split, "negative_ratio"))
    pr.add_argument("--test-cap", type=int, default=DEFAULT_TEST_PAIR_CAP)
    pr.add_argument("--subset", default=None, help="restrict test pairs to these drugs")
    _add_hp_flags(pr)
    pr.add_argument("--vocab", default=None)
    pr.add_argument("--report", default=None)
    pr.add_argument("--json", default=None)
    pr.set_defaults(func=cmd_evaluate_retrospective)

    p = sub.add_parser("gridsearch", help="grid search on a stratified validation split")
    p.add_argument("--interactions", required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--classes", type=int, default=None)
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
    p.add_argument("--roster", default=None)
    p.add_argument("--pairs", required=True, help="TSV: drug_a, drug_b")
    p.add_argument("--top-k", type=int, default=1)
    p.add_argument("--out", default=None, help="default: stdout")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("export-embeddings", help="write drug embeddings as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--roster", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("synth", help="generate a typed block-model graph")
    cfg = SyntheticConfig()
    p.add_argument("--n", type=int, default=cfg.n_drugs, help="drug count")
    p.add_argument("--blocks", type=int, default=cfg.n_blocks)
    p.add_argument("--k", type=int, default=cfg.n_classes, help="class count")
    p.add_argument("--p", type=float, default=cfg.edge_probability, help="edge probability")
    p.add_argument("--noise", type=float, default=cfg.label_noise, help="wrong-label fraction")
    p.add_argument("--holdout", type=float, default=cfg.holdout_fraction, help="held-out edge fraction")
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


if __name__ == "__main__":
    sys.exit(main())
