import inspect
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import amfpmc
from amfpmc import cli, formats, pipeline
from amfpmc.cli import main
from amfpmc.formats import read_model, read_vocabulary
from amfpmc.graph import Roster
from amfpmc.model import Hyperparameters, init_model, predict_batch
from amfpmc.pipeline import holdout_evaluate
from amfpmc.synth import SyntheticConfig


@pytest.fixture()
def synth_files(tmp_path):
    t0 = tmp_path / "t0.tsv"
    t1 = tmp_path / "t1.tsv"
    blocks = tmp_path / "blocks.tsv"
    rc = main([
        "synth", "--n", "40", "--blocks", "2", "--k", "4", "--p", "0.5",
        "--noise", "0.0", "--holdout", "0.2", "--seed", "3",
        "--out-t0", str(t0), "--out-t1", str(t1), "--out-blocks", str(blocks),
    ])
    assert rc == 0
    return t0, t1, blocks


def test_synth_writes_files(synth_files, capsys):
    t0, t1, blocks = synth_files
    assert t0.exists() and t1.exists() and blocks.exists()
    assert len(blocks.read_text().splitlines()) == 40


def test_config_header_printed_with_seed(tmp_path, capsys):
    out = tmp_path / "t0.tsv"
    main(["synth", "--n", "20", "--blocks", "2", "--k", "4", "--p", "0.5",
          "--seed", "17", "--out-t0", str(out)])
    captured = capsys.readouterr().out
    assert captured.startswith("# amfpmc synth")
    assert "# seed = 17" in captured


SENTENCES = (
    "D1\tD2\tThe metabolism of Drug b can be decreased when combined with Drug a\n"
    "D1\tD3\tThe metabolism of Drug b can be decreased when combined with Drug a\n"
    "D2\tD3\tDrug a may increase the hypoglycemic activities of Drug b\n"
)


@pytest.mark.parametrize("name", ["extract", "train", "evaluate holdout", "evaluate retrospective",
                                  "gridsearch", "predict", "export-embeddings", "synth"])
def test_every_subcommand_echoes_its_config_once(name, synth_files, retro_files, model_and_pairs,
                                                 tmp_path, capsys):
    t0, _, _ = synth_files
    r0, r1 = retro_files
    model, pairs = model_and_pairs
    sentences = tmp_path / "sentences.tsv"
    sentences.write_text(SENTENCES)
    grid = tmp_path / "grid.txt"
    grid.write_text("alpha 0.0 0.5\n")
    tiny = ["--dim", "4", "--epochs", "1", "--batch", "64"]
    argv = [str(arg) for arg in {
        "extract": ["extract", "--input", sentences, "--mode", "retrospective", "--top-n", "1",
                    "--out-vocab", tmp_path / "v.tsv", "--out-indexed", tmp_path / "x.tsv"],
        "train": ["train", "--interactions", t0, "--mode", "holdout", *tiny,
                  "--out", tmp_path / "m2.txt"],
        "evaluate holdout": ["evaluate", "holdout", "--interactions", t0, "--k", "2", *tiny],
        "evaluate retrospective": ["evaluate", "retrospective", "--t0", r0, "--t1", r1, *tiny],
        "gridsearch": ["gridsearch", "--interactions", t0, "--mode", "holdout", "--grid", grid,
                       *tiny],
        "predict": ["predict", "--model", model, "--pairs", pairs],
        "export-embeddings": ["export-embeddings", "--model", model, "--out", tmp_path / "e.csv"],
        "synth": ["synth", "--n", "20", "--blocks", "2", "--k", "4", "--out-t0", tmp_path / "s"],
    }[name]]
    capsys.readouterr()
    assert main(argv) == 0
    parsed = vars(cli.build_parser().parse_args(argv))
    expected = [f"# amfpmc {name}"] + [
        f"# {key} = {parsed[key]}" for key in sorted(parsed)
        if key not in ("func", "command", "eval_kind")
    ]
    lines = capsys.readouterr().out.splitlines()
    # the resolved config comes first, and no other line looks like it
    assert lines[:len(expected)] == expected
    assert not [line for line in lines[len(expected):] if line.startswith("#")]


def test_train_predict_export_flow(synth_files, tmp_path, capsys):
    t0, _, _ = synth_files
    model = tmp_path / "model.txt"
    rc = main(["train", "--interactions", str(t0), "--mode", "holdout",
               "--dim", "8", "--epochs", "5", "--batch", "64", "--lr", "0.01",
               "--alpha", "0.5", "--seed", "0", "--out", str(model)])
    assert rc == 0
    # one file: the model carries its drug ids
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("model")) == ["model.txt"]
    params, roster = read_model(str(model))
    assert params.embedding_dim == 8

    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("D0000\tD0001\nD0000\tD0039\n")
    capsys.readouterr()
    rc = main(["predict", "--model", str(model), "--pairs", str(pairs), "--top-k", "2"])
    assert rc == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 4  # two pairs, two ranks each
    first = rows[0].split("\t")
    assert first[0] == "D0000" and first[1] == "D0001"
    assert 0.0 <= float(first[3]) <= 1.0

    csv = tmp_path / "emb.csv"
    rc = main(["export-embeddings", "--model", str(model), "--out", str(csv)])
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert lines[0].split(",")[:2] == ["drug_id", "e0"]
    assert len(lines) == 41
    # row k + 1 is the model's drug k and embedding row k
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == roster.external_ids == [f"D{t:04d}" for t in range(40)]
    values = np.array([[float(v) for v in row[1:]] for row in rows])
    assert np.array_equal(values, params.embeddings)


def test_evaluate_holdout_cli(synth_files, tmp_path, capsys):
    t0, _, _ = synth_files
    report_path = tmp_path / "report.txt"
    json_path = tmp_path / "report.json"
    rc = main(["evaluate", "holdout", "--interactions", str(t0), "--k", "3",
               "--dim", "8", "--epochs", "5", "--batch", "64", "--alpha", "0.5",
               "--seed", "0", "--report", str(report_path), "--json", str(json_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fold 0: accuracy" in out
    assert report_path.read_text().startswith("accuracy")
    graph = formats.graph_from_index_records(formats.parse_interactions_file(str(t0), "indices"),
                                             "holdout")
    hp = Hyperparameters(embedding_dim=8, epochs=5, batch_size=64, alpha=0.5, seed=0)
    expected = holdout_evaluate(graph, hp, k=3, seed=0).mean
    with open(json_path, encoding="utf-8") as fh:
        assert json.load(fh) == formats.report_to_dict(expected)


@pytest.fixture()
def retro_files(tmp_path):
    t0 = tmp_path / "t0.tsv"
    t1 = tmp_path / "t1.tsv"
    rc = main(["synth", "--n", "40", "--blocks", "2", "--k", "5", "--p", "0.5",
               "--holdout", "0.3", "--seed", "4", "--mode", "retrospective",
               "--out-t0", str(t0), "--out-t1", str(t1)])
    assert rc == 0
    return t0, t1


def test_evaluate_retrospective_cli(retro_files, capsys):
    t0, t1 = retro_files
    rc = main(["evaluate", "retrospective", "--t0", str(t0), "--t1", str(t1),
               "--negative-ratio", "1.0", "--dim", "8", "--epochs", "5",
               "--batch", "64", "--alpha", "0.5", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "test pairs:" in out and "accuracy" in out


def test_split_without_test_pairs_is_refused_before_training(tmp_path, capsys, monkeypatch):
    # 18 drugs: T1 holds 120 pairs and T0 90 of them, so the 90 negatives of
    # --negative-ratio 1.0 would take all 63 pairs unlabeled in T0
    iu, ju = np.triu_indices(18, k=1)
    lines = [f"D{i:02d}\tD{j:02d}\t{1 + t % 3}\n" for t, (i, j) in enumerate(zip(iu[:120], ju[:120]))]
    t0, t1 = tmp_path / "t0.tsv", tmp_path / "t1.tsv"
    t0.write_text("".join(lines[:90]))
    t1.write_text("".join(lines))
    calls = []
    monkeypatch.setattr(pipeline, "train", lambda *a, **k: calls.append(a))
    capsys.readouterr()
    assert main(["evaluate", "retrospective", "--t0", str(t0), "--t1", str(t1),
                 "--negative-ratio", "1.0", "--dim", "8", "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: InvalidConfigError: no test pair is left: T0 leaves 63 pairs unlabeled and "
        "negative_ratio 1.0 samples 63 of them as training negatives\n"
    )
    assert calls == []


def test_fold_left_empty_is_refused_before_training(tmp_path, capsys, monkeypatch):
    # classes of 2, 2, 2, 1, 1 and 1 edges: 5 folds dealt round-robin from fold 0
    # would leave folds 2, 3 and 4 empty
    edges = [("D1", "D2", 1), ("D1", "D3", 1), ("D2", "D3", 2), ("D2", "D4", 2), ("D3", "D4", 3),
             ("D3", "D5", 3), ("D4", "D5", 4), ("D4", "D6", 5), ("D5", "D6", 6)]
    path = tmp_path / "t0.tsv"
    path.write_text("".join(f"{a}\t{b}\t{c}\n" for a, b, c in edges))
    calls = []
    monkeypatch.setattr(pipeline, "train", lambda *a, **k: calls.append(a))
    capsys.readouterr()
    assert main(["evaluate", "holdout", "--interactions", str(path), "--k", "5",
                 "--dim", "8", "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: TooFewPairsError: the largest class has 2 pairs, fewer than k = 5: "
                   "fold 2 would be empty\n")
    assert calls == []


def test_fold_of_one_class_is_refused_before_training(tmp_path, capsys, monkeypatch):
    # classes of 5, 1 and 1 edges: folds 1 to 4 of 5 would hold class 1 alone,
    # which no fold report can score
    edges = [("D1", f"D{t}", 1) for t in range(2, 7)] + [("D2", "D3", 2), ("D2", "D4", 3)]
    path = tmp_path / "t0.tsv"
    path.write_text("".join(f"{a}\t{b}\t{c}\n" for a, b, c in edges))
    calls = []
    monkeypatch.setattr(pipeline, "train", lambda *a, **k: calls.append(a))
    capsys.readouterr()
    assert main(["evaluate", "holdout", "--interactions", str(path), "--k", "5",
                 "--dim", "8", "--epochs", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: DegenerateLabelsError: the second-largest class has 1 pairs, fewer than k = 5: "
        "fold 1 would hold one class only\n")
    assert calls == []


@pytest.fixture()
def subset_snapshots(tmp_path):
    t0, t1 = tmp_path / "s0.tsv", tmp_path / "s1.tsv"
    assert main(["synth", "--n", "60", "--blocks", "2", "--k", "5", "--p", "0.2",
                 "--holdout", "0.3", "--mode", "retrospective", "--seed", "1",
                 "--out-t0", str(t0), "--out-t1", str(t1)]) == 0
    return ["--t0", str(t0), "--t1", str(t1), "--dim", "8", "--epochs", "1"]


def test_subset_run_prints_the_test_pairs_it_scored(subset_snapshots, tmp_path, capsys):
    subset, report = tmp_path / "even.txt", tmp_path / "report.json"
    subset.write_text("".join(f"D{t:04d}\n" for t in range(0, 60, 2)))
    capsys.readouterr()
    assert main(["evaluate", "retrospective", *subset_snapshots, "--subset", str(subset),
                 "--json", str(report)]) == 0
    out = capsys.readouterr().out
    # the split holds 1,300 test pairs; 332 of them join two listed drugs
    assert sum(row["support"] for row in json.loads(report.read_text())["per_class"]) == 332
    assert "train pairs: 470  test pairs: 332\n" in out


def test_subset_of_one_class_is_refused_before_training(subset_snapshots, tmp_path, capsys,
                                                        monkeypatch):
    subset = tmp_path / "few.txt"
    subset.write_text("".join(f"D{t:04d}\n" for t in range(1, 9)))
    calls = []
    monkeypatch.setattr(pipeline, "train", lambda *a, **k: calls.append(a))
    capsys.readouterr()
    assert main(["evaluate", "retrospective", *subset_snapshots, "--subset", str(subset)]) == 1
    assert capsys.readouterr().err == (
        "error: DegenerateLabelsError: all 19 test pairs are class 0: the report needs two "
        "classes\n")
    assert calls == []


def test_retrospective_train_and_gridsearch_fit_sampled_negatives(tmp_path, capsys, monkeypatch):
    # as evaluate retrospective does, both fit T0's edges plus as many class-0
    # pairs unlabeled in T0, so a trained model scores most of those pairs class 0
    t0, model = tmp_path / "t0.tsv", tmp_path / "m.txt"
    assert main(["synth", "--n", "200", "--blocks", "3", "--k", "10", "--p", "0.1",
                 "--holdout", "0.2", "--mode", "retrospective", "--seed", "1",
                 "--out-t0", str(t0)]) == 0
    assert main(["train", "--interactions", str(t0), "--mode", "retrospective", "--dim", "16",
                 "--epochs", "5", "--no-balance", "--out", str(model)]) == 0
    graph = formats.graph_from_index_records(formats.parse_interactions_file(str(t0), "indices"),
                                             "retrospective")
    I, J = np.triu_indices(graph.n_drugs, k=1)
    unlabeled = graph.edge_classes(I, J) < 0
    probs = pipeline.score_pairs(read_model(str(model))[0], np.column_stack([I, J])[unlabeled])
    assert np.mean(probs.argmax(axis=1) == 0) > 0.5

    seen = []
    split = pipeline.stratified_validation_split
    monkeypatch.setattr(pipeline, "stratified_validation_split",
                        lambda items, *a: seen.append(items) or split(items, *a))
    grid = tmp_path / "grid.txt"
    grid.write_text("alpha 0.5\n")
    assert main(["gridsearch", "--interactions", str(t0), "--mode", "retrospective",
                 "--grid", str(grid), "--dim", "4", "--epochs", "1"]) == 0
    [rows] = seen
    negatives = rows[rows[:, 2] == 0]
    assert len(negatives) == graph.num_edges
    assert np.all(graph.edge_classes(negatives[:, 0], negatives[:, 1]) < 0)
    assert np.array_equal(rows[rows[:, 2] != 0], graph.edge_list())


def test_train_names_what_it_fitted(tmp_path, capsys):
    # retrospective mode fits T0's edges and as many sampled class-0 pairs
    paths = {mode: (tmp_path / f"{mode}.tsv", tmp_path / f"{mode}-model.txt")
             for mode in ("holdout", "retrospective")}
    for mode, (data, _) in paths.items():
        assert main(["synth", "--n", "30", "--blocks", "2", "--k", "5", "--p", "0.4",
                     "--holdout", "0.3", "--mode", mode, "--seed", "1",
                     "--out-t0", str(data)]) == 0
    lines = []
    for mode, (data, model) in paths.items():
        capsys.readouterr()
        assert main(["train", "--interactions", str(data), "--mode", mode, "--dim", "8",
                     "--epochs", "1", "--out", str(model)]) == 0
        lines.append(capsys.readouterr().out.splitlines()[-1])
    assert lines == [
        f"trained on 129 edges: n=30 K=4 d=8 -> {paths['holdout'][1]}",
        f"trained on 129 edges and 129 sampled no-interaction pairs: n=30 K=5 d=8 "
        f"-> {paths['retrospective'][1]}",
    ]


def test_gridsearch_cli(synth_files, tmp_path, capsys):
    t0, _, _ = synth_files
    grid = tmp_path / "grid.txt"
    grid.write_text("alpha 0.0 0.5\n")
    rc = main(["gridsearch", "--interactions", str(t0), "--mode", "holdout",
               "--grid", str(grid), "--dim", "8", "--epochs", "3", "--batch", "64",
               "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("accuracy=") == 2
    assert "best:" in out


def test_gridsearch_lines_parse_back_to_their_hyperparameters(synth_files, tmp_path, capsys):
    # each printed grid point, given back as flags, names the candidate it scored
    t0, _, _ = synth_files
    grid = tmp_path / "grid.txt"
    grid.write_text("embedding_dim 4 6\nlearning_rate 0.01 0.1\nbatch_size 32\ndropout 0.0 0.25\n")
    base = ["gridsearch", "--interactions", str(t0), "--mode", "holdout", "--grid", str(grid),
            "--epochs", "1", "--seed", "2", "--no-balance"]
    capsys.readouterr()
    assert main(base) == 0
    *scored, best = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]

    def hp_of(point):
        flags = []
        for pair in point.split():
            flag, _, value = pair.partition("=")
            flags += [f"--{flag}", value]
        return cli._hp_from_args(cli.build_parser().parse_args(base + flags))

    candidates = formats.parse_grid_file(str(grid)).candidates(
        cli._hp_from_args(cli.build_parser().parse_args(base)))
    assert len(scored) == len(candidates) == 8
    for line, hp in zip(scored, candidates):
        point, score = line.rsplit(" ", 1)
        assert score.startswith("accuracy=")
        assert hp_of(point) == hp
    assert best.startswith("best: ")
    assert hp_of(best[len("best: "):]) in candidates


def test_extract_cli(tmp_path, capsys):
    sentences = tmp_path / "sentences.tsv"
    sentences.write_text(SENTENCES)
    vocab_path = tmp_path / "vocab.tsv"
    indexed = tmp_path / "indexed.tsv"
    rc = main(["extract", "--input", str(sentences), "--mode", "retrospective",
               "--top-n", "1", "--out-vocab", str(vocab_path), "--out-indexed", str(indexed)])
    assert rc == 0
    vocab = read_vocabulary(str(vocab_path))
    assert vocab.n_classes == 3  # reserved 0, "decreased metabolism", other
    rows = [l.split("\t") for l in indexed.read_text().splitlines()]
    assert rows[0] == ["D1", "D2", "1"]
    assert rows[2] == ["D2", "D3", "2"]  # rare phrase grouped as other


@pytest.mark.parametrize("flags, message", [
    (["--mode", "retrospective", "--top-n", "0"], "retrospective grouping needs top_n >= 1"),
    (["--mode", "retrospective", "--min-count", "2"], "retrospective grouping needs top_n >= 1"),
    (["--mode", "holdout"], "holdout grouping needs min_count >= 1"),
    (["--mode", "holdout", "--top-n", "3", "--min-count", "0"],
     "holdout grouping needs min_count >= 1"),
])
def test_extract_checks_grouping_before_reading_input(tmp_path, capsys, flags, message):
    # the input does not exist: an option error is reported before any file is opened
    rc = main(["extract", "--input", str(tmp_path / "missing.tsv"), *flags,
               "--out-vocab", str(tmp_path / "v.tsv"), "--out-indexed", str(tmp_path / "x.tsv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: InvalidConfigError: {message}\n"
    assert not list(tmp_path.iterdir())


def test_bad_verb_table_is_refused_at_its_line_before_reading_input(tmp_path, capsys):
    verbs = tmp_path / "verbs.txt"
    verbs.write_text("increases increased\ndecreases decreased extra\n")
    rc = main(["extract", "--input", str(tmp_path / "missing.tsv"), "--mode", "holdout",
               "--min-count", "1", "--verb-table", str(verbs),
               "--out-vocab", str(tmp_path / "v.tsv"), "--out-indexed", str(tmp_path / "x.tsv")])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: ParseError: {verbs}:2: verb table line needs two "
                                       "tokens, got 3: 'decreases decreased extra'\n")


#: three interaction sentences, most frequent first once written by _sentence_pairs
TEMPLATES = (
    "The metabolism of Drug b can be decreased when combined with Drug a",
    "Drug a may increase the hypoglycemic activities of Drug b",
    "The serum concentration of Drug b can be increased when it is combined with Drug a",
)


def _sentence_pairs(path):
    """60 pairs of 15 drugs: 30 of TEMPLATES[0], 18 of TEMPLATES[1], 12 of TEMPLATES[2]."""
    pairs = list(itertools.combinations(range(15), 2))[:60]
    path.write_text("".join(f"D{a:02d}\tD{b:02d}\t{TEMPLATES[(t >= 30) + (t >= 48)]}\n"
                            for t, (a, b) in enumerate(pairs)))


def _interaction_column(out):
    """class -> interaction name of each row of the per-class table that ends out."""
    lines = out.splitlines()
    start = lines.index(f"{'class':>6} {'support':>8} {'auroc':>8} {'aupr':>8}  interaction")
    return {int(cls): name for cls, *_, name in (line.split(None, 4) for line in lines[start + 1:])}


@pytest.mark.parametrize("mode, grouping, names", [
    ("holdout", ["--min-count", "1"],
     ["decreased metabolism", "increased hypoglycemic activities", "increased serum concentration"]),
    ("retrospective", ["--top-n", "2"],
     ["<no-interaction>", "decreased metabolism", "increased hypoglycemic activities", "<other>"]),
])
def test_report_names_each_class_by_its_extracted_label(tmp_path, capsys, mode, grouping, names):
    sentences, vocab, indexed = tmp_path / "s.tsv", tmp_path / "vocab.tsv", tmp_path / "x.tsv"
    _sentence_pairs(sentences)
    assert main(["extract", "--input", str(sentences), "--mode", mode, *grouping,
                 "--out-vocab", str(vocab), "--out-indexed", str(indexed)]) == 0
    if mode == "holdout":
        inputs = ["holdout", "--interactions", str(indexed), "--k", "2"]
    else:
        # T0 holds every fourth interaction of T1, the extracted file
        t0 = tmp_path / "t0.tsv"
        t0.write_text("".join(indexed.read_text().splitlines(True)[1::4]))
        inputs = ["retrospective", "--t0", str(t0), "--t1", str(indexed)]
    capsys.readouterr()
    assert main(["evaluate", *inputs, "--vocab", str(vocab), "--dim", "4", "--epochs", "1",
                 "--batch", "64"]) == 0
    assert _interaction_column(capsys.readouterr().out) == dict(enumerate(names))


@pytest.mark.parametrize("vocab_lines, command", [
    # one class cannot name the run's four
    (["mode\tholdout", "0\ta b\t1"], "holdout"),
    # a retrospective vocabulary would name holdout class 0 '<no-interaction>'
    (["mode\tretrospective", "0\t<no-interaction>\t0", "1\ta b\t1", "2\tc d\t1",
      "3\te f\t1", "4\t<other>\t1"], "holdout"),
    (["mode\tholdout", *(f"{k}\tphrase {k}\t1" for k in range(6))], "retrospective"),
], ids=["too-few-classes", "retrospective-vocab-holdout-run", "holdout-vocab-retrospective-run"])
def test_vocabulary_that_cannot_name_the_run_is_refused_before_training(
        synth_files, retro_files, tmp_path, capsys, monkeypatch, vocab_lines, command):
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("\n".join(vocab_lines) + "\n")
    inputs = (["--interactions", str(synth_files[0]), "--k", "2"] if command == "holdout"
              else ["--t0", str(retro_files[0]), "--t1", str(retro_files[1])])
    calls = []
    monkeypatch.setattr(pipeline, "train", lambda *a, **k: calls.append(1))
    capsys.readouterr()
    assert main(["evaluate", command, *inputs, "--vocab", str(vocab), "--dim", "4"]) == 1
    err = capsys.readouterr().err
    _assert_one_line_error(err, "InvalidConfigError")
    mode = vocab_lines[0].split("\t")[1]
    assert f": {vocab}: a {mode} vocabulary of class count {len(vocab_lines) - 1} cannot name " in err
    assert err.endswith(f" of a {command} run\n")
    assert calls == []


def test_vocabulary_with_classes_the_run_lacks_is_accepted(synth_files, tmp_path, capsys):
    # an indexed file need not use every class of its vocabulary
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("mode\tholdout\n" + "".join(f"{k}\tphrase {k}\t1\n" for k in range(9)))
    capsys.readouterr()
    assert main(["evaluate", "holdout", "--interactions", str(synth_files[0]), "--k", "2",
                 "--vocab", str(vocab), "--dim", "4", "--epochs", "1", "--batch", "64"]) == 0
    column = _interaction_column(capsys.readouterr().out)
    assert column == {k: f"phrase {k}" for k in column} and len(column) == 4


def test_error_exit_is_single_line(tmp_path, capsys):
    rc = main(["train", "--interactions", str(tmp_path / "missing.tsv"),
               "--mode", "holdout", "--out", str(tmp_path / "m.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("D1\tD1\t3\n")
    rc = main(["train", "--interactions", str(bad), "--mode", "holdout",
               "--out", str(tmp_path / "m.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: ParseError" in err and ":1:" in err


def _assert_one_line_error(err, kind):
    assert len(err.strip().splitlines()) == 1, err
    assert err.startswith(f"error: {kind}: ")


@pytest.mark.parametrize("class_index, flags", [
    ("4000000000", []),
    (str(10**20), []),
    ("2", ["--classes", "4000000000"]),
])
def test_huge_class_count_exits_with_one_line(tmp_path, capsys, class_index, flags):
    tsv = tmp_path / "huge.tsv"
    tsv.write_text(f"D1\tD2\t1\nD2\tD3\t0\nD1\tD3\t{class_index}\n")
    for mode in ("holdout", "retrospective"):
        rc = main(["train", "--interactions", str(tsv), "--mode", mode, "--dim", "4",
                   "--epochs", "1", *flags, "--out", str(tmp_path / "m.txt")])
        assert rc == 1
        _assert_one_line_error(capsys.readouterr().err, "InvalidDimensionsError")


def test_snapshots_without_data_lines_are_one_error(retro_files, tmp_path, capsys):
    # the class count is taken over both snapshots, which may hold no data line
    r0, r1 = retro_files
    empty = tmp_path / "empty.tsv"
    empty.write_text("# no interactions\n")
    tiny = ["--dim", "4", "--epochs", "1"]
    commands = [
        ["train", "--interactions", str(empty), "--mode", "retrospective",
         "--out", str(tmp_path / "m.txt")],
        ["evaluate", "retrospective", "--t0", str(empty), "--t1", str(empty), *tiny],
        ["evaluate", "retrospective", "--t0", str(r0), "--t1", str(empty), *tiny],
        ["evaluate", "retrospective", "--t0", str(empty), "--t1", str(r1), *tiny],
    ]
    for command in commands:
        capsys.readouterr()
        assert main(command) == 1, command
        assert capsys.readouterr().err == "error: FormatError: no interaction records\n", command


@pytest.mark.parametrize("command, kind", [
    (["evaluate", "holdout", "--k", "2", "--vocab", "missing-vocab.tsv"], "IoError"),
    (["evaluate", "retrospective", "--vocab", "missing-vocab.tsv"], "IoError"),
    (["evaluate", "retrospective", "--subset", "nowhere.txt"], "EmptySubsetError"),
])
def test_inputs_training_ignores_are_refused_before_training(synth_files, retro_files, tmp_path,
                                                             capsys, monkeypatch, command, kind):
    # a vocabulary or a drug subset that cannot be used is refused before any fold trains
    t0, _, _ = synth_files
    r0, r1 = retro_files
    (tmp_path / "nowhere.txt").write_text("NOT-A-DRUG\n")
    inputs = (["--interactions", str(t0)] if command[1] == "holdout"
              else ["--t0", str(r0), "--t1", str(r1)])
    calls = []
    real_train = pipeline.train
    monkeypatch.setattr(pipeline, "train", lambda *a, **k: calls.append(1) or real_train(*a, **k))
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main([*command, *inputs, "--dim", "4", "--epochs", "1", "--batch", "64"]) == 1
    captured = capsys.readouterr()
    _assert_one_line_error(captured.err, kind)
    assert "fold 0:" not in captured.out
    assert calls == []


@pytest.fixture()
def model_and_pairs(synth_files, tmp_path):
    t0, _, _ = synth_files
    model = tmp_path / "model.txt"
    rc = main(["train", "--interactions", str(t0), "--mode", "holdout", "--dim", "4",
               "--epochs", "1", "--batch", "64", "--seed", "0", "--out", str(model)])
    assert rc == 0
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("D0000\tD0001\n")
    return model, pairs


@pytest.mark.parametrize("top_k", ["0", "-1"])
def test_predict_top_k_below_one_is_refused(model_and_pairs, capsys, top_k):
    model, pairs = model_and_pairs
    capsys.readouterr()
    rc = main(["predict", "--model", str(model), "--pairs", str(pairs), "--top-k", top_k])
    assert rc == 1
    captured = capsys.readouterr()
    _assert_one_line_error(captured.err, "InvalidConfigError")
    assert not [l for l in captured.out.splitlines() if not l.startswith("#")]


def test_predict_ties_list_the_lowest_class_first(model_and_pairs, capsys):
    # zero W, c and u make every logit 0, so all K probabilities tie at 1/K
    model, pairs = model_and_pairs
    params, roster = read_model(str(model))
    for arr in (params.class_proj, params.class_bias, params.bias_coupling):
        arr[...] = 0.0
    formats.write_model(params, roster, str(model))
    pairs.write_text("D0000\tD0001\nD0002\tD0000\n")
    capsys.readouterr()
    rc = main(["predict", "--model", str(model), "--pairs", str(pairs), "--top-k", "3"])
    assert rc == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    share = f"{1.0 / params.n_classes:.6f}"
    assert rows == [f"{a}\t{b}\t{k}\t{share}" for a, b in [("D0000", "D0001"), ("D0002", "D0000")]
                    for k in range(3)]


def test_duplicate_model_id_exits_with_one_line(model_and_pairs, tmp_path, capsys):
    model, pairs = model_and_pairs
    lines = model.read_text().splitlines()
    # the ids section starts at line 3: its last id becomes a second D0000
    lines[41] = lines[2]
    model.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["predict", "--model", str(model), "--pairs", str(pairs)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: FormatError: {model}: drug id 'D0000' repeated at line 42\n")


def test_short_ids_section_is_one_error_for_both_model_readers(model_and_pairs, tmp_path,
                                                                capsys):
    model, pairs = model_and_pairs
    lines = model.read_text().splitlines()
    del lines[7:42]
    model.write_text("\n".join(lines) + "\n")
    commands = [
        ["predict", "--model", str(model), "--pairs", str(pairs)],
        ["export-embeddings", "--model", str(model), "--out", str(tmp_path / "emb.csv")],
    ]
    for command in commands:
        capsys.readouterr()
        assert main(command) == 1
        assert capsys.readouterr().err == f"error: FormatError: {model}: truncated section 'ids'\n"
    assert not (tmp_path / "emb.csv").exists()


def _model_file_commands(tmp_path, n, K, d):
    """predict and export-embeddings on a model file of header n K d whose sections match it."""
    def rows(count, width):
        return [" ".join(["0.5"] * max(width, 0))] * max(count, 0)

    sections = {"E": rows(n, d), "b": rows(1, n), "W": rows(K, d), "c": rows(1, K), "u": rows(1, K)}
    lines = [f"AMFPMC2 {n} {K} {d}", "ids", *(f"D{i}" for i in range(max(n, 0)))]
    for name, body in sections.items():
        lines += [name, *body]
    model = tmp_path / "degenerate.txt"
    model.write_text("\n".join(lines) + "\n")
    (tmp_path / "pairs.tsv").write_text("D0\tD1\n")
    return model, [
        ["predict", "--model", str(model), "--pairs", str(tmp_path / "pairs.tsv")],
        ["export-embeddings", "--model", str(model), "--out", str(tmp_path / "emb.csv")],
    ]


def test_model_file_within_the_dimension_rule_is_read(tmp_path, capsys):
    # the smallest model the rule allows (n = 2, K = 2, d = 1), with the helper's sections
    _, commands = _model_file_commands(tmp_path, 2, 2, 1)
    for command in commands:
        assert main(command) == 0


@pytest.mark.parametrize("field, value", [
    (field, value) for field in ("n", "K", "d") for value in (0, 1, -1)
    if (field, value) != ("d", 1)
])
def test_model_file_outside_the_dimension_rule_is_one_error(tmp_path, capsys, field, value):
    dims = {"n": 3, "K": 3, "d": 2, field: value}
    model, commands = _model_file_commands(tmp_path, dims["n"], dims["K"], dims["d"])
    for command in commands:
        capsys.readouterr()
        assert main(command) == 1
        err = capsys.readouterr().err
        _assert_one_line_error(err, "InvalidDimensionsError")
        assert err.startswith(f"error: InvalidDimensionsError: {model}: ")
    assert not (tmp_path / "emb.csv").exists()


@pytest.mark.parametrize("command", [
    ["evaluate", "holdout", "--k", "3"],
    ["train", "--mode", "holdout", "--out", "diverged-model.txt"],
])
def test_diverged_training_exits_with_one_line(synth_files, tmp_path, command):
    # a subprocess, so numpy's floating-point warnings would reach stderr
    t0, _, _ = synth_files
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(amfpmc.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "amfpmc.cli", *command, "--interactions", str(t0),
         "--dim", "8", "--epochs", "3", "--batch", "64", "--lr", "1e200"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1
    _assert_one_line_error(proc.stderr, "NonFiniteError")
    assert not (tmp_path / "diverged-model.txt").exists()


def test_diverged_training_with_a_helper_thread_exits_with_one_line(synth_files, tmp_path):
    # 40 drugs at d = 4,096 is above model.HELPER_MIN_PARAMETERS, so on two
    # CPUs the helper runs half of each Adam update; at this rate the squared
    # gradients overflow there, which the CLI's error state ignores
    t0, _, _ = synth_files
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(amfpmc.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "amfpmc.cli", "train", "--mode", "holdout", "--out", "model.txt",
         "--interactions", str(t0), "--dim", "4096", "--epochs", "3", "--batch", "64",
         "--lr", "1e150"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1
    _assert_one_line_error(proc.stderr, "NonFiniteError")
    assert not (tmp_path / "model.txt").exists()


@pytest.mark.parametrize("command", [
    ["evaluate", "holdout"],
    ["train", "--mode", "holdout", "--out", "model.txt"],
])
def test_diverged_run_with_finite_parameters_exits_with_one_line(synth_files, tmp_path, command):
    # at this rate the parameters stay finite (the largest about 1e81) while
    # Adam's second moments overflow to inf: train refuses the run itself
    t0, _, _ = synth_files
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(amfpmc.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "amfpmc.cli", *command, "--interactions", str(t0),
         "--dim", "4096", "--epochs", "3", "--batch", "64", "--lr", "1e80"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1
    _assert_one_line_error(proc.stderr, "NonFiniteError")
    assert "training diverged" in proc.stderr
    assert not (tmp_path / "model.txt").exists()


def test_diverged_grid_candidate_exits_with_one_line(synth_files, tmp_path):
    t0, _, _ = synth_files
    grid = tmp_path / "grid.txt"
    grid.write_text("learning_rate 1e200 0.01\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(amfpmc.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "amfpmc.cli", "gridsearch", "--interactions", str(t0),
         "--mode", "holdout", "--grid", str(grid), "--dim", "8", "--epochs", "3",
         "--batch", "64"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1
    _assert_one_line_error(proc.stderr, "NonFiniteError")
    assert "learning_rate=1e+200" in proc.stderr
    assert "best:" not in proc.stdout


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_predict_refuses_non_finite_model(model_and_pairs, capsys, value):
    model, pairs = model_and_pairs
    lines = model.read_text().splitlines()
    row = lines.index("E") + 1
    lines[row] = " ".join([value] * len(lines[row].split()))
    model.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["predict", "--model", str(model), "--pairs", str(pairs)])
    assert rc == 1
    captured = capsys.readouterr()
    _assert_one_line_error(captured.err, "FormatError")
    assert "non-finite" in captured.err
    assert not [l for l in captured.out.splitlines() if not l.startswith("#")]


@pytest.mark.parametrize("flags", [
    ["--test-cap", "-1"],
    ["--test-cap", "0"],
    ["--negative-ratio", "nan"],
    ["--negative-ratio", "inf"],
    ["--negative-ratio", "-0.5"],
])
def test_retrospective_split_refuses_bad_config(retro_files, capsys, flags):
    t0, t1 = retro_files
    capsys.readouterr()
    rc = main(["evaluate", "retrospective", "--t0", str(t0), "--t1", str(t1),
               "--dim", "4", "--epochs", "1", *flags])
    assert rc == 1
    _assert_one_line_error(capsys.readouterr().err, "InvalidConfigError")


def test_reports_identical_across_processes_and_hash_seeds(synth_files, retro_files, tmp_path):
    # string hashing differs per process; no report may depend on set or dict order
    t0, _, _ = synth_files
    r0, r1 = retro_files
    commands = {
        "holdout": ["evaluate", "holdout", "--interactions", str(t0), "--k", "3"],
        "retrospective": ["evaluate", "retrospective", "--t0", str(r0), "--t1", str(r1)],
    }
    pythonpath = os.path.dirname(os.path.dirname(amfpmc.__file__))
    for name, command in commands.items():
        reports = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"{name}-{hash_seed}.json"
            env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "amfpmc.cli", *command, "--dim", "8", "--epochs", "3",
                 "--batch", "64", "--seed", "5", "--json", str(out)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1], name


def _refused_everywhere(flag, value, grid_line, synth_files, retro_files, tmp_path, capsys,
                        monkeypatch):
    """The stderr lines of every training command given a bad hyperparameter.

    Hyperparameters are checked before any input is read, targeted or trained,
    and every grid candidate before the first one trains; each command must
    exit 1 with one line.
    """
    t0, _, _ = synth_files
    r0, r1 = retro_files
    grid, late_bad_grid = tmp_path / "grid.txt", tmp_path / "late-bad-grid.txt"
    grid.write_text("alpha 0.5\n")
    late_bad_grid.write_text(grid_line + "\n")
    calls = []
    for module, name in ((cli, "train"), (cli, "attach_targets"), (pipeline, "train")):
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name))
    gridsearch = ["gridsearch", "--interactions", str(t0), "--mode", "holdout", "--grid"]
    commands = [
        ["train", "--interactions", str(t0), "--mode", "holdout", "--out", str(tmp_path / "m"),
         flag, value],
        ["evaluate", "holdout", "--interactions", str(t0), flag, value],
        ["evaluate", "retrospective", "--t0", str(r0), "--t1", str(r1), flag, value],
        [*gridsearch, str(grid), flag, value],
        [*gridsearch, str(late_bad_grid)],
    ]
    errors = set()
    for command in commands:
        capsys.readouterr()
        assert main(command) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        errors.add(err)
    assert calls == []
    return errors


def test_alpha_out_of_range_is_one_error_everywhere(synth_files, retro_files, tmp_path,
                                                     capsys, monkeypatch):
    errors = _refused_everywhere("--alpha", "1.5", "alpha 0.5 1.5", synth_files, retro_files,
                                 tmp_path, capsys, monkeypatch)
    assert errors == {"error: InvalidConfigError: propagation factor must be in [0, 1], got 1.5\n"}


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_non_finite_learning_rate_is_one_error_everywhere(lr, synth_files, retro_files, tmp_path,
                                                          capsys, monkeypatch):
    # refused like a non-positive rate, not after training as a non-finite report
    errors = _refused_everywhere("--lr", lr, f"learning_rate 0.01 {lr}", synth_files, retro_files,
                                 tmp_path, capsys, monkeypatch)
    assert errors == {"error: InvalidDimensionsError: learning_rate must be positive and finite\n"}


@pytest.mark.parametrize("command", ["train", "holdout", "retrospective", "gridsearch", "synth"])
def test_negative_seed_is_one_error(synth_files, retro_files, tmp_path, capsys, command):
    # numpy's generators take no negative seed
    t0, _, _ = synth_files
    r0, r1 = retro_files
    grid = tmp_path / "grid.txt"
    grid.write_text("alpha 0.5\n")
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--interactions", str(t0), "--mode", "holdout", "--out", str(out)],
        "holdout": ["evaluate", "holdout", "--interactions", str(t0)],
        "retrospective": ["evaluate", "retrospective", "--t0", str(r0), "--t1", str(r1)],
        "gridsearch": ["gridsearch", "--interactions", str(t0), "--mode", "holdout",
                       "--grid", str(grid)],
        "synth": ["synth", "--n", "20", "--blocks", "2", "--k", "4", "--out-t0", str(out)],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: InvalidConfigError: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_impossible_allocation_is_one_error(synth_files, tmp_path, capsys):
    # 40 x 10**16 float64 embeddings are beyond any 64-bit address space
    t0, _, _ = synth_files
    out = tmp_path / "m.txt"
    capsys.readouterr()
    assert main(["train", "--interactions", str(t0), "--mode", "holdout", "--dim", str(10**16),
                 "--epochs", "1", "--out", str(out)]) == 1
    _assert_one_line_error(capsys.readouterr().err, "MemoryError")
    assert not out.exists()


def _parameter_default(fn, name):
    return inspect.signature(fn).parameters[name].default


def test_flag_defaults_come_from_the_library(tmp_path):
    parser = cli.build_parser()
    f = str(tmp_path / "f")
    hp = Hyperparameters()
    required = {
        "train": ["train", "--interactions", f, "--mode", "holdout", "--out", f],
        "holdout": ["evaluate", "holdout", "--interactions", f],
        "retrospective": ["evaluate", "retrospective", "--t0", f, "--t1", f],
        "gridsearch": ["gridsearch", "--interactions", f, "--mode", "holdout", "--grid", f],
    }
    parsed = {name: parser.parse_args(argv) for name, argv in required.items()}
    for args in parsed.values():
        assert cli._hp_from_args(args) == hp

    assert parsed["holdout"].k == _parameter_default(pipeline.holdout_evaluate, "k")
    retro = parsed["retrospective"]
    assert retro.test_cap == pipeline.DEFAULT_TEST_PAIR_CAP
    assert retro.test_cap == _parameter_default(pipeline.retrospective_split, "test_pair_cap")
    assert retro.negative_ratio == _parameter_default(pipeline.retrospective_split,
                                                      "negative_ratio")
    grid = parsed["gridsearch"]
    assert grid.validation_fraction == _parameter_default(pipeline.grid_search,
                                                          "validation_fraction")
    assert grid.objective == _parameter_default(pipeline.grid_search, "objective")
    assert grid.objective in pipeline.OBJECTIVES
    assert grid.allow_large is _parameter_default(pipeline.grid_search, "allow_large")

    synth = parser.parse_args(["synth", "--out-t0", f])
    cfg = SyntheticConfig()
    assert (synth.n, synth.blocks, synth.k, synth.p, synth.noise, synth.holdout, synth.seed,
            synth.mode) == (cfg.n_drugs, cfg.n_blocks, cfg.n_classes, cfg.edge_probability,
                            cfg.label_noise, cfg.holdout_fraction, cfg.seed, cfg.mode)


@pytest.mark.parametrize("command, payload", [
    ("train", "1"),
    ("extract", "Drug a may increase the bleeding activities of Drug b"),
])
def test_hash_leading_drug_id_is_one_error_naming_its_line(tmp_path, capsys, command, payload):
    # '#x' could never stand first on a line of an interactions or pairs file,
    # where '#' marks a comment
    tsv = tmp_path / "in.tsv"
    tsv.write_text(f"D1\tD2\t{payload}\nD1\t#x\t{payload}\n")
    out = str(tmp_path / "out")
    argv = {
        "train": ["train", "--interactions", str(tsv), "--mode", "holdout", "--out", out],
        "extract": ["extract", "--input", str(tsv), "--mode", "holdout", "--min-count", "1",
                    "--out-vocab", out, "--out-indexed", out + ".tsv"],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    _assert_one_line_error(err, "ParseError")
    assert f"{tsv}:2:" in err and "'#x'" in err


def _random_model(tmp_path, n=50, K=5, d=8):
    """A model file of drugs D0000..; parameters from init_model."""
    model = tmp_path / "model.txt"
    params = init_model(n, K, Hyperparameters(embedding_dim=d, seed=11))
    params.drug_bias[:] = np.random.default_rng(12).normal(size=n)
    formats.write_model(params, Roster([f"D{t:04d}" for t in range(n)]), str(model))
    return model


def _write_pairs(path, n_pairs, n=50, seed=0):
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, n_pairs)
    j = (i + rng.integers(1, n, n_pairs)) % n
    path.write_text("".join(f"D{a:04d}\tD{b:04d}\n" for a, b in zip(i.tolist(), j.tolist())))
    return np.column_stack([i, j])


@pytest.mark.parametrize("n_pairs", [16_384, 16_385, 24_575, 24_576, 40_000, 50_001])
def test_predict_is_bitwise_one_piece_scoring(tmp_path, capsys, n_pairs):
    # predict's 16 to 49 near-equal chunks give the bytes of scoring every pair in one piece
    model = _random_model(tmp_path)
    pairs = tmp_path / "pairs.tsv"
    ends = _write_pairs(pairs, n_pairs)
    out = tmp_path / "pred.tsv"
    rc = main(["predict", "--model", str(model), "--pairs", str(pairs), "--top-k", "2",
               "--out", str(out)])
    assert rc == 0
    probs = predict_batch(read_model(str(model))[0], ends[:, 0], ends[:, 1])
    top = np.argsort(-probs, axis=1, kind="stable")[:, :2]
    values = np.take_along_axis(probs, top, axis=1)
    expected = "".join(
        f"D{a:04d}\tD{b:04d}\t{k}\t{v:.6f}\n"
        for (a, b), ks, vs in zip(ends.tolist(), top.tolist(), values.tolist())
        for k, v in zip(ks, vs)
    )
    assert out.read_bytes() == expected.encode()


def test_predict_unknown_id_late_in_a_long_file_opens_no_output(tmp_path, capsys):
    model = _random_model(tmp_path)
    pairs = tmp_path / "pairs.tsv"
    _write_pairs(pairs, 20_000)
    with open(pairs, "a", encoding="utf-8") as fh:
        fh.write("D0000\tDXXXX\n")
    out = tmp_path / "pred.tsv"
    rc = main(["predict", "--model", str(model), "--pairs", str(pairs), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    _assert_one_line_error(captured.err, "UnknownDrugError")
    assert "'DXXXX'" in captured.err
    assert not out.exists()


def test_predict_without_data_lines_writes_nothing(tmp_path, capsys):
    model = _random_model(tmp_path)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("# no pairs\n\n")
    out = tmp_path / "pred.tsv"
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--pairs", str(pairs), "--out", str(out)]) == 0
    assert out.read_bytes() == b""
    assert main(["predict", "--model", str(model), "--pairs", str(pairs)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert all(line.startswith("#") for line in captured.out.splitlines())


#: What predict's traced peak may grow by beyond 16 bytes of codes per added pair:
#: its chunks hold at most 1,017 rows at 120,000 pairs and 1,000 at 40,000 (10 KB
#: measured at d=8, K=5, --top-k 1; chunks of up to 16,384 rows grew by 0.82 MB,
#: holding every pair whole by 35 MB).
PREDICT_SLACK_BYTES = 1 << 16


def test_predict_memory_grows_only_by_the_pair_codes(tmp_path, capsys):
    model = _random_model(tmp_path)
    peaks = {}
    for n_pairs in (40_000, 120_000):
        pairs = tmp_path / f"pairs{n_pairs}.tsv"
        _write_pairs(pairs, n_pairs)
        argv = ["predict", "--model", str(model), "--pairs", str(pairs), "--top-k", "1",
                "--out", str(tmp_path / "pred.tsv")]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peaks[n_pairs] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    growth = peaks[120_000] - peaks[40_000]
    assert growth <= 16 * 80_000 + PREDICT_SLACK_BYTES, (growth, peaks)
