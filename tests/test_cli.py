import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import amfpmc
from amfpmc import cli, formats, pipeline
from amfpmc.cli import main
from amfpmc.formats import read_model, read_vocabulary
from amfpmc.model import Hyperparameters
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


def test_train_predict_export_flow(synth_files, tmp_path, capsys):
    t0, _, _ = synth_files
    model = tmp_path / "model.txt"
    rc = main(["train", "--interactions", str(t0), "--mode", "holdout",
               "--dim", "8", "--epochs", "5", "--batch", "64", "--lr", "0.01",
               "--alpha", "0.5", "--seed", "0", "--out", str(model)])
    assert rc == 0
    assert model.exists() and (tmp_path / "model.txt.roster").exists()
    params = read_model(str(model))
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
    values = np.array([float(v) for v in lines[1].split(",")[1:]])
    assert np.array_equal(values, params.embeddings[0])


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


def test_extract_cli(tmp_path, capsys):
    sentences = tmp_path / "sentences.tsv"
    sentences.write_text(
        "D1\tD2\tThe metabolism of Drug b can be decreased when combined with Drug a\n"
        "D1\tD3\tThe metabolism of Drug b can be decreased when combined with Drug a\n"
        "D2\tD3\tDrug a may increase the hypoglycemic activities of Drug b\n"
    )
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
    params = read_model(str(model))
    for arr in (params.class_proj, params.class_bias, params.bias_coupling):
        arr[...] = 0.0
    formats.write_model(params, str(model))
    pairs.write_text("D0000\tD0001\nD0002\tD0000\n")
    capsys.readouterr()
    rc = main(["predict", "--model", str(model), "--pairs", str(pairs), "--top-k", "3"])
    assert rc == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    share = f"{1.0 / params.n_classes:.6f}"
    assert rows == [f"{a}\t{b}\t{k}\t{share}" for a, b in [("D0000", "D0001"), ("D0002", "D0000")]
                    for k in range(3)]


def test_duplicate_roster_id_exits_with_one_line(model_and_pairs, tmp_path, capsys):
    model, pairs = model_and_pairs
    roster = tmp_path / "dup.roster"
    lines = (tmp_path / "model.txt.roster").read_text().splitlines()
    roster.write_text("\n".join([lines[0]] + lines[:-1]) + "\n")
    capsys.readouterr()
    rc = main(["predict", "--model", str(model), "--roster", str(roster), "--pairs", str(pairs)])
    assert rc == 1
    _assert_one_line_error(capsys.readouterr().err, "DuplicateIdError")


def test_roster_size_mismatch_is_one_error_for_both_model_readers(model_and_pairs, tmp_path,
                                                                   capsys):
    model, pairs = model_and_pairs
    roster = tmp_path / "short.roster"
    roster.write_text("".join(f"D{i:04d}\n" for i in range(5)))
    commands = [
        ["predict", "--model", str(model), "--roster", str(roster), "--pairs", str(pairs)],
        ["export-embeddings", "--model", str(model), "--roster", str(roster),
         "--out", str(tmp_path / "emb.csv")],
    ]
    for command in commands:
        capsys.readouterr()
        assert main(command) == 1
        assert capsys.readouterr().err == (
            "error: ShapeMismatchError: roster lists 5 drugs but the model has 40 rows\n"
        )
    assert not (tmp_path / "emb.csv").exists()


def _model_file_commands(tmp_path, n, K, d):
    """predict and export-embeddings on a model file of header n K d whose sections match it."""
    def rows(count, width):
        return [" ".join(["0.5"] * max(width, 0))] * max(count, 0)

    sections = {"E": rows(n, d), "b": rows(1, n), "W": rows(K, d), "c": rows(1, K), "u": rows(1, K)}
    lines = [f"AMFPMC1 {n} {K} {d}"]
    for name, body in sections.items():
        lines += [name, *body]
    model = tmp_path / "degenerate.txt"
    model.write_text("\n".join(lines) + "\n")
    (tmp_path / "degenerate.txt.roster").write_text("".join(f"D{i}\n" for i in range(max(n, 0))))
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
