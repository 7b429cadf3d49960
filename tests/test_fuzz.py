"""Seeded mutation fuzzing of every file the CLI reads.

Each case mutates one input file (bytes deleted, inserted or replaced, lines
duplicated or dropped, the file truncated, or one number replaced with a huge
integer) and runs one subcommand through main(); the stop list and verb table
start as copies of the packaged files.
The run must succeed, or exit 1 with exactly one stderr line that
starts with 'error: '; an exception escaping main() fails the test.
"""

import re
from importlib import resources

import numpy as np
import pytest

from amfpmc.cli import main

SEEDS = range(40)
INSERTS = [b"\t", b"\n", b" ", b"#", b"-", b".", b"0", b"1", b"9", b"e", b"x", b"D",
           b"\x00", b"\xff", "é".encode()]
# 2**31, 2**62, 2**63 - 1 and 10**20: past int32, near and past the int64 limit
HUGE = [str(v).encode() for v in (2**31, 2**62, 2**63 - 1, 10**20)]
TINY = ["--dim", "4", "--epochs", "1", "--batch", "64", "--seed", "0"]


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    for _ in range(int(rng.integers(1, 4))):
        pos = int(rng.integers(0, len(data) + 1))
        kind = int(rng.integers(0, 6))
        if kind == 0:
            data = data[:pos] + data[pos + 1 :]
        elif kind == 1:
            data = data[:pos] + INSERTS[int(rng.integers(0, len(INSERTS)))] + data[pos:]
        elif kind == 2:
            data = data[:pos] + INSERTS[int(rng.integers(0, len(INSERTS)))] + data[pos + 1 :]
        elif kind == 5:
            data = data[:pos]
        else:
            lines = data.split(b"\n")
            t = int(rng.integers(0, len(lines)))
            lines[t:t + 1] = [lines[t]] * (2 if kind == 3 else 0)
            data = b"\n".join(lines)
    return data


def replace_number(data: bytes, value: bytes, rng: np.random.Generator) -> bytes:
    """Replace one run of digits with value; in a file without digits, one word."""
    tokens = list(re.finditer(rb"\d+", data)) or list(re.finditer(rb"\S+", data))
    t = tokens[int(rng.integers(0, len(tokens)))]
    return data[: t.start()] + value + data[t.end() :]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz-base")
    f = {name: d / name for name in (
        "holdout.tsv", "t0.tsv", "t1.tsv", "model.txt", "pairs.tsv", "grid.txt",
        "subset.txt", "sentences.tsv", "vocab.tsv", "indexed.tsv")}
    assert main(["synth", "--n", "16", "--blocks", "2", "--k", "4", "--p", "0.5",
                 "--seed", "1", "--out-t0", str(f["holdout.tsv"])]) == 0
    assert main(["synth", "--n", "16", "--blocks", "2", "--k", "5", "--p", "0.5",
                 "--holdout", "0.3", "--seed", "2", "--mode", "retrospective",
                 "--out-t0", str(f["t0.tsv"]), "--out-t1", str(f["t1.tsv"])]) == 0
    assert main(["train", "--interactions", str(f["holdout.tsv"]), "--mode", "holdout",
                 *TINY, "--out", str(f["model.txt"])]) == 0
    f["roster"] = d / "model.txt.roster"
    f["pairs.tsv"].write_text("D0000\tD0001\nD0002\tD0015\n")
    f["grid.txt"].write_text("alpha 0.0 0.5\ndropout 0.0\n")
    f["subset.txt"].write_text("# drugs\n" + "".join(f"D{i:04d}\n" for i in range(0, 16, 2)))
    f["sentences.tsv"].write_text(
        "D1\tD2\tThe metabolism of Drug b can be decreased when combined with Drug a\n"
        "D1\tD3\tThe metabolism of Drug b can be decreased when combined with Drug a\n"
        "D2\tD3\tDrug a may increase the hypoglycemic activities of Drug b\t"
        "aspirin\theparin\n"
    )
    for name in ("stoplist.txt", "verb_forms.txt"):
        f[name] = d / name
        f[name].write_bytes(resources.files("amfpmc.data").joinpath(name).read_bytes())
    assert main(["extract", "--input", str(f["sentences.tsv"]), "--mode", "retrospective",
                 "--top-n", "1", "--out-vocab", str(f["vocab.tsv"]),
                 "--out-indexed", str(f["indexed.tsv"])]) == 0
    return f


def commands(f, mutated, out):
    """Subcommands that read the file kind, with the mutated file in its place."""
    retro = ["evaluate", "retrospective", "--test-cap", "50", *TINY]
    extract = ["extract", "--input", f["sentences.tsv"], "--mode", "retrospective", "--top-n", "1",
               "--out-vocab", out, "--out-indexed", out + ".tsv"]
    return {
        "holdout.tsv": [["evaluate", "holdout", "--interactions", mutated, "--k", "2", *TINY,
                         "--json", out],
                        ["gridsearch", "--interactions", mutated, "--mode", "holdout",
                         "--grid", f["grid.txt"], *TINY]],
        "t0.tsv": [[*retro, "--t0", mutated, "--t1", f["t1.tsv"]],
                   ["train", "--interactions", mutated, "--mode", "retrospective", *TINY,
                    "--out", out]],
        "t1.tsv": [[*retro, "--t0", f["t0.tsv"], "--t1", mutated]],
        "subset.txt": [[*retro, "--t0", f["t0.tsv"], "--t1", f["t1.tsv"], "--subset", mutated]],
        "grid.txt": [["gridsearch", "--interactions", f["holdout.tsv"], "--mode", "holdout",
                      "--grid", mutated, *TINY]],
        "model.txt": [["predict", "--model", mutated, "--roster", f["roster"],
                       "--pairs", f["pairs.tsv"], "--out", out],
                      ["export-embeddings", "--model", mutated, "--roster", f["roster"],
                       "--out", out]],
        "roster": [["predict", "--model", f["model.txt"], "--roster", mutated,
                    "--pairs", f["pairs.tsv"], "--top-k", "2", "--out", out]],
        "pairs.tsv": [["predict", "--model", f["model.txt"], "--roster", f["roster"],
                       "--pairs", mutated, "--out", out]],
        "vocab.tsv": [["evaluate", "holdout", "--interactions", f["holdout.tsv"], "--k", "2",
                       *TINY, "--vocab", mutated]],
        "sentences.tsv": [["extract", "--input", mutated, "--mode", "retrospective",
                           "--top-n", "1", "--out-vocab", out, "--out-indexed", out + ".tsv"]],
        "stoplist.txt": [[*extract, "--stoplist", mutated]],
        "verb_forms.txt": [[*extract, "--verb-table", mutated]],
    }


KINDS = ["holdout.tsv", "t0.tsv", "t1.tsv", "subset.txt", "grid.txt", "model.txt", "roster",
         "pairs.tsv", "vocab.tsv", "sentences.tsv", "stoplist.txt", "verb_forms.txt"]


def check_cases(base, tmp_path, capsys, kind, cases):
    """Run each (label, bytes) case through every command reading kind; each exits 0 or with one error line."""
    mutated = tmp_path / ("mutated-" + kind)
    out = str(tmp_path / "out")
    for label, data in cases:
        mutated.write_bytes(data)
        for argv in commands({k: str(v) for k, v in base.items()}, str(mutated), out)[kind]:
            capsys.readouterr()
            rc = main(argv)
            err = capsys.readouterr().err
            case = f"{argv[0]} with mutated {kind} ({label}): {data!r}"
            assert rc in (0, 1), case
            if rc == 1:
                assert len(err.splitlines()) == 1 and err.startswith("error: "), f"{case}\n{err}"


@pytest.mark.parametrize("kind", KINDS)
def test_mutated_input_exits_cleanly(base, tmp_path, capsys, kind):
    original = base[kind].read_bytes()
    check_cases(base, tmp_path, capsys, kind, (
        (f"seed {seed}", mutate(original, np.random.default_rng([seed, KINDS.index(kind)])))
        for seed in SEEDS
    ))


@pytest.mark.parametrize("kind", KINDS)
def test_huge_integer_exits_cleanly(base, tmp_path, capsys, kind):
    original = base[kind].read_bytes()
    rng = np.random.default_rng([99, KINDS.index(kind)])
    check_cases(base, tmp_path, capsys, kind, (
        (f"{value.decode()}, draw {draw}", replace_number(original, value, rng))
        for draw in range(8)
        for value in HUGE
    ))
