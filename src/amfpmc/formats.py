"""File formats: interaction TSVs, vocabulary, model, and report persistence.

Interaction files are strict tab-separated text: one record per line, '#'
comments and blank lines skipped, anything malformed aborts with the line
number. Model files round-trip every float exactly (17 significant digits);
report files come in an aligned text form (4 decimals, the table style) and
a JSON form with full precision.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    FormatError,
    InvalidConfigError,
    InvalidDimensionsError,
    ParseError,
)
from .graph import RETROSPECTIVE, Roster, TypedInteractionGraph, check_dimensions, check_mode
from .metrics import MultiClassReport, _by_support
from .model import Hyperparameters, ModelParameters, check_model_dimensions
from .phrases import (
    NO_INTERACTION_MARKER,
    OTHER_MARKER,
    ClassVocabulary,
    InteractionSentence,
    KeywordPhrase,
)
from .pipeline import GRID_FIELDS, GridSpec

MODEL_MAGIC = "AMFPMC1"
#: 17 significant digits, so every float64 round-trips exactly.
FLOAT_FMT = "%.17g"


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return list(fh)
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None


def _data_lines(path: str):
    for line_no, raw in enumerate(_read_lines(path), start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield line_no, line


def parse_interactions_file(path: str, mode: str) -> list[tuple]:
    """Strict reader for 'indices' or 'sentences' lines, one row per data line.

    Index mode expects exactly 3 columns and gives (drug_a, drug_b, class)
    rows, the class a non-negative int. Sentence mode expects 3 columns, or 5
    when the two drug surface forms are given, and gives (drug_a, drug_b,
    InteractionSentence, line_no) rows; a missing or empty surface takes the
    sentence's default.
    """
    if mode not in ("indices", "sentences"):
        raise InvalidConfigError(f"mode must be 'indices' or 'sentences', got {mode!r}")
    sentences = mode == "sentences"
    widths = (3, 5) if sentences else (3,)
    rows: list[tuple] = []
    for line_no, line in _data_lines(path):
        cols = line.split("\t")
        if len(cols) not in widths:
            expected = " or ".join(map(str, widths))
            raise ParseError(path, line_no, f"expected {expected} tab-separated columns, got {len(cols)}")
        a, b, payload = cols[0].strip(), cols[1].strip(), cols[2].strip()
        if not a or not b or not payload:
            raise ParseError(path, line_no, "empty field")
        if a == b:
            raise ParseError(path, line_no, f"self-loop on {a!r}")
        if sentences:
            surface_a, surface_b = (cols[3].strip(), cols[4].strip()) if len(cols) == 5 else ("", "")
            sentence = InteractionSentence(
                payload,
                surface_a or InteractionSentence.drug_a_surface,
                surface_b or InteractionSentence.drug_b_surface,
            )
            rows.append((a, b, sentence, line_no))
        else:
            try:
                cls = int(payload)
            except ValueError:
                raise ParseError(path, line_no, f"class index is not an integer: {payload!r}") from None
            if cls < 0:
                raise ParseError(path, line_no, f"negative class index {cls}")
            rows.append((a, b, cls))
    return rows


def parse_pairs_file(path: str) -> list[tuple[str, str]]:
    """Two-column TSV of drug pairs (for predict)."""
    pairs = []
    for line_no, line in _data_lines(path):
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError(path, line_no, f"expected 2 tab-separated columns, got {len(cols)}")
        a, b = cols[0].strip(), cols[1].strip()
        if not a or not b:
            raise ParseError(path, line_no, "empty field")
        if a == b:
            raise ParseError(path, line_no, f"self-loop on {a!r}")
        pairs.append((a, b))
    return pairs


def class_count(rows: Sequence[tuple]) -> int:
    """The class count when none is declared: one past the largest class in index rows."""
    if not rows:
        raise FormatError("no interaction records")
    return max(row[2] for row in rows) + 1


def graph_from_index_records(
    rows: Sequence[tuple],
    mode: str,
    n_classes: Optional[int] = None,
) -> TypedInteractionGraph:
    """Assemble a graph from index-mode rows; roster is sorted external ids."""
    check_mode(mode)
    needed = class_count(rows)
    K = needed if n_classes is None else n_classes
    if K < needed:
        raise DimensionMismatchError(f"class {needed - 1} outside the declared {K} classes")
    drugs_a, drugs_b, classes = zip(*rows)
    ids = sorted(set(drugs_a).union(drugs_b))
    # checked before the int64 cast, which a class index beyond int64 would overflow
    check_dimensions(len(ids), K)
    index = {ext: t for t, ext in enumerate(ids)}
    m = len(rows)
    ends = np.fromiter(map(index.__getitem__, drugs_a + drugs_b), dtype=np.int64, count=2 * m)
    edges = np.column_stack([ends[:m], ends[m:], np.array(classes, dtype=np.int64)])
    return TypedInteractionGraph(len(ids), K, mode, edges, roster=Roster(ids))


def write_interactions_file(graph: TypedInteractionGraph, path: str) -> None:
    """Index-mode TSV of every edge, canonical order, external ids."""
    roster = graph.roster
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, c in graph.edge_list():
            a = roster.external_id(i) if roster else str(i)
            b = roster.external_id(j) if roster else str(j)
            fh.write(f"{a}\t{b}\t{c}\n")


def load_drug_subset(path: str) -> set[str]:
    """One external drug id per line, '#' comments allowed."""
    return {line.strip() for _, line in _data_lines(path)}


# -- roster sidecar ----------------------------------------------------------


def write_roster(roster: Roster, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ext in roster:
            fh.write(ext + "\n")


def read_roster(path: str) -> Roster:
    ids = [line for _, line in _data_lines(path)]
    if not ids:
        raise FormatError(f"empty roster file {path}")
    return Roster(ids)


# -- model persistence -------------------------------------------------------


def write_model(params: ModelParameters, path: str) -> None:
    """Text format: 'AMFPMC1 n K d' header, then sections E, b, W, c, u."""
    n, K, d = params.n_drugs, params.n_classes, params.embedding_dim

    def rows(arr: np.ndarray):
        mat = np.atleast_2d(arr)
        for row in mat:
            yield " ".join(FLOAT_FMT % v for v in row)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MODEL_MAGIC} {n} {K} {d}\n")
        for name, arr in (
            ("E", params.embeddings),
            ("b", params.drug_bias),
            ("W", params.class_proj),
            ("c", params.class_bias),
            ("u", params.bias_coupling),
        ):
            fh.write(name + "\n")
            for line in rows(arr):
                fh.write(line + "\n")


def read_model(path: str) -> ModelParameters:
    lines = [line.rstrip("\n") for line in _read_lines(path)]
    if not lines:
        raise FormatError(f"{path}: empty model file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != MODEL_MAGIC:
        raise FormatError(f"{path}: bad header {lines[0]!r}")
    try:
        n, K, d = (int(x) for x in header[1:])
    except ValueError:
        raise FormatError(f"{path}: non-integer dimensions in header") from None
    try:
        check_model_dimensions(n, K, d)
    except InvalidDimensionsError as exc:
        raise InvalidDimensionsError(f"{path}: {exc}") from None

    sections = {"E": (n, d), "b": (1, n), "W": (K, d), "c": (1, K), "u": (1, K)}
    pos = 1
    arrays: dict[str, np.ndarray] = {}
    for name in ("E", "b", "W", "c", "u"):
        if pos >= len(lines) or lines[pos].strip() != name:
            raise FormatError(f"{path}: expected section {name!r} at line {pos + 1}")
        pos += 1
        n_rows, n_cols = sections[name]
        rows = []
        for _ in range(n_rows):
            if pos >= len(lines):
                raise FormatError(f"{path}: truncated section {name!r}")
            values = lines[pos].split()
            if len(values) != n_cols:
                raise DimensionMismatchError(
                    f"{path}: section {name!r} row has {len(values)} values, expected {n_cols}"
                )
            try:
                rows.append([float(v) for v in values])
            except ValueError:
                raise FormatError(f"{path}: non-numeric value in section {name!r}") from None
            pos += 1
        arr = np.array(rows, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"{path}: non-finite value in section {name!r}")
        arrays[name] = arr[0] if name in ("b", "c", "u") else arr
    if pos != len(lines) and any(line.strip() for line in lines[pos:]):
        raise FormatError(f"{path}: trailing content after section 'u'")
    return ModelParameters(arrays["E"], arrays["b"], arrays["W"], arrays["c"], arrays["u"])


# -- vocabulary persistence ----------------------------------------------------


def write_vocabulary(vocab: ClassVocabulary, path: str) -> None:
    """'mode <mode>' line, then 'index<TAB>phrase<TAB>count' per class."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"mode\t{vocab.mode}\n")
        for idx in range(vocab.n_classes):
            fh.write(f"{idx}\t{vocab.class_label(idx)}\t{vocab.counts.get(idx, 0)}\n")


def read_vocabulary(path: str) -> ClassVocabulary:
    lines = list(_data_lines(path))
    if not lines:
        raise FormatError(f"{path}: empty vocabulary file")
    line_no, header = lines[0]
    parts = header.split("\t")
    if len(parts) != 2 or parts[0] != "mode":
        raise ParseError(path, line_no, "first line must be 'mode<TAB><mode>'")
    mode = parts[1]
    check_mode(mode)
    class_to_phrase: dict[int, KeywordPhrase] = {}
    counts: dict[int, int] = {}
    other_class: Optional[int] = None
    for line_no, line in lines[1:]:
        cols = line.split("\t")
        if len(cols) != 3:
            raise ParseError(path, line_no, f"expected 3 columns, got {len(cols)}")
        try:
            idx, cnt = int(cols[0]), int(cols[2])
        except ValueError:
            raise ParseError(path, line_no, "index and count must be integers") from None
        label = cols[1].strip()
        counts[idx] = cnt
        if label == OTHER_MARKER:
            other_class = idx
        elif label == NO_INTERACTION_MARKER:
            if mode != RETROSPECTIVE or idx != 0:
                raise ParseError(path, line_no, "reserved index outside retrospective slot 0")
        else:
            class_to_phrase[idx] = KeywordPhrase.from_text(label)
    return ClassVocabulary(mode, class_to_phrase, counts, other_class)


# -- report persistence --------------------------------------------------------


def format_report_text(
    report: MultiClassReport, class_names: Optional[dict[int, str]] = None
) -> str:
    """Aligned key-value block, 4 decimals, per-class table by support desc."""
    out = []
    for name, value in report.scalar_items():
        rendered = "n/a" if value is None else f"{value:.4f}"
        out.append(f"{name:<16} {rendered}")
    if report.per_class:
        out.append("")
        header = f"{'class':>6} {'support':>8} {'auroc':>8} {'aupr':>8}"
        if class_names:
            header += "  interaction"
        out.append(header)
        for r in sorted(report.per_class, key=_by_support):
            auroc = "n/a" if r.auroc is None else f"{r.auroc:.4f}"
            aupr = "n/a" if r.aupr is None else f"{r.aupr:.4f}"
            line = f"{r.class_id:>6} {r.support:>8} {auroc:>8} {aupr:>8}"
            if class_names:
                line += f"  {class_names.get(r.class_id, '')}"
            out.append(line)
    return "\n".join(out) + "\n"


def report_to_dict(report: MultiClassReport) -> dict:
    return {
        "scalars": {name: value for name, value in report.scalar_items()},
        "per_class": [
            {"class": r.class_id, "support": r.support, "auroc": r.auroc, "aupr": r.aupr}
            for r in report.per_class
        ],
    }


def write_report(
    report: MultiClassReport,
    path: str,
    fmt: str = "text",
    class_names: Optional[dict[int, str]] = None,
) -> None:
    """fmt 'text' (4-decimal table style) or 'structured' (full-precision JSON)."""
    if fmt == "text":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_report_text(report, class_names))
    elif fmt == "structured":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report_to_dict(report), fh, indent=2)
            fh.write("\n")
    else:
        raise InvalidConfigError(f"fmt must be 'text' or 'structured', got {fmt!r}")


# -- grid files -----------------------------------------------------------------

def parse_grid_file(path: str) -> GridSpec:
    """'<name> <value> <value> ...' per line; values take their Hyperparameters field's type."""
    defaults = Hyperparameters()
    values: dict[str, list] = {}
    for line_no, line in _data_lines(path):
        parts = line.split()
        name = parts[0]
        if name not in GRID_FIELDS:
            raise ParseError(path, line_no, f"unknown grid dimension {name!r}")
        if len(parts) < 2:
            raise ParseError(path, line_no, f"dimension {name!r} lists no values")
        if name in values:
            raise ParseError(path, line_no, f"dimension {name!r} repeated")
        caster = type(getattr(defaults, name))
        try:
            values[name] = [caster(v) for v in parts[1:]]
        except ValueError:
            raise ParseError(path, line_no, f"bad value for {name!r}") from None
    return GridSpec(values)
