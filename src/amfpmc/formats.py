"""File formats: interaction TSVs, vocabulary, model, and report persistence.

Interaction files are strict tab-separated text: one record per line, '#'
comments and blank lines skipped, anything malformed aborts with the line
number. Model files round-trip every float exactly (17 significant digits);
report files come in an aligned text form (4 decimals, the table style) and
a JSON form with full precision.
"""

from __future__ import annotations

import itertools
import json
from array import array
from dataclasses import dataclass
from typing import Optional

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


#: Characters decoded per read while a file is checked for UTF-8.
_DECODE_CHUNK = 1 << 16


def _data_lines(path: str, keep_all: bool = False):
    """(line_no, line) for each line of path, its newline removed, one line at a time.

    Blank lines and '#' comments are skipped unless keep_all. The whole file
    is decoded once before the first line is given, so a file that is not
    UTF-8 is refused as such whatever its earlier lines hold.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            while fh.read(_DECODE_CHUNK):
                pass
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if keep_all or (line.strip() and not line.lstrip().startswith("#")):
                yield line_no, line


@dataclass(frozen=True)
class IndexRecords:
    """The data lines of an index-mode interactions file, drug ids interned.

    Row r is (ids[ends[r, 0]], ids[ends[r, 1]], classes[r]): ids lists each
    drug once, in order of first appearance, and ends is (m, 2) int64.
    max_class is the largest class exactly, -1 when there is no row; a class
    beyond int64 is -1 in classes and is never read, since it cannot fit a
    graph (graph_from_index_records).
    """

    ids: list[str]
    ends: np.ndarray
    classes: np.ndarray
    max_class: int

    def __len__(self) -> int:
        return len(self.classes)


def parse_interactions_file(path: str, mode: str):
    """Strict reader for 'indices' or 'sentences' lines, read one line at a time.

    Index mode expects exactly 3 columns, the class a non-negative int, and
    gives IndexRecords: codes and classes in int64 buffers, no object per
    line. Sentence mode expects 3 columns, or 5 when the two drug surface
    forms are given, and gives (drug_a, drug_b, InteractionSentence, line_no)
    rows; a missing or empty surface takes the sentence's default. A drug id
    may not begin with '#', which marks a comment in the roster sidecar.
    """
    if mode not in ("indices", "sentences"):
        raise InvalidConfigError(f"mode must be 'indices' or 'sentences', got {mode!r}")
    sentences = mode == "sentences"
    widths = (3, 5) if sentences else (3,)
    rows: list[tuple] = []
    codes: dict[str, int] = {}
    intern = codes.setdefault
    ends, classes = array("q"), array("q")
    add_end, add_class = ends.append, classes.append
    beyond_int64 = -1
    for line_no, line in _data_lines(path):
        cols = line.split("\t")
        if len(cols) not in widths:
            expected = " or ".join(map(str, widths))
            raise ParseError(path, line_no, f"expected {expected} tab-separated columns, got {len(cols)}")
        a, b, payload = cols[0].strip(), cols[1].strip(), cols[2].strip()
        if not a or not b or not payload:
            raise ParseError(path, line_no, "empty field")
        # a '#' first in column 1 makes the whole line a comment
        if b[0] == "#":
            raise ParseError(path, line_no,
                             f"drug id {b!r} begins with '#', which marks a comment")
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
            continue
        try:
            cls = int(payload)
        except ValueError:
            raise ParseError(path, line_no, f"class index is not an integer: {payload!r}") from None
        if cls < 0:
            raise ParseError(path, line_no, f"negative class index {cls}")
        add_end(intern(a, len(codes)))
        add_end(intern(b, len(codes)))
        try:
            add_class(cls)
        except OverflowError:
            beyond_int64 = max(beyond_int64, cls)
            add_class(-1)
    if sentences:
        return rows
    class_arr = np.frombuffer(classes, dtype=np.int64)
    max_class = max(beyond_int64, int(class_arr.max())) if len(class_arr) else -1
    return IndexRecords(list(codes), np.frombuffer(ends, dtype=np.int64).reshape(-1, 2),
                        class_arr, max_class)


def read_pairs(path: str, roster: Roster) -> np.ndarray:
    """The (m, 2) int64 roster indices of a two-column TSV of drug pairs (for predict).

    Every line is checked before an unknown id is refused, the first one in
    column 1 ahead of any in column 2.
    """
    index = {ext: t for t, ext in enumerate(roster)}
    ends = array("q")
    unknown: list = [None, None]
    for line_no, line in _data_lines(path):
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError(path, line_no, f"expected 2 tab-separated columns, got {len(cols)}")
        a, b = cols[0].strip(), cols[1].strip()
        if not a or not b:
            raise ParseError(path, line_no, "empty field")
        if a == b:
            raise ParseError(path, line_no, f"self-loop on {a!r}")
        i, j = index.get(a, -1), index.get(b, -1)
        if i < 0 and unknown[0] is None:
            unknown[0] = a
        if j < 0 and unknown[1] is None:
            unknown[1] = b
        ends.append(i)
        ends.append(j)
    for ext in unknown:
        if ext is not None:
            roster.index_of(ext)
    return np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)


def class_count(records: IndexRecords) -> int:
    """The class count when none is declared: one past the largest class in the records."""
    if not len(records):
        raise FormatError("no interaction records")
    return records.max_class + 1


def graph_from_index_records(
    records: IndexRecords,
    mode: str,
    n_classes: Optional[int] = None,
) -> TypedInteractionGraph:
    """Assemble a graph from index-mode records; roster is sorted external ids."""
    check_mode(mode)
    needed = class_count(records)
    K = needed if n_classes is None else n_classes
    if K < needed:
        raise DimensionMismatchError(f"class {needed - 1} outside the declared {K} classes")
    n = len(records.ids)
    # checked before any class is read, so a class beyond int64 never is
    check_dimensions(n, K)
    order = sorted(range(n), key=records.ids.__getitem__)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    edges = np.empty((len(records), 3), dtype=np.int64)
    edges[:, :2] = rank[records.ends]
    edges[:, 2] = records.classes
    return TypedInteractionGraph(n, K, mode, edges, roster=Roster([records.ids[t] for t in order]))


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
    lines = (line for _, line in _data_lines(path, keep_all=True))
    first = next(lines, None)
    if first is None:
        raise FormatError(f"{path}: empty model file")
    header = first.split()
    if len(header) != 4 or header[0] != MODEL_MAGIC:
        raise FormatError(f"{path}: bad header {first!r}")
    try:
        n, K, d = (int(x) for x in header[1:])
    except ValueError:
        raise FormatError(f"{path}: non-integer dimensions in header") from None
    try:
        check_model_dimensions(n, K, d)
    except InvalidDimensionsError as exc:
        raise InvalidDimensionsError(f"{path}: {exc}") from None

    sections = {"E": (n, d), "b": (1, n), "W": (K, d), "c": (1, K), "u": (1, K)}
    line_no = 1
    arrays: dict[str, np.ndarray] = {}
    for name in ("E", "b", "W", "c", "u"):
        line_no += 1
        if next(lines, "").strip() != name:
            raise FormatError(f"{path}: expected section {name!r} at line {line_no}")
        n_rows, n_cols = sections[name]
        rows = []
        for line in itertools.islice(lines, n_rows):
            line_no += 1
            values = line.split()
            if len(values) != n_cols:
                raise DimensionMismatchError(
                    f"{path}: section {name!r} row has {len(values)} values, expected {n_cols}"
                )
            try:
                rows.append([float(v) for v in values])
            except ValueError:
                raise FormatError(f"{path}: non-numeric value in section {name!r}") from None
        if len(rows) < n_rows:
            raise FormatError(f"{path}: truncated section {name!r}")
        arr = np.array(rows, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"{path}: non-finite value in section {name!r}")
        arrays[name] = arr[0] if name in ("b", "c", "u") else arr
    if any(line.strip() for line in lines):
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
    lines = _data_lines(path)
    first = next(lines, None)
    if first is None:
        raise FormatError(f"{path}: empty vocabulary file")
    line_no, header = first
    parts = header.split("\t")
    if len(parts) != 2 or parts[0] != "mode":
        raise ParseError(path, line_no, "first line must be 'mode<TAB><mode>'")
    mode = parts[1]
    check_mode(mode)
    class_to_phrase: dict[int, KeywordPhrase] = {}
    counts: dict[int, int] = {}
    other_class: Optional[int] = None
    for line_no, line in lines:
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
