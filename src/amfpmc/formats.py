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
    ShapeMismatchError,
    VocabularyError,
)
from .graph import Roster, TypedInteractionGraph, check_dimensions, check_mode
from .metrics import MultiClassReport, _by_support
from .model import Hyperparameters, ModelParameters, check_model_dimensions, parameter_shapes
from .phrases import ClassVocabulary, InteractionSentence
from .pipeline import GRID_FIELDS, GridSpec

MODEL_MAGIC = "AMFPMC2"
#: A model file's float sections, in the order of ModelParameters.arrays(); the
#: ids section, the drug id of each row, comes before them.
MODEL_SECTIONS = "EbWcu"
#: 17 significant digits, so every float64 round-trips exactly.
FLOAT_FMT = "%.17g"


#: Characters decoded per read: files are checked for UTF-8 and read in
#: blocks of this many characters and the rest of the line the read stopped in.
_DECODE_CHUNK = 1 << 16
#: Longest drug id, in bytes, that a block may hold and still be parsed by
#: numpy, which pads every id of the block to the longest one.
_PLAIN_ID_BYTES = 64


def _blocks(path: str):
    """(first_line, block) for each run of whole lines of path: one read of
    _DECODE_CHUNK characters and the rest of the line it stopped in.

    first_line numbers the block's first line, and every line of a block ends
    in '\\n': lines end where a text-mode read ends them ('\\n', '\\r\\n' or a
    lone '\\r'), and a last line without an ending gets one. The whole file
    is decoded once before the first block is given, so a file that is not
    UTF-8 is refused as such whatever its earlier lines hold.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            while fh.read(_DECODE_CHUNK):
                pass
        except UnicodeDecodeError:
            raise FormatError(f"{path}: not UTF-8 text") from None
        fh.seek(0)
        line_no = 1
        while block := fh.read(_DECODE_CHUNK) + fh.readline():
            if block[-1] != "\n":
                block += "\n"
            yield line_no, block
            line_no += block.count("\n")


def _block_lines(first_line: int, block: str, keep_all: bool = False):
    """(line_no, line) for each line of a block from _blocks, its newline removed.

    Blank lines and '#' comments are skipped unless keep_all.
    """
    for line_no, line in enumerate(block[:-1].split("\n"), first_line):
        if keep_all or (line.strip() and not line.lstrip().startswith("#")):
            yield line_no, line


def _data_lines(path: str, keep_all: bool = False):
    """(line_no, line) for each line of path, its newline removed, a block at a time."""
    for first_line, block in _blocks(path):
        yield from _block_lines(first_line, block, keep_all)


def _plain_block(block: str, n_cols: int):
    """The drug ids and classes of a block that numpy can parse whole, or None.

    A block is plain when it is ASCII and each line is 'id TAB id' (n_cols
    2) or 'id TAB id TAB digits' (n_cols 3), with ids of 1 to
    _PLAIN_ID_BYTES bytes in 0x21-0x7E other than '#', classes of 1 to 18
    digits (below 2**63 whatever they are) and no line naming one drug
    twice. Such lines pass every per-line check unchanged by strip(), so
    any other block is left to the per-line code, the one place that
    refuses a line. Returns (names, inverse, classes): the drugs of row r
    are names[inverse[2r]] and names[inverse[2r + 1]], names distinct;
    classes is None when n_cols is 2. Each temporary is dropped once used,
    so the block's arrays stay a small multiple of its text.
    """
    if not block.isascii() or "#" in block:
        return None
    buf = np.frombuffer(block.encode("ascii"), dtype=np.uint8)
    # every byte outside 0x21-0x7E must close a field: a tab, or the newline
    # after the line's last field; no field may be empty
    closes = buf - np.uint8(0x21) > 0x7E - 0x21
    if closes[0] or np.any(closes[1:] & closes[:-1]):
        return None
    seps = np.flatnonzero(closes)
    del closes
    if len(seps) % n_cols:
        return None
    seps = seps.reshape(-1, n_cols)
    kinds = buf[seps]
    if np.any(kinds[:, :-1] != 9) or np.any(kinds[:, -1] != 10):
        return None
    classes = None
    if n_cols == 3:
        classes = _decimal(buf, seps[:, 1] + 1, seps[:, 2] - seps[:, 1] - 1)
        if classes is None:
            return None
    # the ids' first bytes and sizes, row by row: a0 b0 a1 b1 ...
    starts = np.empty((len(seps), 2), dtype=np.int64)
    starts[0, 0] = 0
    starts[1:, 0] = seps[:-1, -1] + 1
    starts[:, 1] = seps[:, 0] + 1
    sizes = seps[:, :2] - starts
    del seps
    if sizes.max() > _PLAIN_ID_BYTES:
        return None
    keys = _fixed_width(buf, starts.ravel(), sizes.ravel())
    del starts, sizes
    uniq, inverse = _distinct(keys)
    if np.any(inverse[0::2] == inverse[1::2]):
        return None
    names = list(map(bytes.decode, uniq.view(f"S{keys.itemsize}").tolist()))
    return names, inverse, classes


def _decimal(buf: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> Optional[np.ndarray]:
    """The int64 values of the runs buf[starts[r]:starts[r] + sizes[r]], or
    None if one is longer than 18 bytes or holds a byte that is not a digit."""
    if sizes.max() > 18:
        return None
    values = np.zeros(len(starts), dtype=np.int64)
    for c in range(int(sizes.max())):
        digit = buf.take(starts + c, mode="clip") - np.uint8(48)
        live = c < sizes
        if np.any(live & (digit > 9)):
            return None
        values = np.where(live, values * 10 + digit, values)
    return values


def _fixed_width(buf: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The byte strings buf[starts[k]:starts[k] + sizes[k]], zero-padded to a
    multiple of 8 bytes: one uint64 each when 8 bytes will do, since those
    compare fastest, else one numpy byte string each."""
    longest = int(sizes.max())
    table = np.zeros((len(starts), -(-longest // 8) * 8), dtype=np.uint8)
    for c in range(longest):
        column = buf.take(starts + c, mode="clip")
        column[sizes <= c] = 0
        table[:, c] = column
    width = table.shape[1]
    return table.view(np.uint64 if width == 8 else f"S{width}").ravel()


def _distinct(keys: np.ndarray):
    """(distinct keys, inverse) as np.unique gives them, in fewer temporaries."""
    order = np.argsort(keys)
    ordered = keys[order]
    step = np.empty(len(keys), dtype=bool)
    step[:1] = True
    step[1:] = ordered[1:] != ordered[:-1]
    uniq = ordered[step]
    del ordered
    group = np.cumsum(step)
    group -= 1
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = group
    return uniq, inverse


@dataclass(frozen=True)
class IndexRecords:
    """The data lines of an 'id TAB id' or 'id TAB id TAB class' file, drug ids interned.

    Row r is (ids[ends[r, 0]], ids[ends[r, 1]], classes[r]): ids lists each
    drug once, in order of first appearance, and ends is (m, 2) int64.
    max_class is the largest class exactly, -1 when there is none; a class
    beyond int64 is -1 in classes and is never read, since it cannot fit a
    graph (graph_from_index_records). A file without a class column has no
    classes.
    """

    ids: list[str]
    ends: np.ndarray
    classes: np.ndarray
    max_class: int

    def __len__(self) -> int:
        return len(self.ends)


def _codes(index: dict[str, int], names: list[str]) -> np.ndarray:
    """index[name] for each name, -1 where there is none."""
    return np.fromiter(map(index.get, names, itertools.repeat(-1)), dtype=np.int64, count=len(names))


def _intern(codes: dict[str, int], names: list[str], inverse: np.ndarray) -> np.ndarray:
    """The codes of a plain block's drug ids (see _plain_block), new ids interned.

    Only the block's distinct ids are looked up; those not yet known get the
    next codes in order of first appearance, as one line at a time would.
    """
    found = _codes(codes, names)
    new = found < 0
    if new.any():
        seen, first = np.unique(inverse[new[inverse]], return_index=True)
        for k in seen[np.argsort(first)].tolist():
            found[k] = codes[names[k]] = len(codes)
    return found[inverse]


def _columns(path: str, line_no: int, line: str, widths: tuple[int, ...]) -> list[str]:
    """The tab-separated columns of a data line, each stripped.

    The one place a line of drug pairs is refused: a column count not in
    widths, an empty field among the first three, a second drug id that
    begins with '#' when a third column follows (a '#' first in column 1
    makes the whole line a comment), and a self-loop.
    """
    cols = [col.strip() for col in line.split("\t")]
    if len(cols) not in widths:
        expected = " or ".join(map(str, widths))
        raise ParseError(path, line_no, f"expected {expected} tab-separated columns, got {len(cols)}")
    if not all(cols[:3]):
        raise ParseError(path, line_no, "empty field")
    if len(cols) > 2 and cols[1][0] == "#":
        raise ParseError(path, line_no, f"drug id {cols[1]!r} begins with '#', which marks a comment")
    if cols[0] == cols[1]:
        raise ParseError(path, line_no, f"self-loop on {cols[0]!r}")
    return cols


def _id_rows(path: str, n_cols: int) -> IndexRecords:
    """The rows of an 'id TAB id' (n_cols 2) or 'id TAB id TAB class' (n_cols 3) file.

    Codes and classes go into int64 buffers, no object per line. A block of
    lines is read at a time: a plain block (_plain_block) is parsed with
    numpy, any other block line by line through _columns; the records and
    errors are those of the line-by-line code alone. A class is a
    non-negative int.
    """
    codes: dict[str, int] = {}
    intern = codes.setdefault
    ends, classes = array("q"), array("q")
    beyond_int64 = -1
    for first_line, block in _blocks(path):
        plain = _plain_block(block, n_cols)
        if plain is not None:
            names, inverse, block_classes = plain
            # appended without a copy; frombytes reads any buffer of single bytes
            ends.frombytes(_intern(codes, names, inverse).view(np.uint8))
            if n_cols == 3:
                classes.frombytes(block_classes.view(np.uint8))
            continue
        for line_no, line in _block_lines(first_line, block):
            cols = _columns(path, line_no, line, (n_cols,))
            ends.append(intern(cols[0], len(codes)))
            ends.append(intern(cols[1], len(codes)))
            if n_cols == 2:
                continue
            try:
                cls = int(cols[2])
            except ValueError:
                raise ParseError(path, line_no, f"class index is not an integer: {cols[2]!r}") from None
            if cls < 0:
                raise ParseError(path, line_no, f"negative class index {cls}")
            try:
                classes.append(cls)
            except OverflowError:
                beyond_int64 = max(beyond_int64, cls)
                classes.append(-1)
    class_arr = np.frombuffer(classes, dtype=np.int64)
    max_class = max(beyond_int64, int(class_arr.max())) if len(class_arr) else -1
    return IndexRecords(list(codes), np.frombuffer(ends, dtype=np.int64).reshape(-1, 2),
                        class_arr, max_class)


def parse_interactions_file(path: str, mode: str):
    """Strict reader for 'indices' or 'sentences' lines.

    Index mode expects exactly 3 columns, the class a non-negative int, and
    gives IndexRecords (_id_rows). Sentence mode expects 3 columns, or 5
    when the two drug surface forms are given, and gives (drug_a, drug_b,
    InteractionSentence, line_no) rows; a missing or empty surface takes the
    sentence's default. A drug id may not begin with '#': first on a line of
    an interactions or pairs file, where the id may stand too, it marks a
    comment.
    """
    if mode not in ("indices", "sentences"):
        raise InvalidConfigError(f"mode must be 'indices' or 'sentences', got {mode!r}")
    if mode == "indices":
        return _id_rows(path, 3)
    rows: list[tuple] = []
    for line_no, line in _data_lines(path):
        cols = _columns(path, line_no, line, (3, 5))
        surface_a, surface_b = cols[3:] or ("", "")
        sentence = InteractionSentence(
            cols[2],
            surface_a or InteractionSentence.drug_a_surface,
            surface_b or InteractionSentence.drug_b_surface,
        )
        rows.append((cols[0], cols[1], sentence, line_no))
    return rows


def read_pairs(path: str, roster: Roster) -> np.ndarray:
    """The (m, 2) int64 roster indices of a two-column TSV of drug pairs (for predict).

    The pairs are read like index-mode interactions, as interned codes, and
    each distinct id is then looked up in the roster once. Every line is
    checked before an unknown id is refused, the first one in column 1
    ahead of any in column 2.
    """
    records = _id_rows(path, 2)
    ends = records.ends
    at = _codes({ext: t for t, ext in enumerate(roster)}, records.ids)
    unknown = at < 0
    if unknown.any():
        for col in (0, 1):
            rows = unknown[ends[:, col]]
            if rows.any():
                roster.index_of(records.ids[ends[rows.argmax(), col]])
    # every code indexes at, so clip never clips; "raise" would buffer a copy
    np.take(at, ends, out=ends, mode="clip")
    return ends


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


# -- model persistence -------------------------------------------------------


def write_float_rows(fh, rows: np.ndarray, sep: str = " ", labels: Optional[list[str]] = None) -> None:
    """Each row of the 2-D array rows as one line: its values at FLOAT_FMT joined by sep,
    after labels[r] and sep when labels is given. A whole row is formatted at once."""
    fmt = sep.join([FLOAT_FMT] * rows.shape[1]) + "\n"
    for r, row in enumerate(rows):
        line = fmt % tuple(row.tolist())
        fh.write(line if labels is None else labels[r] + sep + line)


def write_model(params: ModelParameters, roster: Roster, path: str) -> None:
    """Text format: 'AMFPMC2 n K d' header, section ids (the drug id of each row of E,
    verbatim, one a line), then sections E, b, W, c, u."""
    n, K, d = params.n_drugs, params.n_classes, params.embedding_dim
    if len(roster) != n:
        raise ShapeMismatchError(f"roster lists {len(roster)} drugs but the model has {n} rows")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MODEL_MAGIC} {n} {K} {d}\nids\n")
        fh.writelines(ext + "\n" for ext in roster)
        for name, arr in zip(MODEL_SECTIONS, params.arrays()):
            fh.write(name + "\n")
            write_float_rows(fh, np.atleast_2d(arr))


def _model_roster(path: str, ids: list[str]) -> Roster:
    """The roster of a model file's ids section, refused at an empty or a repeated id."""
    seen: set[str] = set()
    for line_no, ext in enumerate(ids, 3):
        if not ext.strip():
            raise FormatError(f"{path}: empty drug id at line {line_no}")
        if ext in seen:
            raise FormatError(f"{path}: drug id {ext!r} repeated at line {line_no}")
        seen.add(ext)
    return Roster(ids)


def read_model(path: str) -> tuple[ModelParameters, Roster]:
    """The parameters and the row roster of a model file as write_model writes it.

    Every refusal is one error naming path: a header other than 'AMFPMC2 n K d'
    within the dimension rule, an ids section shorter than n (the file ends,
    or section E begins, inside it), an empty or repeated id, a missing
    section, a row of the wrong width, a value that is not a finite float,
    and anything after section u.
    """
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
    if next(lines, "").strip() != "ids":
        raise FormatError(f"{path}: expected section 'ids' at line 2")
    ids = list(itertools.islice(lines, n))

    line_no = 2 + len(ids)
    parts: list[np.ndarray] = []
    for name, shape in zip(MODEL_SECTIONS, parameter_shapes(n, K, d)):
        line_no += 1
        if next(lines, "").strip() != name:
            if name == "E" and (len(ids) < n or "E" in ids):
                # the file ended inside the ids section, or section E began there
                raise FormatError(f"{path}: truncated section 'ids'")
            raise FormatError(f"{path}: expected section {name!r} at line {line_no}")
        n_rows, n_cols = shape if len(shape) == 2 else (1, shape[0])
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
        parts.append(arr.reshape(-1))
    if any(line.strip() for line in lines):
        raise FormatError(f"{path}: trailing content after section 'u'")
    # allocated only once every section has parsed: a header larger than its
    # file fails at a row, not at an allocation
    return ModelParameters(n, K, d, np.concatenate(parts)), _model_roster(path, ids)


# -- vocabulary persistence ----------------------------------------------------


def write_vocabulary(vocab: ClassVocabulary, path: str) -> None:
    """'mode <mode>' line, then 'index<TAB>phrase<TAB>count' per class."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"mode\t{vocab.mode}\n")
        for idx, (label, count) in enumerate(zip(vocab.labels, vocab.counts)):
            fh.write(f"{idx}\t{label}\t{count}\n")


def read_vocabulary(path: str) -> ClassVocabulary:
    """A vocabulary as write_vocabulary writes it, refused otherwise with the offending line.

    Data line k carries class k and an integer count; the ClassVocabulary
    constructor checks the rest, and its refusal of class k names line k.
    """
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
    rows: list[tuple[int, str, int]] = []  # (line_no, label, count) of class len(rows)
    for line_no, line in lines:
        cols = line.split("\t")
        if len(cols) != 3:
            raise ParseError(path, line_no, f"expected 3 columns, got {len(cols)}")
        try:
            idx, cnt = int(cols[0]), int(cols[2])
        except ValueError:
            raise ParseError(path, line_no, "index and count must be integers") from None
        if idx != len(rows):
            raise ParseError(path, line_no, f"class index {idx} where {len(rows)} is due")
        rows.append((line_no, cols[1].strip(), cnt))
    try:
        return ClassVocabulary(mode, [label for _, label, _ in rows], [cnt for _, _, cnt in rows])
    except VocabularyError as exc:
        raise ParseError(path, rows[exc.class_id][0], str(exc)) from None
    except InvalidConfigError as exc:
        raise FormatError(f"{path}: {exc}") from None


# -- report persistence --------------------------------------------------------


def format_report_text(
    report: MultiClassReport, class_names: Optional[dict[int, str]] = None
) -> str:
    """Aligned key-value block, 4 decimals, per-class table by support desc."""
    out = []
    for name, value in report.scalar_items():
        out.append(f"{name:<16} {value:.4f}")
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
