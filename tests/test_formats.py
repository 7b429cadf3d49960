import io
import json
import re
import tracemalloc
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from amfpmc.errors import (
    DimensionMismatchError,
    EmptyAfterNormalizationError,
    FormatError,
    InvalidClassError,
    InvalidConfigError,
    InvalidDimensionsError,
    ParseError,
    ShapeMismatchError,
    UnknownDrugError,
)
from amfpmc import formats
from amfpmc.formats import (
    FLOAT_FMT,
    IndexRecords,
    class_count,
    format_report_text,
    graph_from_index_records,
    parse_grid_file,
    parse_interactions_file,
    read_pairs,
    read_model,
    read_vocabulary,
    report_to_dict,
    write_interactions_file,
    write_float_rows,
    write_model,
    write_report,
    write_vocabulary,
)
from amfpmc.graph import Roster, TypedInteractionGraph, check_dimensions, check_mode
from amfpmc.metrics import MultiClassReport, PerClassMetrics
from amfpmc.model import Hyperparameters, init_model
from amfpmc.phrases import (
    NO_INTERACTION_MARKER,
    OTHER_MARKER,
    InteractionSentence,
    KeywordPhrase,
    build_vocabulary,
    extract_phrase,
)
from amfpmc.synth import SyntheticConfig, generate_synthetic


class TestInteractionsParsing:
    def test_index_mode_roundtrip(self, tmp_path):
        p = tmp_path / "edges.tsv"
        p.write_text("# comment\nD1\tD5\t4\n\nD2\tD3\t0\n")
        records = parse_interactions_file(str(p), "indices")
        assert len(records) == 2 and records.max_class == 4
        assert records.ids == ["D1", "D5", "D2", "D3"]
        assert records.ends.tolist() == [[0, 1], [2, 3]]
        assert records.classes.tolist() == [4, 0]
        assert records.ends.dtype == records.classes.dtype == np.int64

    def test_self_loop_line_aborts_with_line_number(self, tmp_path):
        p = tmp_path / "edges.tsv"
        p.write_text("D1\tD1\t4\n")
        with pytest.raises(ParseError) as err:
            parse_interactions_file(str(p), "indices")
        assert err.value.line_no == 1

    def test_malformed_lines(self, tmp_path):
        for body in ("D1\tD5\n", "D1\tD5\tx\n", "D1\tD5\t-2\n", "D1\t\t3\n"):
            p = tmp_path / "bad.tsv"
            p.write_text(body)
            with pytest.raises(ParseError):
                parse_interactions_file(str(p), "indices")

    def test_sentence_mode_with_extraction(self, tmp_path):
        p = tmp_path / "sentences.tsv"
        p.write_text("D1\tD5\tThe metabolism of Drug b can be decreased when combined with Drug a\n")
        [(a, b, sentence, line_no)] = parse_interactions_file(str(p), "sentences")
        assert (a, b, line_no) == ("D1", "D5", 1)
        assert sentence == InteractionSentence(
            "The metabolism of Drug b can be decreased when combined with Drug a")
        assert extract_phrase(sentence).text == "decreased metabolism"

    def test_sentence_mode_with_surfaces(self, tmp_path):
        p = tmp_path / "sentences.tsv"
        p.write_text("DB1\tDB2\tAspirin may increase the bleeding activities of Heparin\tAspirin\tHeparin\n")
        [(_, _, sentence, _)] = parse_interactions_file(str(p), "sentences")
        assert (sentence.drug_a_surface, sentence.drug_b_surface) == ("Aspirin", "Heparin")
        assert extract_phrase(sentence).text == "increased bleeding activities"

    def test_pairs_file(self, tmp_path):
        roster = Roster(["D4", "D1", "D3", "D2"])
        p = tmp_path / "pairs.tsv"
        p.write_text("D1\tD2\n# c\nD3\tD4\n")
        pairs = read_pairs(str(p), roster)
        assert pairs.dtype == np.int64 and pairs.tolist() == [[1, 3], [2, 0]]
        p.write_text("D1\tD1\n")
        with pytest.raises(ParseError):
            read_pairs(str(p), roster)

    def test_graph_assembly_sorted_roster(self, tmp_path):
        p = tmp_path / "edges.tsv"
        p.write_text("DZ\tDA\t1\nDM\tDA\t2\n")
        g = graph_from_index_records(parse_interactions_file(str(p), "indices"), "holdout")
        assert g.roster.external_ids == ["DA", "DM", "DZ"]
        assert g.n_classes == 3
        assert g.edge_classes(g.roster.index_of("DZ"), g.roster.index_of("DA")).tolist() == [1]

    def test_graph_interactions_file_roundtrip(self, tmp_path):
        data = generate_synthetic(SyntheticConfig(n_drugs=20, n_blocks=2, n_classes=4,
                                                  edge_probability=0.4, seed=1))
        path = tmp_path / "graph.tsv"
        write_interactions_file(data.graph_t1, str(path))
        g = graph_from_index_records(parse_interactions_file(str(path), "indices"),
                                     "holdout", n_classes=4)
        assert np.array_equal(g.edge_list(), data.graph_t1.edge_list())


#: Traced peak of parsing an index-mode file, per data line.
PARSE_BYTES_PER_LINE = 32


class TestStreamingReader:
    SENTENCE = "Drug a may increase the bleeding activities of Drug b"

    @pytest.mark.parametrize("mode, payload", [("indices", "1"), ("sentences", SENTENCE)])
    def test_hash_leading_drug_id_is_refused(self, tmp_path, mode, payload):
        # first on a line, as the first column of any TSV, such an id is a comment
        p = tmp_path / "edges.tsv"
        p.write_text(f"#x\tD1\t{payload}\nD1\tD2\t{payload}\nD1\t#x\t{payload}\n")
        with pytest.raises(ParseError) as err:
            parse_interactions_file(str(p), mode)
        assert err.value.line_no == 3 and "'#x'" in str(err.value)
        p.write_text(f"#x\tD1\t{payload}\nD1\tD2\t{payload}\n")
        assert len(parse_interactions_file(str(p), mode)) == 1

    @pytest.mark.parametrize("reader", [
        lambda path: parse_interactions_file(path, "indices"),
        lambda path: parse_interactions_file(path, "sentences"),
        lambda path: read_pairs(path, Roster(["D1", "D2"])),
        read_model,
        read_vocabulary,
        parse_grid_file,
    ])
    def test_non_utf8_is_refused_before_a_line_error(self, tmp_path, reader):
        # line 1 is malformed for every reader; the bad bytes come last, well
        # past the first decoded chunk
        p = tmp_path / "input.tsv"
        p.write_bytes(b"D1\tD1\n" + b"D1\tD2\t1\n" * 20_000 + b"D1\tD2\t\xff\n")
        with pytest.raises(FormatError, match="not UTF-8 text"):
            reader(str(p))

    def test_multibyte_text_across_decoded_chunks(self, tmp_path):
        p = tmp_path / "edges.tsv"
        lines = [f"Dé{t}\tDß{t}\t{t % 3}\n" for t in range(20_000)]
        p.write_text("".join(lines), encoding="utf-8")
        assert p.stat().st_size > 3 * (1 << 16)
        records = parse_interactions_file(str(p), "indices")
        assert len(records) == 20_000 and records.ids[:2] == ["Dé0", "Dß0"]

    def test_unknown_pair_ids_are_refused_after_every_line_is_checked(self, tmp_path):
        roster = Roster(["D1", "D2", "D3"])
        p = tmp_path / "pairs.tsv"
        p.write_text("D1\tD9\nD8\tD2\nD1\n")
        with pytest.raises(ParseError):
            read_pairs(str(p), roster)
        p.write_text("D1\tD9\nD8\tD2\nD7\tD3\n")
        with pytest.raises(UnknownDrugError, match="'D8'"):
            read_pairs(str(p), roster)
        p.write_text("# no pairs\n")
        assert read_pairs(str(p), roster).shape == (0, 2)

    def test_index_parse_peak_is_a_few_bytes_per_line(self, tmp_path):
        # codes and classes are 24 bytes a line in int64 buffers; the bound
        # leaves room for their growth and the interned ids
        rng = np.random.default_rng(5)
        n_lines = 100_000
        t = rng.choice(500 * 499 // 2, size=n_lines, replace=False)
        i, j = np.triu_indices(500, k=1)
        p = tmp_path / "edges.tsv"
        p.write_text("".join(f"D{a:04d}\tD{b:04d}\t{c}\n" for a, b, c in
                             zip(i[t].tolist(), j[t].tolist(), rng.integers(0, 40, n_lines).tolist())))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            records = parse_interactions_file(str(p), "indices")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(records) == n_lines
        assert peak <= PARSE_BYTES_PER_LINE * n_lines, peak / n_lines


    def test_pairs_peak_is_a_few_bytes_per_pair(self, tmp_path):
        # the codes are 16 bytes a pair; a second (m, 2) copy or an m-long
        # int64 temporary would pass the bound
        rng = np.random.default_rng(6)
        n_pairs = 100_000
        t = rng.choice(500 * 499 // 2, size=n_pairs, replace=False)
        i, j = np.triu_indices(500, k=1)
        p = tmp_path / "pairs.tsv"
        p.write_text("".join(f"D{a:04d}\tD{b:04d}\n" for a, b in zip(i[t].tolist(), j[t].tolist())))
        roster = Roster([f"D{t:04d}" for t in range(500)])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pairs = read_pairs(str(p), roster)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert pairs.tolist() == np.column_stack([i[t], j[t]]).tolist()
        assert peak <= 28 * n_pairs, peak / n_pairs

    def test_hash_leading_pair_id_is_an_unknown_drug(self, tmp_path):
        # no roster id begins with '#'; in a pairs file such an id is unknown,
        # and a malformed line anywhere is refused first
        roster = Roster(["D1", "D2", "D3"])
        p = tmp_path / "pairs.tsv"
        p.write_text("D1\tD2\nD3\t#x\nD2\tD3\n")
        with pytest.raises(UnknownDrugError, match="'#x'"):
            read_pairs(str(p), roster)
        p.write_text("D1\tD2\nD3\t#x\nD2\tD3\nD2\tD2\n")
        with pytest.raises(ParseError, match="self-loop") as err:
            read_pairs(str(p), roster)
        assert err.value.line_no == 4


# -- reference: the record parser and graph assembly this module replaced ---------


def _reference_lines(path):
    """(line_no, line) for each data line of path, read one line at a time."""
    try:
        with open(path, encoding="utf-8") as fh:
            fh.read()
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line.strip() and not line.lstrip().startswith("#"):
                yield line_no, line


@dataclass
class _Record:
    drug_a: str
    drug_b: str
    payload: str
    line_no: int
    surface_a: Optional[str] = None
    surface_b: Optional[str] = None


def _reference_parse(path, mode):
    records = []
    for line_no, line in _reference_lines(path):
        cols = line.split("\t")
        if mode == "indices" and len(cols) != 3:
            raise ParseError(path, line_no, f"expected 3 tab-separated columns, got {len(cols)}")
        if mode == "sentences" and len(cols) not in (3, 5):
            raise ParseError(path, line_no, f"expected 3 or 5 tab-separated columns, got {len(cols)}")
        a, b, payload = cols[0].strip(), cols[1].strip(), cols[2].strip()
        if not a or not b or not payload:
            raise ParseError(path, line_no, "empty field")
        for drug in (a, b):
            if drug.startswith("#"):
                raise ParseError(path, line_no, f"drug id {drug!r} begins with '#', which marks a comment")
        if a == b:
            raise ParseError(path, line_no, f"self-loop on {a!r}")
        if mode == "indices":
            try:
                value = int(payload)
            except ValueError:
                raise ParseError(path, line_no, f"class index is not an integer: {payload!r}") from None
            if value < 0:
                raise ParseError(path, line_no, f"negative class index {value}")
        surface_a = cols[3].strip() if len(cols) == 5 else None
        surface_b = cols[4].strip() if len(cols) == 5 else None
        records.append(_Record(a, b, payload, line_no, surface_a, surface_b))
    return records


def _reference_graph(records, mode, n_classes=None):
    check_mode(mode)
    if not records:
        raise FormatError("no interaction records")
    drugs = [r.drug_a for r in records] + [r.drug_b for r in records]
    ids = sorted(set(drugs))
    index = {ext: t for t, ext in enumerate(ids)}
    m = len(records)
    ends = np.array([index[d] for d in drugs], dtype=np.int64)
    classes = [int(r.payload) for r in records]
    max_class = max(classes)
    K = n_classes if n_classes is not None else max_class + 1
    if K <= max_class:
        raise DimensionMismatchError(f"class {max_class} outside the declared {K} classes")
    check_dimensions(len(ids), K)
    edges = np.column_stack([ends[:m], ends[m:], np.array(classes, dtype=np.int64)])
    return TypedInteractionGraph(len(ids), K, mode, edges, roster=Roster(ids))


_INSERTS = ["\t", "\n", "\r", " ", "#", "-", "+", "_", "0", "7", "x", "D", "é", "\u0663"]
# past int32, near and past the int64 limit
_HUGE = [str(v) for v in (2**31, 2**62, 2**63 - 1, 2**63, 10**20)]


def _mutate(text, rng):
    for _ in range(int(rng.integers(1, 4))):
        pos = int(rng.integers(0, len(text) + 1))
        kind = int(rng.integers(0, 5))
        if kind == 0:
            text = text[:pos] + text[pos + 1:]
        elif kind == 1:
            text = text[:pos] + _INSERTS[int(rng.integers(0, len(_INSERTS)))] + text[pos:]
        elif kind == 2:
            text = text[:pos] + _INSERTS[int(rng.integers(0, len(_INSERTS)))] + text[pos + 1:]
        elif kind == 3:
            digits = list(re.finditer(r"\d+", text))
            t = digits[int(rng.integers(0, len(digits)))]
            text = text[:t.start()] + _HUGE[int(rng.integers(0, len(_HUGE)))] + text[t.end():]
        else:
            lines = text.split("\n")
            t = int(rng.integers(0, len(lines)))
            lines[t:t + 1] = [lines[t]] * int(rng.integers(0, 3))
            text = "\n".join(lines)
    return text


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the reference and the parser must fail alike
        return type(exc), str(exc)


class TestParserMatchesRecordReference:
    """The row parser gives what the record parser gave, on seeded mutations."""

    SENTENCES = (
        "# sentences\n"
        "D1\tD2\tThe metabolism of Drug b can be decreased when combined with Drug a\n"
        "\n"
        "D2\tD3\tAspirin may increase the bleeding activities of Heparin\tAspirin\tHeparin\n"
        "D3\tD4\tDrug a may increase the bleeding activities of Drug b\t\t\n"
        "D4\tD5\tDrug a may decrease the excretion rate of Drug b\tDrug a b\t \n"
        "D5\tD6\tDrug a b may increase the hypotensive activities of Drug b\tDrug a b\tDrug b\n"
        "D6\tD7\tDrug a may increase the serum concentration of Drug b\t\tDrug\n"
        "D7\tD8\tDrug a and Drug b\n"
    )

    def test_index_rows_build_the_same_graph(self, tmp_path):
        self.check_index_rows_build_the_same_graph(tmp_path)

    def test_index_rows_build_the_same_graph_in_64_char_blocks(self, tmp_path, monkeypatch):
        # mutations then cross block boundaries: most lines span two reads
        monkeypatch.setattr(formats, "_DECODE_CHUNK", 64)
        self.check_index_rows_build_the_same_graph(tmp_path)

    @staticmethod
    def check_index_rows_build_the_same_graph(tmp_path):
        data = generate_synthetic(SyntheticConfig(n_drugs=12, n_blocks=2, n_classes=4,
                                                  edge_probability=0.4, seed=7))
        path = tmp_path / "edges.tsv"
        write_interactions_file(data.graph_t1, str(path))
        original = "# snapshot\n\n" + path.read_text()

        def build(parse, graph, mode, n_classes):
            rows = parse(str(path), "indices")
            g = graph(rows, mode, n_classes)
            return len(rows), g.edge_list().tobytes(), g.roster.external_ids, g.n_classes

        outcomes = set()
        for seed in range(300):
            text = original if seed == 0 else _mutate(original, np.random.default_rng(seed))
            path.write_text(text, encoding="utf-8")
            for mode, n_classes in (("holdout", None), ("retrospective", None), ("holdout", 6)):
                expected = _outcome(build, _reference_parse, _reference_graph, mode, n_classes)
                got = _outcome(build, parse_interactions_file, graph_from_index_records,
                               mode, n_classes)
                assert got == expected, (seed, mode, n_classes, text)
                outcomes.add(expected[0] if isinstance(expected[0], type) else "graph")
            rows = _outcome(parse_interactions_file, str(path), "indices")
            if isinstance(rows, IndexRecords) and len(rows):
                records = _reference_parse(str(path), "indices")
                assert class_count(rows) == max(int(r.payload) for r in records) + 1
        # the mutations reach every outcome they are meant to compare
        assert {"graph", ParseError, DimensionMismatchError, InvalidDimensionsError,
                InvalidClassError} <= outcomes

    def test_sentence_rows_extract_the_same_phrases(self, tmp_path):
        path = tmp_path / "sentences.tsv"

        def phrases(rows):
            return [(a, b, line_no, sentence, _outcome(lambda: extract_phrase(sentence).text))
                    for a, b, sentence, line_no in rows]

        def reference(records):
            return phrases([
                (r.drug_a, r.drug_b,
                 InteractionSentence(r.payload, r.surface_a or "Drug a", r.surface_b or "Drug b"),
                 r.line_no)
                for r in records
            ])

        for seed in range(150):
            text = (self.SENTENCES if seed == 0
                    else _mutate(self.SENTENCES, np.random.default_rng(seed)))
            path.write_text(text, encoding="utf-8")
            expected = _outcome(lambda: reference(_reference_parse(str(path), "sentences")))
            got = _outcome(lambda: phrases(parse_interactions_file(str(path), "sentences")))
            assert got == expected, (seed, text)
            if seed == 0:
                assert [p for *_, p in got] == [
                    "decreased metabolism",
                    "increased bleeding activities",
                    "increased bleeding activities",
                    "decreased excretion rate",
                    "increased hypotensive activities",
                    "increased serum concentration",
                    (EmptyAfterNormalizationError, "nothing left of 'Drug a and Drug b'"),
                ]


# -- reference: the line-at-a-time index and pairs readers the block reader replaced --


def _reference_index_records(path):
    """(ids, ends, classes, max_class) of an index-mode file, parsed one line at a time."""
    codes, ends, classes = {}, [], []
    for line_no, line in _reference_lines(path):
        cols = line.split("\t")
        if len(cols) != 3:
            raise ParseError(path, line_no, f"expected 3 tab-separated columns, got {len(cols)}")
        a, b, payload = cols[0].strip(), cols[1].strip(), cols[2].strip()
        if not a or not b or not payload:
            raise ParseError(path, line_no, "empty field")
        if b[0] == "#":
            raise ParseError(path, line_no, f"drug id {b!r} begins with '#', which marks a comment")
        if a == b:
            raise ParseError(path, line_no, f"self-loop on {a!r}")
        try:
            cls = int(payload)
        except ValueError:
            raise ParseError(path, line_no, f"class index is not an integer: {payload!r}") from None
        if cls < 0:
            raise ParseError(path, line_no, f"negative class index {cls}")
        ends += [codes.setdefault(a, len(codes)), codes.setdefault(b, len(codes))]
        classes.append(cls)
    max_class = max(classes, default=-1)
    classes = [c if c < 2**63 else -1 for c in classes]
    return (list(codes), np.array(ends, dtype=np.int64).reshape(-1, 2).tobytes(),
            np.array(classes, dtype=np.int64).tobytes(), max_class)


def _records(path):
    records = parse_interactions_file(path, "indices")
    assert records.ends.dtype == records.classes.dtype == np.int64
    assert records.ends.shape == (len(records), 2) and records.classes.shape == (len(records),)
    return records.ids, records.ends.tobytes(), records.classes.tobytes(), records.max_class


def _reference_read_pairs(path, roster):
    """The (m, 2) roster indices of a pairs file, read one line at a time."""
    index = {ext: t for t, ext in enumerate(roster)}
    ends, unknown = [], [None, None]
    for line_no, line in _reference_lines(path):
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
        ends += [i, j]
    for ext in unknown:
        if ext is not None:
            roster.index_of(ext)
    return np.array(ends, dtype=np.int64).reshape(-1, 2)


def _pairs(path, roster):
    pairs = read_pairs(path, roster)
    assert pairs.dtype == np.int64 and pairs.shape == (len(pairs), 2)
    return pairs.tobytes()


@pytest.fixture(params=[None, 64], ids=["default-blocks", "64-char-blocks"])
def block_chars(request, monkeypatch):
    """Read files in the default blocks, or in 64-character ones."""
    if request.param is not None:
        monkeypatch.setattr(formats, "_DECODE_CHUNK", request.param)


def _plain_lines(n):
    """n plain index lines over 186 drugs D0000..D0185."""
    return [f"D{t % 97:04d}\tD{(t * 7 + 1) % 89 + 97:04d}\t{t % 37}\n" for t in range(n)]


#: A short index file, its lines without endings, and the same with one bad line.
_SHORT_LINES = ["D1\tD2\t0", "# note", "", "Dlonger\tD3\t12", "D2\tD3\t1", "D4\tD1\t3"]
_SHORT_BAD = _SHORT_LINES[:4] + ["D3\tD3\t1"] + _SHORT_LINES[5:]


def _write(tmp_path, text, name="input.tsv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestBlockReader:
    """Blocks parsed by numpy give the records and errors of the line-at-a-time reader."""

    @staticmethod
    def same_as_reference(path):
        got = _outcome(_records, str(path))
        assert got == _outcome(_reference_index_records, str(path))
        return got

    def test_line_endings(self, tmp_path, block_chars):
        p = tmp_path / "edges.tsv"
        lines = _plain_lines(30)
        p.write_text("".join(lines))
        expected = _records(str(p))
        for ending in ("\r\n", "\r"):
            p.write_bytes("".join(lines).replace("\n", ending).encode())
            assert self.same_as_reference(p) == expected
        mixed = "".join(line.replace("\n", ("\n", "\r\n", "\r")[t % 3]) for t, line in enumerate(lines))
        p.write_bytes(mixed.encode())
        assert self.same_as_reference(p) == expected
        # an error after lone '\r' endings names the line a text read counts
        p.write_bytes(("".join(lines[:20]) + "D1\tD1\t3\n").replace("\n", "\r").encode())
        with pytest.raises(ParseError) as err:
            parse_interactions_file(str(p), "indices")
        assert err.value.line_no == 21
        self.same_as_reference(p)

    # reads of 1 character up to one more than the longest line, its '\n' included
    @pytest.mark.parametrize("chars", range(1, max(map(len, _SHORT_LINES + _SHORT_BAD)) + 3))
    def test_every_read_boundary(self, tmp_path, monkeypatch, chars):
        # a read may stop anywhere in a line, '\r' and '\r\n' included, and
        # readline finishes that line
        monkeypatch.setattr(formats, "_DECODE_CHUNK", chars)
        p = tmp_path / "edges.tsv"
        for lines, failure in ((_SHORT_LINES, None), (_SHORT_BAD, ParseError)):
            for ending in ("\n", "\r\n", "\r", None):
                ends = [ending or ("\n", "\r\n", "\r")[t % 3] for t in range(len(lines))]
                text = "".join(map(str.__add__, lines, ends))
                for final in (True, False):
                    p.write_bytes((text if final else text[:-len(ends[-1])]).encode())
                    got = self.same_as_reference(p)
                    assert (got[0] if isinstance(got[0], type) else None) is failure, (ending, final)

    def test_no_final_newline(self, tmp_path, block_chars):
        p = tmp_path / "edges.tsv"
        text = "".join(_plain_lines(30))
        p.write_text(text[:-1])
        assert self.same_as_reference(p) == _outcome(_records, str(_write(tmp_path, text)))
        p.write_text(text + "D5\tD5\t1")
        with pytest.raises(ParseError, match="self-loop") as err:
            parse_interactions_file(str(p), "indices")
        assert err.value.line_no == 31
        self.same_as_reference(p)

    def test_comment_and_blank_line_between_plain_lines(self, tmp_path, block_chars):
        lines = _plain_lines(6000)
        lines[10:10] = ["# a comment\n"]
        lines[4500:4500] = ["\n", "   \n", "  # indented comment\n"]
        p = _write(tmp_path, "".join(lines))
        _, _, classes, _ = self.same_as_reference(p)
        assert len(classes) == 8 * 6000

    def test_lines_split_across_blocks(self, tmp_path, block_chars):
        # ids of up to 64 bytes make each line longer than one 64-character read
        lines = [f"{'A' * 40}{t % 50:02d}\t{'B' * 62}{t % 13:02d}\t{t % 5}\n" for t in range(3000)]
        p = _write(tmp_path, "".join(lines))
        ids, _, _, max_class = self.same_as_reference(p)
        assert len(ids) == 63 and max_class == 4
        # one id past the numpy limit; that block goes line by line
        lines[2000] = f"{'C' * 65}\tD1\t3\n"
        p = _write(tmp_path, "".join(lines))
        assert "C" * 65 in self.same_as_reference(p)[0]

    def test_non_ascii_id_first_in_a_later_block(self, tmp_path, block_chars):
        lines = _plain_lines(6000)
        lines[5000] = "Dé\tD0001\t1\n"
        lines[5500] = "D0003\tDé\t2\n"
        lines[5900] = "Dé\tD٣\t3\n"
        p = _write(tmp_path, "".join(lines))
        assert p.stat().st_size > 64 * 1024
        ids, _, _, _ = self.same_as_reference(p)
        assert ids.index("Dé") < ids.index("D٣") == len(ids) - 1

    def test_long_and_huge_classes(self, tmp_path, block_chars):
        lines = _plain_lines(200)
        lines[50] = "D1\tD2\t999999999999999999\n"   # 18 digits: parsed by numpy
        lines[60] = "D1\tD3\t1000000000000000000\n"  # 19 digits, within int64
        lines[70] = "D1\tD4\t9223372036854775807\n"  # 2**63 - 1
        lines[80] = "D1\tD5\t000000000000000000000000042\n"
        p = _write(tmp_path, "".join(lines))
        _, _, classes, max_class = self.same_as_reference(p)
        values = np.frombuffer(classes, dtype=np.int64)
        assert values[[50, 60, 70, 80]].tolist() == [10**18 - 1, 10**18, 2**63 - 1, 42]
        assert max_class == 2**63 - 1
        for huge in (10**19 - 1, 10**20 - 1):  # beyond int64 with 19 and 20 digits
            lines[90] = f"D1\tD6\t{huge}\n"
            p = _write(tmp_path, "".join(lines))
            _, _, classes, max_class = self.same_as_reference(p)
            assert max_class == huge and np.frombuffer(classes, dtype=np.int64)[90] == -1

    @pytest.mark.parametrize("line, plain", [
        ("D1\tD2\t3", True),
        (f"{'A' * 64}\t{'B' * 64}\t{'9' * 18}", True),
        ("D!~\tD\"'\t0000", True),
        (f"{'A' * 65}\tD2\t3", False),
        (f"D1\tD2\t{'1' * 19}", False),
        ("D1\tD#2\t3", False),
        ("D1\tD2 \t3", False),
        ("D1\tD\x7f\t3", False),
        ("Dé\tD2\t3", False),
        ("D1\tD1\t3", False),
        ("\tD2\t3", False),
        ("D1\tD2\t", False),
        ("D1\tD2\t3\t", False),
        ("D1\tD2\t+3", False),
        ("", False),
    ])
    def test_block_path_is_chosen_by_content(self, line, plain):
        block = "D3\tD4\t5\n" + line + "\nD5\tD6\t7\n"
        assert (formats._plain_block(block, 3) is not None) == plain
        # a pairs block is the same lines without the class column
        if plain:
            pairs = "".join(row.rsplit("\t", 1)[0] + "\n" for row in block.splitlines())
            assert formats._plain_block(pairs, 2) is not None

    def test_plain_files_never_reach_the_per_line_code(self, tmp_path, block_chars, monkeypatch):
        edges = _write(tmp_path, "".join(_plain_lines(6000)), "edges.tsv")
        pairs = _write(tmp_path, "".join(line.rsplit("\t", 1)[0] + "\n"
                                         for line in _plain_lines(6000)), "pairs.tsv")
        roster = Roster([f"D{t:04d}" for t in range(200)])

        def per_line(*args):
            raise AssertionError("a plain block went line by line")

        monkeypatch.setattr(formats, "_block_lines", per_line)
        assert _records(str(edges)) == _reference_index_records(str(edges))
        assert _pairs(str(pairs), roster) == _reference_read_pairs(str(pairs), roster).tobytes()

    @pytest.mark.parametrize("bad, message", [
        ("D0007\tD0007\t3", "self-loop on 'D0007'"),
        ("D0007\t#x\t3", "drug id '#x' begins with '#', which marks a comment"),
        ("D0007\tD0008\t-3", "negative class index -3"),
        ("D0007\tD0008\t3\t4", "expected 3 tab-separated columns, got 4"),
        ("D0007\t\t3", "empty field"),
        ("\tD0008\t3", "empty field"),
        # the bytes either side of the digits
        ("D0007\tD0008\t3/", "class index is not an integer: '3/'"),
        ("D0007\tD0008\t:3", "class index is not an integer: ':3'"),
    ])
    def test_error_inside_an_otherwise_plain_block(self, tmp_path, block_chars, bad, message):
        lines = _plain_lines(6000)
        for line_no in (1, 4321, 6000):
            bad_lines = lines[:line_no - 1] + [bad + "\n"] + lines[line_no:]
            p = _write(tmp_path, "".join(bad_lines))
            with pytest.raises(ParseError) as err:
                parse_interactions_file(str(p), "indices")
            assert err.value.line_no == line_no and str(err.value).endswith(message)
            self.same_as_reference(p)

    def test_mutations_equal_the_line_reader(self, tmp_path, block_chars):
        data = generate_synthetic(SyntheticConfig(n_drugs=12, n_blocks=2, n_classes=4,
                                                  edge_probability=0.4, seed=7))
        path = tmp_path / "edges.tsv"
        write_interactions_file(data.graph_t1, str(path))
        small = "# snapshot\n\n" + path.read_text()
        large = "".join(_plain_lines(6000))
        outcomes = set()
        for seed in range(300):
            original = large if seed % 10 == 9 else small
            text = original if seed == 0 else _mutate(original, np.random.default_rng(seed))
            path.write_text(text, encoding="utf-8")
            got = self.same_as_reference(path)
            outcomes.add(got[0] if isinstance(got[0], type) else "records")
        assert {"records", ParseError} <= outcomes

    def test_pairs_mutations_equal_the_line_reader(self, tmp_path, block_chars):
        data = generate_synthetic(SyntheticConfig(n_drugs=12, n_blocks=2, n_classes=4,
                                                  edge_probability=0.4, seed=7))
        roster = data.graph_t1.roster
        small = "# pairs\n\n" + "".join(f"{roster.external_id(i)}\t{roster.external_id(j)}\n"
                                        for i, j, _ in data.graph_t1.edge_list().tolist())
        big_roster = Roster([f"D{t:04d}" for t in range(200)])
        large = "".join(line.rsplit("\t", 1)[0] + "\n" for line in _plain_lines(6000))
        path = tmp_path / "pairs.tsv"
        outcomes = set()
        for seed in range(300):
            original, ids = (large, big_roster) if seed % 10 == 9 else (small, roster)
            text = original if seed == 0 else _mutate(original, np.random.default_rng(seed))
            path.write_text(text, encoding="utf-8")
            expected = _outcome(lambda: _reference_read_pairs(str(path), ids).tobytes())
            assert _outcome(_pairs, str(path), ids) == expected, (seed, text)
            outcomes.add(expected[0] if isinstance(expected[0], type) else "pairs")
        assert {"pairs", ParseError, UnknownDrugError} <= outcomes

    def test_unknown_pair_ids_in_different_blocks(self, tmp_path, block_chars):
        roster = Roster([f"D{t:04d}" for t in range(200)])
        lines = [line.rsplit("\t", 1)[0] + "\n" for line in _plain_lines(6000)]
        lines[100] = "D0001\tDX2\n"
        lines[5000] = "DX1\tD0002\n"
        lines[5500] = "DX3\tD0002\n"
        p = _write(tmp_path, "".join(lines))
        with pytest.raises(UnknownDrugError, match="'DX1'"):
            read_pairs(str(p), roster)
        lines[5000] = lines[5500] = "D0001\tD0002\n"
        p = _write(tmp_path, "".join(lines))
        with pytest.raises(UnknownDrugError, match="'DX2'"):
            read_pairs(str(p), roster)


def _model_file(tmp_path, n=3, K=2, d=4, ids=None):
    """A model file of init_model parameters, rows named ids (default D0, D1, ...)."""
    params = init_model(n, K, Hyperparameters(embedding_dim=d))
    path = tmp_path / "model.txt"
    write_model(params, Roster(ids or [f"D{t}" for t in range(n)]), str(path))
    return params, path


class TestModelFile:
    def test_exact_roundtrip(self, tmp_path):
        params = init_model(7, 4, Hyperparameters(embedding_dim=5, seed=3))
        params.drug_bias[:] = np.random.default_rng(0).uniform(-1, 1, 7)
        path = tmp_path / "model.txt"
        write_model(params, Roster(["DB7", "DB1", "DB3", "DB2", "DB6", "DB5", "DB4"]), str(path))
        back, roster = read_model(str(path))
        for a, b in zip(params.arrays(), back.arrays()):
            assert np.array_equal(a, b)
        assert roster.external_ids == ["DB7", "DB1", "DB3", "DB2", "DB6", "DB5", "DB4"]

    def test_header_and_ids_section(self, tmp_path):
        _, path = _model_file(tmp_path)
        assert path.read_text().splitlines()[:6] == ["AMFPMC2 3 2 4", "ids", "D0", "D1", "D2", "E"]

    @pytest.mark.parametrize("ext", ["#x", "E", "ids", "a b", "-1", "é"])
    def test_any_id_reads_back_verbatim(self, tmp_path, ext):
        # ids are lines, not tokens: no comment, no section name, no split
        _, path = _model_file(tmp_path, ids=["D0", ext, "D2"])
        assert read_model(str(path))[1].external_ids == ["D0", ext, "D2"]

    def test_roster_of_another_length_is_refused(self, tmp_path):
        params = init_model(3, 2, Hyperparameters(embedding_dim=4))
        with pytest.raises(ShapeMismatchError, match="roster lists 2 drugs but the model has 3 rows"):
            write_model(params, Roster(["D0", "D1"]), str(tmp_path / "model.txt"))
        assert not (tmp_path / "model.txt").exists()

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_short_ids_section_is_refused(self, tmp_path, cut):
        # cut of the 3 ids removed: section E begins inside the ids section,
        # and with it cut off too, the file ends there
        _, path = _model_file(tmp_path)
        lines = path.read_text().splitlines()
        del lines[2:2 + cut]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: truncated section 'ids'$"):
            read_model(str(path))
        path.write_text("\n".join(lines[:5 - cut]) + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: truncated section 'ids'$"):
            read_model(str(path))

    @pytest.mark.parametrize("ids, message", [
        (["D0", "", "D2"], "empty drug id at line 4"),
        (["D0", "  ", "D2"], "empty drug id at line 4"),
        (["D0", "D1", "D0"], "drug id 'D0' repeated at line 5"),
    ])
    def test_empty_or_repeated_id_is_refused(self, tmp_path, ids, message):
        _, path = _model_file(tmp_path)
        lines = path.read_text().splitlines()
        lines[2:5] = ids
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {message}$"):
            read_model(str(path))

    def test_missing_ids_section_is_refused(self, tmp_path):
        _, path = _model_file(tmp_path)
        lines = path.read_text().splitlines()
        del lines[1:5]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="expected section 'ids' at line 2"):
            read_model(str(path))

    def test_sidecar_format_is_refused(self, tmp_path):
        # an AMFPMC1 file, with no ids section, and its sidecar are not read
        _, path = _model_file(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(["AMFPMC1 3 2 4"] + lines[5:]) + "\n")
        (tmp_path / "model.txt.roster").write_text("D0\nD1\nD2\n")
        with pytest.raises(FormatError, match="bad header 'AMFPMC1 3 2 4'"):
            read_model(str(path))

    def test_truncated_file(self, tmp_path):
        _, path = _model_file(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(FormatError):
            read_model(str(path))

    def test_header_mismatch(self, tmp_path):
        _, path = _model_file(tmp_path)
        body = path.read_text().replace("AMFPMC2 3 2 4", "AMFPMC2 4 2 4")
        path.write_text(body)
        with pytest.raises(FormatError):
            read_model(str(path))

    def test_row_width_mismatch(self, tmp_path):
        _, path = _model_file(tmp_path)
        lines = path.read_text().splitlines()
        lines[6] = lines[6] + " 0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DimensionMismatchError):
            read_model(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("NOPE 1 2 3\n")
        with pytest.raises(FormatError):
            read_model(str(path))

    def test_huge_header_is_refused_before_allocating(self, tmp_path):
        # the header asks for a 75 GiB parameter vector; the first row is read first
        path = tmp_path / "model.txt"
        path.write_text("AMFPMC2 100000 1000 100000\nids\n"
                        + "".join(f"D{t}\n" for t in range(100000)) + "E\n0.5 0.25\n")
        with pytest.raises(DimensionMismatchError, match="section 'E' row has 2 values, expected 100000"):
            read_model(str(path))

    @pytest.mark.parametrize("sep, labels", [(" ", None), (",", ["a", "b#", "c d"])])
    def test_float_rows_format_a_row_as_its_values_did(self, sep, labels):
        rows = np.random.default_rng(5).normal(size=(3, 4)) * np.array([1e-300, 1.0, 1e300, -0.0])
        fh = io.StringIO()
        write_float_rows(fh, rows, sep, labels)
        heads = [""] * 3 if labels is None else [label + sep for label in labels]
        assert fh.getvalue() == "".join(
            head + sep.join(FLOAT_FMT % v for v in row) + "\n" for head, row in zip(heads, rows))
        assert [[float(v) for v in line.split(sep)[-4:]] for line in fh.getvalue().splitlines()] \
            == rows.tolist()


class TestVocabularyFile:
    def test_retrospective_roundtrip(self, tmp_path):
        P = KeywordPhrase.from_text
        phrases = [P("increased bleeding")] * 3 + [P("decreased metabolism")] * 2 + [P("rare phrase")]
        vocab = build_vocabulary(phrases, "retrospective", top_n=2)
        path = tmp_path / "vocab.tsv"
        write_vocabulary(vocab, str(path))
        back = read_vocabulary(str(path))
        assert back.mode == "retrospective"
        assert back.n_classes == vocab.n_classes
        assert back.other_class == vocab.other_class
        assert back.encode(P("increased bleeding")) == vocab.encode(P("increased bleeding"))
        assert back.labels == vocab.labels
        assert back.counts == vocab.counts

    def test_holdout_roundtrip(self, tmp_path):
        P = KeywordPhrase.from_text
        vocab = build_vocabulary([P("a b")] * 2 + [P("c d")], "holdout", min_count=1)
        path = tmp_path / "vocab.tsv"
        write_vocabulary(vocab, str(path))
        back = read_vocabulary(str(path))
        assert back.n_classes == 2 and back.other_class is None

    def test_phrase_labels_are_read_as_canonical_text(self, tmp_path):
        # hand-written names are lower-cased with their spaces folded, and written back so
        path = tmp_path / "vocab.tsv"
        path.write_text("mode\tretrospective\n0\t<no-interaction>\t0\n"
                        "1\t Decreased   METABOLISM \t7\n2\t<other>\t1\n")
        vocab = read_vocabulary(str(path))
        assert vocab.labels == ["<no-interaction>", "decreased metabolism", "<other>"]
        assert vocab.encode(KeywordPhrase.from_text("metabolism decreased")) == 1
        write_vocabulary(vocab, str(tmp_path / "back.tsv"))
        assert (tmp_path / "back.tsv").read_text() == (
            "mode\tretrospective\n0\t<no-interaction>\t0\n"
            "1\tdecreased metabolism\t7\n2\t<other>\t1\n")

    @pytest.mark.parametrize("seed", range(10))
    def test_every_built_vocabulary_round_trips(self, tmp_path, seed):
        # phrases over extract's token characters and '#', token order shuffled,
        # under several groupings of each mode
        rng = np.random.default_rng(seed)
        tokens = ["".join(rng.choice(list("abz09'-#é"), rng.integers(1, 4))) for _ in range(10)]
        pool = [tuple(rng.choice(tokens, rng.integers(1, 4))) for _ in range(8)]
        phrases = [KeywordPhrase(tuple(rng.permutation(pool[k]))) for k in rng.integers(0, 8, 40)]
        vocabs = [build_vocabulary(phrases, "retrospective", top_n=n) for n in (1, 3, 100)]
        vocabs += [build_vocabulary(phrases, "holdout", min_count=n) for n in (1, 2)]
        path = tmp_path / "vocab.tsv"
        for vocab in vocabs:
            write_vocabulary(vocab, str(path))
            back = read_vocabulary(str(path))
            assert (back.mode, back.labels, back.counts) == (vocab.mode, vocab.labels, vocab.counts)
            assert back.other_class == vocab.other_class
            for k, label in enumerate(back.labels):
                if label not in (NO_INTERACTION_MARKER, OTHER_MARKER):
                    phrase = KeywordPhrase.from_text(label)
                    assert back.encode(phrase) == vocab.encode(phrase) == k

    @pytest.mark.parametrize("lines, error, message", [
        # read as the phrase '<other>' and written back so, refused on the next read
        (["holdout", "0\ta b\t1", "1\t<OTHER>\t1"], ParseError, ":3: class 1 of a holdout "
         "vocabulary must be a phrase, got '<other>'"),
        (["retrospective", "0\t<other>\t0"], FormatError, "needs 2 or more classes, got 1"),
        (["holdout"], FormatError, "needs 1 or more classes, got 0"),
    ], ids=["phrase-folding-to-a-marker", "one-class-retrospective", "no-class"])
    def test_refusals_of_the_vocabulary_rules_name_the_file(self, tmp_path, lines, error, message):
        path = tmp_path / "vocab.tsv"
        path.write_text("\n".join([f"mode\t{lines[0]}"] + lines[1:]) + "\n")
        with pytest.raises(error, match=re.escape(f"{path}") + ".*" + re.escape(message)):
            read_vocabulary(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("0\tx y\t3\n")
        with pytest.raises(ParseError):
            read_vocabulary(str(path))

    @pytest.mark.parametrize("mode, lines, bad_line", [
        # a repeated index: the last line would win
        ("holdout", ["0\ta b\t3", "0\tc d\t2"], 3),
        # a gap: class 0 would be named '<no-interaction>'
        ("holdout", ["5\tfoo\t1"], 2),
        ("holdout", ["0\ta b\t3", "1\t<other>\t2"], 3),
        ("holdout", ["0\t<no-interaction>\t0", "1\ta b\t2"], 2),
        # no '<other>' line: class 2 would be named '<no-interaction>'
        ("retrospective", ["0\t<no-interaction>\t0", "1\ta b\t3", "2\tc d\t2"], 4),
        ("retrospective", ["0\t<no-interaction>\t0", "1\t<other>\t3", "2\tc d\t2"], 3),
        ("retrospective", ["0\ta b\t3", "1\t<other>\t2"], 2),
        ("holdout", ["0\ta b\t-1"], 2),
        # ClassVocabulary would refuse both without naming the line
        ("holdout", ["0\ta b\t1", "1\ta b\t2"], 3),
        ("holdout", ["0\ta b\t1", "1\t \t2"], 3),
    ], ids=["repeated-index", "gap", "other-in-holdout", "no-interaction-in-holdout",
            "no-other", "other-before-last", "no-interaction-missing", "negative-count",
            "repeated-phrase", "empty-phrase"])
    def test_what_write_vocabulary_cannot_write_is_refused(self, tmp_path, mode, lines, bad_line):
        path = tmp_path / "vocab.tsv"
        path.write_text("\n".join([f"mode\t{mode}"] + lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_vocabulary(str(path))
        assert err.value.line_no == bad_line


def sample_report():
    return MultiClassReport(
        accuracy=0.8964,
        micro_precision=0.8964,
        micro_recall=0.8964,
        micro_f1=0.8964,
        micro_auroc=0.99871,
        micro_aupr=0.95652,
        macro_precision=0.8878,
        macro_recall=0.7001,
        macro_f1=0.7534,
        macro_auroc=0.99153,
        macro_aupr=0.88214,
        per_class=[
            PerClassMetrics(2, 9810, 0.93441, 0.91),
            PerClassMetrics(5, 9496, 0.95761, 0.9),
            PerClassMetrics(7, 0, None, None),
        ],
    )


class TestReportFiles:
    def test_structured_roundtrip_is_exact(self, tmp_path):
        report = sample_report()
        path = tmp_path / "report.json"
        write_report(report, str(path), "structured")
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == report_to_dict(report)

    def test_text_four_decimals_and_sorting(self):
        text = format_report_text(sample_report())
        lines = text.splitlines()
        assert lines[0].split() == ["accuracy", "0.8964"]
        assert "0.9344" in text  # per-class auroc rendered at 4 decimals
        table = [l for l in lines if l.strip() and l.split()[0] in ("2", "5", "7")]
        assert [row.split()[0] for row in table] == ["2", "5", "7"]  # support desc
        assert "n/a" in table[-1]

    def test_text_with_class_names(self):
        text = format_report_text(sample_report(), {2: "decreased metabolism"})
        assert "decreased metabolism" in text

    def test_write_text_format(self, tmp_path):
        path = tmp_path / "report.txt"
        write_report(sample_report(), str(path), "text")
        assert path.read_text().startswith("accuracy")

    def test_unknown_format_and_parse_mode_are_config_errors(self, tmp_path):
        with pytest.raises(InvalidConfigError):
            write_report(sample_report(), str(tmp_path / "r.xml"), "xml")
        with pytest.raises(InvalidConfigError):
            parse_interactions_file(str(tmp_path / "unread.tsv"), "pairs")


class TestGridFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("# grid\nlearning_rate 0.1 0.01\nbatch_size 128 256\nalpha 0 0.5 1\n")
        grid = parse_grid_file(str(path))
        assert grid.values["learning_rate"] == [0.1, 0.01]
        assert grid.values["batch_size"] == [128, 256]
        assert grid.values["alpha"] == [0.0, 0.5, 1.0]
        # each value takes the type of its Hyperparameters field
        assert [type(v) for v in grid.values["batch_size"]] == [int, int]
        assert [type(v) for v in grid.values["alpha"]] == [float] * 3
        path.write_text("epochs 1.5\n")
        with pytest.raises(ParseError):  # an int field refuses a float
            parse_grid_file(str(path))

    def test_unknown_dimension(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("momentum 0.9\n")
        with pytest.raises(ParseError):
            parse_grid_file(str(path))

    def test_repeated_dimension(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("alpha 0.1\nalpha 0.2\n")
        with pytest.raises(ParseError):
            parse_grid_file(str(path))
