import json
import re
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
)
from amfpmc.formats import (
    _data_lines,
    class_count,
    format_report_text,
    graph_from_index_records,
    parse_grid_file,
    parse_interactions_file,
    parse_pairs_file,
    read_model,
    read_roster,
    read_vocabulary,
    report_to_dict,
    write_interactions_file,
    write_model,
    write_report,
    write_roster,
    write_vocabulary,
)
from amfpmc.graph import Roster, TypedInteractionGraph, check_dimensions, check_mode
from amfpmc.metrics import MultiClassReport, PerClassMetrics
from amfpmc.model import Hyperparameters, init_model
from amfpmc.phrases import InteractionSentence, KeywordPhrase, build_vocabulary, extract_phrase
from amfpmc.synth import SyntheticConfig, generate_synthetic


class TestInteractionsParsing:
    def test_index_mode_roundtrip(self, tmp_path):
        p = tmp_path / "edges.tsv"
        p.write_text("# comment\nD1\tD5\t4\n\nD2\tD3\t0\n")
        rows = parse_interactions_file(str(p), "indices")
        assert rows == [("D1", "D5", 4), ("D2", "D3", 0)]
        assert type(rows[0][2]) is int

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
        p = tmp_path / "pairs.tsv"
        p.write_text("D1\tD2\n# c\nD3\tD4\n")
        assert parse_pairs_file(str(p)) == [("D1", "D2"), ("D3", "D4")]
        p.write_text("D1\tD1\n")
        with pytest.raises(ParseError):
            parse_pairs_file(str(p))

    def test_graph_assembly_sorted_roster(self, tmp_path):
        p = tmp_path / "edges.tsv"
        p.write_text("DZ\tDA\t1\nDM\tDA\t2\n")
        g = graph_from_index_records(parse_interactions_file(str(p), "indices"), "holdout")
        assert g.roster.external_ids == ["DA", "DM", "DZ"]
        assert g.n_classes == 3
        assert g.lookup(g.roster.index_of("DZ"), g.roster.index_of("DA")) == 1

    def test_graph_interactions_file_roundtrip(self, tmp_path):
        data = generate_synthetic(SyntheticConfig(n_drugs=20, n_blocks=2, n_classes=4,
                                                  edge_probability=0.4, seed=1))
        path = tmp_path / "graph.tsv"
        write_interactions_file(data.graph_t1, str(path))
        g = graph_from_index_records(parse_interactions_file(str(path), "indices"),
                                     "holdout", n_classes=4)
        assert np.array_equal(g.edge_list(), data.graph_t1.edge_list())


# -- reference: the record parser and graph assembly this module replaced ---------


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
    for line_no, line in _data_lines(path):
        cols = line.split("\t")
        if mode == "indices" and len(cols) != 3:
            raise ParseError(path, line_no, f"expected 3 tab-separated columns, got {len(cols)}")
        if mode == "sentences" and len(cols) not in (3, 5):
            raise ParseError(path, line_no, f"expected 3 or 5 tab-separated columns, got {len(cols)}")
        a, b, payload = cols[0].strip(), cols[1].strip(), cols[2].strip()
        if not a or not b or not payload:
            raise ParseError(path, line_no, "empty field")
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
            if isinstance(rows, list) and rows:
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


class TestModelFile:
    def test_exact_roundtrip(self, tmp_path):
        params = init_model(7, 4, Hyperparameters(embedding_dim=5, seed=3))
        params.drug_bias[:] = np.random.default_rng(0).uniform(-1, 1, 7)
        path = tmp_path / "model.txt"
        write_model(params, str(path))
        back = read_model(str(path))
        for a, b in zip(params.arrays(), back.arrays()):
            assert np.array_equal(a, b)

    def test_header_line(self, tmp_path):
        params = init_model(3, 2, Hyperparameters(embedding_dim=4))
        path = tmp_path / "model.txt"
        write_model(params, str(path))
        assert path.read_text().splitlines()[0] == "AMFPMC1 3 2 4"

    def test_truncated_file(self, tmp_path):
        params = init_model(3, 2, Hyperparameters(embedding_dim=4))
        path = tmp_path / "model.txt"
        write_model(params, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(FormatError):
            read_model(str(path))

    def test_header_mismatch(self, tmp_path):
        params = init_model(3, 2, Hyperparameters(embedding_dim=4))
        path = tmp_path / "model.txt"
        write_model(params, str(path))
        body = path.read_text().replace("AMFPMC1 3 2 4", "AMFPMC1 4 2 4")
        path.write_text(body)
        with pytest.raises(FormatError):
            read_model(str(path))

    def test_row_width_mismatch(self, tmp_path):
        params = init_model(3, 2, Hyperparameters(embedding_dim=4))
        path = tmp_path / "model.txt"
        write_model(params, str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2] + " 0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DimensionMismatchError):
            read_model(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("NOPE 1 2 3\n")
        with pytest.raises(FormatError):
            read_model(str(path))


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
        assert back.counts == vocab.counts

    def test_holdout_roundtrip(self, tmp_path):
        P = KeywordPhrase.from_text
        vocab = build_vocabulary([P("a b")] * 2 + [P("c d")], "holdout", min_count=1)
        path = tmp_path / "vocab.tsv"
        write_vocabulary(vocab, str(path))
        back = read_vocabulary(str(path))
        assert back.n_classes == 2 and back.other_class is None

    def test_bad_header(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("0\tx y\t3\n")
        with pytest.raises(ParseError):
            read_vocabulary(str(path))


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


class TestRosterFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "model.roster"
        write_roster(Roster(["DB1", "DB2", "DB3"]), str(path))
        back = read_roster(str(path))
        assert back.external_ids == ["DB1", "DB2", "DB3"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "model.roster"
        path.write_text("# nothing\n")
        with pytest.raises(FormatError):
            read_roster(str(path))


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
