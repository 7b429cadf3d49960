import json

import numpy as np
import pytest

from amfpmc.errors import (
    DimensionMismatchError,
    FormatError,
    InvalidConfigError,
    ParseError,
)
from amfpmc.formats import (
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
from amfpmc.graph import Roster
from amfpmc.metrics import MultiClassReport, PerClassMetrics
from amfpmc.model import Hyperparameters, init_model
from amfpmc.phrases import InteractionSentence, KeywordPhrase, build_vocabulary, extract_phrase
from amfpmc.synth import SyntheticConfig, generate_synthetic


class TestInteractionsParsing:
    def test_index_mode_roundtrip(self, tmp_path):
        p = tmp_path / "edges.tsv"
        p.write_text("# comment\nD1\tD5\t4\n\nD2\tD3\t0\n")
        records = parse_interactions_file(str(p), "indices")
        assert len(records) == 2
        assert records[0].class_index() == 4
        assert records[0].line_no == 2

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
        records = parse_interactions_file(str(p), "sentences")
        phrase = extract_phrase(InteractionSentence(records[0].payload))
        assert phrase.text == "decreased metabolism"

    def test_sentence_mode_with_surfaces(self, tmp_path):
        p = tmp_path / "sentences.tsv"
        p.write_text("DB1\tDB2\tAspirin may increase the bleeding activities of Heparin\tAspirin\tHeparin\n")
        r = parse_interactions_file(str(p), "sentences")[0]
        phrase = extract_phrase(InteractionSentence(r.payload, r.surface_a, r.surface_b))
        assert phrase.text == "increased bleeding activities"

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
