import pytest

from amfpmc.errors import (
    EmptyAfterNormalizationError,
    EmptyInputError,
    FormatError,
    InvalidConfigError,
    ParseError,
    UnknownPhraseError,
)
from amfpmc.phrases import (
    NO_INTERACTION_MARKER,
    OTHER_MARKER,
    ClassVocabulary,
    InteractionSentence,
    KeywordPhrase,
    build_vocabulary,
    check_grouping,
    extract_phrase,
    load_stoplist,
    load_verb_forms,
)


def P(text: str) -> KeywordPhrase:
    return KeywordPhrase.from_text(text)


class TestExtraction:
    def test_metabolism_sentence(self):
        s = InteractionSentence("The metabolism of Drug b can be decreased when combined with Drug a")
        assert extract_phrase(s).tokens == ("decreased", "metabolism")

    def test_hypoglycemic_sentence(self):
        s = InteractionSentence("Drug a may increase the hypoglycemic activities of Drug b")
        assert extract_phrase(s).tokens == ("increased", "hypoglycemic", "activities")

    def test_serum_concentration_sentence(self):
        s = InteractionSentence(
            "The serum concentration of Drug b can be increased when it is combined with Drug a"
        )
        assert extract_phrase(s).tokens == ("increased", "serum", "concentration")

    def test_risk_sentence(self):
        s = InteractionSentence(
            "The risk or severity of adverse effects can be increased when Drug a is combined with Drug b"
        )
        assert extract_phrase(s).tokens == ("increased", "risk", "adverse", "effects")

    def test_real_drug_names_are_removed(self):
        s = InteractionSentence(
            "Lixisenatide may increase the hypoglycemic activities of Insulin Glargine",
            drug_a_surface="Lixisenatide",
            drug_b_surface="Insulin Glargine",
        )
        assert extract_phrase(s).tokens == ("increased", "hypoglycemic", "activities")

    def test_surface_order_symmetry(self):
        a = InteractionSentence("Drug a may increase the sedative activities of Drug b")
        b = InteractionSentence("Drug b may increase the sedative activities of Drug a")
        assert extract_phrase(a) == extract_phrase(b)
        assert extract_phrase(a).tokens == extract_phrase(b).tokens

    def test_reextraction_from_template_is_stable(self):
        for phrase in (P("decreased metabolism"), P("increased serum concentration")):
            direction, rest = phrase.tokens[0], " ".join(phrase.tokens[1:])
            text = f"The {rest} of Drug b can be {direction} when combined with Drug a"
            assert extract_phrase(InteractionSentence(text)) == phrase

    def test_no_stop_words_or_surfaces_survive(self):
        stop = load_stoplist()
        s = InteractionSentence(
            "The therapeutic efficacy of Drug b can be decreased when used in combination with Drug a"
        )
        tokens = extract_phrase(s).tokens
        assert tokens == ("decreased", "therapeutic", "efficacy")
        assert not set(tokens) & stop

    def test_empty_after_normalization(self):
        with pytest.raises(EmptyAfterNormalizationError):
            extract_phrase(InteractionSentence("The Drug a can be combined with Drug b"))
        with pytest.raises(EmptyInputError):
            extract_phrase(InteractionSentence("   "))

    def test_verb_table_covers_inflections(self):
        forms = load_verb_forms()
        assert forms["increases"] == "increased"
        assert forms["decrease"] == "decreased"

    @pytest.mark.parametrize("loader", [load_stoplist, load_verb_forms])
    def test_user_file_not_utf8_is_format_error(self, tmp_path, loader):
        path = tmp_path / "table.txt"
        path.write_bytes(b"\xff\xfeincreases increased\n")
        with pytest.raises(FormatError, match="not UTF-8"):
            loader(str(path))

    def test_bad_verb_table_line_is_parse_error_at_its_line(self, tmp_path):
        path = tmp_path / "verbs.txt"
        path.write_text("# surface canonical\nincreases increased\n\ndecreases\n")
        with pytest.raises(ParseError, match=r":4: verb table line needs two tokens, got 1"):
            load_verb_forms(str(path))


class TestPhraseEquality:
    def test_order_insensitive(self):
        assert P("metabolism decreased") == P("decreased metabolism")
        assert hash(P("metabolism decreased")) == hash(P("decreased metabolism"))

    def test_different_tokens_differ(self):
        assert P("decreased metabolism") != P("increased metabolism")

    def test_text_keeps_canonical_order(self):
        assert P("decreased metabolism").text == "decreased metabolism"


class TestVocabulary:
    def test_retrospective_layout(self):
        # 40 distinct phrases, descending counts; top 35 become classes 1..35
        phrases = []
        for t in range(40):
            phrases += [P(f"increased effect{t:02d}")] * (40 - t)
        vocab = build_vocabulary(phrases, "retrospective", top_n=35)
        assert vocab.n_classes == 37
        assert vocab.other_class == 36
        assert vocab.encode(P("increased effect00")) == 1
        assert vocab.encode(P("increased effect39")) == 36  # grouped as other
        assert vocab.counts[0] == 0
        assert vocab.counts[36] == 5 + 4 + 3 + 2 + 1

    def test_lexicographic_tie_break(self):
        phrases = [P("p phrase")] * 5 + [P("q phrase")] * 5 + [P("r phrase")]
        vocab = build_vocabulary(phrases, "retrospective", top_n=2)
        assert vocab.encode(P("p phrase")) == 1
        assert vocab.encode(P("q phrase")) == 2
        assert vocab.encode(P("r phrase")) == 3
        assert vocab.other_class == 3

    def test_paper_style_index_assignment(self):
        # most frequent phrase takes index 1, second takes index 2
        phrases = (
            [P("increased risk adverse effects")] * 3
            + [P("decreased metabolism")] * 2
            + [P("increased serum concentration")]
        )
        vocab = build_vocabulary(phrases, "retrospective", top_n=5)
        assert vocab.encode(P("decreased metabolism")) == 2
        assert vocab.encode(P("metabolism decreased")) == 2  # render order irrelevant

    def test_holdout_layout_and_min_count(self):
        phrases = [P("alpha one")] * 3 + [P("beta two")] * 2 + [P("gamma three")]
        vocab = build_vocabulary(phrases, "holdout", min_count=2)
        assert vocab.n_classes == 2
        assert vocab.encode(P("alpha one")) == 0
        assert vocab.encode(P("beta two")) == 1
        with pytest.raises(UnknownPhraseError):
            vocab.encode(P("gamma three"))

    def test_single_phrase_holdout(self):
        vocab = build_vocabulary([P("increased bleeding")], "holdout", min_count=1)
        assert vocab.n_classes == 1
        assert vocab.encode(P("increased bleeding")) == 0

    def test_unseen_phrase_fallbacks(self):
        vocab = build_vocabulary([P("increased bleeding")] * 2, "retrospective", top_n=1)
        assert vocab.encode(P("totally unseen")) == vocab.other_class
        hv = build_vocabulary([P("increased bleeding")], "holdout", min_count=1)
        with pytest.raises(UnknownPhraseError):
            hv.encode(P("totally unseen"))

    def test_encode_label_identity(self):
        phrases = [P("alpha one")] * 3 + [P("beta two")] * 2 + [P("gamma three")]
        vocab = build_vocabulary(phrases, "retrospective", top_n=2)
        assert vocab.labels == ["<no-interaction>", "alpha one", "beta two", "<other>"]
        assert vocab.counts == [0, 3, 2, 1]
        for idx, label in enumerate(vocab.labels[1:-1], 1):
            assert P(label).text == label
            assert vocab.encode(P(label)) == idx
        assert vocab.labels[0] == NO_INTERACTION_MARKER
        assert vocab.labels[vocab.other_class] == OTHER_MARKER
        holdout = build_vocabulary(phrases, "holdout", min_count=1)
        assert holdout.labels == ["alpha one", "beta two", "gamma three"]
        assert [holdout.encode(P(holdout.labels[idx])) for idx in range(3)] == [0, 1, 2]

    def test_repeated_phrase_refused(self):
        with pytest.raises(InvalidConfigError, match="repeats the phrase of class 0"):
            ClassVocabulary("holdout", ["beta two", "two beta"], [1, 1])
        with pytest.raises(InvalidConfigError, match="repeats the phrase of class 1"):
            ClassVocabulary("retrospective", ["<no-interaction>", "a b", "b a", "<other>"],
                            [0, 1, 1, 0])

    @pytest.mark.parametrize("mode, labels, counts, class_id, message", [
        ("retrospective", ["a b", "c d", "e f"], [0, 1, 1], 0, "must be '<no-interaction>'"),
        ("holdout", ["<other>", "c d"], [1, 1], 0, "must be a phrase, got '<other>'"),
        ("holdout", ["a b", "c d"], [1, -4], 1, "negative count -4"),
        # every phrase would be encoded as class 0, no interaction
        ("retrospective", ["<no-interaction>"], [0], None, "needs 2 or more classes, got 1"),
        # zip would write one class
        ("holdout", ["a b", "c d"], [1], None, "2 labels but 1 counts"),
        # a phrase that reads as a marker, and one a file line cannot hold
        ("holdout", ["a b", "<OTHER>"], [1, 1], 1, "must be a phrase, got '<other>'"),
        ("holdout", ["a b", "\t \n"], [1, 1], 1, "at least one token"),
    ], ids=["retrospective-without-markers", "marker-in-holdout", "negative-count",
            "one-class-retrospective", "fewer-counts", "marker-after-folding", "blank-phrase"])
    def test_what_the_file_refuses_is_refused(self, mode, labels, counts, class_id, message):
        with pytest.raises(InvalidConfigError, match=message) as err:
            ClassVocabulary(mode, labels, counts)
        assert getattr(err.value, "class_id", None) == class_id

    def test_labels_are_canonical_text(self):
        vocab = ClassVocabulary("holdout", [" Decreased\tMETABOLISM ", "a b"], [2, 1])
        assert vocab.labels == ["decreased metabolism", "a b"]
        assert vocab.encode(P("metabolism decreased")) == 0

    def test_grouping_arguments_validated(self):
        with pytest.raises(InvalidConfigError):
            build_vocabulary([P("x y")], "retrospective", top_n=None)
        with pytest.raises(InvalidConfigError):
            build_vocabulary([P("x y")], "holdout", min_count=None)
        with pytest.raises(EmptyInputError):
            build_vocabulary([], "holdout", min_count=1)
        with pytest.raises(EmptyInputError):
            build_vocabulary([P("x y")], "holdout", min_count=5)

    def test_grouping_is_checked_without_phrases(self):
        check_grouping("retrospective", top_n=1)
        check_grouping("holdout", min_count=1)
        with pytest.raises(InvalidConfigError, match="retrospective grouping needs top_n >= 1"):
            check_grouping("retrospective", top_n=0, min_count=3)
        with pytest.raises(InvalidConfigError, match="holdout grouping needs min_count >= 1"):
            check_grouping("holdout", top_n=3)
        # a missing option is named before an empty phrase list
        with pytest.raises(InvalidConfigError):
            build_vocabulary([], "holdout")
