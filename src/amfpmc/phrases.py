"""Reduce interaction sentences to canonical keyword phrases.

The normalization is deliberately rule-based: drug surface forms are cut
out, stop words from a versioned list are dropped, and the direction verb
(increase/decrease family) is normalized to its past participle and moved to
the front. Phrase equality ignores token order so that "decreased
metabolism" and "metabolism decreased" are the same phrase; the canonical
render keeps the direction-first order.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Optional

from .errors import (
    EmptyAfterNormalizationError,
    EmptyInputError,
    FormatError,
    InvalidConfigError,
    ParseError,
    UnknownPhraseError,
    VocabularyError,
)
from .graph import RETROSPECTIVE, check_mode

_TOKEN_RE = re.compile(r"[a-z0-9][a-z0-9'-]*")

#: Rendered in files for the two index kinds that have no phrase of their own.
NO_INTERACTION_MARKER = "<no-interaction>"
OTHER_MARKER = "<other>"


def _read_data_lines(path: Optional[str], default_name: str) -> list[tuple[int, str]]:
    """(line_no, text) of each line of path, or of the packaged default_name, with '#' comments
    and surrounding space removed; lines left empty are skipped."""
    if path is None:
        text = resources.files("amfpmc.data").joinpath(default_name).read_text("utf-8")
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError:
            raise FormatError(f"{path}: not UTF-8 text") from None
    lines = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((line_no, line))
    return lines


def load_stoplist(path: Optional[str] = None) -> frozenset[str]:
    """Stop tokens, one per line; '#' comments allowed."""
    return frozenset(tok.lower() for _, tok in _read_data_lines(path, "stoplist.txt"))


def load_verb_forms(path: Optional[str] = None) -> dict[str, str]:
    """Direction-verb normalization map, 'surface canonical' per line."""
    forms: dict[str, str] = {}
    for line_no, line in _read_data_lines(path, "verb_forms.txt"):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(path or "verb_forms.txt", line_no,
                             f"verb table line needs two tokens, got {len(parts)}: {line!r}")
        forms[parts[0].lower()] = parts[1].lower()
    return forms


@dataclass(frozen=True)
class InteractionSentence:
    """Free-text interaction description plus the two drug surface forms."""

    text: str
    drug_a_surface: str = "Drug a"
    drug_b_surface: str = "Drug b"


@dataclass(frozen=True, eq=False)
class KeywordPhrase:
    """Ordered lowercase tokens; equality and hashing ignore token order."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.tokens:
            raise EmptyInputError("a keyword phrase needs at least one token")

    @property
    def key(self) -> tuple[str, ...]:
        return tuple(sorted(self.tokens))

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, KeywordPhrase) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"KeywordPhrase({self.text!r})"

    @classmethod
    def from_text(cls, text: str) -> "KeywordPhrase":
        return cls(tuple(text.lower().split()))


def extract_phrase(
    sentence: InteractionSentence,
    stoplist: Optional[frozenset[str]] = None,
    verb_forms: Optional[dict[str, str]] = None,
) -> KeywordPhrase:
    """Deterministic sentence-to-phrase reduction.

    Both drug surface forms (and the generic placeholders, InteractionSentence's
    defaults) are removed, stop words dropped, direction verbs normalized
    through the verb table with the first one moved to the front.
    """
    if not sentence.text.strip():
        raise EmptyInputError("empty sentence")
    stoplist = load_stoplist() if stoplist is None else stoplist
    verb_forms = load_verb_forms() if verb_forms is None else verb_forms

    text = sentence.text
    for surface in (sentence.drug_a_surface, sentence.drug_b_surface,
                    InteractionSentence.drug_a_surface, InteractionSentence.drug_b_surface):
        if surface and surface.strip():
            text = re.sub(re.escape(surface), " ", text, flags=re.IGNORECASE)

    tokens = [t for t in _TOKEN_RE.findall(text.lower()) if t not in stoplist]
    tokens = [verb_forms.get(t, t) for t in tokens]

    direction_verbs = set(verb_forms.values())
    direction: Optional[str] = None
    rest: list[str] = []
    for t in tokens:
        if direction is None and t in direction_verbs:
            direction = t
        else:
            rest.append(t)
    ordered = ([direction] if direction else []) + rest
    if not ordered:
        raise EmptyAfterNormalizationError(f"nothing left of {sentence.text!r}")
    return KeywordPhrase(tuple(ordered))


class ClassVocabulary:
    """A class vocabulary as its file holds it: class k's label and count.

    labels[k] is a phrase's canonical text (KeywordPhrase.from_text), except
    in retrospective mode, where class 0 is NO_INTERACTION_MARKER and the
    last class is OTHER_MARKER, under which the phrases beyond top_n are
    grouped. Holdout mode has no markers, and encoding a phrase it lacks
    raises UnknownPhraseError.

    The one home of the vocabulary file's rules: labels and counts of equal
    length and at least one class (two in retrospective mode), else
    InvalidConfigError; then, class by class, the markers where the mode
    puts them and nowhere else, every phrase of at least one token and
    distinct, and no count below 0, else VocabularyError naming the class.
    """

    def __init__(self, mode: str, labels: list[str], counts: list[int]):
        self.mode = check_mode(mode)
        n = len(labels)
        if n != len(counts):
            raise InvalidConfigError(f"{n} labels but {len(counts)} counts")
        retro = self.mode == RETROSPECTIVE
        least = 2 if retro else 1
        if n < least:
            raise InvalidConfigError(f"a {mode} vocabulary needs {least} or more classes, got {n}")
        markers = {0: NO_INTERACTION_MARKER, n - 1: OTHER_MARKER} if retro else {}
        self.other_class = n - 1 if retro else None
        self.labels, self.counts = [], list(counts)
        self._by_key: dict[tuple[str, ...], int] = {}
        for k, (label, count) in enumerate(zip(labels, counts)):
            due = markers.get(k)
            if not due:
                try:
                    phrase = KeywordPhrase.from_text(label)
                except EmptyInputError as exc:
                    raise VocabularyError(k, str(exc)) from None
                label, first = phrase.text, self._by_key.setdefault(phrase.key, k)
            if label != due and (due or label in (NO_INTERACTION_MARKER, OTHER_MARKER)):
                raise VocabularyError(k, f"class {k} of a {mode} vocabulary must be "
                                         f"{repr(due) if due else 'a phrase'}, got {label!r}")
            if not due and first != k:
                raise VocabularyError(k, f"phrase {label!r} repeats the phrase of class {first}")
            if count < 0:
                raise VocabularyError(k, f"negative count {count}")
            self.labels.append(label)

    @property
    def n_classes(self) -> int:
        return len(self.labels)

    def encode(self, phrase: KeywordPhrase) -> int:
        idx = self._by_key.get(phrase.key)
        if idx is not None:
            return idx
        if self.mode == RETROSPECTIVE:
            return self.other_class
        raise UnknownPhraseError(f"phrase {phrase.text!r} not in holdout vocabulary")


def check_grouping(mode: str, top_n: Optional[int] = None, min_count: Optional[int] = None) -> None:
    """Refuse a missing or non-positive grouping option for mode; no phrase is needed."""
    check_mode(mode)
    if mode == RETROSPECTIVE:
        if top_n is None or top_n < 1:
            raise InvalidConfigError("retrospective grouping needs top_n >= 1")
    elif min_count is None or min_count < 1:
        raise InvalidConfigError("holdout grouping needs min_count >= 1")


def build_vocabulary(
    phrases: Iterable[KeywordPhrase],
    mode: str,
    top_n: Optional[int] = None,
    min_count: Optional[int] = None,
) -> ClassVocabulary:
    """Rank phrases by descending count (ties lexicographic) and index them."""
    check_grouping(mode, top_n, min_count)
    # each phrase counts under the text of the first phrase with its key
    text_of: dict[tuple[str, ...], str] = {}
    counter = Counter(text_of.setdefault(p.key, p.text) for p in phrases)
    if not counter:
        raise EmptyInputError("no phrases to index")

    ranked = sorted(counter.items(), key=lambda row: (-row[1], row[0]))
    if mode == RETROSPECTIVE:
        rare = sum(cnt for _, cnt in ranked[top_n:])
        rows = [(NO_INTERACTION_MARKER, 0), *ranked[:top_n], (OTHER_MARKER, rare)]
    else:
        rows = [(text, cnt) for text, cnt in ranked if cnt >= min_count]
        if not rows:
            raise EmptyInputError(f"no phrase reaches min_count={min_count}")
    return ClassVocabulary(mode, [text for text, _ in rows], [cnt for _, cnt in rows])
