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
    UnknownPhraseError,
)
from .graph import HOLDOUT, RETROSPECTIVE, check_mode

_TOKEN_RE = re.compile(r"[a-z0-9][a-z0-9'-]*")

#: Rendered in files for the two index kinds that have no phrase of their own.
NO_INTERACTION_MARKER = "<no-interaction>"
OTHER_MARKER = "<other>"


def _read_data_lines(path: Optional[str], default_name: str) -> list[str]:
    if path is None:
        text = resources.files("amfpmc.data").joinpath(default_name).read_text("utf-8")
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError:
            raise FormatError(f"{path}: not UTF-8 text") from None
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def load_stoplist(path: Optional[str] = None) -> frozenset[str]:
    """Stop tokens, one per line; '#' comments allowed."""
    return frozenset(tok.lower() for tok in _read_data_lines(path, "stoplist.txt"))


def load_verb_forms(path: Optional[str] = None) -> dict[str, str]:
    """Direction-verb normalization map, 'surface canonical' per line."""
    forms: dict[str, str] = {}
    for line in _read_data_lines(path, "verb_forms.txt"):
        parts = line.split()
        if len(parts) != 2:
            raise InvalidConfigError(f"verb table line needs two tokens: {line!r}")
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

    Both drug surface forms (and the generic "Drug a"/"Drug b" placeholders)
    are removed, stop words dropped, direction verbs normalized through the
    verb table with the first one moved to the front.
    """
    if not sentence.text.strip():
        raise EmptyInputError("empty sentence")
    stoplist = load_stoplist() if stoplist is None else stoplist
    verb_forms = load_verb_forms() if verb_forms is None else verb_forms

    text = sentence.text
    for surface in (sentence.drug_a_surface, sentence.drug_b_surface, "Drug a", "Drug b"):
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
    """Bidirectional phrase-to-index map with counts and rare-class grouping.

    Retrospective mode reserves index 0 for "no interaction", puts common
    phrases at 1..top_n, and groups the rest under an "other" class at
    top_n + 1. Holdout mode assigns 0..K-1 to phrases meeting min_count and
    drops the rest (encoding a dropped phrase raises UnknownPhraseError).
    """

    def __init__(
        self,
        mode: str,
        class_to_phrase: dict[int, KeywordPhrase],
        counts: dict[int, int],
        other_class: Optional[int],
    ):
        self.mode = check_mode(mode)
        self.class_to_phrase = dict(class_to_phrase)
        self.counts = dict(counts)
        self.other_class = other_class
        self._by_key = {p.key: idx for idx, p in class_to_phrase.items()}
        if len(self._by_key) != len(class_to_phrase):
            raise InvalidConfigError("duplicate phrases in vocabulary")

    @property
    def n_classes(self) -> int:
        special = 2 if self.mode == RETROSPECTIVE else 0
        return len(self.class_to_phrase) + special

    def encode(self, phrase: KeywordPhrase) -> int:
        idx = self._by_key.get(phrase.key)
        if idx is not None:
            return idx
        if self.mode == RETROSPECTIVE:
            return self.other_class
        raise UnknownPhraseError(f"phrase {phrase.text!r} not in holdout vocabulary")

    def decode(self, class_id: int) -> Optional[KeywordPhrase]:
        """Phrase for a class; None for the reserved and 'other' indices."""
        return self.class_to_phrase.get(class_id)

    def class_label(self, class_id: int) -> str:
        phrase = self.decode(class_id)
        if phrase is not None:
            return phrase.text
        if class_id == self.other_class:
            return OTHER_MARKER
        return NO_INTERACTION_MARKER


def build_vocabulary(
    phrases: Iterable[KeywordPhrase],
    mode: str,
    top_n: Optional[int] = None,
    min_count: Optional[int] = None,
) -> ClassVocabulary:
    """Rank phrases by descending count (ties lexicographic) and index them."""
    check_mode(mode)
    counter: Counter[tuple[str, ...]] = Counter()
    display: dict[tuple[str, ...], KeywordPhrase] = {}
    for p in phrases:
        counter[p.key] += 1
        display.setdefault(p.key, p)
    if not counter:
        raise EmptyInputError("no phrases to index")

    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], display[kv[0]].text))

    if mode == RETROSPECTIVE:
        if top_n is None or top_n < 1:
            raise InvalidConfigError("retrospective grouping needs top_n >= 1")
        common = ranked[:top_n]
        rare = ranked[top_n:]
        class_to_phrase = {idx + 1: display[key] for idx, (key, _) in enumerate(common)}
        counts = {0: 0}
        counts.update({idx + 1: cnt for idx, (_, cnt) in enumerate(common)})
        other = len(common) + 1
        counts[other] = sum(cnt for _, cnt in rare)
        return ClassVocabulary(mode, class_to_phrase, counts, other_class=other)

    if min_count is None or min_count < 1:
        raise InvalidConfigError("holdout grouping needs min_count >= 1")
    kept = [(key, cnt) for key, cnt in ranked if cnt >= min_count]
    if not kept:
        raise EmptyInputError(f"no phrase reaches min_count={min_count}")
    class_to_phrase = {idx: display[key] for idx, (key, _) in enumerate(kept)}
    counts = {idx: cnt for idx, (_, cnt) in enumerate(kept)}
    return ClassVocabulary(mode, class_to_phrase, counts, other_class=None)
