"""Exception hierarchy shared by every module.

All failures raised on purpose derive from :class:`AmfpmcError` so the CLI can
map them to a single-line cause and a non-zero exit status.
"""


class AmfpmcError(Exception):
    """Base class for all package errors."""


class DuplicateIdError(AmfpmcError):
    """An external drug id appears more than once in a roster."""


class UnknownDrugError(AmfpmcError):
    """A drug index or external id is not part of the roster."""


class SelfLoopError(AmfpmcError):
    """A pair (a, a) was used where two distinct drugs are required."""


class ConflictingLabelError(AmfpmcError):
    """A pair already stored with a different interaction class."""


class InvalidClassError(AmfpmcError):
    """Interaction class outside 0..K-1 or reserved for the graph mode."""


class EmptyAfterNormalizationError(AmfpmcError):
    """A sentence reduced to nothing but stop words and drug names."""


class UnknownPhraseError(AmfpmcError):
    """Phrase not in a holdout vocabulary (which has no 'other' bucket)."""


class EmptyInputError(AmfpmcError):
    """An operation received no data to work on."""


class EmptyBatchError(EmptyInputError):
    """A gradient step was requested on an empty batch."""


class EmptyDatasetError(EmptyInputError):
    """Training was requested on an empty pair set."""


class EmptyGridError(EmptyInputError):
    """Grid search over an empty candidate set."""


class ShapeMismatchError(AmfpmcError):
    """Array shapes disagree with the declared dimensions."""


class InvalidDimensionsError(AmfpmcError):
    """Model dimensions (n, K, d) out of range."""


class DegenerateLabelsError(AmfpmcError):
    """A ranking metric needs both positives and negatives."""


class NonFiniteError(AmfpmcError):
    """Scores or trained parameters contain NaN or infinity, as a diverged run produces."""


class NoPositivesError(AmfpmcError):
    """Average precision needs at least one positive."""


class AllEmptyError(AmfpmcError):
    """Class weights over counts that are all zero."""


class TooFewPairsError(AmfpmcError):
    """Fewer pairs than folds."""


class EmptyIntersectionError(AmfpmcError):
    """Two snapshots share no drugs."""


class EmptySubsetError(AmfpmcError):
    """A drug-subset restriction removed every test pair."""


class InvalidConfigError(AmfpmcError):
    """A configuration value violates its documented range."""


class VocabularyError(InvalidConfigError):
    """A class vocabulary breaks a rule of its file format at class class_id."""

    def __init__(self, class_id: int, message: str):
        self.class_id = class_id
        super().__init__(message)


class ParseError(AmfpmcError):
    """Malformed line in an input file; carries the 1-based line number."""

    def __init__(self, path: str, line_no: int, message: str):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class FormatError(AmfpmcError):
    """A persisted artifact (model file, vocabulary) is structurally broken."""


class DimensionMismatchError(FormatError):
    """Header dimensions disagree with the file body."""
