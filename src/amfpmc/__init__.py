"""Multi-class drug-drug interaction prediction from the interaction graph alone.

The package factorizes a typed, symmetric interaction graph with a
shared-embedding network, blends training targets with neighborhood class
distributions (label propagation), and ships holdout plus retrospective
evaluation harnesses with a CLI front end.
"""

from .errors import AmfpmcError
from .graph import HOLDOUT, NO_INTERACTION, RETROSPECTIVE, Roster, TypedInteractionGraph, build_graph
from .metrics import MultiClassReport, average_precision, class_weights, multiclass_report, roc_auc
from .model import (
    Hyperparameters,
    ModelParameters,
    export_embeddings,
    init_model,
    predict,
)
from .phrases import ClassVocabulary, InteractionSentence, KeywordPhrase, build_vocabulary, extract_phrase
from .pipeline import (
    GridSpec,
    HoldoutResult,
    LabeledPairs,
    RetrospectiveSplit,
    attach_targets,
    baseline_majority,
    baseline_neighborhood,
    grid_search,
    holdout_evaluate,
    reconcile_rosters,
    retrospective_evaluate,
    retrospective_split,
    stratified_kfold,
    train,
)
from .propagation import neighborhood_distributions, propagate_target
from .synth import SyntheticConfig, SyntheticData, generate_synthetic

__version__ = "0.1.0"
