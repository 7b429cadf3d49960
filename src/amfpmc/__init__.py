"""Multi-class drug-drug interaction prediction from the interaction graph alone.

The package factorizes a typed, symmetric interaction graph with a
shared-embedding network, blends training targets with neighborhood class
distributions (label propagation), and ships holdout plus retrospective
evaluation harnesses with a CLI front end.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules:
    # One BLAS thread: at this package's shapes a second one saves no wall time,
    # spins on its core, and changes the last bits of matrix products. The BLAS
    # library reads these variables once, when numpy loads it, so each is put back
    # (or unset) right after: the caller's environment and child processes keep theirs.
    _saved = {var: _os.environ.get(var)
              for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    _os.environ.update(dict.fromkeys(_saved, "1"))
    try:
        import numpy  # noqa: F401
    finally:
        for _var, _value in _saved.items():
            if _value is None:
                del _os.environ[_var]
            else:
                _os.environ[_var] = _value

from .errors import AmfpmcError
from .graph import HOLDOUT, NO_INTERACTION, RETROSPECTIVE, Roster, TypedInteractionGraph, build_graph
from .metrics import MultiClassReport, average_precision, class_weights, multiclass_report, roc_auc
from .model import (
    Hyperparameters,
    ModelParameters,
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
