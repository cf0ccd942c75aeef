"""Training orchestration: baseline hybrid and FAE trainers.

These trainers execute *real* numpy training (the models in
:mod:`repro.models` over the synthetic logs in :mod:`repro.data`), which
is what the accuracy experiments (paper Fig 12, Table III) measure.  The
:class:`FAETrainer` exercises the genuine FAE runtime: hot mini-batches
run against replicated hot bags, cold mini-batches against the master
tables, with hot-bag synchronization at every transition and the Shuffle
Scheduler adapting the interleave rate from the test loss.
"""

from repro.train.metrics import evaluate_model, binary_accuracy, roc_auc
from repro.train.history import TrainingHistory, HistoryPoint
from repro.train.trainer import BaselineTrainer, FAETrainer, TrainResult
from repro.train.popshift import PopShiftConfig, run_popularity_shift

__all__ = [
    "BaselineTrainer",
    "FAETrainer",
    "HistoryPoint",
    "PopShiftConfig",
    "TrainResult",
    "TrainingHistory",
    "run_popularity_shift",
    "binary_accuracy",
    "evaluate_model",
    "roc_auc",
]
