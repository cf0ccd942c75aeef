"""Fig 12: accuracy vs training iterations, FAE vs baseline.

Paper: FAE's interleaved hot/cold schedule reaches the baseline accuracy
for both training and test sets on all three datasets.  We reproduce the
Kaggle-like curve with real numpy training at reduced scale.
"""

from repro.analysis import series_table
from repro.core import fae_preprocess
from repro.data import train_test_split
from repro.models.dlrm import DLRM, DLRMConfig
from repro.train import BaselineTrainer, FAETrainer


def run_training(log, config):
    train, test = train_test_split(log, 0.15, seed=3)
    plan = fae_preprocess(train, config, batch_size=256)
    schema = log.schema

    baseline_model = DLRM(schema, DLRMConfig("13-64-32-16", "64-1", seed=17))
    baseline = BaselineTrainer(baseline_model, lr=0.15).train(train, test, epochs=2, batch_size=256)

    fae_model = DLRM(schema, DLRMConfig("13-64-32-16", "64-1", seed=17))
    fae = FAETrainer(fae_model, plan, lr=0.15).train(train, test, epochs=2)
    return baseline, fae, plan


def test_fig12_accuracy_curves(benchmark, emit, kaggle_small_log, small_fae_config):
    baseline, fae, plan = benchmark.pedantic(
        run_training, args=(kaggle_small_log, small_fae_config), rounds=1, iterations=1
    )

    # Each curve at its own length: the two runs evaluate at their own
    # segment boundaries, so their points need not pair up.
    tables = []
    for name, result in (("baseline", baseline), ("fae", fae)):
        iters, acc = result.history.series("test_accuracy")
        tables.append(
            series_table(
                "point", [f"{name} iter", f"{name} acc"], range(1, len(iters) + 1), [iters, acc]
            )
        )
    emit(
        "fig12_accuracy_curves",
        f"Fig 12 - accuracy vs iterations ({plan.summary()})\n" + "\n\n".join(tables)
        + f"\nfinal: baseline {baseline.final_test_accuracy:.4f} "
        f"fae {fae.final_test_accuracy:.4f}",
    )

    # FAE reaches baseline accuracy (paper's central accuracy claim).
    assert fae.final_test_accuracy >= baseline.final_test_accuracy - 0.02
    # Both beat the majority-class floor.
    majority = 0.55
    assert baseline.final_test_accuracy > majority
    assert fae.final_test_accuracy > majority
    # FAE's curve ends at/near its best (converging, not oscillating).
    assert fae.final_test_accuracy >= fae.history.best_test_accuracy() - 0.03
