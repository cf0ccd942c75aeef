"""Table III: final train/test accuracy, baseline vs FAE.

Paper (percent): Kaggle 79.30/79.70 train, 78.86/78.86 test; Taobao
88.78/88.32 train, 89.21/89.03 test; Terabyte 81.62/81.95 train,
81.07/81.06 test.  The operative claim: FAE matches baseline accuracy
within noise.  We verify on two real (scaled) workloads: DLRM on the
Kaggle-like log and TBSM on a Taobao-like log.

The two train columns are train-*set* accuracy: the finished model
re-scored on the first ``TRAIN_EVAL_ROWS`` rows of the training log,
which is what the paper's table compares.  It is not
``TrainResult.final_train_accuracy`` — that is the running accuracy the
steps measured while the parameters were still moving, and the trainers
no longer pay a closing forward over the training log to report more.
"""

from repro.analysis import format_table
from repro.core import FAEConfig, fae_preprocess
from repro.data import SyntheticClickLog, SyntheticConfig, taobao_like, train_test_split
from repro.models import build_model, workload_by_name
from repro.models.dlrm import DLRM, DLRMConfig
from repro.train import BaselineTrainer, FAETrainer, evaluate_model

TRAIN_EVAL_ROWS = 16_384


def train_set_accuracy(model, train):
    _loss, accuracy = evaluate_model(model, train, max_samples=TRAIN_EVAL_ROWS)
    return accuracy


def run_all(kaggle_log, kaggle_config):
    results = {}

    # DLRM / Kaggle-like
    train, test = train_test_split(kaggle_log, 0.15, seed=1)
    plan = fae_preprocess(train, kaggle_config, batch_size=256)
    baseline_model = DLRM(kaggle_log.schema, DLRMConfig("13-64-32-16", "64-1", seed=8))
    base = BaselineTrainer(baseline_model, lr=0.15).train(train, test, epochs=2, batch_size=256)
    fae_model = DLRM(kaggle_log.schema, DLRMConfig("13-64-32-16", "64-1", seed=8))
    fae = FAETrainer(fae_model, plan, lr=0.15).train(train, test, epochs=2)
    results["criteo-kaggle (DLRM)"] = (
        base,
        fae,
        train_set_accuracy(baseline_model, train),
        train_set_accuracy(fae_model, train),
    )

    # TBSM / Taobao-like
    schema = taobao_like("tiny")
    log = SyntheticClickLog(schema, SyntheticConfig(num_samples=6000, seed=2))
    train, test = train_test_split(log, 0.15, seed=1)
    config = FAEConfig(
        gpu_memory_budget=64 * 1024, large_table_min_bytes=512, chunk_size=16, seed=1
    )
    plan = fae_preprocess(train, config, batch_size=128)
    base_model = build_model(workload_by_name("RMC1"), schema=schema, seed=8)
    base = BaselineTrainer(base_model, lr=0.1).train(train, test, epochs=2, batch_size=128)
    fae_model = build_model(workload_by_name("RMC1"), schema=schema, seed=8)
    fae = FAETrainer(fae_model, plan, lr=0.1).train(train, test, epochs=2)
    results["taobao (TBSM)"] = (
        base,
        fae,
        train_set_accuracy(base_model, train),
        train_set_accuracy(fae_model, train),
    )
    return results


def test_tab3_accuracy(benchmark, emit, kaggle_small_log, small_fae_config):
    results = benchmark.pedantic(
        run_all, args=(kaggle_small_log, small_fae_config), rounds=1, iterations=1
    )

    rows = []
    for name, (base, fae, base_train, fae_train) in results.items():
        rows.append(
            [
                name,
                f"{100 * base_train:.2f}",
                f"{100 * fae_train:.2f}",
                f"{100 * base.final_test_accuracy:.2f}",
                f"{100 * fae.final_test_accuracy:.2f}",
            ]
        )
    table = format_table(
        ["dataset", "base train %", "FAE train %", "base test %", "FAE test %"],
        rows,
        title="Table III - accuracy comparison (scaled synthetic workloads)",
    )
    emit("tab3_accuracy", table)

    for name, (base, fae, base_train, fae_train) in results.items():
        # The paper's claim: FAE matches baseline accuracy (within noise).
        assert fae.final_test_accuracy >= base.final_test_accuracy - 0.025, name
        assert fae_train >= base_train - 0.035, name
