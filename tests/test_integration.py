"""End-to-end integration tests: the full pipeline on every dataset.

These exercise data generation -> splitting -> pre-training -> both
evaluation protocols at miniature scale, one test per dataset family, plus
the serialization and anomaly paths across module boundaries.
"""

import numpy as np
import pytest

from repro.core import (
    AnomalyDetector,
    PretrainConfig,
    TimeDRL,
    TimeDRLConfig,
    linear_evaluate_classification,
    linear_evaluate_forecasting,
    run_pretrain,
)
from repro.data import (
    CLASSIFICATION_DATASETS,
    FORECASTING_DATASETS,
    load_classification_dataset,
    load_forecasting_dataset,
    make_classification_data,
    make_forecasting_data,
)
from repro.evaluation import evaluate_clustering

_FAST = PretrainConfig(epochs=1, batch_size=16, max_batches_per_epoch=4, seed=0)


@pytest.mark.parametrize("dataset", sorted(FORECASTING_DATASETS))
def test_forecasting_pipeline(dataset):
    """Generate -> window -> pre-train -> probe, for every forecasting set."""
    series = load_forecasting_dataset(dataset, scale=0.04 if "m" not in dataset else 0.01)
    data = make_forecasting_data(series, seq_len=32, pred_len=8, stride=4)
    info = FORECASTING_DATASETS[dataset]
    config = TimeDRLConfig(seq_len=32, input_channels=info.features,
                           patch_len=8, stride=8, d_model=16, num_heads=2,
                           num_layers=1, channel_independence=True, seed=0)
    result = run_pretrain(config, data.train, _FAST)
    scores = linear_evaluate_forecasting(result.model, data)
    assert np.isfinite(scores.mse) and scores.mse >= 0
    assert np.isfinite(scores.mae) and scores.mae >= 0


@pytest.mark.parametrize("dataset", sorted(CLASSIFICATION_DATASETS))
def test_classification_pipeline(dataset):
    """Generate -> split -> pre-train -> probe, for every classification set."""
    x, y = load_classification_dataset(dataset, scale=0.02)
    data = make_classification_data(x, y, seed=0)
    info = CLASSIFICATION_DATASETS[dataset]
    patch_len = max(min(8, info.length // 4, 16 // max(info.features, 1)), 1)
    config = TimeDRLConfig(seq_len=info.length, input_channels=info.features,
                           patch_len=patch_len, stride=patch_len,
                           d_model=16, num_heads=2, num_layers=1,
                           channel_independence=False, seed=0)
    result = run_pretrain(config, data.x_train, _FAST)
    scores = linear_evaluate_classification(result.model, data, epochs=30)
    assert 0 <= scores.accuracy <= 100
    assert -100 <= scores.kappa <= 100


def test_pretrain_save_load_probe_round_trip(tmp_path):
    """A persisted encoder must reproduce its probe results exactly."""
    series = load_forecasting_dataset("ETTh1", scale=0.03)
    data = make_forecasting_data(series, seq_len=32, pred_len=8, stride=4)
    config = TimeDRLConfig(seq_len=32, input_channels=7, patch_len=8, stride=8,
                           d_model=16, num_heads=2, num_layers=1,
                           channel_independence=True, seed=0)
    result = run_pretrain(config, data.train, _FAST)
    original = linear_evaluate_forecasting(result.model, data)

    path = str(tmp_path / "model.npz")
    result.model.save(path)
    restored = TimeDRL(config)
    restored.load(path)
    restored.eval()
    reloaded = linear_evaluate_forecasting(restored, data)
    np.testing.assert_allclose(reloaded.mse, original.mse, rtol=1e-5)


def test_embeddings_feed_clustering_and_anomaly_paths():
    """Instance embeddings -> clustering eval; timestamp embeddings ->
    anomaly detection, in one shared pre-training run."""
    x, y = load_classification_dataset("PenDigits", scale=0.01)
    data = make_classification_data(x, y, seed=0)
    config = TimeDRLConfig(seq_len=8, input_channels=2, patch_len=2, stride=2,
                           d_model=16, num_heads=2, num_layers=1, seed=0)
    result = run_pretrain(config, data.x_train, _FAST)

    embeddings = result.model.encode(data.x_test)[1]
    clustering = evaluate_clustering(embeddings, data.y_test, seed=0)
    assert 0 <= clustering.nmi <= 1
    assert 0 <= clustering.accuracy <= 1

    detector = AnomalyDetector(result.model)
    detector.calibrate(data.x_val, quantile=0.95)
    outcome = detector.detect(data.x_test)
    assert outcome.scores.shape[0] == len(data.x_test)


def test_cross_seed_stability_of_forecasting_probe():
    """Different seeds must give correlated (not wildly divergent) results —
    a guard against pathological seed sensitivity in the pipeline."""
    series = load_forecasting_dataset("ETTh1", scale=0.04)
    data = make_forecasting_data(series, seq_len=32, pred_len=8, stride=4)
    mses = []
    for seed in (0, 1):
        config = TimeDRLConfig(seq_len=32, input_channels=7, patch_len=8,
                               stride=8, d_model=16, num_heads=2, num_layers=1,
                               channel_independence=True, seed=seed)
        result = run_pretrain(config, data.train,
                              PretrainConfig(epochs=1, batch_size=16,
                                             max_batches_per_epoch=6, seed=seed))
        mses.append(linear_evaluate_forecasting(result.model, data).mse)
    assert max(mses) < 3 * min(mses)
