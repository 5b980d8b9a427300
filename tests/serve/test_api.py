"""InferenceAPI protocol conformance across TimeDRL and the baselines.

Covers the unified ``encode()``/``predict()`` surface, the
``InferenceUnsupported`` contract for half-capable models, and the
eval-mode regression fix for end-to-end baselines (dropout must be inactive at
inference).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (InformerForecaster, SSLBaseline, TCNForecaster,
                             TS2Vec)
from repro.core import TimeDRLConfig
from repro.core.model import TimeDRL
from repro.serve.api import InferenceAPI, InferenceUnsupported

from .conftest import CHANNELS, SEQ_LEN


@pytest.fixture(scope="module")
def model():
    config = TimeDRLConfig(seq_len=SEQ_LEN, input_channels=CHANNELS,
                           patch_len=8, stride=8, d_model=32,
                           num_heads=2, num_layers=1, seed=0)
    return TimeDRL(config)


@pytest.fixture(scope="module")
def ts2vec():
    return TS2Vec(in_channels=CHANNELS, d_model=16, seed=0)


def _informer():
    return InformerForecaster(in_channels=CHANNELS, seq_len=SEQ_LEN,
                              pred_len=8, d_model=16, num_heads=2,
                              num_layers=1, seed=0)


class TestProtocolConformance:
    def test_timedrl_satisfies_protocol(self, model):
        assert isinstance(model, InferenceAPI)

    def test_ssl_baseline_satisfies_protocol(self, ts2vec):
        assert isinstance(ts2vec, InferenceAPI)

    def test_forecaster_satisfies_protocol(self):
        assert isinstance(_informer(), InferenceAPI)

    def test_timedrl_encode_shapes(self, model, windows):
        z_t, z_i = model.encode(windows[:4])
        assert z_t.ndim == 3 and z_t.shape[-1] == model.config.d_model
        assert z_i.ndim == 2 and z_i.shape[-1] == model.config.d_model
        assert isinstance(z_t, np.ndarray) and isinstance(z_i, np.ndarray)

    def test_timedrl_predict_shapes(self, model, windows):
        scores = model.predict(windows[:4])
        assert scores.shape == (4, model.config.num_patches)
        assert np.all(scores >= 0)  # reconstruction errors

    def test_ssl_baseline_encode_shapes(self, ts2vec, windows):
        z_t, z_i = ts2vec.encode(windows[:4])
        assert z_t.shape[0] == 4 and z_t.ndim == 3
        assert z_i.shape == (4, z_t.shape[-1])
        np.testing.assert_array_equal(z_i, z_t.max(axis=1))

    def test_ssl_baseline_predict_unsupported(self, ts2vec, windows):
        with pytest.raises(InferenceUnsupported, match="encoder-only"):
            ts2vec.predict(windows[:4])

    def test_end_to_end_encode_unsupported(self, windows):
        with pytest.raises(InferenceUnsupported, match="predict"):
            _informer().encode(windows[:4])


class TestEvalModeAtInference:
    """Satellite fix: predict()/encode() must silence train-time dropout."""

    @pytest.mark.parametrize("make", [
        _informer,
        lambda: TCNForecaster(in_channels=CHANNELS, pred_len=8,
                              d_model=16, depth=2, seed=0),
    ], ids=["informer", "tcn"])
    def test_e2e_predict_deterministic_before_fit(self, make, windows):
        forecaster = make()  # fresh models start in training mode
        assert forecaster.training
        first = forecaster.predict(windows[:4])
        second = forecaster.predict(windows[:4])
        np.testing.assert_array_equal(first, second)

    def test_e2e_predict_restores_training_flag(self, windows):
        forecaster = _informer()
        forecaster.train()
        forecaster.predict(windows[:2])
        assert forecaster.training
        forecaster.eval()
        forecaster.predict(windows[:2])
        assert not forecaster.training

    def test_ssl_encode_deterministic(self, ts2vec, windows):
        np.testing.assert_array_equal(ts2vec.encode(windows[:4])[1],
                                      ts2vec.encode(windows[:4])[1])

    def test_ssl_encode_restores_training_flag(self, windows):
        baseline = TS2Vec(in_channels=CHANNELS, d_model=16, seed=0)
        baseline.train()
        baseline.encode(windows[:2])
        assert baseline.training

    def test_timedrl_encode_deterministic(self, model, windows):
        np.testing.assert_array_equal(model.encode(windows[:4])[0],
                                      model.encode(windows[:4])[0])


class TestLegacySubclassCompat:
    def test_unimplemented_hook_raises(self, windows):
        class Bare(SSLBaseline):
            pass

        with pytest.raises(NotImplementedError):
            Bare().encode(windows[:1])
