"""Tests for all 12 baseline methods: interface contracts, training
mechanics, and method-specific behaviours."""

import numpy as np
import pytest

from repro.baselines import (
    BYOL,
    CCL,
    CLASSIFICATION_BASELINES,
    END_TO_END_FORECASTERS,
    FORECASTING_SSL_BASELINES,
    ConvEncoder,
    FitConfig,
    InformerForecaster,
    MHCCL,
    SimCLR,
    SimTS,
    TCNForecaster,
    TLoss,
    TNC,
    TS2Vec,
    TSTCC,
)
from repro.data import make_forecasting_data
from repro.nn import Tensor


def _samples(n=24, t=32, c=3, seed=0):
    return np.random.default_rng(seed).standard_normal((n, t, c)).astype(np.float32)


def _forecast_data(seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(300)
    series = np.stack([np.sin(2 * np.pi * t / 16 + k) + 0.1 * rng.standard_normal(300)
                       for k in range(3)], axis=1).astype(np.float32)
    return make_forecasting_data(series, seq_len=32, pred_len=8, stride=2)


QUICK = FitConfig(epochs=1, batch_size=8, max_batches_per_epoch=3, seed=0)

ALL_SSL = sorted({**FORECASTING_SSL_BASELINES, **CLASSIFICATION_BASELINES}.items())


class TestConvEncoder:
    def test_shape_contract(self):
        encoder = ConvEncoder(3, d_model=16, depth=2, rng=np.random.default_rng(0))
        out = encoder(Tensor(_samples(4)))
        assert out.shape == (4, 32, 16)

    def test_causal_variant_blocks_future(self):
        encoder = ConvEncoder(1, d_model=8, depth=2, causal=True,
                              rng=np.random.default_rng(0))
        encoder.eval()
        x = _samples(1, t=32, c=1)
        base = encoder(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[0, 20:] += 10.0
        out = encoder(Tensor(x2)).data
        np.testing.assert_allclose(out[0, :20], base[0, :20], atol=1e-4)

    def test_instance_is_maxpool(self):
        encoder = ConvEncoder(2, d_model=8, rng=np.random.default_rng(0))
        z = Tensor(_samples(3, c=8))
        np.testing.assert_array_equal(encoder.instance(z).data, z.data.max(axis=1))


class TestSSLInterfaceContracts:
    @pytest.mark.parametrize("name,cls", ALL_SSL)
    def test_fit_and_embeddings(self, name, cls):
        model = cls(in_channels=3, d_model=16, seed=0)
        model.fit(_samples(), QUICK)
        z_t, z_i = model.encode(_samples(4))
        assert z_t.shape[0] == 4 and z_t.ndim == 3, name
        assert z_i.shape == (4, z_t.shape[2]), name
        assert np.isfinite(z_t).all() and np.isfinite(z_i).all(), name

    @pytest.mark.parametrize("name,cls", ALL_SSL)
    def test_loss_is_finite_scalar(self, name, cls):
        model = cls(in_channels=3, d_model=16, seed=0)
        model.train()
        rng = np.random.default_rng(0)
        model.prepare_epoch(_samples(), rng)
        loss = model.loss(_samples(8), rng)
        assert loss.data.shape == (), name
        assert np.isfinite(float(loss.data)), name

    @pytest.mark.parametrize("name,cls", ALL_SSL)
    def test_training_updates_parameters(self, name, cls):
        model = cls(in_channels=3, d_model=16, seed=0)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        model.fit(_samples(), QUICK)
        changed = any(not np.allclose(before[n], p.data)
                      for n, p in model.named_parameters())
        assert changed, name

    def test_fit_records_wall_clock(self):
        model = TS2Vec(in_channels=3, d_model=16, seed=0)
        model.fit(_samples(), QUICK)
        assert model.fit_seconds > 0

    def test_fit_over_forecasting_windows(self):
        data = _forecast_data()
        model = SimTS(in_channels=3, d_model=16, seed=0)
        model.fit(data.train, QUICK)
        features = model.encode(_samples(4))[0].reshape(4, -1)
        assert features.shape == (4, 32 * 16)


class TestMethodSpecifics:
    def test_simts_predicts_future_from_past(self):
        """SimTS loss must depend on the future half of the window."""
        model = SimTS(in_channels=2, d_model=16, seed=0)
        model.eval()  # remove dropout noise
        rng = np.random.default_rng(0)
        x = _samples(8, c=2)
        base = float(model.loss(x, rng).data)
        x2 = x.copy()
        x2[:, 16:] = rng.standard_normal(x2[:, 16:].shape).astype(np.float32)
        perturbed = float(model.loss(x2, rng).data)
        assert base != perturbed

    def test_simts_rejects_tiny_windows(self):
        model = SimTS(in_channels=1, d_model=8, seed=0)
        with pytest.raises(ValueError):
            model.loss(_samples(4, t=2, c=1), np.random.default_rng(0))

    def test_tnc_discriminator_is_trainable(self):
        model = TNC(in_channels=2, d_model=16, seed=0)
        rng = np.random.default_rng(0)
        loss = model.loss(_samples(8, c=2), rng)
        loss.backward()
        assert model.discriminator.grad is not None

    def test_tnc_validates_subwindow(self):
        with pytest.raises(ValueError):
            TNC(in_channels=1, subwindow=1)

    def test_cost_dft_bases_are_cached(self):
        model = CLASSIFICATION_BASELINES["TS2Vec"]  # placeholder to satisfy linter
        from repro.baselines import CoST

        cost = CoST(in_channels=2, d_model=16, seed=0)
        rng = np.random.default_rng(0)
        cost.loss(_samples(6, c=2), rng)
        cost.loss(_samples(6, c=2), rng)
        assert len(cost._dft_cache) == 1

    def test_byol_target_follows_online(self):
        model = BYOL(in_channels=2, d_model=16, ema_decay=0.5, seed=0)
        # Desynchronise, then check post_step pulls target toward online.
        online_param = model.encoder.input_proj.weight
        target_param = model.target_encoder.input_proj.weight
        target_param.data[...] = 0.0
        model.post_step()
        np.testing.assert_allclose(target_param.data, 0.5 * online_param.data,
                                   rtol=1e-5)

    def test_byol_optimises_online_network_only(self):
        model = BYOL(in_channels=2, d_model=16, seed=0)
        trained_names = {id(p) for p in model.parameters()}
        target_params = {id(p) for __, p in model.target_encoder.named_parameters()}
        assert trained_names.isdisjoint(target_params)

    def test_tloss_needs_two_samples(self):
        model = TLoss(in_channels=2, d_model=16, seed=0)
        with pytest.raises(ValueError):
            model.loss(_samples(1, c=2), np.random.default_rng(0))

    def test_tloss_rejects_bad_negatives(self):
        with pytest.raises(ValueError):
            TLoss(in_channels=1, n_negatives=0)

    def test_mhccl_builds_prototype_hierarchy(self):
        model = MHCCL(in_channels=2, d_model=16, cluster_sizes=(6, 2), seed=0)
        model.prepare_epoch(_samples(40, c=2), np.random.default_rng(0))
        assert len(model._prototypes) == 2
        assert model._prototypes[0].shape == (6, 16)
        assert model._prototypes[1].shape == (2, 16)

    def test_ccl_refreshes_pseudo_labels(self):
        model = CCL(in_channels=2, d_model=16, n_clusters=4, seed=0)
        model.prepare_epoch(_samples(40, c=2), np.random.default_rng(0))
        assert model._centroids is not None
        assert model._centroids.shape == (4, 16)

    def test_ccl_validates_cluster_count(self):
        with pytest.raises(ValueError):
            CCL(in_channels=1, n_clusters=1)

    def test_tstcc_uses_both_terms(self):
        model = TSTCC(in_channels=2, d_model=16, context_weight=0.0, seed=0)
        rng = np.random.default_rng(0)
        no_context = float(model.loss(_samples(8, c=2), rng).data)
        model.context_weight = 10.0
        with_context = float(model.loss(_samples(8, c=2),
                                        np.random.default_rng(0)).data)
        assert no_context != with_context

    def test_simclr_temperature_matters(self):
        rng = np.random.default_rng(0)
        cold = SimCLR(in_channels=2, d_model=16, temperature=0.1, seed=0)
        hot = SimCLR(in_channels=2, d_model=16, temperature=5.0, seed=0)
        x = _samples(8, c=2)
        assert float(cold.loss(x, np.random.default_rng(1)).data) != \
            float(hot.loss(x, np.random.default_rng(1)).data)


class TestEndToEndForecasters:
    def test_informer_shapes(self):
        model = InformerForecaster(in_channels=3, seq_len=32, pred_len=8,
                                   d_model=16, seed=0)
        out = model(Tensor(_samples(4)))
        assert out.shape == (4, 8, 3)

    def test_tcn_shapes(self):
        model = TCNForecaster(in_channels=3, pred_len=8, d_model=16, seed=0)
        out = model(Tensor(_samples(4)))
        assert out.shape == (4, 8, 3)

    @pytest.mark.parametrize("name", sorted(END_TO_END_FORECASTERS))
    def test_fit_reduces_training_error(self, name):
        data = _forecast_data()
        if name == "Informer":
            model = END_TO_END_FORECASTERS[name](in_channels=3, seq_len=32,
                                                 pred_len=8, d_model=16, seed=0)
        else:
            model = END_TO_END_FORECASTERS[name](in_channels=3, pred_len=8,
                                                 d_model=16, seed=0)
        before_mse, __ = model.evaluate(data)
        model.fit(data, FitConfig(epochs=5, batch_size=32, seed=0))
        after_mse, after_mae = model.evaluate(data)
        assert after_mse < before_mse
        assert np.isfinite(after_mae)

    def test_predict_is_denormalised(self):
        """Predictions live in the data's scaled space, near the window's
        own level (sanity for the RevIN-style inverse)."""
        data = _forecast_data()
        model = TCNForecaster(in_channels=3, pred_len=8, d_model=16, seed=0)
        model.fit(data, FitConfig(epochs=2, batch_size=32, seed=0))
        x, y = data.test.batch(np.arange(4))
        preds = model.predict(x)
        assert preds.shape == y.shape
        assert np.abs(preds.mean() - x.mean()) < 5.0
