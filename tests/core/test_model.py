"""Tests for the TimeDRL model's pretext-task mechanics (Eq. 6–19)."""

import numpy as np
import pytest

from repro.core import TimeDRL, TimeDRLConfig


def _config(**overrides):
    params = dict(seq_len=32, input_channels=3, patch_len=8, stride=8,
                  d_model=16, num_heads=2, num_layers=1, dropout=0.2, seed=0)
    params.update(overrides)
    return TimeDRLConfig(**params)


def _batch(n=8, t=32, c=3, seed=1):
    return np.random.default_rng(seed).standard_normal((n, t, c)).astype(np.float32)


class TestPretrainingLosses:
    def test_returns_all_components(self):
        model = TimeDRL(_config())
        losses = model.pretraining_losses(_batch())
        assert set(losses) == {"total", "predictive", "contrastive"}
        for value in losses.values():
            assert value.data.shape == ()

    def test_total_combines_with_lambda(self):
        model = TimeDRL(_config(lambda_weight=3.0))
        losses = model.pretraining_losses(_batch())
        expected = float(losses["predictive"].data) + 3.0 * float(losses["contrastive"].data)
        np.testing.assert_allclose(float(losses["total"].data), expected, rtol=1e-5)

    def test_contrastive_loss_in_cosine_range(self):
        model = TimeDRL(_config())
        losses = model.pretraining_losses(_batch())
        assert -1.0 <= float(losses["contrastive"].data) <= 1.0

    def test_disable_predictive(self):
        model = TimeDRL(_config(enable_predictive=False))
        losses = model.pretraining_losses(_batch())
        assert float(losses["predictive"].data) == 0.0
        assert float(losses["contrastive"].data) != 0.0

    def test_disable_contrastive(self):
        model = TimeDRL(_config(enable_contrastive=False))
        losses = model.pretraining_losses(_batch())
        assert float(losses["contrastive"].data) == 0.0
        assert float(losses["predictive"].data) > 0.0

    def test_backward_reaches_encoder_and_heads(self):
        model = TimeDRL(_config())
        model.train()
        losses = model.pretraining_losses(_batch())
        losses["total"].backward()
        grads = {name: p.grad is not None for name, p in model.named_parameters()}
        assert grads["encoder.cls_token"]
        assert any(v for n, v in grads.items() if n.startswith("predictive_head"))
        assert any(v for n, v in grads.items() if n.startswith("contrastive_head"))

    def test_predictive_loss_does_not_touch_contrastive_head(self):
        model = TimeDRL(_config(enable_contrastive=False))
        model.train()
        model.pretraining_losses(_batch())["total"].backward()
        contrastive_grads = [p.grad for n, p in model.named_parameters()
                             if n.startswith("contrastive_head")]
        assert all(g is None for g in contrastive_grads)

    def test_channel_independent_mode(self):
        model = TimeDRL(_config(channel_independence=True))
        losses = model.pretraining_losses(_batch())
        assert np.isfinite(float(losses["total"].data))


class TestStopGradientMechanics:
    def test_cls_gradient_only_through_contrastive_head_path(self):
        """With stop-gradient, the raw z_i branch is a constant: gradients
        to the encoder flow only via the predictor c_θ (Eq. 16–17)."""
        model = TimeDRL(_config(enable_predictive=False))
        model.train()
        losses = model.pretraining_losses(_batch())
        losses["total"].backward()
        assert model.encoder.cls_token.grad is not None

    def test_without_stop_gradient_still_trains(self):
        model = TimeDRL(_config(use_stop_gradient=False, enable_predictive=False))
        model.train()
        losses = model.pretraining_losses(_batch())
        losses["total"].backward()
        assert model.encoder.cls_token.grad is not None

    def test_variants_produce_different_gradients(self):
        """The no-SG ablation must actually change the computation."""
        grads = {}
        for flag in (True, False):
            model = TimeDRL(_config(use_stop_gradient=flag, enable_predictive=False,
                                    dropout=0.0, seed=0))
            model.train()
            # dropout=0 makes the two views identical -> deterministic diff
            losses = model.pretraining_losses(_batch())
            losses["total"].backward()
            grads[flag] = model.encoder.token_encoding.weight.grad.copy()
        assert not np.allclose(grads[True], grads[False])


class TestAugmentationHook:
    def test_augmentation_changes_losses(self):
        plain = TimeDRL(_config(dropout=0.0, seed=0))
        augmented = TimeDRL(_config(dropout=0.0, seed=0, augmentation="rotation"))
        x = _batch()
        loss_plain = float(plain.pretraining_losses(x)["total"].data)
        loss_augmented = float(augmented.pretraining_losses(x)["total"].data)
        assert loss_plain != loss_augmented

    def test_default_has_no_augmentation(self):
        assert _config().augmentation is None

    def test_unknown_augmentation_raises(self):
        model = TimeDRL(_config(augmentation="masking"))
        model.config.augmentation = "bogus"
        with pytest.raises(KeyError):
            model.pretraining_losses(_batch())


class TestEmbeddingInterfaces:
    def test_timestamp_embeddings_shape(self):
        model = TimeDRL(_config())
        z_t = model.encode(_batch(n=4))[0]
        assert z_t.shape == (4, 4, 16)

    def test_instance_embeddings_shape(self):
        model = TimeDRL(_config())
        z_i = model.encode(_batch(n=4))[1]
        assert z_i.shape == (4, 16)

    def test_all_pooling_instance_width(self):
        model = TimeDRL(_config(pooling="all"))
        z_i = model.encode(_batch(n=4))[1]
        assert z_i.shape == (4, 4 * 16)

    def test_embed_returns_both(self):
        model = TimeDRL(_config())
        timestamp, instance = model.encode(_batch(n=4))
        assert instance.shape == (4, 16)
        assert timestamp.shape == (4, 4, 16)

    def test_embeddings_are_deterministic(self):
        model = TimeDRL(_config())
        x = _batch(n=4)
        np.testing.assert_array_equal(model.encode(x)[1],
                                      model.encode(x)[1])

    def test_embed_restores_training_mode(self):
        model = TimeDRL(_config())
        model.train()
        model.encode(_batch(n=2))
        assert model.training

    def test_channel_independent_embedding_batch_axis(self):
        model = TimeDRL(_config(channel_independence=True))
        z_i = model.encode(_batch(n=4, c=3))[1]
        assert z_i.shape == (12, 16)  # one series per channel


class TestCollapseResistance:
    def test_embeddings_do_not_collapse_during_short_training(self):
        """With stop-gradient, instance embeddings across samples must keep
        non-trivial variance after contrastive-only training (SimSiam
        collapse would drive it to ~0)."""
        from repro import nn

        model = TimeDRL(_config(enable_predictive=False, lambda_weight=1.0))
        model.train()
        optimizer = nn.AdamW(model.parameters(), lr=1e-3)
        x = _batch(n=16)
        for __ in range(20):
            optimizer.zero_grad()
            model.pretraining_losses(x)["total"].backward()
            optimizer.step()
        embeddings = model.encode(x)[1]
        per_dim_std = embeddings.std(axis=0)
        assert per_dim_std.mean() > 1e-3
