"""The TimeDRL model: encoder + pretext-task heads + joint loss (Eq. 19).

The defining mechanics live in :meth:`TimeDRL.pretraining_losses`:

* the *same* input is passed through the encoder **twice**; dropout
  randomness makes the two views differ (Eq. 10–11) — no data augmentation;
* the timestamp-predictive task reconstructs the (un-masked) patched input
  from each view's timestamp embeddings (Eq. 7–9);
* the instance-contrastive task aligns each view's [CLS] embedding, passed
  through the bottleneck predictor c_θ, with the *stop-gradient* of the
  other view's raw [CLS] embedding (Eq. 14–18);
* total loss ``L = L_P + λ · L_C`` (Eq. 19).

Ablation hooks (all driven by :class:`~repro.core.config.TimeDRLConfig`):
``augmentation`` (Table VI), ``pooling`` (Table VII), ``backbone``
(Table VIII), ``use_stop_gradient`` (Table IX), ``lambda_weight`` /
``enable_*`` (Fig. 6).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..augmentations import AUGMENTATIONS
from ..nn import Tensor
from ..nn import functional as F
from .config import TimeDRLConfig
from .encoder import TimeDRLEncoder
from .heads import InstanceContrastiveHead, TimestampPredictiveHead
from .pooling import instance_dim, pool_instance

__all__ = ["TimeDRL"]


class TimeDRL(nn.Module):
    """Complete TimeDRL pre-training model."""

    def __init__(self, config: TimeDRLConfig):
        super().__init__()
        rng = np.random.default_rng(config.seed + 1)
        self.config = config
        self.encoder = TimeDRLEncoder(config)
        self.predictive_head = TimestampPredictiveHead(
            config.d_model, config.token_dim, rng=rng)
        self.contrastive_head = InstanceContrastiveHead(
            instance_dim(config.pooling, config.d_model, config.num_patches), rng=rng)
        self._augment_rng = np.random.default_rng(config.seed + 2)

    # ------------------------------------------------------------------
    # Pre-training
    # ------------------------------------------------------------------
    def pretraining_losses(self, x: np.ndarray) -> dict[str, Tensor]:
        """Compute the joint pre-training loss for a raw batch ``(B, T, C)``.

        Returns a dict with ``total``, ``predictive`` and ``contrastive``
        scalar Tensors (the latter two detached from each other's graphs
        only through the architecture, exactly as in the paper).
        """
        # Table VI ablation hook: when an augmentation is configured the
        # *encoder input* is corrupted but the predictive target stays the
        # clean patched data — the standard way augmentations enter
        # predictive SSL, and exactly the transformation-invariance
        # assumption the paper argues against.  The default path
        # (augmentation=None) never touches the data.
        clean_patched = self.encoder.prepare_input(x)
        if self.config.augmentation is not None:
            augment = AUGMENTATIONS[self.config.augmentation]
            x_patched = self.encoder.prepare_input(augment(x, self._augment_rng))
        else:
            x_patched = clean_patched
        target = Tensor(clean_patched)

        # Eq. 10–11: two stochastic passes over the same input.
        z1 = self.encoder(x_patched)
        z2 = self.encoder(x_patched)
        z_i1, z_t1 = self.encoder.split(z1)
        z_i2, z_t2 = self.encoder.split(z2)

        zero = Tensor(np.zeros((), dtype=np.float32))

        # Eq. 7–9: predictive loss on both views, no masking.
        if self.config.enable_predictive:
            loss_p1 = nn.mse_loss(self.predictive_head(z_t1), target)
            loss_p2 = nn.mse_loss(self.predictive_head(z_t2), target)
            predictive = loss_p1 * 0.5 + loss_p2 * 0.5
        else:
            predictive = zero

        # Eq. 12–18: symmetric negative-free contrastive loss.
        if self.config.enable_contrastive:
            inst1 = pool_instance(z_i1, z_t1, self.config.pooling)
            inst2 = pool_instance(z_i2, z_t2, self.config.pooling)
            pred1 = self.contrastive_head(inst1)
            pred2 = self.contrastive_head(inst2)
            if self.config.use_stop_gradient:
                loss_c1 = nn.negative_cosine_similarity(pred1, inst2)
                loss_c2 = nn.negative_cosine_similarity(pred2, inst1)
            else:
                # Table IX ablation: gradients flow into both branches.
                loss_c1 = -F.cosine_similarity(pred1, inst2).mean()
                loss_c2 = -F.cosine_similarity(pred2, inst1).mean()
            contrastive = loss_c1 * 0.5 + loss_c2 * 0.5
        else:
            contrastive = zero

        total = predictive + contrastive * self.config.lambda_weight
        return {"total": total, "predictive": predictive, "contrastive": contrastive}

    # ------------------------------------------------------------------
    # Inference API (repro.serve.api.InferenceAPI)
    # ------------------------------------------------------------------
    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Raw batch ``(B, T, C)`` to ``(timestamp_emb, instance_emb)``.

        One deterministic pass (eval mode, no grad) through the full
        Eq. 1–5 pipeline.  ``timestamp_emb`` is ``z_t`` — shaped
        ``(B·C, T_p, D)`` under channel independence, ``(B, T_p, D)``
        otherwise; ``instance_emb`` is the configured pooling of the
        [CLS]/timestamp embeddings (Eq. 6, Table VII).
        """
        was_training = self.training
        self.eval()
        try:
            x_patched = self.encoder.prepare_input(x)
            with nn.no_grad():
                z = self.encoder(x_patched)
                z_i, z_t = self.encoder.split(z)
                pooled = pool_instance(z_i, z_t, self.config.pooling)
            return z_t.data, pooled.data
        finally:
            self.train(was_training)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Per-patch reconstruction-error scores ``(B, T_p)``.

        TimeDRL's native prediction is the timestamp-predictive pretext
        head: patches the pre-trained model cannot reconstruct are
        surprising, which is exactly the anomaly-detection application
        the paper promises for timestamp-level embeddings (Section III).
        :class:`~repro.core.anomaly.AnomalyDetector` thresholds these
        scores.  Under channel independence the per-channel errors are
        reduced with a max (an anomaly in any channel should surface).
        """
        was_training = self.training
        self.eval()
        try:
            x_patched = self.encoder.prepare_input(x)
            with nn.no_grad():
                z = self.encoder(x_patched)
                __, z_t = self.encoder.split(z)
                recon = self.predictive_head(z_t).data
            per_patch = ((recon - x_patched) ** 2).mean(axis=-1)
            if self.config.channel_independence:
                channels = x.shape[2]
                per_patch = per_patch.reshape(x.shape[0], channels, -1).max(axis=1)
            return per_patch
        finally:
            self.train(was_training)
