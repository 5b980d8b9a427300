"""Deterministic fault injection for the training loop.

The kill-and-resume and recovery-policy guarantees are only worth what
their tests can prove, and none of the failure modes (process death at a
batch boundary, NaN in a loss, NaN in a gradient) occur naturally in a
fixed-seed smoke run.  ``TrainingHooks`` gives the test harness three
surgical injection points the trainer calls at exact, documented moments;
the concrete injectors below crash or poison at a chosen global step.

Production code never sets hooks — the default ``None`` path is free.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TrainingHooks", "SimulatedCrash", "CrashAt", "PoisonLossAt",
           "PoisonGradAt", "compose"]


class SimulatedCrash(BaseException):
    """Process death stand-in.

    Deliberately a ``BaseException`` (like ``KeyboardInterrupt``), so the
    tests prove recovery does not depend on ``except Exception`` blocks
    anywhere in the stack catching and defusing the crash.
    """


class TrainingHooks:
    """Injection points the pre-training loop calls when hooks are set.

    Subclass and override; every method defaults to a no-op.
    """

    def on_loss(self, losses: dict, epoch: int, batch: int, step: int) -> None:
        """After the forward pass, before the non-finite check — mutate
        ``losses`` values in place to poison them."""

    def on_after_backward(self, model, epoch: int, batch: int,
                          step: int) -> None:
        """After ``backward()``, before the gradient exchange, clipping
        and step — mutate gradients.  The loss is checked on the
        exchanged means, after this hook, so it also fires on a batch
        whose loss is then found non-finite."""

    def on_batch_end(self, epoch: int, batch: int, step: int) -> None:
        """After the optimizer step and any checkpoint save — raise
        :class:`SimulatedCrash` here to model dying at a batch boundary."""


class CrashAt(TrainingHooks):
    """Raise :class:`SimulatedCrash` at the end of global step ``step``."""

    def __init__(self, step: int):
        self.step = step

    def on_batch_end(self, epoch: int, batch: int, step: int) -> None:
        if step == self.step:
            raise SimulatedCrash(
                f"injected crash at epoch {epoch}, batch {batch} "
                f"(global step {step})")


class PoisonLossAt(TrainingHooks):
    """Overwrite every loss component with ``value`` starting at global
    ``step``, for ``repeat`` firings total.

    ``repeat`` counts *firings*, not a step range: after a rollback the
    same global step replays, and a single-shot injector (``repeat=1``)
    must stay disarmed on the replay or rollback could never succeed.
    """

    def __init__(self, step: int, value: float = float("nan"),
                 repeat: int = 1):
        self.step = step
        self.value = value
        self.remaining = repeat

    def on_loss(self, losses: dict, epoch: int, batch: int, step: int) -> None:
        if step >= self.step and self.remaining > 0:
            self.remaining -= 1
            for tensor in losses.values():
                tensor.data = np.full_like(np.asarray(tensor.data), self.value)


class PoisonGradAt(TrainingHooks):
    """Write NaN into the first parameter's gradient at global ``step``
    (single firing — disarmed afterwards, see :class:`PoisonLossAt`)."""

    def __init__(self, step: int, value: float = float("nan")):
        self.step = step
        self.value = value
        self.fired = False

    def on_after_backward(self, model, epoch: int, batch: int,
                          step: int) -> None:
        if step >= self.step and not self.fired:
            self.fired = True
            for param in model.parameters():
                if param.grad is not None:
                    param.grad[...] = self.value
                    return


def compose(*hooks: TrainingHooks) -> TrainingHooks:
    """Run several injectors in sequence (e.g. poison then crash later)."""

    class _Composite(TrainingHooks):
        def on_loss(self, losses, epoch, batch, step):
            for hook in hooks:
                hook.on_loss(losses, epoch, batch, step)

        def on_after_backward(self, model, epoch, batch, step):
            for hook in hooks:
                hook.on_after_backward(model, epoch, batch, step)

        def on_batch_end(self, epoch, batch, step):
            for hook in hooks:
                hook.on_batch_end(epoch, batch, step)

    return _Composite()
