"""Checks served embeddings against a direct fp32 ``model.encode``."""

from __future__ import annotations

import numpy as np

__all__ = ["Verifier"]


class Verifier:
    """Compares each served request with the reference encode of its
    windows, in chunks of concatenated requests after each timed phase.

    A request beyond ``tolerance`` (0 means bit-equal) is a mismatch.
    ``declared`` is a tighter figure the program itself claims, such as
    a compile report's ``max_abs_diff``; requests beyond it are counted
    in ``over_declared`` so that every run records a claim it breaks.

    The model's ``encode`` is bound here, before any span wrapper is
    installed on its class, so reference encodes never show up as
    served forwards in a traced run.
    """

    chunk = 32

    def __init__(self, model, tolerance: float, declared: float | None = None):
        self.encode = model.encode
        self.tolerance = tolerance
        self.declared = tolerance if declared is None else declared
        self.max_abs_diff = 0.0
        self.checked = 0
        self.over_declared = 0

    def check(self, phase, payloads) -> int:
        """Returns the number of mismatched requests; drops the values."""
        done = [(o, payloads[o.index]) for o in phase.outcomes if o.ok]
        mismatches = 0
        for first in range(0, len(done), self.chunk):
            part = done[first:first + self.chunk]
            stacked = np.concatenate([payload.x for _, payload in part])
            ref_t, ref_i = self.encode(stacked)
            row = 0
            for outcome, payload in part:
                n = payload.x.shape[0]
                got_t, got_i = outcome.value
                diff = max(_abs_diff(got_t, ref_t[row:row + n]),
                           _abs_diff(got_i, ref_i[row:row + n]))
                row += n
                self.max_abs_diff = max(self.max_abs_diff, diff)
                mismatches += diff > self.tolerance
                self.over_declared += diff > self.declared
                outcome.value = None
        self.checked += len(done)
        return mismatches


def _abs_diff(got, ref) -> float:
    if got.shape != ref.shape:
        return float("inf")
    return float(np.abs(got.astype(np.float64) - ref.astype(np.float64)).max())
