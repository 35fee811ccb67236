"""β-likeness (Cao & Karras).

t-closeness bounds the *absolute* distance between a class's sensitive
distribution and the global one, which over-protects frequent values and
under-protects rare ones. β-likeness bounds the *relative* gain per value:
for every sensitive value ``s`` with global frequency ``p_s`` and class
frequency ``q_s``, require

    q_s <= p_s * (1 + β)            (basic β-likeness)

i.e. an attacker's belief in any particular value may grow by at most a
factor 1+β. Only positive gains are constrained (learning a value is *less*
likely is not a breach).
"""

from __future__ import annotations

import numpy as np

__all__ = ["BetaLikeness"]


class BetaLikeness:
    """Relative belief-gain bound per sensitive value and class."""

    monotone = True

    def __init__(self, beta: float, sensitive: str):
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        self.beta = float(beta)
        self.sensitive = sensitive
        self.name = f"{beta:g}-likeness({sensitive})"

    def max_gains(self, stats) -> np.ndarray:
        """Per-group maximum relative gain max_s (q_s - p_s) / p_s."""
        hist = stats.histogram(self.sensitive).astype(np.float64)
        global_dist = stats.global_distribution(self.sensitive)
        totals = hist.sum(axis=1)
        safe = np.where(totals > 0, totals, 1.0)
        local = hist / safe[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = np.where(
                global_dist[None, :] > 0,
                (local - global_dist[None, :]) / global_dist[None, :],
                0.0,
            )
        out = gains.max(axis=1) if hist.shape[1] else np.zeros(hist.shape[0])
        # A value absent globally but present locally is an infinite gain.
        impossible = ((global_dist[None, :] == 0) & (local > 0)).any(axis=1)
        out = np.where(impossible, np.inf, out)
        return np.where(totals > 0, out, 0.0)

    def ok_mask(self, stats) -> np.ndarray:
        return self.max_gains(stats) <= self.beta + 1e-12

    def __repr__(self) -> str:
        return f"BetaLikeness(beta={self.beta}, sensitive={self.sensitive!r})"
