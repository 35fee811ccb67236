"""(α, k)-anonymity (Wong et al.).

Combines k-anonymity with a cap on the confidence of inferring any single
sensitive value: every equivalence class must have size at least ``k`` AND
no sensitive value may occupy more than an ``α`` fraction of the class.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AlphaKAnonymity"]


class AlphaKAnonymity:
    """k-anonymity plus per-class sensitive-value frequency cap α."""

    monotone = True

    def __init__(self, alpha: float, k: int, sensitive: str):
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.alpha = float(alpha)
        self.k = int(k)
        self.sensitive = sensitive
        self.name = f"({self.alpha:g},{self.k})-anonymity({sensitive})"

    def ok_mask(self, stats) -> np.ndarray:
        hist = stats.histogram(self.sensitive)
        totals = hist.sum(axis=1)
        return (totals >= self.k) & (
            hist.max(axis=1).astype(np.float64) <= self.alpha * totals + 1e-12
        )

    def __repr__(self) -> str:
        return f"AlphaKAnonymity(alpha={self.alpha}, k={self.k}, sensitive={self.sensitive!r})"
