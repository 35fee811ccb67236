"""k-anonymity (Samarati & Sweeney).

A release is k-anonymous if every equivalence class over the
quasi-identifiers contains at least ``k`` records, so any record is
indistinguishable from at least ``k - 1`` others with respect to linkage.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KAnonymity"]


class KAnonymity:
    """Minimum equivalence-class size constraint."""

    monotone = True

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self.name = f"{self.k}-anonymity"

    def ok_mask(self, stats) -> np.ndarray:
        return stats.sizes >= self.k

    def __repr__(self) -> str:
        return f"KAnonymity(k={self.k})"
