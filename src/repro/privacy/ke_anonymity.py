"""(k, e)-anonymity (Zhang et al.) for numeric sensitive attributes.

Categorical ℓ-diversity is meaningless when the sensitive attribute is a
number (salary): two "distinct" values of 30,000 and 30,001 disclose the
salary anyway. (k, e)-anonymity requires every equivalence class to contain
at least ``k`` records AND the *range* of its sensitive values to span at
least ``e``.

The sensitive column must be numeric for this model (unlike the categorical
models, which require categorical sensitive columns).
"""

from __future__ import annotations

import numpy as np

__all__ = ["KEAnonymity"]


class KEAnonymity:
    """Minimum class size k plus minimum numeric sensitive range e."""

    monotone = True

    def __init__(self, k: int, e: float, sensitive: str):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if e < 0:
            raise ValueError(f"e must be non-negative, got {e}")
        self.k = int(k)
        self.e = float(e)
        self.sensitive = sensitive
        self.name = f"({self.k},{self.e:g})-anonymity({sensitive})"

    def ok_mask(self, stats) -> np.ndarray:
        low, high = stats.value_bounds(self.sensitive)
        return (stats.sizes >= self.k) & (high - low >= self.e - 1e-12)

    def __repr__(self) -> str:
        return f"KEAnonymity(k={self.k}, e={self.e}, sensitive={self.sensitive!r})"
