"""ℓ-diversity (Machanavajjhala et al.).

k-anonymity bounds *identity* disclosure but not *attribute* disclosure: an
equivalence class whose members all share one sensitive value leaks it to
anyone who can place a target in the class (the homogeneity attack).
ℓ-diversity requires each class to contain "well-represented" sensitive
values. Three instantiations, in increasing strictness of what
"well-represented" means:

* :class:`DistinctLDiversity` — at least ℓ distinct sensitive values.
* :class:`EntropyLDiversity` — entropy of the class's sensitive distribution
  at least ``log(ℓ)``.
* :class:`RecursiveCLDiversity` — (c, ℓ): the most frequent value appears
  fewer than ``c`` times the combined count of the ℓ-1 least frequent tail,
  i.e. ``r1 < c * (r_l + r_{l+1} + ... + r_m)`` on sorted counts.

Each verdict is vectorized over the (groups × categories) sensitive
histogram matrix of the stats it is given.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DistinctLDiversity", "EntropyLDiversity", "RecursiveCLDiversity"]


class DistinctLDiversity:
    """Each EC contains at least ℓ distinct sensitive values."""

    monotone = True

    def __init__(self, l: int, sensitive: str):
        if l < 1:
            raise ValueError(f"l must be >= 1, got {l}")
        self.l = int(l)
        self.sensitive = sensitive
        self.name = f"distinct-{self.l}-diversity({sensitive})"

    def ok_mask(self, stats) -> np.ndarray:
        return (stats.histogram(self.sensitive) > 0).sum(axis=1) >= self.l

    def __repr__(self) -> str:
        return f"DistinctLDiversity(l={self.l}, sensitive={self.sensitive!r})"


class EntropyLDiversity:
    """Entropy of each EC's sensitive distribution is at least log(ℓ)."""

    monotone = True

    def __init__(self, l: float, sensitive: str):
        if l < 1:
            raise ValueError(f"l must be >= 1, got {l}")
        self.l = float(l)
        self.sensitive = sensitive
        self.name = f"entropy-{self.l:g}-diversity({sensitive})"

    def ok_mask(self, stats) -> np.ndarray:
        hist = stats.histogram(self.sensitive)
        totals = hist.sum(axis=1)
        safe = np.where(totals > 0, totals, 1).astype(np.float64)
        probs = hist / safe[:, None]
        log_probs = np.zeros_like(probs)
        np.log(probs, out=log_probs, where=hist > 0)
        entropy = -(probs * log_probs).sum(axis=1)
        return (totals > 0) & (entropy >= np.log(self.l) - 1e-12)

    def __repr__(self) -> str:
        return f"EntropyLDiversity(l={self.l}, sensitive={self.sensitive!r})"


class RecursiveCLDiversity:
    """Recursive (c, ℓ)-diversity on sorted sensitive counts."""

    monotone = True

    def __init__(self, c: float, l: int, sensitive: str):
        if l < 2:
            raise ValueError(f"l must be >= 2 for recursive diversity, got {l}")
        if c <= 0:
            raise ValueError(f"c must be positive, got {c}")
        self.c = float(c)
        self.l = int(l)
        self.sensitive = sensitive
        self.name = f"recursive-({self.c:g},{self.l})-diversity({sensitive})"

    def ok_mask(self, stats) -> np.ndarray:
        hist = stats.histogram(self.sensitive)
        if hist.shape[1] < self.l:
            return np.zeros(hist.shape[0], dtype=bool)
        # Descending sort pushes zeros to the tail, which contributes nothing
        # to the tail sum — so sorting the full histogram matches sorting the
        # nonzero counts only.
        n_nonzero = (hist > 0).sum(axis=1)
        ordered = np.sort(hist, axis=1)[:, ::-1]
        tail = ordered[:, self.l - 1 :].sum(axis=1).astype(np.float64)
        return (n_nonzero >= self.l) & (ordered[:, 0].astype(np.float64) < self.c * tail)

    def __repr__(self) -> str:
        return (
            f"RecursiveCLDiversity(c={self.c}, l={self.l}, sensitive={self.sensitive!r})"
        )
