"""δ-presence (Nergiz, Atzori & Clifton).

Protects against *table linkage* (membership disclosure): an attacker who
knows a person's quasi-identifiers and has access to a public population
table must not be able to decide confidently whether the person is in the
published (research) subset.

For a generalized equivalence class with ``r`` research records and ``p``
matching population records, the attacker's membership belief for any
population member matching that class is ``r / p``. The release satisfies
(δ_min, δ_max)-presence if every class's belief lies in ``[δ_min, δ_max]``.
"""

from __future__ import annotations

import numpy as np

from ..core.table import Table

__all__ = ["DeltaPresence"]


class DeltaPresence:
    """Bound on the membership-inference belief against a population table.

    Parameters
    ----------
    delta_min, delta_max:
        inclusive bounds on ``r / p`` per equivalence class.
    population:
        the public table the attacker links against, with the research
        table's raw (ungeneralized) QI columns. The lattice engine
        generalizes it at every evaluated node through its own
        hierarchies, so δ-presence needs a full-domain lattice algorithm.
    """

    monotone = True

    def __init__(self, delta_min: float, delta_max: float, population: Table):
        if not 0 <= delta_min <= delta_max <= 1:
            raise ValueError(f"need 0 <= delta_min <= delta_max <= 1, got {delta_min}, {delta_max}")
        self.delta_min = float(delta_min)
        self.delta_max = float(delta_max)
        self.population = population
        self.name = f"({self.delta_min:g},{self.delta_max:g})-presence"

    def beliefs(self, stats) -> np.ndarray:
        """``r / p`` per group (inf if no population match)."""
        population_counts = stats.external_counts(self.population)
        with np.errstate(divide="ignore"):
            return np.where(
                population_counts > 0,
                stats.sizes / population_counts.astype(np.float64),
                np.inf,
            )

    def ok_mask(self, stats) -> np.ndarray:
        beliefs = self.beliefs(stats)
        return (beliefs >= self.delta_min - 1e-12) & (beliefs <= self.delta_max + 1e-12)

    def __repr__(self) -> str:
        return f"DeltaPresence({self.delta_min}, {self.delta_max})"
