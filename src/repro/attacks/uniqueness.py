"""Population-uniqueness risk estimation from a sample.

A data custodian usually holds a *sample* of the population; a record that
is unique in the sample is only risky if it is also unique in the
population. Two standard estimators of the population-unique count from
sample equivalence-class sizes:

* **Zayatz** — models the probability that a sample unique is a population
  unique via hypergeometric draws, using the observed class-size histogram.
* **Pitman / Poisson-inflation heuristic** — treats class sizes as Poisson:
  a sample class of size f drawn with sampling fraction π comes from a
  population class of estimated size f/π; it is a population unique only if
  f == 1 and the Poisson posterior concentrates at 1.

Both take only the sample's EC-size histogram plus the sampling fraction,
so they run on any release. They import ``scipy.stats`` when they run, so
importing this module — which the stock metric registry does through
:mod:`repro.attacks` — needs only numpy.
"""

from __future__ import annotations

import numpy as np

from ..core.release import Release

__all__ = ["sample_uniques", "zayatz_population_uniques", "poisson_population_uniques",
           "uniqueness_report"]


def sample_uniques(class_sizes: np.ndarray) -> int:
    """Number of size-1 equivalence classes in the sample."""
    class_sizes = np.asarray(class_sizes)
    return int((class_sizes == 1).sum())


def zayatz_population_uniques(class_sizes: np.ndarray, sampling_fraction: float) -> float:
    """Zayatz estimator of the expected number of population uniques.

    For each observed sample class size f, estimate P(population size = 1 |
    sample size = 1) from the empirical size distribution under binomial
    subsampling, then scale the sample-unique count.
    """
    _check_fraction(sampling_fraction)
    class_sizes = np.asarray(class_sizes, dtype=np.int64)
    n_uniques = sample_uniques(class_sizes)
    if n_uniques == 0:
        return 0.0
    max_size = int(class_sizes.max())
    size_counts = np.bincount(class_sizes, minlength=max_size + 1).astype(np.float64)

    from scipy import stats

    # P(sample size = 1 | population size = j) under binomial thinning.
    population_sizes = np.arange(1, max_size + 1)
    p_observe_one = stats.binom.pmf(1, population_sizes, sampling_fraction)
    # Empirical prior over population sizes approximated by the observed
    # sample-size histogram (the estimator's standard simplification).
    prior = size_counts[1:]
    weights = prior * p_observe_one
    if weights.sum() == 0:
        return 0.0
    p_pop_unique_given_sample_unique = weights[0] / weights.sum()
    return float(n_uniques * p_pop_unique_given_sample_unique)


def poisson_population_uniques(class_sizes: np.ndarray, sampling_fraction: float) -> float:
    """Poisson-model estimate of expected population uniques.

    A population class of size j survives as a sample unique w.p.
    ``j π (1-π)^{j-1}``; with a Poisson(λ) size model fitted by matching the
    observed mean class size / π, the posterior P(j=1 | sample unique)
    follows in closed form.
    """
    _check_fraction(sampling_fraction)
    class_sizes = np.asarray(class_sizes, dtype=np.float64)
    n_uniques = sample_uniques(class_sizes)
    if n_uniques == 0:
        return 0.0
    mean_population_size = max(class_sizes.mean() / sampling_fraction, 1.0)
    lam = mean_population_size
    j = np.arange(1, max(int(lam * 6), 20))
    from scipy import stats

    prior = stats.poisson.pmf(j, lam)
    likelihood = j * sampling_fraction * (1 - sampling_fraction) ** (j - 1)
    posterior = prior * likelihood
    if posterior.sum() == 0:
        return 0.0
    p_unique = posterior[0] / posterior.sum()
    return float(n_uniques * p_unique)


def uniqueness_report(release: Release, sampling_fraction: float) -> dict:
    """Risk summary of a release's sample-unique records."""
    sizes = release.equivalence_class_sizes()
    n_sample_uniques = sample_uniques(sizes)
    return {
        "sample_uniques": n_sample_uniques,
        "sample_unique_fraction": n_sample_uniques / release.n_rows if release.n_rows else 0.0,
        "zayatz_population_uniques": zayatz_population_uniques(sizes, sampling_fraction),
        "poisson_population_uniques": poisson_population_uniques(sizes, sampling_fraction),
    }


def _check_fraction(sampling_fraction: float) -> None:
    if not 0 < sampling_fraction <= 1:
        raise ValueError(
            f"sampling_fraction must lie in (0, 1], got {sampling_fraction}"
        )
