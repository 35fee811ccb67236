"""Attribute-linkage attacks: homogeneity and background knowledge.

* **Homogeneity attack** — the attacker places a target in an equivalence
  class; if (almost) every record in the class shares one sensitive value,
  the attacker learns it without re-identification. We report the fraction
  of records whose class's dominant sensitive value exceeds a confidence
  threshold, and the expected inference confidence.
* **Background-knowledge attack** — the attacker can additionally eliminate
  up to ``b`` sensitive values they know the target does not have; the
  attack succeeds if the class's remaining distribution pins one value above
  the threshold. ℓ-diversity with ℓ > b + 1 defeats this.
* **Skewness/similarity check** — the t-closeness motivation: classes whose
  sensitive distribution diverges from the global one leak *probabilistic*
  information even when diverse; we report the max positive belief change.
"""

from __future__ import annotations

import numpy as np

from ..core.release import Release
from ..privacy.t_closeness import emd_equal

__all__ = ["homogeneity_attack", "background_knowledge_attack", "skewness_gain"]


def homogeneity_attack(release: Release, sensitive: str | None = None, confidence: float = 0.9) -> dict:
    """Fraction of records exposed by (near-)homogeneous classes.

    On an Anatomy release the sensitive column lives in the ST, so a class is
    an Anatomy group and its histogram is the group's ST counts: the
    attacker follows a QIT row to its group, and the group to its counts.
    """
    sensitive = sensitive or release.schema.sensitive[0]
    anatomized = release.info.get("anatomized")
    if anatomized is not None:
        counts = [tuple(group.values()) for group in anatomized.st]
        sizes = np.array([sum(group) for group in counts], dtype=np.int64)
        top = np.array([max(group) for group in counts], dtype=np.int64)
    else:
        labels = release.class_labels()
        codes = release.table.codes(sensitive)
        n_cats = len(release.table.column(sensitive).categories)
        n_classes = int(labels.max()) + 1 if labels.size else 0
        # Every class histogram from one bincount over (class, value) cells.
        histograms = np.bincount(
            labels * n_cats + codes, minlength=n_classes * n_cats
        ).reshape(n_classes, n_cats)
        sizes = histograms.sum(axis=1)
        top = histograms.max(axis=1, initial=0)
    # Every class holds a row, so no share divides by zero.
    shares = top / sizes
    total = int(sizes.sum())
    exposed = int(sizes[shares >= confidence].sum())
    return {
        "exposed_fraction": exposed / total if total else 0.0,
        "avg_inference_confidence": float(np.mean(shares)) if shares.size else 0.0,
        "max_inference_confidence": float(np.max(shares)) if shares.size else 0.0,
    }


def background_knowledge_attack(
    release: Release,
    sensitive: str | None = None,
    eliminated: int = 1,
    confidence: float = 0.9,
) -> dict:
    """Worst-case attacker who rules out ``eliminated`` sensitive values.

    For each class, adversarially eliminate the ``eliminated`` values that
    maximize the top remaining value's share (i.e. drop the largest
    competitors of the runner-up... in fact dropping any values only
    concentrates mass, so the worst case removes the largest values *other
    than* the new winner; equivalently keep the largest value and remove the
    next ``eliminated`` largest from the denominator).
    """
    sensitive = sensitive or release.schema.sensitive[0]
    partition = release.partition()
    histograms = partition.sensitive_counts(release.table, sensitive)
    exposed = 0
    total = 0
    worst_confidences = []
    for counts in histograms:
        size = int(counts.sum())
        total += size
        sorted_counts = np.sort(counts[counts > 0])[::-1].astype(np.float64)
        if sorted_counts.size == 0:
            continue
        # Eliminate the runners-up: indices 1..eliminated.
        removed = sorted_counts[1 : 1 + eliminated].sum()
        remaining = sorted_counts.sum() - removed
        top_share = sorted_counts[0] / remaining if remaining else 1.0
        worst_confidences.append(top_share)
        if top_share >= confidence:
            exposed += size
    return {
        "exposed_fraction": exposed / total if total else 0.0,
        "avg_worst_case_confidence": float(np.mean(worst_confidences)) if worst_confidences else 0.0,
    }


def skewness_gain(release: Release, sensitive: str | None = None) -> dict:
    """Belief change an attacker gains from class-level sensitive skew.

    For each class and each sensitive value, the attacker's posterior is the
    class frequency vs. the global prior. We report the max and average
    per-class EMD (equal ground distance) from the global distribution, and
    the maximum posterior/prior ratio ("belief amplification").
    """
    sensitive = sensitive or release.schema.sensitive[0]
    partition = release.partition()
    global_dist = partition.global_sensitive_distribution(release.table, sensitive)
    amplification = 0.0
    emds = []
    for counts in partition.sensitive_counts(release.table, sensitive):
        size = counts.sum()
        if not size:
            continue
        local = counts / size
        emds.append(emd_equal(local, global_dist))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(global_dist > 0, local / global_dist, 0.0)
        amplification = max(amplification, float(ratio.max()))
    return {
        "max_emd": float(np.max(emds)) if emds else 0.0,
        "avg_emd": float(np.mean(emds)) if emds else 0.0,
        "max_belief_amplification": amplification,
    }
