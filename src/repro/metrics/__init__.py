"""Information-loss and utility metrics."""

from .._lazy import attach

# ``discernibility`` and ``precision`` each name both a submodule and a
# function, so they are bound eagerly (see repro._lazy).
from .discernibility import c_avg, c_avg_of_release, discernibility, discernibility_of_release
from .precision import precision

__getattr__, __dir__ = attach(
    __name__,
    globals(),
    {
        ".classification": ("accuracy_experiment", "classification_metric", "majority_baseline"),
        ".distribution": (
            "cramers_v",
            "distribution_report",
            "hellinger",
            "js_divergence",
            "kl_divergence",
            "marginal_distance",
            "pairwise_association_error",
            "total_variation",
        ),
        ".entropy_loss": ("column_entropy_loss", "non_uniform_entropy"),
        ".loss": ("gcp", "iloss", "minimal_distortion", "ncp_column"),
        ".query": (
            "CountQuery",
            "anatomy_count",
            "generalized_count",
            "median_relative_error",
            "random_workload",
            "true_count",
        ),
    },
)

__all__ = [
    "CountQuery",
    "accuracy_experiment",
    "anatomy_count",
    "c_avg",
    "c_avg_of_release",
    "classification_metric",
    "column_entropy_loss",
    "cramers_v",
    "distribution_report",
    "hellinger",
    "js_divergence",
    "kl_divergence",
    "marginal_distance",
    "pairwise_association_error",
    "total_variation",
    "discernibility",
    "discernibility_of_release",
    "gcp",
    "generalized_count",
    "iloss",
    "majority_baseline",
    "median_relative_error",
    "minimal_distortion",
    "ncp_column",
    "non_uniform_entropy",
    "precision",
    "random_workload",
    "true_count",
]
