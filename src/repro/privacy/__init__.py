"""Privacy models: one ``ok_mask`` verdict per model over per-group statistics."""

from .._lazy import attach

__getattr__, __dir__ = attach(
    __name__,
    globals(),
    {
        ".alpha_k": ("AlphaKAnonymity",),
        ".base": ("CompositeModel", "PrivacyModel"),
        ".beta_likeness": ("BetaLikeness",),
        ".delta_presence": ("DeltaPresence",),
        ".k_anonymity": ("KAnonymity",),
        ".ke_anonymity": ("KEAnonymity",),
        ".l_diversity": ("DistinctLDiversity", "EntropyLDiversity", "RecursiveCLDiversity"),
        ".lkc": ("LKCPrivacy",),
        ".personalized": ("GuardingNode", "PersonalizedPrivacy"),
        ".t_closeness": ("TCloseness", "emd_equal", "emd_hierarchical", "emd_ordered"),
    },
)

__all__ = [
    "AlphaKAnonymity",
    "BetaLikeness",
    "CompositeModel",
    "DeltaPresence",
    "DistinctLDiversity",
    "EntropyLDiversity",
    "GuardingNode",
    "KAnonymity",
    "KEAnonymity",
    "LKCPrivacy",
    "PersonalizedPrivacy",
    "PrivacyModel",
    "RecursiveCLDiversity",
    "TCloseness",
    "emd_equal",
    "emd_hierarchical",
    "emd_ordered",
]
