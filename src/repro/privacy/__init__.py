"""Privacy models: one ``ok_mask`` verdict per model over per-group statistics."""

from .alpha_k import AlphaKAnonymity
from .base import CompositeModel, PrivacyModel
from .beta_likeness import BetaLikeness
from .delta_presence import DeltaPresence
from .k_anonymity import KAnonymity
from .ke_anonymity import KEAnonymity
from .l_diversity import DistinctLDiversity, EntropyLDiversity, RecursiveCLDiversity
from .lkc import LKCPrivacy
from .personalized import GuardingNode, PersonalizedPrivacy
from .t_closeness import TCloseness, emd_equal, emd_hierarchical, emd_ordered

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
