"""SocialTrust — the paper's primary contribution.

SocialTrust layers over any :class:`~repro.reputation.base.ReputationSystem`
and damps the ratings of *suspected colluders* before the base system sees
them.  Suspicion is triggered by the rating-frequency / reputation /
social-coefficient patterns B1-B4 the paper mines from the Overstock trace,
and the damping weight is the Gaussian reputation filter of Eqs. (6), (8)
and (9), evaluated on:

* **social closeness** ``Ωc`` (:mod:`repro.core.closeness` — Eqs. (2)-(4)
  plain, Eq. (10) hardened), and
* **interest similarity** ``Ωs`` (:mod:`repro.core.similarity` — Eq. (7)
  plain, Eq. (11) hardened).

Each coefficient has one computer, whose layout and kernels follow the
world it is built on: dense products on small or well-connected worlds,
the two-hop table and pair-wise dot products on sparse ones at 10^4 nodes.

:class:`~repro.core.socialtrust.SocialTrust` is the centralised execution
path; :mod:`repro.core.manager` implements the distributed resource-manager
protocol of Section 4.3 and is verified to produce identical adjustments.
"""

from repro.core.closeness import ClosenessComputer
from repro.core.config import GaussianCenter, SocialTrustConfig
from repro.core.detector import (
    CollusionDetector,
    DetectionResult,
    Finding,
    SuspicionReason,
)
from repro.core.gaussian import RaterBand, combined_weight, gaussian_weight
from repro.core.manager import DistributedSocialTrust, ResourceManager
from repro.core.similarity import SimilarityComputer, overlap_similarity
from repro.core.socialtrust import SocialTrust

# The Ωc and Ωs computers under their old sparse-backend names:
# perfbench/workloads.py is their last caller, and the next change to the
# benchmark drops them.
SparseClosenessComputer = ClosenessComputer
SparseSimilarityComputer = SimilarityComputer

__all__ = [
    "ClosenessComputer",
    "GaussianCenter",
    "SocialTrustConfig",
    "CollusionDetector",
    "DetectionResult",
    "Finding",
    "SuspicionReason",
    "RaterBand",
    "combined_weight",
    "gaussian_weight",
    "DistributedSocialTrust",
    "ResourceManager",
    "SimilarityComputer",
    "SparseClosenessComputer",
    "SparseSimilarityComputer",
    "overlap_similarity",
    "SocialTrust",
]
