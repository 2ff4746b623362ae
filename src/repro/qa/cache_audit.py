"""Cache-vs-recompute audit for the incremental Ωc/Ωs matrices.

The incremental caches in :class:`~repro.core.closeness.ClosenessComputer`
and :class:`~repro.core.similarity.SimilarityComputer` patch their cached
matrices row-wise (and, for the closeness ``T2`` term, with a low-rank
correction) instead of rebuilding from scratch.  The ``decay_nodes``
divergence fixed in an earlier PR was exactly this class of bug: a cache
that silently drifted from what a from-scratch evaluation would produce.

:func:`audit_caches` rebuilds both matrices with *fresh* computers over
the same social view / interaction ledger / interest profiles and diffs
them against the live cached matrices.  The fresh computers share no
cache state with the audited ones, so any disagreement is a real cache
bug, not a measurement artifact.  The fuzz harness calls this from its
teardown; tests and operators can call it directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.socialtrust import SocialTrust

__all__ = ["CacheAuditReport", "audit_caches", "assert_caches_consistent"]

#: The closeness T2 term is maintained with a floating-point low-rank
#: correction, so a tiny accumulation drift against the from-scratch
#: product is legitimate; anything beyond these bounds is a cache bug.
DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12


@dataclass(frozen=True)
class CacheAuditReport:
    """Outcome of one cache-vs-recompute audit."""

    closeness_max_abs_diff: float
    similarity_max_abs_diff: float
    n_closeness_mismatches: int
    n_similarity_mismatches: int
    rtol: float
    atol: float

    @property
    def ok(self) -> bool:
        return not (self.n_closeness_mismatches or self.n_similarity_mismatches)

    def summary(self) -> str:
        status = "CONSISTENT" if self.ok else "DIVERGED"
        return (
            f"cache audit: {status} "
            f"(rtol={self.rtol:g}, atol={self.atol:g})\n"
            f"  omega_c: {self.n_closeness_mismatches} mismatched pair(s), "
            f"max |cached - fresh| = {self.closeness_max_abs_diff:.3e}\n"
            f"  omega_s: {self.n_similarity_mismatches} mismatched pair(s), "
            f"max |cached - fresh| = {self.similarity_max_abs_diff:.3e}"
        )


def _diff(cached: np.ndarray, fresh: np.ndarray, rtol: float, atol: float) -> tuple[float, int]:
    delta = np.abs(cached - fresh)
    mismatched = ~np.isclose(cached, fresh, rtol=rtol, atol=atol)
    return float(delta.max()) if delta.size else 0.0, int(mismatched.sum())


def audit_caches(
    system: SocialTrust,
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> CacheAuditReport:
    """Diff the live Ωc/Ωs caches against a from-scratch recomputation.

    The fresh computers are built over the same stores, so they take the
    audited ones' layout and kernels; the patches of either Ωc layout
    drift the same way (the low-rank T2 correction) and get the same
    bound.
    """
    closeness = system.closeness_computer
    similarity = system.similarity_computer
    cached_c = np.asarray(closeness.closeness_matrix())
    cached_s = np.asarray(similarity.similarity_matrix())
    fresh_c = np.asarray(
        type(closeness)(
            closeness.view, closeness.interactions, closeness.config
        ).closeness_matrix()
    )
    fresh_s = np.asarray(
        type(similarity)(
            similarity.profiles, similarity.config
        ).similarity_matrix()
    )
    c_max, c_bad = _diff(cached_c, fresh_c, rtol, atol)
    s_max, s_bad = _diff(cached_s, fresh_s, rtol, atol)
    return CacheAuditReport(
        closeness_max_abs_diff=c_max,
        similarity_max_abs_diff=s_max,
        n_closeness_mismatches=c_bad,
        n_similarity_mismatches=s_bad,
        rtol=rtol,
        atol=atol,
    )


def assert_caches_consistent(
    system: SocialTrust,
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> CacheAuditReport:
    """:func:`audit_caches`, raising ``AssertionError`` on divergence."""
    report = audit_caches(system, rtol=rtol, atol=atol)
    if not report.ok:
        raise AssertionError(report.summary())
    return report
