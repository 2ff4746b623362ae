"""The detector's audit log: one event per frequency-flagged pair.

Every event must tell the operator the same story the detection result
does — which pairs were examined, which thresholds fired, which
behaviour classes matched, and what weight was applied — whichever
coefficient kernels feed it: "dense" (the full Ωc layout and the Ωs
product) or "sparse" (the two-hop layout and row dot products).
"""

import numpy as np
import pytest

from repro.core.config import SocialTrustConfig
from repro.core.detector import CollusionDetector
from repro.obs import AuditEvent, Observability
from repro.reputation.base import IntervalRatings
from repro.social.generators import paper_social_network
from repro.social.interactions import InteractionLedger
from repro.social.interests import InterestProfiles
from repro.utils.rng import spawn_rng
from tests.core.kernels import closeness_with, similarity_with

N = 16
N_INTERESTS = 6


def make_world(seed=11):
    rng = spawn_rng(seed, 0)
    network = paper_social_network(N, (1, 2, 3), rng)
    ledger = InteractionLedger(N)
    profiles = InterestProfiles(N, N_INTERESTS)
    for node in range(N):
        k = int(rng.integers(1, 4))
        profiles.set_declared(
            node, [int(v) for v in rng.choice(N_INTERESTS, size=k, replace=False)]
        )
    for _ in range(3 * N):
        i, j = int(rng.integers(0, N)), int(rng.integers(0, N))
        if i != j:
            ledger.record(i, j, float(rng.integers(1, 4)))
            profiles.record_request(i, int(rng.integers(0, N_INTERESTS)))
    return network, ledger, profiles, rng


def make_interval(rng):
    value_sum, pos_counts, neg_counts = (np.zeros((N, N)) for _ in range(3))
    for _ in range(4 * N):
        i, j = int(rng.integers(0, N)), int(rng.integers(0, N))
        if i != j:
            pos_counts[i, j] += 1
            value_sum[i, j] += 1.0
    pos_counts[0, 1] += 12
    value_sum[0, 1] += 12.0
    neg_counts[2, 3] += 9
    value_sum[2, 3] -= 9.0
    for j in range(4, 8):  # organic negatives anchor the median for T-
        neg_counts[2, j] += 1
        value_sum[2, j] -= 1.0
    return IntervalRatings.from_dense(value_sum, pos_counts, neg_counts)


def run_detector(backend, intervals=1, max_audit_events=100_000):
    """Analysed intervals (the same one each time): (observability, last
    result, interval, inputs)."""
    network, ledger, profiles, rng = make_world()
    interval = make_interval(rng)
    reputations = np.full(N, 1.0 / N)
    reputations[3] = 0.0  # one low-reputed ratee, so TR fires somewhere
    rated = np.flatnonzero(interval.counts)
    flags = (np.array([0 * N + 1]), np.array([2.0]))
    cfg = SocialTrustConfig()
    dense = backend == "dense"
    closeness = closeness_with("full" if dense else "two-hop", network, ledger, cfg)
    similarity = similarity_with("product" if dense else "row-dots", profiles, cfg)
    obs = Observability(tracing=False, max_audit_events=max_audit_events)
    detector = CollusionDetector(closeness, similarity, cfg, observability=obs)
    for _ in range(intervals):
        result = detector.analyze(interval, reputations, rated, flags)
    return obs, result, interval, reputations, closeness, similarity


def audit_by_pair(obs):
    events = {}
    for event in obs.audit.to_events():
        assert event["type"] == "audit"
        events[(event["rater"], event["ratee"])] = event
    return events


BACKENDS = ("dense", "sparse")


class TestAuditEmitter:
    def test_same_examined_pair_set(self):
        for backend in BACKENDS:
            obs, result, interval, *_ = run_detector(backend)
            t = result.thresholds
            flagged = (interval.pos_counts > t.pos_frequency) | (
                interval.neg_counts > t.neg_frequency
            )
            np.fill_diagonal(flagged, False)
            events = audit_by_pair(obs)
            assert events, "scenario must flag pairs"
            assert set(events) == {
                (int(i), int(j)) for i, j in np.argwhere(flagged)
            }, backend

    def test_events_agree_field_by_field(self):
        for backend in BACKENDS:
            obs, result, interval, reputations, closeness, similarity = (
                run_detector(backend)
            )
            t = result.thresholds
            findings = {(f.rater, f.ratee): f for f in result.findings}
            omega_c = closeness.closeness_matrix()
            omega_s = similarity.similarity_matrix()
            damped = 0
            fired_seen = set()
            for (i, j), event in audit_by_pair(obs).items():
                want_fired = [
                    name
                    for name, hit in (
                        ("T+", interval.pos_counts[i, j] > t.pos_frequency),
                        ("T-", interval.neg_counts[i, j] > t.neg_frequency),
                        ("TR", reputations[j] < t.low_reputation),
                        ("Tcl", omega_c[i, j] < t.closeness_low),
                        ("Tch", omega_c[i, j] > t.closeness_high),
                        ("Tsl", omega_s[i, j] < t.similarity_low),
                        ("Tsh", omega_s[i, j] > t.similarity_high),
                    )
                    if hit
                ]
                assert event["fired"] == want_fired, (backend, i, j)
                fired_seen.update(want_fired)
                assert event["pos_count"] == interval.pos_counts[i, j]
                assert event["neg_count"] == interval.neg_counts[i, j]
                assert event["closeness"] == pytest.approx(omega_c[i, j], abs=1e-12)
                assert event["similarity"] == pytest.approx(
                    omega_s[i, j], abs=1e-12
                )
                assert event["thresholds"] == pytest.approx(t.as_dict())
                finding = findings.get((i, j))
                if finding is None:
                    assert event["decision"] == "accepted"
                    assert event["behaviors"] == []
                    assert event["weight"] == 1.0
                    continue
                damped += 1
                assert event["decision"] == "damped"
                assert event["behaviors"] == [
                    flag.name
                    for flag in type(finding.reasons)
                    if flag in finding.reasons
                ]
                assert event["weight"] == finding.weight
                assert event["closeness"] == finding.closeness
            assert damped == result.n_adjusted > 0, backend
            assert {"T+", "T-", "TR"} <= fired_seen, backend

    def test_metrics_counters_agree(self):
        for backend in BACKENDS:
            obs, result, *_ = run_detector(backend)
            events = audit_by_pair(obs)
            assert obs.metrics["detector.pairs_examined"].value == len(events)
            assert obs.metrics["detector.pairs_damped"].value == result.n_adjusted
            assert obs.metrics["detector.intervals"].value == 1


def reference_events(obs_events, result, interval, reputations, closeness, similarity):
    """The events as the per-pair emitter built them: keyword construction,
    ``fired`` from a generator over the checks, in row-major pair order."""
    t = result.thresholds
    findings = {(f.rater, f.ratee): f for f in result.findings}
    omega_c = closeness.closeness_matrix()
    omega_s = similarity.similarity_matrix()
    out = []
    for event in obs_events:
        i, j = event.rater, event.ratee
        checks = [
            ("T+", interval.pos_counts[i, j] > t.pos_frequency),
            ("T-", interval.neg_counts[i, j] > t.neg_frequency),
            ("TR", reputations[j] < t.low_reputation),
            ("Tcl", omega_c[i, j] < t.closeness_low),
            ("Tch", omega_c[i, j] > t.closeness_high),
            ("Tsl", omega_s[i, j] < t.similarity_low),
            ("Tsh", omega_s[i, j] > t.similarity_high),
        ]
        finding = findings.get((i, j))
        out.append(
            AuditEvent(
                interval=0,
                rater=i,
                ratee=j,
                decision="accepted" if finding is None else "damped",
                behaviors=() if finding is None else tuple(
                    flag.name for flag in type(finding.reasons) if flag in finding.reasons
                ),
                fired=tuple(name for name, hit in checks if hit),
                closeness=float(omega_c[i, j]),
                similarity=float(omega_s[i, j]),
                weight=1.0 if finding is None else finding.weight,
                pos_count=float(interval.pos_counts[i, j]),
                neg_count=float(interval.neg_counts[i, j]),
                thresholds=t.as_dict(),
            )
        )
    return out


class TestAuditLogBound:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_events_equal_the_per_pair_reference(self, backend):
        obs, *rest = run_detector(backend)
        events = obs.audit.events
        keys = [(e.rater, e.ratee) for e in events]
        assert keys == sorted(keys)
        assert list(events) == reference_events(events, *rest)
        for event in events:
            assert type(event.fired) is tuple and type(event.behaviors) is tuple

    def test_full_log_keeps_the_first_events_and_counts_the_rest(self, monkeypatch):
        unbounded = run_detector("dense", intervals=2)[0].audit.events
        per_interval = len(unbounded) // 2
        assert per_interval >= 2
        built = []
        init = AuditEvent.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(AuditEvent, "__init__", counting_init)
        room = per_interval - 1
        # Two intervals: the first fills the log, the second finds it full.
        obs = run_detector("dense", intervals=2, max_audit_events=room)[0]
        assert obs.audit.events == unbounded[:room]
        assert obs.audit.n_dropped == len(unbounded) - room
        assert len(built) == room
        assert obs.metrics["detector.pairs_examined"].value == len(unbounded)
