"""Tests for the detector audit log and its event round-tripping."""

import pytest

from repro.obs import AuditEvent, DetectorAuditLog


def _event(decision="damped", behaviors=("B2",), weight=0.1, **overrides):
    payload = dict(
        interval=3,
        rater=5,
        ratee=9,
        decision=decision,
        behaviors=tuple(behaviors),
        fired=("T+", "TR", "Tch"),
        closeness=0.42,
        similarity=0.08,
        weight=weight,
        pos_count=7.0,
        neg_count=0.0,
        thresholds={"T+": 2.0, "T-": 2.0, "TR": 0.05},
    )
    payload.update(overrides)
    return AuditEvent(**payload)


class TestAuditEvent:
    def test_to_dict_tags_type(self):
        data = _event().to_dict()
        assert data["type"] == "audit"
        assert data["behaviors"] == ["B2"]
        assert data["fired"] == ["T+", "TR", "Tch"]

    def test_round_trip_field_for_field(self):
        original = _event()
        restored = AuditEvent.from_dict(original.to_dict())
        assert restored == original
        assert isinstance(restored.behaviors, tuple)
        assert isinstance(restored.fired, tuple)


class TestDetectorAuditLog:
    def test_record_and_partition(self):
        log = DetectorAuditLog()
        log.record(_event())
        log.record(_event(decision="accepted", behaviors=(), weight=1.0))
        assert len(log) == 2
        assert len(log.damped()) == 1
        assert len(log.accepted()) == 1
        assert log.damped()[0].decision == "damped"

    def test_by_behavior_counts_multi_class_events_in_each(self):
        log = DetectorAuditLog()
        log.record(_event(behaviors=("B2", "B3")))
        log.record(_event(behaviors=("B3",)))
        counts = log.by_behavior()
        assert counts == {"B1": 0, "B2": 1, "B3": 2, "B4": 0}

    def test_cap_drops_and_counts(self):
        log = DetectorAuditLog(max_events=2)
        for _ in range(5):
            log.record(_event())
        assert len(log) == 2
        assert log.n_dropped == 3

    def test_record_many_consumes_only_what_fits(self):
        log = DetectorAuditLog(max_events=3)
        log.record(_event())
        taken = []

        def events():
            for k in range(5):
                taken.append(k)
                yield _event(weight=k / 10)

        log.record_many(events(), 5)
        assert [e.weight for e in log] == [0.1, 0.0, 0.1]
        assert taken == [0, 1]
        assert log.n_dropped == 3
        log.record_many(events(), 5)
        assert taken == [0, 1] and log.n_dropped == 8

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            DetectorAuditLog(max_events=0)

    def test_to_events_and_clear(self):
        log = DetectorAuditLog()
        log.record(_event())
        (event,) = log.to_events()
        assert event["type"] == "audit"
        log.clear()
        assert len(log) == 0
        assert log.n_dropped == 0
