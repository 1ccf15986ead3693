"""Event wire-format contract: schema_version, seq, and round-trips."""

import json

import pytest

from repro.api import (
    EVENT_SCHEMA_VERSION,
    EngineConfig,
    JobFinished,
    JobStarted,
    RoundFinished,
    RoundRetried,
    RoundStarted,
    Session,
    StartCrashed,
    event_from_dict,
    event_to_dict,
)

ALL_EVENTS = [
    JobStarted(job_id=3, analysis="coverage", target="fig2"),
    RoundStarted(
        job_id=3, analysis="coverage", target="fig2",
        round_index=1, n_starts=4, note="grow B",
    ),
    RoundFinished(
        job_id=3, analysis="coverage", target="fig2",
        round_index=1, n_evals=120, best_w=0.25, found_zero=False,
        note="grow B", interrupted=True,
    ),
    StartCrashed(
        job_id=3, analysis="coverage", target="fig2",
        round_index=1, start_index=2, error="SIGKILL",
    ),
    RoundRetried(
        job_id=3, analysis="coverage", target="fig2",
        round_index=1, n_lost=2, attempt=1, max_attempts=3,
        error="SIGKILL",
    ),
    JobFinished(
        job_id=3, analysis="coverage", target="fig2",
        verdict="found", rounds=2, n_evals=240, elapsed_seconds=1.5,
        cancelled=True, partial=True,
    ),
]


class TestEventDictContract:
    @pytest.mark.parametrize("event", ALL_EVENTS, ids=lambda e: type(e).__name__)
    def test_every_record_carries_schema_version(self, event):
        record = event_to_dict(event)
        assert record["schema_version"] == EVENT_SCHEMA_VERSION
        assert record["event"] == type(event).__name__
        assert "seq" not in record  # only when the emitter assigns one

    def test_seq_included_when_assigned(self):
        record = event_to_dict(ALL_EVENTS[0], seq=17)
        assert record["seq"] == 17

    @pytest.mark.parametrize("event", ALL_EVENTS, ids=lambda e: type(e).__name__)
    def test_round_trip_identity(self, event):
        assert event_from_dict(event_to_dict(event, seq=5)) == event

    @pytest.mark.parametrize("event", ALL_EVENTS, ids=lambda e: type(e).__name__)
    def test_round_trip_survives_json(self, event):
        wire = json.dumps(event_to_dict(event, seq=0))
        assert event_from_dict(json.loads(wire)) == event

    def test_envelope_and_unknown_extras_ignored(self):
        record = event_to_dict(ALL_EVENTS[0], seq=9)
        record["ts"] = 12345.0
        record["added_in_v2"] = "future field"
        assert event_from_dict(record) == ALL_EVENTS[0]

    def test_unknown_event_type_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            event_from_dict({"event": "NoSuchEvent", "job_id": 0})

    def test_missing_required_field_rejected(self):
        record = event_to_dict(ALL_EVENTS[1])
        del record["round_index"]
        with pytest.raises(ValueError, match="RoundStarted"):
            event_from_dict(record)


class TestSinkSequencing:
    def test_jsonl_sink_stamps_per_job_monotonic_seq(self, tmp_path):
        out = tmp_path / "events.jsonl"
        with Session(EngineConfig(seed=4), event_sink=str(out)) as session:
            a = session.submit("coverage", "fig2", max_rounds=1)
            b = session.submit("coverage", "fig2", max_rounds=1)
            a.result()
            b.result()
        records = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert records, "sink wrote nothing"
        by_job = {}
        for record in records:
            assert record["schema_version"] == EVENT_SCHEMA_VERSION
            by_job.setdefault(record["job_id"], []).append(record["seq"])
        assert set(by_job) == {a.job_id, b.job_id}
        for seqs in by_job.values():
            # Each job counts 0,1,2,... independently of the other.
            assert seqs == list(range(len(seqs)))

    def test_sink_records_round_trip_to_typed_events(self, tmp_path):
        out = tmp_path / "events.jsonl"
        with Session(EngineConfig(seed=4), event_sink=str(out)) as session:
            session.run("coverage", "fig2", max_rounds=1)
        events = [
            event_from_dict(json.loads(line))
            for line in out.read_text().splitlines()
        ]
        assert type(events[0]).__name__ == "JobStarted"
        assert type(events[-1]).__name__ == "JobFinished"
