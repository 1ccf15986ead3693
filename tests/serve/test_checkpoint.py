"""CheckpointJournal: durable, torn-line-tolerant round persistence."""

import base64
import json
import pickle

from repro.api import EngineConfig, Session
from repro.core.parallel import MultiStartOutcome
from repro.serve import CheckpointJournal
from repro.serve.wire import normalize_job_payload, payload_fingerprint
from repro.util.digest import digest_bytes


def outcome(n_evals=10, samples=None):
    return MultiStartOutcome(
        attempts=[],
        n_evals=n_evals,
        samples=list(samples or ()),
    )


PAYLOAD = normalize_job_payload(
    {"analysis": "coverage", "target": "fig2", "seed": 7}
)


class TestRoundTrip:
    def test_job_rounds_done_round_trip(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "store")
        journal.record_job("j0", "team-a", PAYLOAD)
        journal.record_round("j0", 0, outcome(10, [((1.0,), 0.5)]))
        journal.record_round("j0", 1, outcome(20, [((2.0,), 0.0)]))
        journal.record_done("j0", "done", report={"verdict": "found"})

        jobs = CheckpointJournal(tmp_path / "store").load()
        assert list(jobs) == ["j0"]
        entry = jobs["j0"]
        assert entry.tenant == "team-a"
        assert entry.payload == PAYLOAD
        assert entry.fingerprint == payload_fingerprint(PAYLOAD)
        assert entry.settled and entry.state == "done"
        assert entry.report == {"verdict": "found"}
        decoded = entry.outcomes()
        assert [o.n_evals for o in decoded] == [10, 20]
        assert decoded[0].samples == [((1.0,), 0.5)]

    def test_unsettled_job_left_resumable(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "store")
        journal.record_job("j1", "team-a", PAYLOAD)
        journal.record_round("j1", 0, outcome())
        entry = journal.load()["j1"]
        assert not entry.settled
        assert len(entry.outcomes()) == 1

    def test_submission_order_preserved(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "store")
        for i in range(4):
            journal.record_job(f"j{i}", "t", PAYLOAD)
        assert list(journal.load()) == ["j0", "j1", "j2", "j3"]


class TestCorruptionTolerance:
    def test_torn_final_line_skipped(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "store")
        journal.record_job("j0", "t", PAYLOAD)
        journal.record_round("j0", 0, outcome(10))
        with journal.path.open("a", encoding="utf-8") as fh:
            fh.write('{"type": "round", "job_id": "j0", "round_')  # kill -9
        entry = journal.load()["j0"]
        assert [o.n_evals for o in entry.outcomes()] == [10]
        assert not entry.settled

    def test_orphan_records_ignored(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "store")
        journal.record_round("ghost", 0, outcome())
        journal.record_done("ghost", "done")
        assert journal.load() == {}

    def test_round_gap_truncates_replayable_prefix(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "store")
        journal.record_job("j0", "t", PAYLOAD)
        journal.record_round("j0", 0, outcome(10))
        journal.record_round("j0", 2, outcome(30))  # round 1 missing
        entry = journal.load()["j0"]
        assert [o.n_evals for o in entry.outcomes()] == [10]

    def test_missing_journal_loads_empty(self, tmp_path):
        assert CheckpointJournal(tmp_path / "nowhere").load() == {}


def _rewrite_round(journal, round_index, outcome_b64):
    """Replace one round record's ``outcome`` in place: the line stays
    valid JSON, the blob valid base64, only the digest disagrees."""
    lines = []
    for line in journal.path.read_text().splitlines():
        record = json.loads(line)
        if record["type"] == "round" and record["round_index"] == round_index:
            record["outcome"] = outcome_b64
            line = json.dumps(record, sort_keys=True)
        lines.append(line)
    journal.path.write_text("\n".join(lines) + "\n")


class TestRoundDigests:
    def test_digest_names_the_pickled_bytes(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "store")
        journal.record_job("j0", "t", PAYLOAD)
        journal.record_round("j0", 0, outcome(10, [((1.0,), 0.5)]))
        (_, line) = journal.path.read_text().splitlines()
        record = json.loads(line)
        blob = base64.b64decode(record["outcome"])
        assert record["digest"] == digest_bytes(blob)[:16]
        assert blob == pickle.dumps(
            outcome(10, [((1.0,), 0.5)]), protocol=pickle.HIGHEST_PROTOCOL
        )

    def test_corrupt_round_ends_the_replayable_prefix(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "store")
        journal.record_job("j0", "t", PAYLOAD)
        for index in range(3):
            journal.record_round("j0", index, outcome(10 * (index + 1)))
        forged = pickle.dumps(outcome(999), protocol=pickle.HIGHEST_PROTOCOL)
        _rewrite_round(journal, 1, base64.b64encode(forged).decode("ascii"))
        entry = journal.load()["j0"]
        assert sorted(entry.rounds) == [0, 2]
        assert [o.n_evals for o in entry.outcomes()] == [10]

    def test_resume_past_a_corrupt_round_matches_uninterrupted(self, tmp_path):
        """Rounds 0..2 journaled, round 1 corrupted: resume replays
        round 0 only, re-runs the rest live, and lands on the
        uninterrupted report."""
        journal = CheckpointJournal(tmp_path / "store")
        journal.record_job("j0", "t", PAYLOAD)
        options = {"max_rounds": 3, "n_starts": 4}

        def checkpoint(index, round_outcome):
            journal.record_round("j0", index, round_outcome)

        with Session(EngineConfig(seed=13)) as session:
            want = session.submit(
                "overflow", "gsl-bessel", checkpoint=checkpoint, **options
            ).result(timeout=120)
            assert want.rounds == 3
            blob = journal.load()["j0"].rounds[0]
            _rewrite_round(journal, 1, blob)  # round 0's bytes as round 1
            replay = journal.load()["j0"].outcomes()
            assert len(replay) == 1
            got = session.submit(
                "overflow", "gsl-bessel", resume_rounds=replay, **options
            ).result(timeout=120)
        assert got.verdict == want.verdict
        assert got.n_evals == want.n_evals
        assert got.rounds == want.rounds
        assert [(f.kind, f.label, f.x) for f in got.findings] == [
            (f.kind, f.label, f.x) for f in want.findings
        ]
        assert [
            (t.index, t.n_starts, t.n_evals, t.best_w, t.found_zero)
            for t in got.trace
        ] == [
            (t.index, t.n_starts, t.n_evals, t.best_w, t.found_zero)
            for t in want.trace
        ]


class TestParentJournal:
    def test_parent_written_journal_resumes(self, tmp_path, monkeypatch):
        """Journals written while outcomes still carried ``label_sets``
        and ``n_rebuilds`` load and replay: the extra attributes in
        their pickles are ignored, and the resumed report equals the
        uninterrupted one."""
        import copy

        from repro.api import session as session_module

        run_multistart = session_module.run_multistart
        round_labels = []

        def recording(weak_distance, *args, **kwargs):
            # What such a journal stored: W's label sets at the round.
            round_labels.append(
                {name: set(s) for name, s in weak_distance.label_sets.items()}
            )
            return run_multistart(weak_distance, *args, **kwargs)

        monkeypatch.setattr(session_module, "run_multistart", recording)
        journal = CheckpointJournal(tmp_path / "store")
        journal.record_job("j0", "t", PAYLOAD)
        options = {"max_rounds": 3, "n_starts": 4}
        outcomes = []
        with Session(EngineConfig(seed=13)) as session:
            want = session.submit(
                "overflow",
                "gsl-bessel",
                checkpoint=lambda i, o: outcomes.append(o),
                **options,
            ).result(timeout=120)
            assert want.rounds == 3 and len(round_labels) == 3
            assert any(labels["L"] for labels in round_labels)
            for index, (round_outcome, labels) in enumerate(
                zip(outcomes, round_labels)
            ):
                legacy = copy.copy(round_outcome)
                legacy.label_sets = labels
                legacy.n_rebuilds = 0
                journal.record_round("j0", index, legacy)
            replay = journal.load()["j0"].outcomes()
            assert [o.label_sets for o in replay] == round_labels
            got = session.submit(
                "overflow", "gsl-bessel", resume_rounds=replay, **options
            ).result(timeout=120)
        assert len(round_labels) == 3  # the replay ran no round
        assert got.verdict == want.verdict
        assert got.n_evals == want.n_evals
        assert got.rounds == want.rounds
        assert [(f.kind, f.label, f.x) for f in got.findings] == [
            (f.kind, f.label, f.x) for f in want.findings
        ]
        assert [
            (t.index, t.n_starts, t.n_evals, t.best_w, t.found_zero, t.note)
            for t in got.trace
        ] == [
            (t.index, t.n_starts, t.n_evals, t.best_w, t.found_zero, t.note)
            for t in want.trace
        ]
