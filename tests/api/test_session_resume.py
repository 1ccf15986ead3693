"""``Session.submit(checkpoint=, resume_rounds=)``: the replay contract.

The serve layer's crash-recovery rests on one session-level property:
replaying the checkpointed :class:`MultiStartOutcome` of rounds
``0..k`` and running rounds ``k+1..`` live yields the same report as
never having stopped.  These tests pin that property directly, below
the HTTP layer.
"""

import pickle

import pytest

from repro.api import EngineConfig, Session


def _report_key(report):
    """Everything resume parity is judged on (timing excluded)."""
    return (
        report.verdict,
        report.n_evals,
        report.rounds,
        [(f.kind, f.label, f.x) for f in report.findings],
        [
            (t.index, t.n_starts, t.n_evals, t.best_w, t.found_zero, t.note)
            for t in report.trace
        ],
        report.seed,
        report.n_crash_retries,
    )


CASES = [
    ("coverage", "fig2", {"max_rounds": 3}),
    ("overflow", "gsl-bessel", {"max_rounds": 3, "n_starts": 4}),
]


class TestCheckpointHook:
    def test_checkpoint_called_once_per_completed_round(self):
        seen = []
        with Session(EngineConfig(seed=7)) as session:
            report = session.submit(
                "coverage", "fig2", max_rounds=3,
                checkpoint=lambda i, outcome: seen.append((i, outcome)),
            ).result(timeout=120)
        assert [i for i, _ in seen] == list(range(report.rounds))
        assert sum(o.n_evals for _, o in seen) == report.n_evals

    def test_checkpointed_outcomes_pickle(self):
        """Outcomes must survive the journal's pickle round-trip."""
        seen = []
        with Session(EngineConfig(seed=7)) as session:
            session.submit(
                "coverage", "fig2", max_rounds=2,
                checkpoint=lambda i, o: seen.append(o),
            ).result(timeout=120)
        for outcome in seen:
            clone = pickle.loads(pickle.dumps(outcome))
            assert clone.n_evals == outcome.n_evals
            assert clone.attempts == outcome.attempts
            assert clone.samples == outcome.samples


    def test_resumed_job_checkpoints_only_live_rounds(self):
        """Replayed rounds are already journaled: a resumed job must
        not checkpoint them again (``repro serve`` would record them
        twice)."""
        analysis, target, options = CASES[1]
        first, resumed = [], []
        with Session(EngineConfig(seed=13)) as session:
            report = session.submit(
                analysis, target,
                checkpoint=lambda i, o: first.append((i, o)),
                **options,
            ).result(timeout=120)
            assert report.rounds == 3
            session.submit(
                analysis, target,
                resume_rounds=[first[0][1]],
                checkpoint=lambda i, o: resumed.append(i),
                **options,
            ).result(timeout=120)
        assert resumed == [1, 2]


class TestResumeParity:
    @pytest.mark.parametrize("analysis,target,options", CASES)
    def test_full_replay_is_bit_identical(self, analysis, target, options):
        """Resuming from *every* round checkpointed reproduces the
        uninterrupted report without re-running any evaluation."""
        outcomes = []
        with Session(EngineConfig(seed=13)) as session:
            want = session.submit(
                analysis, target,
                checkpoint=lambda i, o: outcomes.append(o),
                **options,
            ).result(timeout=120)
            got = session.submit(
                analysis, target, resume_rounds=outcomes, **options
            ).result(timeout=120)
        assert _report_key(got) == _report_key(want)
        # The replay really did skip the work: the resumed job reports
        # the original evals without performing them (same count, and
        # instantaneous rounds), which _report_key already pins via
        # n_evals equality.

    @pytest.mark.parametrize("k", [1, 2])
    def test_partial_replay_continues_live(self, k):
        """Resume from k of 3 rounds: replayed prefix + live suffix
        still matches the uninterrupted run bit-for-bit."""
        outcomes = []
        options = {"max_rounds": 3, "n_starts": 4}
        with Session(EngineConfig(seed=13, n_workers=2)) as session:
            want = session.submit(
                "overflow", "gsl-bessel",
                checkpoint=lambda i, o: outcomes.append(o),
                **options,
            ).result(timeout=120)
            assert len(outcomes) >= k, "need enough rounds to truncate"
            got = session.submit(
                "overflow", "gsl-bessel",
                resume_rounds=outcomes[:k], **options
            ).result(timeout=120)
        assert _report_key(got) == _report_key(want)

    def test_resumed_event_stream_is_prefix_preserving(self):
        """A resumed job re-emits the replayed rounds' events
        identically, so an SSE consumer's Last-Event-ID stays valid
        across a server restart."""
        from repro.api.events import event_to_dict

        outcomes = []
        first, second = [], []
        with Session(EngineConfig(seed=13)) as session:
            session.submit(
                "coverage", "fig2", max_rounds=3,
                checkpoint=lambda i, o: outcomes.append(o),
                on_event=first.append,
            ).result(timeout=120)
            session.submit(
                "coverage", "fig2", max_rounds=3,
                resume_rounds=outcomes,
                on_event=second.append,
            ).result(timeout=120)

        def key(event):
            record = event_to_dict(event)
            record.pop("job_id")
            record.pop("elapsed_seconds", None)
            return record

        assert [key(e) for e in first] == [key(e) for e in second]
