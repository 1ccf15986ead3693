"""HTTP surface: routes, auth, SSE resume contract, in-process."""

import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import ReproServer, ServeClient, ServeConfig, ServeError


@pytest.fixture
def server(tmp_path):
    config = ServeConfig(
        port=0, n_workers=2, store_dir=str(tmp_path / "store")
    )
    with ReproServer(config).start() as server:
        yield server


@pytest.fixture
def client(server):
    return ServeClient(server.url)


SMOKE = {"analysis": "coverage", "target": "fig2", "seed": 7, "smoke": True}


class TestRoutes:
    def test_healthz(self, client):
        health = client.health()
        assert health["ok"] is True
        assert health["n_workers"] == 2

    def test_submit_status_report(self, client):
        job = client.submit(SMOKE)
        assert job["id"] == "j0"
        assert job["state"] in ("queued", "running")
        final = client.wait(job["id"], timeout=60)
        assert final["state"] == "done"
        report = final["report"]
        assert report["verdict"] == "found"
        assert report["seed"] == 7
        assert [j["id"] for j in client.jobs()] == ["j0"]

    def test_bad_payload_is_400_with_field_name(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit({**SMOKE, "bogus": 1})
        assert exc.value.status == 400
        assert "bogus" in exc.value.message

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as exc:
            client.job("j999")
        assert exc.value.status == 404

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(server.url + "/v2/nope")
        assert exc.value.code == 404

    def test_identical_job_is_served_from_the_round_cache(self, client):
        """Every job runs in the server's one Session, so a copy of a
        finished job runs no round again and reports the same."""
        first = client.wait(client.submit(SMOKE)["id"], timeout=60)
        job = client.submit(SMOKE)
        rounds = [r for r in client.watch(job["id"]) if r["event"] == "RoundFinished"]
        second = client.wait(job["id"], timeout=60)
        assert rounds and all(r["cached"] for r in rounds)
        report = second["report"]
        assert report["n_evals_cached"] == report["n_evals"] > 0
        assert first["report"]["n_evals_cached"] == 0
        for key in ("verdict", "findings", "trace", "n_evals", "rounds"):
            assert report[key] == first["report"][key], key

    def test_cancel_settles_the_job(self, client):
        job = client.submit(
            {"analysis": "overflow", "target": "gsl-bessel", "seed": 3,
             "niter": 60, "rounds": 50, "starts": 4}
        )
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] in ("cancelled", "done")
        assert client.job(job["id"])["state"] == cancelled["state"]


class TestSSE:
    def test_stream_is_complete_and_ordered(self, client):
        job = client.submit(SMOKE)
        records = list(client.watch(job["id"]))
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert records[0]["event"] == "JobStarted"
        assert records[-1]["event"] == "JobFinished"

    def test_last_event_id_replays_exactly_the_tail(self, client):
        job = client.submit(SMOKE)
        client.wait(job["id"], timeout=60)
        full = list(client.events(job["id"]))
        tail = list(client.events(job["id"], last_event_id=full[1]["seq"]))
        assert [r["seq"] for r in tail] == [r["seq"] for r in full[2:]]
        assert tail == full[2:]

    def test_reconnect_mid_stream_never_drops_or_duplicates(self, client):
        """Consume a few events, abandon the connection, reconnect
        with Last-Event-ID: the concatenation equals one clean read."""
        job = client.submit(SMOKE)
        first_leg = []
        stream = client.events(job["id"])
        for record in stream:
            first_leg.append(record)
            if len(first_leg) == 2:
                stream.close()  # drop the connection mid-job
                break
        second_leg = list(
            client.events(job["id"], last_event_id=first_leg[-1]["seq"])
        )
        merged = [r["seq"] for r in first_leg + second_leg]
        assert merged == list(range(len(merged)))
        assert (first_leg + second_leg)[-1]["event"] == "JobFinished"

    def test_evicted_position_is_416(self, tmp_path):
        config = ServeConfig(
            port=0, n_workers=2,
            store_dir=str(tmp_path / "store2"),
            ring_capacity=2,  # only the 2 newest events retained
        )
        with ReproServer(config).start() as server:
            client = ServeClient(server.url)
            job = client.submit(SMOKE)
            client.wait(job["id"], timeout=60)
            assert job_events_total(client, job["id"]) > 2
            with pytest.raises(ServeError) as exc:
                list(client.events(job["id"], last_event_id=0))
            assert exc.value.status == 416

    def test_watch_survives_eviction_free_reconnects(self, client):
        job = client.submit(SMOKE)
        seqs = [r["seq"] for r in client.watch(job["id"])]
        assert seqs == sorted(set(seqs))


def job_events_total(client, job_id):
    return client.job(job_id)["n_events"]


class TestTenancy:
    @pytest.fixture
    def keyed_server(self, tmp_path):
        config = ServeConfig(
            port=0, n_workers=2,
            store_dir=str(tmp_path / "store3"),
            api_keys=("team-a", "team-b"),
        )
        with ReproServer(config).start() as server:
            yield server

    def test_missing_or_unknown_key_is_401(self, keyed_server):
        for key in (None, "wrong"):
            with pytest.raises(ServeError) as exc:
                ServeClient(keyed_server.url, api_key=key).submit(SMOKE)
            assert exc.value.status == 401

    def test_tenants_see_only_their_own_jobs(self, keyed_server):
        a = ServeClient(keyed_server.url, api_key="team-a")
        b = ServeClient(keyed_server.url, api_key="team-b")
        job = a.submit(SMOKE)
        a.wait(job["id"], timeout=60)
        assert [j["id"] for j in a.jobs()] == [job["id"]]
        assert b.jobs() == []
        with pytest.raises(ServeError) as exc:
            b.job(job["id"])
        assert exc.value.status == 404
        with pytest.raises(ServeError):
            b.cancel(job["id"])

    def test_round_cache_is_per_tenant(self, keyed_server):
        """A tenant is served only rounds its own jobs ran, so the
        ``cached`` flags tell it nothing about another tenant's jobs."""
        a = ServeClient(keyed_server.url, api_key="team-a")
        b = ServeClient(keyed_server.url, api_key="team-b")
        first = a.wait(a.submit(SMOKE)["id"], timeout=60)
        job = b.submit(SMOKE)
        rounds = [r for r in b.watch(job["id"]) if r["event"] == "RoundFinished"]
        other = b.wait(job["id"], timeout=60)
        assert rounds and not any(r["cached"] for r in rounds)
        assert other["report"]["n_evals_cached"] == 0
        assert other["report"]["trace"] == first["report"]["trace"]
        again = a.wait(a.submit(SMOKE)["id"], timeout=60)
        assert again["report"]["n_evals_cached"] == again["report"]["n_evals"]


class TestConcurrentClients:
    def test_parallel_submissions_all_complete(self, server):
        """Several clients hammering POST /v1/jobs at once: every job
        runs to its own verdict with its own event stream."""
        results = {}
        lock = threading.Lock()

        def one_client(i):
            client = ServeClient(server.url)
            job = client.submit({**SMOKE, "seed": i})
            records = list(client.watch(job["id"]))
            final = client.wait(job["id"], timeout=120)
            with lock:
                results[i] = (job["id"], records, final)

        threads = [
            threading.Thread(target=one_client, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(results) == 4
        assert len({jid for jid, _, _ in results.values()}) == 4
        for i, (jid, records, final) in results.items():
            assert final["state"] == "done", (i, final)
            assert final["payload"]["seed"] == i
            assert [r["seq"] for r in records] == list(range(len(records)))
            assert all(r["event"] != "JobFinished" for r in records[:-1])


class TestResumeEndToEnd:
    def test_restart_restores_and_resumes(self, tmp_path):
        """Settled jobs come back queryable; an unsettled one re-runs
        from its checkpoints to the same report (in-process restart)."""
        store = str(tmp_path / "store4")
        payload = {"analysis": "overflow", "target": "gsl-bessel",
                   "seed": 3, "niter": 8, "rounds": 3, "starts": 4}
        with ReproServer(
            ServeConfig(port=0, n_workers=2, store_dir=store)
        ).start() as first:
            client = ServeClient(first.url)
            done = client.submit(SMOKE)
            reference = client.wait(done["id"], timeout=60)
            victim = client.submit(payload)
            # Wait for at least one checkpoint, then emulate a kill -9
            # that landed before the job settled: keep the journal as
            # it was, minus the victim's terminal record (the job may
            # have finished while we polled — the fast smoke budget
            # races the poll — but a journal with rounds and no 'done'
            # is exactly the post-crash state either way).
            from repro.serve import CheckpointJournal

            journal = CheckpointJournal(store)
            import time as _time

            while True:
                jobs = journal.load()
                entry = jobs.get(victim["id"])
                if entry is not None and len(entry.rounds) >= 1:
                    break
                _time.sleep(0.02)
            client.wait(victim["id"], timeout=120)
            snapshot = journal.path.read_text()
        import json as _json

        survivors = [
            line
            for line in snapshot.splitlines()
            if not (
                _json.loads(line).get("type") == "done"
                and _json.loads(line).get("job_id") == victim["id"]
            )
        ]
        journal.path.write_text("\n".join(survivors) + "\n")

        with ReproServer(
            ServeConfig(port=0, n_workers=2, store_dir=store, resume=True)
        ).start() as second:
            client = ServeClient(second.url)
            assert second.n_resumed == 1
            # The settled job is still there, report intact.
            restored = client.job(done["id"])
            assert restored["state"] == "done"
            assert restored["report"] == reference["report"]
            # The interrupted one finishes under its original id.
            resumed = client.wait(victim["id"], timeout=120)
            assert resumed["state"] == "done"
            assert resumed["n_resumed_rounds"] >= 1
        # Parity of the resumed report against an uninterrupted run.
        with ReproServer(
            ServeConfig(port=0, n_workers=2,
                        store_dir=str(tmp_path / "fresh"))
        ).start() as third:
            client = ServeClient(third.url)
            clean = client.wait(client.submit(payload)["id"], timeout=120)
        for key in ("verdict", "n_evals", "rounds", "trace", "findings",
                    "seed"):
            assert resumed["report"][key] == clean["report"][key], key

    def test_resume_fails_a_job_whose_payload_no_longer_validates(
        self, tmp_path
    ):
        """An unsettled job naming a backend this version does not have
        settles as ``failed`` (journaled, queryable) instead of keeping
        the server from starting; the other unsettled job resumes to
        the report an uninterrupted run gives."""
        from repro.serve import CheckpointJournal

        store = str(tmp_path / "store5")
        journal = CheckpointJournal(store)
        stale = dict(SMOKE, backend="py-basinhopping")
        journal.record_job("j0", "anonymous", stale)
        journal.record_job("j1", "anonymous", SMOKE)
        with ReproServer(
            ServeConfig(port=0, n_workers=2, store_dir=store, resume=True)
        ).start() as server:
            client = ServeClient(server.url)
            assert server.n_resumed == 1
            stale = client.job("j0")
            assert stale["state"] == "failed"
            assert "py-basinhopping" in stale["error"]
            resumed = client.wait("j1", timeout=60)
        # The uninterrupted run goes to another server: in this one the
        # round cache would serve it j1's rounds.
        with ReproServer(
            ServeConfig(port=0, n_workers=2,
                        store_dir=str(tmp_path / "fresh"))
        ).start() as third:
            client = ServeClient(third.url)
            clean = client.wait(client.submit(SMOKE)["id"], timeout=60)
        assert clean["report"]["n_evals_cached"] == 0
        assert resumed["state"] == clean["state"] == "done"
        for key in ("verdict", "n_evals", "rounds", "trace", "findings",
                    "seed"):
            assert resumed["report"][key] == clean["report"][key], key
        entry = CheckpointJournal(store).load()["j0"]
        assert entry.state == "failed" and "py-basinhopping" in entry.error
