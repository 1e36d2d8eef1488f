"""Tests for the crash-safe work queue (:mod:`repro.experiments.workqueue`).

The lease lifecycle is the robustness substance: exactly one claimer
can win a key however many race it, an expired lease is always
re-claimable, a heartbeating owner can never be stolen from, and a
zombie owner (one whose lease was taken over) can never publish a
completion over its successor.  Alongside the lifecycle: idempotent
execution through the Worker loop, the effect audit over the event
logs, the process supervisor, the prefetch fallbacks, and the store
durability counters.
"""

import os
import signal
import threading
import time

import pytest

from repro.experiments.store import ProfileStore
from repro.experiments.workqueue import (
    Job,
    JobExecutor,
    Supervisor,
    WorkQueue,
    Worker,
    effect_audit,
    plan_suite_jobs,
)
from repro.testing.faults import FAULTS, inject


@pytest.fixture(autouse=True)
def _reset_faults():
    yield
    FAULTS.reset()


def make_queue(tmp_path, owner="w1", lease_s=5.0, heartbeat_s=None):
    return WorkQueue(
        tmp_path, lease_s=lease_s, heartbeat_s=heartbeat_s, owner=owner
    )


def profile_job(benchmark="hotspot", chunk=4096):
    return Job(kind="profile", suite="rodinia", benchmark=benchmark,
               chunk=chunk)


def expire(lease, by_s=3600.0):
    """Backdate a lease's mtime so it reads as long-expired."""
    past = time.time() - by_s
    os.utime(lease.path, (past, past))


class TestJob:
    def test_key_is_deterministic_content_address(self):
        a, b = profile_job(), profile_job()
        assert a.key == b.key
        assert a.key != profile_job(chunk=8192).key
        assert a.key != Job(
            kind="predict", suite="rodinia", benchmark="hotspot",
            config="base",
        ).key

    def test_payload_round_trip(self):
        job = Job(kind="simulate", suite="parsec", benchmark="ferret",
                  scale=0.5, chunk=2048, config="big", cores=8)
        assert Job.from_payload(job.to_payload()) == job

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            Job(kind="teleport", suite="rodinia", benchmark="nn")

    def test_predict_requires_config(self):
        with pytest.raises(ValueError, match="need a config"):
            Job(kind="predict", suite="rodinia", benchmark="nn")

    def test_profiles_claim_before_predictions(self, tmp_path):
        queue = make_queue(tmp_path)
        jobs = plan_suite_jobs(
            [type("R", (), {"suite": "rodinia", "name": "nn"})()],
            configs=["base"], simulate=True,
        )
        queue.enqueue_many(jobs)
        kinds = [
            queue._read_job(p).kind for p in queue._pending_paths()
        ]
        assert kinds[0] == "profile"
        assert sorted(kinds[1:]) == ["predict", "simulate"]


class TestEnqueue:
    def test_enqueue_is_idempotent(self, tmp_path):
        queue = make_queue(tmp_path)
        assert queue.enqueue(profile_job()) is True
        assert queue.enqueue(profile_job()) is False
        assert queue.pending() == 1

    def test_done_marker_blocks_reenqueue(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue(profile_job())
        lease = queue.claim_next()
        queue.complete(lease, computed=True)
        assert queue.enqueue(profile_job()) is False
        assert queue.pending() == 0


class TestLeaseLifecycle:
    def test_second_claimer_loses(self, tmp_path):
        q1 = make_queue(tmp_path, "a")
        q2 = make_queue(tmp_path, "b")
        q1.enqueue(profile_job())
        assert q1.claim_next() is not None
        assert q2.claim_next() is None

    def test_claim_race_exactly_one_winner(self, tmp_path):
        """Property: N claimers x M rounds, one O_EXCL winner each.

        The ``queue.claim`` fault point widens the decide-to-create
        window far past anything a real fleet would produce.
        """
        rounds, claimers = 12, 6
        with inject("queue.claim", delay_s=0.003):
            for rnd in range(rounds):
                job = profile_job(chunk=4096 + rnd)
                make_queue(tmp_path, "enq").enqueue(job)
                winners = []
                lock = threading.Lock()
                start = threading.Barrier(claimers)

                def claim(i):
                    queue = make_queue(tmp_path, f"racer{i}")
                    start.wait()
                    lease = queue.claim_next()
                    if lease is not None:
                        with lock:
                            winners.append(lease)

                threads = [
                    threading.Thread(target=claim, args=(i,))
                    for i in range(claimers)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert len(winners) == 1, f"round {rnd}"
                make_queue(tmp_path, "enq").complete(
                    winners[0], computed=False
                )

    def test_expired_lease_always_reclaimable(self, tmp_path):
        q1 = make_queue(tmp_path, "dead")
        q2 = make_queue(tmp_path, "alive")
        for rnd in range(8):
            job = profile_job(chunk=4096 + rnd)
            q1.enqueue(job)
            lease = q1.claim_next()
            expire(lease)
            stolen = q2.claim_next()
            assert stolen is not None
            assert stolen.owner == "alive"
            q2.complete(stolen, computed=False)

    def test_live_lease_not_stealable(self, tmp_path):
        q1 = make_queue(tmp_path, "owner", lease_s=5.0)
        q2 = make_queue(tmp_path, "thief", lease_s=5.0)
        q1.enqueue(profile_job())
        q1.claim_next()
        assert q2.claim_next() is None

    def test_heartbeat_prevents_takeover(self, tmp_path):
        """An owner renewing within the lease can never be stolen."""
        q1 = make_queue(tmp_path, "owner", lease_s=0.2)
        q2 = make_queue(tmp_path, "thief", lease_s=0.2)
        q1.enqueue(profile_job())
        lease = q1.claim_next()
        deadline = time.monotonic() + 0.8  # four lease periods
        while time.monotonic() < deadline:
            assert q1.heartbeat(lease) is True
            assert q2.claim_next() is None
            time.sleep(0.05)
        assert not lease.lost
        assert q1.complete(lease, computed=True) is True

    def test_zombie_never_publishes_over_successor(self, tmp_path):
        q1 = make_queue(tmp_path, "zombie")
        q2 = make_queue(tmp_path, "survivor")
        q1.enqueue(profile_job())
        lease = q1.claim_next()
        expire(lease)
        stolen = q2.claim_next()
        assert stolen is not None
        # The zombie learns through its next heartbeat...
        assert q1.heartbeat(lease) is False
        assert lease.lost
        # ...and its completion is an abandon, not a publication.
        assert q1.complete(lease, computed=True) is False
        assert q1.done_count() == 0
        assert q2.complete(stolen, computed=True) is True
        assert q2.done_count() == 1
        # The abandon also must not have unlinked the survivor's
        # artifacts: exactly one done marker, job gone.
        assert q2.pending() == 0

    def test_heartbeat_fault_abandons(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue(profile_job())
        lease = queue.claim_next()
        with inject("queue.heartbeat", error=OSError("disk gone")):
            assert queue.heartbeat(lease) is False
        assert lease.lost
        assert queue.complete(lease, computed=True) is False

    def test_takeover_fault_backs_off(self, tmp_path):
        """A fault in the steal window aborts the takeover cleanly."""
        q1 = make_queue(tmp_path, "dead")
        q2 = make_queue(tmp_path, "alive")
        q1.enqueue(profile_job())
        lease = q1.claim_next()
        expire(lease)
        with inject("queue.lease", error=OSError("io"), times=1):
            assert q2.claim_next() is None
        # Next scan (fault exhausted) succeeds.
        assert q2.claim_next() is not None

    def test_release_returns_job_to_pool(self, tmp_path):
        q1 = make_queue(tmp_path, "a")
        q2 = make_queue(tmp_path, "b")
        q1.enqueue(profile_job())
        lease = q1.claim_next()
        q1.release(lease)
        assert q2.claim_next() is not None

    def test_duplicate_completion_counted_not_trusted(self, tmp_path):
        """Two computed completions of one key = 1 duplicate effect."""
        q1 = make_queue(tmp_path, "a")
        q2 = make_queue(tmp_path, "b")
        q1.enqueue(profile_job())
        l1 = q1.claim_next()
        expire(l1)
        l2 = q2.claim_next()
        # Force the zombie to miss the takeover (no heartbeat): both
        # publish "computed" completions.
        l1.lost = False
        q2.complete(l2, computed=True)
        q1.complete(l1, computed=True)
        audit = effect_audit(q1)
        assert audit["completions"] == 2
        assert audit["duplicate_completions"] == 1
        assert audit["duplicate_effects"] == 1
        assert audit["lost_jobs"] == 0


class TestWorker:
    def test_worker_drains_and_is_idempotent(self, tmp_path):
        store = ProfileStore(tmp_path, strict=False)
        refs = [type("R", (), {"suite": "rodinia", "name": "nn"})()]
        jobs = plan_suite_jobs(refs, scale=0.05, configs=["base"])
        queue = make_queue(tmp_path)
        assert queue.enqueue_many(jobs) == len(jobs)
        worker = Worker(queue, executor=JobExecutor(store))
        assert worker.run() == len(jobs)
        assert queue.drained()
        counters = queue.counters.snapshot()
        first_completed = counters["completed"]
        assert first_completed >= len(jobs)
        assert store.load_profile(
            worker.executor._run_cache(0.05, 4096)._profile_key(
                type("B", (), {
                    "suite": "rodinia", "name": "nn",
                    "label": "rodinia.nn",
                })()
            )
        ) is not None

    def test_worker_holds_lease_across_slow_job(self, tmp_path):
        """The heartbeat thread outlives a job longer than the lease."""

        class SlowExecutor:
            def execute(self, job):
                time.sleep(0.5)
                return True

        queue = make_queue(tmp_path, lease_s=0.2, heartbeat_s=0.05)
        thief = make_queue(tmp_path, "thief", lease_s=0.2)
        queue.enqueue(profile_job())
        lease = queue.claim_next()
        worker = Worker(queue, executor=SlowExecutor())
        stolen = []
        done = threading.Event()

        def prowl():
            while not done.wait(0.05):
                got = thief.claim_next()
                if got is not None:
                    stolen.append(got)

        prowler = threading.Thread(target=prowl)
        prowler.start()
        try:
            assert worker.run_one(lease) is True
        finally:
            done.set()
            prowler.join()
        assert not stolen
        assert queue.done_count() == 1

    def test_failed_execution_releases_the_job(self, tmp_path):
        class FailingExecutor:
            calls = 0

            def execute(self, job):
                FailingExecutor.calls += 1
                raise RuntimeError("boom")

        queue = make_queue(tmp_path)
        queue.enqueue(profile_job())
        lease = queue.claim_next()
        worker = Worker(queue, executor=FailingExecutor())
        assert worker.run_one(lease) is False
        assert queue.done_count() == 0
        # The job is claimable again — not lost, not done.
        assert queue.claim_next() is not None


class TestObservability:
    def test_work_metrics_exported(self, tmp_path):
        from repro.obs import REGISTRY

        queue = make_queue(tmp_path)
        queue.enqueue(profile_job())
        queue.complete(queue.claim_next(), computed=True)
        text = REGISTRY.render()
        assert "repro_work_claimed" in text
        assert "repro_work_completed" in text
        assert "repro_work_lease_age_seconds" in text

    def test_event_log_survives_torn_tail(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue(profile_job())
        queue.complete(queue.claim_next(), computed=True)
        log = next(queue.events_dir.glob("*.jsonl"))
        with open(log, "ab") as fh:
            fh.write(b'{"event": "cla')  # a SIGKILL'd writer's tail
        events = queue.read_events()
        assert [e["event"] for e in events] == ["enqueue", "claim",
                                                "complete"]


class TestPrefetchFallbacks:
    def test_failed_queue_degrades_to_serial(self, tmp_path, monkeypatch):
        """A work-queue fleet that cannot run must not kill the report."""
        import repro.experiments.workqueue as workqueue
        from repro.experiments.suites import BenchmarkRef, RunCache

        def broken_fleet(*args, **kwargs):
            raise RuntimeError("fleet cannot start")

        monkeypatch.setattr(workqueue, "run_workers", broken_fleet)
        cache = RunCache(
            scale=0.05, store=ProfileStore(tmp_path, strict=False)
        )
        refs = [BenchmarkRef("rodinia", "nn"),
                BenchmarkRef("rodinia", "bfs")]
        done = cache.prefetch(refs, workers=2)
        assert sorted(done) == ["rodinia.bfs", "rodinia.nn"]
        for ref in refs:
            assert ref.label in cache._profiles

    def test_bespoke_config_not_queue_eligible(self, tmp_path):
        import dataclasses

        from repro.arch.presets import table_iv_config
        from repro.experiments.suites import RunCache

        base = table_iv_config("base")
        bespoke = dataclasses.replace(
            base,
            core=dataclasses.replace(
                base.core, rob_size=base.core.rob_size * 2
            ),
        )
        assert RunCache._queue_eligible([base]) is True
        assert RunCache._queue_eligible([bespoke]) is False
        assert RunCache._queue_eligible(
            [base, table_iv_config("big", cores=8)]
        ) is False  # mixed core counts cannot share one job plan


def _idle(seconds):
    """Supervisor test child: sleep, exit cleanly on SIGTERM."""
    time.sleep(seconds)


def _ignore_sigterm(ready_path, seconds):
    """Supervisor test child that only a SIGKILL can stop."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    open(ready_path, "w").close()
    time.sleep(seconds)


class TestSupervisor:
    def test_killed_child_is_respawned_by_poll(self):
        supervisor = Supervisor(
            _idle, 2, args=lambda index: (60,), name="test-idle"
        ).start()
        try:
            assert supervisor.alive() == 2
            victim = supervisor.kill(0)
            assert victim is not None
            assert supervisor.alive() == 1
            assert supervisor.poll() == 2
            assert supervisor.respawned == 1
            assert supervisor.pid(0) not in (None, victim)
        finally:
            supervisor.stop(timeout=5.0)
        assert supervisor.alive() == 0

    def test_nothing_respawns_once_stopping(self):
        supervisor = Supervisor(
            _idle, 1, args=lambda index: (60,), name="test-idle"
        ).start()
        supervisor.stop(timeout=5.0)
        assert supervisor.poll() == 0
        assert supervisor.alive() == 0
        assert supervisor.respawned == 0

    def test_sigterm_ignorer_is_killed_within_timeout(self, tmp_path):
        ready = tmp_path / "ready"
        supervisor = Supervisor(
            _ignore_sigterm, 1, args=lambda index: (str(ready), 60),
            name="test-stubborn",
        ).start()
        deadline = time.monotonic() + 30.0
        while not ready.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert ready.exists(), "child never installed its handler"
        t0 = time.monotonic()
        supervisor.stop(timeout=1.0)
        elapsed = time.monotonic() - t0
        assert supervisor.alive() == 0
        # SIGTERM was ignored for the whole timeout, then SIGKILL.
        assert 1.0 <= elapsed < 4.0


class TestWorkFloors:
    """``check_work`` floor logic over synthetic records (the real
    scenarios run in the CI work-smoke job via ``run_work_bench``)."""

    @staticmethod
    def good_record():
        return {
            "schema": 1,
            "mode": "quick",
            "scenarios": {
                "kill_mid_lease": {
                    "killed": True, "reclaim_lease_periods": 1.0,
                    "lost_jobs": 0, "duplicate_effects": 0,
                    "report_identical": 1, "survivors_hung": 0,
                },
                "stale_takeover": {
                    "takeover_claims": 1, "zombie_published": 0,
                    "lost_jobs": 0,
                },
                "duplicate_claim_race": {
                    "max_winners": 1, "min_winners": 1,
                },
            },
        }

    def test_clean_record_clears_floors(self):
        from repro.experiments.bench import check_work

        assert check_work(self.good_record()) == []

    @pytest.mark.parametrize("scenario,field,bad,needle", [
        ("kill_mid_lease", "reclaim_lease_periods", 5.0, "re-claimed"),
        ("kill_mid_lease", "lost_jobs", 1, "lost"),
        ("kill_mid_lease", "duplicate_effects", 1, "idempotence"),
        ("kill_mid_lease", "report_identical", 0, "bit-identical"),
        ("kill_mid_lease", "survivors_hung", 1, "drain"),
        ("kill_mid_lease", "killed", False, "never killed"),
        ("stale_takeover", "zombie_published", 1, "zombie"),
        ("stale_takeover", "takeover_claims", 0, "takeover"),
        ("duplicate_claim_race", "max_winners", 2, "one O_EXCL"),
    ])
    def test_each_floor_trips(self, scenario, field, bad, needle):
        from repro.experiments.bench import check_work

        record = self.good_record()
        record["scenarios"][scenario][field] = bad
        failures = check_work(record)
        assert failures, f"{scenario}.{field}={bad} slipped through"
        assert any(needle in f for f in failures)


class TestStoreDurability:
    def test_fsync_failure_counts_io_error_but_publishes(
        self, tmp_path, monkeypatch
    ):
        import repro.experiments.store as store_mod

        def broken_fsync(fd):
            raise OSError("fsync unsupported")

        monkeypatch.setattr(store_mod.os, "fsync", broken_fsync)
        store = ProfileStore(tmp_path, strict=True)
        store.save_result("results", "k" * 16, {"x": 1})
        # The artifact is published (atomicity intact)...
        assert store.load_result("results", "k" * 16) == {"x": 1}
        # ...but the lost durability is accounted.
        assert store.counters.snapshot()["io_errors"] >= 1

    def test_fsync_happy_path_counts_nothing(self, tmp_path):
        store = ProfileStore(tmp_path, strict=True)
        store.save_result("results", "h" * 16, {"x": 2})
        assert store.counters.snapshot()["io_errors"] == 0
        assert store.counters.snapshot()["writes"] == 1
