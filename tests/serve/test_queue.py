"""The persistent job queue: dedup, priority, recovery, lifecycle."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.campaign.locking import FileLock
from repro.errors import ConflictError, NotFoundError
from repro.serve.queue import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_QUEUED,
    JOB_RUNNING,
    JobQueue,
    JobRecord,
)


@pytest.fixture
def queue(tmp_path):
    return JobQueue(tmp_path / "jobs")


def _submit(queue, job_id="job-a", priority=0, **over):
    return queue.submit(
        job_id=job_id,
        kind=over.get("kind", "capacity"),
        spec=over.get("spec", {"kind": "capacity", "links": [2]}),
        options=over.get("options", {"jobs": 1}),
        priority=priority,
        campaign_dir=over.get("campaign_dir", "/tmp/none"),
    )


class TestPersistence:
    def test_record_survives_a_fresh_queue_instance(self, queue, tmp_path):
        record, created = _submit(queue)
        assert created
        reloaded = JobQueue(tmp_path / "jobs").get("job-a")
        assert reloaded == record
        assert reloaded.state == JOB_QUEUED

    def test_record_file_is_versioned_json(self, queue, tmp_path):
        _submit(queue)
        data = json.loads((tmp_path / "jobs" / "job-a.json").read_text())
        assert data["version"] == 1
        assert data["job"]["job_id"] == "job-a"

    def test_round_trip_preserves_every_field(self):
        record = JobRecord(
            job_id="x",
            kind="grid",
            spec={"grid": "smoke-grid"},
            options={"jobs": 2},
            priority=5,
            state=JOB_DONE,
            submissions=3,
            exit_code=0,
            summary="steps: 4 executed",
        )
        assert JobRecord.from_dict(record.to_dict()) == record

    def test_unknown_job_raises(self, queue):
        with pytest.raises(NotFoundError, match="unknown job"):
            queue.get("missing")

    def test_traversal_job_ids_rejected(self, queue):
        with pytest.raises(NotFoundError):
            queue.get("../escape")

    def test_temp_file_of_an_unfinished_write_is_no_record(
        self, queue, tmp_path
    ):
        _submit(queue)
        # What a write caught between its temp file and its rename
        # (or killed there) leaves beside the record.
        record_file = tmp_path / "jobs" / "job-a.json"
        litter = tmp_path / "jobs" / ".tmp_999999_job-a.json"
        litter.write_text(record_file.read_text())
        assert [record.job_id for record in queue.list()] == ["job-a"]
        assert queue.counts() == {JOB_QUEUED: 1}


class TestDedup:
    def test_second_submission_dedups_onto_queued_job(self, queue):
        first, created_first = _submit(queue)
        second, created_second = _submit(queue)
        assert created_first and not created_second
        assert second.job_id == first.job_id
        assert second.submissions == 2

    def test_dedup_keeps_highest_priority(self, queue):
        _submit(queue, priority=1)
        record, created = _submit(queue, priority=7)
        assert not created
        assert record.priority == 7

    def test_resubmission_of_finished_job_requeues(self, queue):
        _submit(queue)
        queue.claim_next(pid=1)
        queue.mark("job-a", JOB_DONE, exit_code=0)
        record, created = _submit(queue)
        assert created
        assert record.state == JOB_QUEUED
        assert record.submissions == 2
        assert "resubmitted after done" in record.detail
        assert record.exit_code is None


class TestClaimOrdering:
    def test_claims_by_priority_then_age_then_id(self, queue):
        _submit(queue, job_id="old-low", priority=0)
        _submit(queue, job_id="new-high", priority=5)
        _submit(queue, job_id="also-low", priority=0)
        assert queue.claim_next(pid=1).job_id == "new-high"
        # Equal priority: submission order wins.
        assert queue.claim_next(pid=1).job_id == "old-low"
        assert queue.claim_next(pid=1).job_id == "also-low"
        assert queue.claim_next(pid=1) is None

    def test_claim_marks_running_with_pid(self, queue):
        _submit(queue)
        record = queue.claim_next(pid=4242)
        assert record.state == JOB_RUNNING
        assert record.pid == 4242
        assert record.started_at is not None


class TestRecovery:
    def test_running_jobs_requeue_on_recover(self, queue):
        _submit(queue, job_id="crashed")
        _submit(queue, job_id="finished")
        queue.claim_next(pid=1)  # claims "crashed"
        queue.mark("finished", JOB_DONE)
        assert queue.recover() == ["crashed"]
        record = queue.get("crashed")
        assert record.state == JOB_QUEUED
        assert record.detail == "requeued after daemon restart"
        assert record.pid is None
        assert queue.get("finished").state == JOB_DONE

    def test_recover_is_idempotent(self, queue):
        _submit(queue)
        queue.claim_next(pid=1)
        assert queue.recover() == ["job-a"]
        assert queue.recover() == []


class TestLifecycle:
    def test_cancel_queued_job(self, queue):
        _submit(queue)
        assert queue.cancel("job-a").state == JOB_CANCELLED

    def test_cancel_running_job_conflicts(self, queue):
        _submit(queue)
        queue.claim_next(pid=1)
        with pytest.raises(ConflictError, match="running"):
            queue.cancel("job-a")

    def test_delete_refuses_active_jobs(self, queue):
        _submit(queue)
        with pytest.raises(ConflictError):
            queue.delete("job-a")
        queue.claim_next(pid=1)
        with pytest.raises(ConflictError):
            queue.delete("job-a")

    def test_delete_removes_finished_record(self, queue):
        _submit(queue)
        queue.claim_next(pid=1)
        queue.mark("job-a", JOB_DONE)
        queue.delete("job-a")
        with pytest.raises(NotFoundError):
            queue.get("job-a")

    def test_counts_histogram(self, queue):
        _submit(queue, job_id="a")
        _submit(queue, job_id="b")
        queue.claim_next(pid=1)
        assert queue.counts() == {JOB_QUEUED: 1, JOB_RUNNING: 1}


class TestClaimIndex:
    """The in-memory index: claims stay O(1) records and disk-ordered."""

    @pytest.mark.parametrize("reopen", [False, True])
    def test_mixed_transitions_claim_in_disk_order(
        self, queue, tmp_path, reopen
    ):
        _submit(queue, job_id="finished")
        queue.claim_next(pid=1)
        queue.mark("finished", JOB_DONE, exit_code=0)
        _submit(queue, job_id="a", priority=0)
        _submit(queue, job_id="b", priority=0)
        _submit(queue, job_id="c", priority=2)
        _submit(queue, job_id="d", priority=0)
        # A dedup bump lifts b over everything; c is cancelled; the
        # finished job requeues as the newest submission.
        assert _submit(queue, job_id="b", priority=5) == (
            queue.get("b"),
            False,
        )
        queue.cancel("c")
        _, created = _submit(queue, job_id="finished", priority=0)
        assert created
        _submit(queue, job_id="e", priority=1)
        if reopen:  # a restarted daemon rebuilds the index from disk
            queue = JobQueue(tmp_path / "jobs")
            assert queue.recover() == []
        claimed = []
        while (record := queue.claim_next(pid=1)) is not None:
            claimed.append(record.job_id)
        assert claimed == ["b", "e", "a", "d", "finished"]
        assert queue.get("c").state == JOB_CANCELLED

    def test_claim_trusts_the_disk_over_the_index(self, queue, tmp_path):
        queue.recover()  # build the index before the records change
        _submit(queue, job_id="a")
        _submit(queue, job_id="b")
        _submit(queue, job_id="c")
        # Records changed behind the queue's back: "a" is gone and "c"
        # now outranks "b".
        (tmp_path / "jobs" / "a.json").unlink()
        path = tmp_path / "jobs" / "c.json"
        data = json.loads(path.read_text())
        data["job"]["priority"] = 9
        path.write_text(json.dumps(data))
        assert queue.claim_next(pid=1).job_id == "c"
        assert queue.claim_next(pid=1).job_id == "b"
        assert queue.claim_next(pid=1) is None

    def test_claim_reads_one_record_however_many_are_on_disk(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "jobs"
        writer = JobQueue(root)

        def grow_to(total: int) -> None:
            # Mostly finished history, one queued job in every twenty.
            for index in range(len(list(root.glob("*.json"))), total):
                job_id = f"job-{index:04d}"
                _submit(writer, job_id=job_id)
                if index % 20:
                    writer.mark(job_id, JOB_DONE, exit_code=0)

        def reads_per_claim(claims: int) -> float:
            queue = JobQueue(root)
            queue.recover()  # the start-up scan builds the index
            reads = []
            load = queue._load

            def counting_load(path):
                reads.append(path)
                return load(path)

            monkeypatch.setattr(queue, "_load", counting_load)
            for _ in range(claims):
                record = queue.claim_next(pid=2)
                assert record is not None
                queue.mark(record.job_id, JOB_DONE, exit_code=0)
            claim_reads = len(reads) - claims  # each mark reads once
            return claim_reads / claims

        grow_to(100)
        small = reads_per_claim(3)
        grow_to(1000)
        large = reads_per_claim(3)
        assert len(list(root.glob("*.json"))) == 1000
        assert small == large == 1

    def test_threads_share_the_queue_without_polling_the_file_lock(
        self, queue, monkeypatch
    ):
        attempts: list[bool] = []
        try_acquire = FileLock._try_acquire

        def counting_try_acquire(lock):
            acquired = try_acquire(lock)
            attempts.append(acquired)
            return acquired

        monkeypatch.setattr(FileLock, "_try_acquire", counting_try_acquire)
        submitted = [f"p{p}-{i:02d}" for p in range(4) for i in range(25)]
        claimed: list[str] = []
        produced = threading.Event()

        def produce(p: int) -> None:
            for i in range(25):
                _submit(queue, job_id=f"p{p}-{i:02d}")

        def consume() -> None:
            while True:
                drain = produced.is_set()  # read before the claim
                record = queue.claim_next(pid=threading.get_ident())
                if record is not None:
                    claimed.append(record.job_id)
                elif drain:
                    return

        producers = [
            threading.Thread(target=produce, args=(p,)) for p in range(4)
        ]
        consumers = [threading.Thread(target=consume) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in producers + consumers:
                thread.start()
            for thread in producers:
                thread.join(timeout=60)
            produced.set()
            for thread in consumers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in producers + consumers)
        assert sorted(claimed) == sorted(submitted)  # each exactly once
        assert queue.has_queued() is False
        assert attempts and all(attempts)  # the file lock never polled
