"""The analysis service (repro.service): protocol, job lifecycle, limits.

Most tests inject a synthetic runner so the full client/server round
trip (admission, quotas, backpressure, streaming, cancellation, drain)
runs in milliseconds; two end-to-end tests drive the default runner
against the real tiny core and pin the served Table I to the corpus
golden capture.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import pytest

from repro.service import (AnalysisService, JobCancelled, ServiceClient,
                           ServiceError, ServiceUnavailable)
from repro.service import protocol

GOLDEN_TINY = (Path(__file__).resolve().parent.parent / "benchmarks"
               / "corpus" / "golden" / "tiny_full.table.txt")


# --------------------------------------------------------------------- #
# harness
# --------------------------------------------------------------------- #
class ServiceHarness:
    """A service on an ephemeral port in a background thread."""

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("port", 0)
        self.service = AnalysisService(**kwargs)
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self.service.run,
            kwargs={"ready": lambda svc: self._ready.set()},
            daemon=True)

    def __enter__(self) -> "ServiceHarness":
        self._thread.start()
        assert self._ready.wait(10), "service did not start"
        return self

    def __exit__(self, *exc_info) -> None:
        if self._thread.is_alive():
            try:
                self.client().shutdown(drain=False)
            except ServiceError:
                pass
            self._thread.join(timeout=10)

    def client(self, **kwargs) -> ServiceClient:
        kwargs.setdefault("timeout", 10.0)
        return ServiceClient(port=self.service.port, **kwargs)

    def join(self, timeout: float = 10.0) -> bool:
        self._thread.join(timeout=timeout)
        return not self._thread.is_alive()


#: Named gates the echo runner blocks on — spec values must survive the
#: JSON protocol, so tests plant a *name* and park the Event here.
GATES: dict = {}


def gate(name: str) -> threading.Event:
    return GATES.setdefault(name, threading.Event())


@pytest.fixture(autouse=True)
def _fresh_gates():
    GATES.clear()
    yield
    for event in GATES.values():
        event.set()  # never leave a runner thread parked


def echo_runner(job, emit):
    """Instant runner: returns the spec, honouring an optional delay and
    a named gate planted in the spec by the test."""
    if job.spec.get("gate"):
        assert gate(job.spec["gate"]).wait(10)
    if job.spec.get("sleep"):
        time.sleep(job.spec["sleep"])
    if job.spec.get("fail"):
        raise ValueError(job.spec["fail"])
    for event in job.spec.get("events", ()):
        emit(dict(event))
    if job.spec.get("poll_cancel"):
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if job.cancel_event.is_set():
                raise JobCancelled(job.id)
            time.sleep(0.01)
        raise AssertionError("cancel never arrived")
    return {"echo": dict(job.spec)}


# --------------------------------------------------------------------- #
# protocol
# --------------------------------------------------------------------- #
class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"op": "submit", "spec": {"axes": {"effort": ["tie"]}}}
        assert protocol.decode(protocol.encode(message)) == message

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ValueError):
            protocol.decode(b"[1, 2, 3]\n")

    def test_error_carries_retry_after(self):
        err = protocol.error(protocol.ERR_QUEUE_FULL, "full",
                             retry_after=1.23456)
        assert err == {"ok": False, "error": "queue_full", "detail": "full",
                       "retry_after": 1.235}


# --------------------------------------------------------------------- #
# request/response ops
# --------------------------------------------------------------------- #
class TestOps:
    def test_ping(self):
        with ServiceHarness(runner=echo_runner) as harness:
            response = harness.client().ping()
            assert response["version"] == protocol.PROTOCOL_VERSION

    def test_submit_run_result_roundtrip(self):
        with ServiceHarness(runner=echo_runner) as harness:
            client = harness.client()
            job = client.submit("analyze", {"design": "tiny"})
            assert job["state"] == "queued"
            final = client.wait(job["id"], timeout=10)
            assert final["state"] == "done"
            outcome = client.result(job["id"])
            assert outcome["result"] == {"echo": {"design": "tiny"}}

    def test_failed_job_reports_error(self):
        with ServiceHarness(runner=echo_runner) as harness:
            client = harness.client()
            job = client.submit("analyze", {"fail": "engine exploded"})
            final = client.wait(job["id"], timeout=10)
            assert final["state"] == "failed"
            assert "engine exploded" in final["error"]

    def test_result_of_running_job_is_not_done(self):
        with ServiceHarness(runner=echo_runner) as harness:
            client = harness.client()
            job = client.submit("analyze", {"gate": "not-done"})
            with pytest.raises(ServiceError) as excinfo:
                client.result(job["id"])
            assert excinfo.value.code == protocol.ERR_NOT_DONE
            assert excinfo.value.retry_after > 0
            gate("not-done").set()
            client.wait(job["id"], timeout=10)

    def test_unknown_job_and_unknown_op(self):
        with ServiceHarness(runner=echo_runner) as harness:
            client = harness.client()
            with pytest.raises(ServiceError) as excinfo:
                client.status("job-9999")
            assert excinfo.value.code == protocol.ERR_UNKNOWN_JOB
            with pytest.raises(ServiceError) as excinfo:
                client.request("frobnicate")
            assert excinfo.value.code == protocol.ERR_UNKNOWN_OP

    def test_malformed_line_gets_bad_request(self):
        with ServiceHarness(runner=echo_runner) as harness:
            import socket
            with socket.create_connection(
                    ("127.0.0.1", harness.service.port), timeout=5) as sock:
                sock.sendall(b"this is not json\n")
                with sock.makefile("rb") as stream:
                    response = protocol.decode(stream.readline())
            assert response["error"] == protocol.ERR_BAD_REQUEST

    def test_jobs_listing_and_stats(self):
        with ServiceHarness(runner=echo_runner) as harness:
            client = harness.client()
            ids = [client.submit("analyze", {"n": n})["id"]
                   for n in range(2)]
            for job_id in ids:
                client.wait(job_id, timeout=10)
            listed = client.jobs()
            assert [job["id"] for job in listed] == ids
            stats = client.stats()
            assert stats["jobs"]["done"] == 2
            assert stats["finished_jobs"] == 2

    def test_unreachable_endpoint_raises_unavailable(self):
        client = ServiceClient(port=1, timeout=0.5)
        with pytest.raises(ServiceUnavailable):
            client.ping()


# --------------------------------------------------------------------- #
# admission control
# --------------------------------------------------------------------- #
class TestBackpressureAndQuotas:
    def test_queue_full_rejects_with_retry_after(self):
        with ServiceHarness(runner=echo_runner, max_queue=1,
                            max_jobs_per_client=10) as harness:
            client = harness.client()
            running = client.submit("analyze", {"gate": "qf"})
            # Wait for the worker to pick it up so the queue is empty.
            deadline = time.monotonic() + 5
            while client.status(running["id"])["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            queued = client.submit("analyze", {"gate": "qf"})  # fills queue
            with pytest.raises(ServiceError) as excinfo:
                client.submit("analyze", {})
            assert excinfo.value.code == protocol.ERR_QUEUE_FULL
            assert excinfo.value.retry_after > 0
            gate("qf").set()
            for job in (running, queued):
                assert client.wait(job["id"], timeout=10)["state"] == "done"
            # Capacity freed: submissions are accepted again.
            assert client.submit("analyze", {})["state"] == "queued"

    def test_per_client_quota_isolates_clients(self):
        with ServiceHarness(runner=echo_runner, max_queue=8,
                            max_jobs_per_client=1) as harness:
            noisy = harness.client(client_id="noisy")
            polite = harness.client(client_id="polite")
            held = noisy.submit("analyze", {"gate": "quota"})
            with pytest.raises(ServiceError) as excinfo:
                noisy.submit("analyze", {})
            assert excinfo.value.code == protocol.ERR_QUOTA_EXCEEDED
            # Another client is unaffected by the noisy one's quota.
            other = polite.submit("analyze", {"gate": "quota"})
            gate("quota").set()
            noisy.wait(held["id"], timeout=10)
            polite.wait(other["id"], timeout=10)

    def test_submit_with_retry_rides_out_backpressure(self):
        with ServiceHarness(runner=echo_runner, max_queue=8,
                            max_jobs_per_client=1) as harness:
            client = harness.client(client_id="retrier")
            first = client.submit("analyze", {"sleep": 0.2})
            second = client.submit_with_retry("analyze", {}, attempts=20)
            assert second["id"] != first["id"]

    def test_bad_kind_is_rejected(self):
        with ServiceHarness(runner=echo_runner) as harness:
            with pytest.raises(ServiceError) as excinfo:
                harness.client().submit("transmogrify", {})
            assert excinfo.value.code == protocol.ERR_BAD_REQUEST


# --------------------------------------------------------------------- #
# streaming & cancellation
# --------------------------------------------------------------------- #
class TestStreamingAndCancel:
    def test_stream_replays_history_then_live_events(self):
        events = [{"event": "scenario", "index": 0, "label": "a"},
                  {"event": "scenario", "index": 1, "label": "b"}]
        with ServiceHarness(runner=echo_runner) as harness:
            client = harness.client()
            job = client.submit("sweep", {"events": events})
            seen = list(client.stream(job["id"]))
            kinds = [event["event"] for event in seen]
            assert kinds.count("scenario") == 2
            assert kinds[-1] == "done"
            assert seen[-1]["state"] == "done"
            # A late subscriber replays the identical history.
            again = list(client.stream(job["id"]))
            assert [e["event"] for e in again] == kinds

    def test_cancel_queued_job(self):
        with ServiceHarness(runner=echo_runner, max_queue=4) as harness:
            client = harness.client(client_id="c1")
            blocker = client.submit("analyze", {"gate": "cq"})
            victim = harness.client(client_id="c2").submit("analyze", {})
            cancelled = client.cancel(victim["id"])
            assert cancelled["state"] == "cancelled"
            gate("cq").set()
            assert client.wait(blocker["id"], timeout=10)["state"] == "done"

    def test_cancel_running_job_lands_cancelled(self):
        with ServiceHarness(runner=echo_runner) as harness:
            client = harness.client()
            job = client.submit("analyze", {"poll_cancel": True})
            deadline = time.monotonic() + 5
            while client.status(job["id"])["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            client.cancel(job["id"])
            final = client.wait(job["id"], timeout=10)
            assert final["state"] == "cancelled"

    def test_cancel_terminal_job_is_noop(self):
        with ServiceHarness(runner=echo_runner) as harness:
            client = harness.client()
            job = client.submit("analyze", {})
            client.wait(job["id"], timeout=10)
            assert client.cancel(job["id"])["state"] == "done"


# --------------------------------------------------------------------- #
# graceful shutdown
# --------------------------------------------------------------------- #
class TestShutdown:
    def test_drain_finishes_admitted_work_and_rejects_new(self):
        with ServiceHarness(runner=echo_runner) as harness:
            client = harness.client()
            slow = client.submit("analyze", {"gate": "drain"})
            assert client.shutdown(drain=True)["state"] == "draining"
            # New work is refused while draining (a structured rejection if
            # the listener still answers, a refused connection once closed).
            with pytest.raises(ServiceError) as excinfo:
                client.submit("analyze", {})
            if not isinstance(excinfo.value, ServiceUnavailable):
                assert excinfo.value.code == protocol.ERR_SHUTTING_DOWN
            # ... but the admitted job still completes before exit.
            gate("drain").set()
            assert harness.join(timeout=10)
            manager = harness.service.manager
            assert manager.get(slow["id"]).state.value == "done"

    def test_abort_cancels_queued_jobs(self):
        with ServiceHarness(runner=echo_runner) as harness:
            client = harness.client(client_id="c1")
            running = client.submit("analyze",
                                    {"gate": "abort", "poll_cancel": True})
            queued = harness.client(client_id="c2").submit("analyze", {})
            gate("abort").set()
            client.shutdown(drain=False)
            assert harness.join(timeout=10)
            manager = harness.service.manager
            assert manager.get(queued["id"]).state.value == "cancelled"
            assert manager.get(running["id"]).state.value == "cancelled"


# --------------------------------------------------------------------- #
# end to end: the default runner against the real tiny core
# --------------------------------------------------------------------- #
class TestEndToEnd:
    def test_served_analyze_matches_corpus_golden(self, tmp_path):
        with ServiceHarness(store=str(tmp_path / "store")) as harness:
            client = harness.client(timeout=120.0)
            job = client.submit("analyze",
                                {"design": "tiny", "effort": "tie"})
            assert client.wait(job["id"], timeout=120)["state"] == "done"
            outcome = client.result(job["id"])
            served = outcome["result"]["table"] + "\n"
            assert served == GOLDEN_TINY.read_text(encoding="utf-8")
            # The analysis went through the session's durable store.
            stats = client.stats()
            assert stats["cache"]["store_writes"] >= 6

    def test_served_sweep_streams_each_scenario_table(self):
        with ServiceHarness() as harness:
            client = harness.client(timeout=120.0)
            job = client.submit(
                "sweep", {"base": "tiny", "axes": {"effort": ["tie"]}})
            events = list(client.stream(job["id"]))
            scenarios = [e for e in events if e["event"] == "scenario"]
            assert len(scenarios) == 1
            assert scenarios[0]["ok"] is True
            streamed = scenarios[0]["table"] + "\n"
            assert streamed == GOLDEN_TINY.read_text(encoding="utf-8")
            assert events[-1]["state"] == "done"
            # The aggregated sweep report is the terminal result.
            outcome = client.result(job["id"])
            assert "Scenario sweep" in outcome["result"]["table"]


# --------------------------------------------------------------------- #
# default-runner specs are checked at submit against the RunOptions schema
# --------------------------------------------------------------------- #
class TestSpecValidation:
    @pytest.mark.parametrize("kind,spec,detail", [
        ("analyze", {"design": "tiny", "fault-model": "transition"},
         "unknown key"),
        ("sweep", {"base": "tiny", "efort": "tie"}, "unknown key"),
        ("analyze", {"design": "tiny", "effort": "fulll"},
         "unknown ATPG effort"),
        ("sweep", {"base": "tiny", "effort": "fulll"},
         "unknown ATPG effort"),
    ])
    def test_bad_spec_is_rejected_at_submit(self, kind, spec, detail):
        with ServiceHarness() as harness:
            with pytest.raises(ServiceError) as excinfo:
                harness.client().submit(kind, spec)
            assert excinfo.value.code == protocol.ERR_BAD_REQUEST
            assert detail in str(excinfo.value)
            assert harness.client().jobs() == []

    def test_injected_runner_keeps_free_form_specs(self):
        with ServiceHarness(runner=echo_runner) as harness:
            client = harness.client()
            job = client.submit("analyze", {"anything": "goes"})
            assert client.wait(job["id"], timeout=10)["state"] == "done"

    def test_static_learning_is_honoured(self, tmp_path):
        from repro.store import resolve_store

        store = tmp_path / "store"
        with ServiceHarness(store=str(store)) as harness:
            client = harness.client(timeout=120.0)
            job = client.submit("analyze", {"design": "tiny",
                                            "static_learning": False})
            assert client.wait(job["id"], timeout=120)["state"] == "done"
        assert harness.join()
        config_keys = {entry.key[1]
                       for entry in resolve_store(str(store)).entries()}
        assert any("learn0" in key for key in config_keys)
        assert not any("learn1" in key for key in config_keys)
