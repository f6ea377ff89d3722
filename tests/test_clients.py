import base64
import threading
from types import SimpleNamespace

import pytest
import requests

from conftest import image_with_masks, rect_mask
from segdial.clients import (
    FixtureModelClient,
    HttpModelClient,
    ModelClientError,
    run_jobs,
)
from segdial.curation import build_qa_prompt


def job_for(image_id):
    rec = image_with_masks(image_id, [rect_mask(64, 64, 2, 2, 30, 30)], [1])
    return build_qa_prompt(rec)


class TestFixtureClient:
    def test_serves_response_file_by_image_id(self, tmp_path):
        (tmp_path / "5.txt").write_text("canned reply", encoding="utf-8")
        client = FixtureModelClient(tmp_path)
        assert client.complete(job_for(5)) == "canned reply"

    def test_missing_file_raises(self, tmp_path):
        client = FixtureModelClient(tmp_path)
        with pytest.raises(ModelClientError, match="no fixture response"):
            client.complete(job_for(6))


class FakeResponse:
    def __init__(self, payload=None, status_error=None, json_error=False):
        self._payload = payload
        self._status_error = status_error
        self._json_error = json_error

    def raise_for_status(self):
        if self._status_error:
            raise self._status_error

    def json(self):
        if self._json_error:
            raise ValueError("not json")
        return self._payload


class FakeSession:
    def __init__(self, response=None, raises=None):
        self.response = response
        self.raises = raises
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        if self.raises:
            raise self.raises
        return self.response


class TestHttpClient:
    def test_default_session_is_a_requests_session(self):
        # constructing a session opens no connection
        assert isinstance(HttpModelClient("http://a").session, requests.Session)

    def test_posts_prompt_and_reads_text(self):
        session = FakeSession(FakeResponse({"text": "the reply"}))
        client = HttpModelClient("http://annotator/v1", timeout=7.5, session=session)
        job = job_for(3)
        assert client.complete(job) == "the reply"
        call = session.calls[0]
        assert call["url"] == "http://annotator/v1"
        assert call["timeout"] == 7.5
        assert call["headers"] == {}
        assert call["json"]["prompt"] == job.prompt_text
        assert call["json"]["image"] is None
        assert call["json"]["image_name"] == job.file_name

    def test_bearer_token_header(self):
        session = FakeSession(FakeResponse({"text": "ok"}))
        client = HttpModelClient("http://a", auth_token="sekrit", session=session)
        client.complete(job_for(1))
        assert session.calls[0]["headers"] == {"Authorization": "Bearer sekrit"}

    def test_image_attached_base64_when_present(self, tmp_path):
        job = job_for(9)
        (tmp_path / job.file_name).write_bytes(b"\x89PNGfake")
        session = FakeSession(FakeResponse({"text": "ok"}))
        client = HttpModelClient("http://a", image_root=tmp_path, session=session)
        client.complete(job)
        encoded = session.calls[0]["json"]["image"]
        assert base64.b64decode(encoded) == b"\x89PNGfake"

    def test_image_omitted_when_file_missing(self, tmp_path):
        session = FakeSession(FakeResponse({"text": "ok"}))
        client = HttpModelClient("http://a", image_root=tmp_path, session=session)
        client.complete(job_for(9))
        assert session.calls[0]["json"]["image"] is None

    def test_http_error_wrapped(self):
        session = FakeSession(FakeResponse(status_error=requests.HTTPError("500")))
        client = HttpModelClient("http://a", session=session)
        with pytest.raises(ModelClientError, match="request for image 3 failed"):
            client.complete(job_for(3))

    def test_connection_error_wrapped(self):
        session = FakeSession(raises=requests.ConnectionError("refused"))
        client = HttpModelClient("http://a", session=session)
        with pytest.raises(ModelClientError, match="failed"):
            client.complete(job_for(3))

    def test_non_json_response_wrapped(self):
        session = FakeSession(FakeResponse(json_error=True))
        client = HttpModelClient("http://a", session=session)
        with pytest.raises(ModelClientError, match="non-JSON"):
            client.complete(job_for(3))

    def test_missing_text_field_wrapped(self):
        for payload in ({"output": "x"}, ["text"], {"text": 5}):
            session = FakeSession(FakeResponse(payload))
            client = HttpModelClient("http://a", session=session)
            with pytest.raises(ModelClientError, match="lacks a 'text' field"):
                client.complete(job_for(3))


class EchoClient:
    def complete(self, job):
        return f"echo {job.image_id}"


class FlakyClient:
    """Fails a fixed number of times per image before answering."""

    def __init__(self, failures):
        self.failures = failures
        self.lock = threading.Lock()
        self.seen = {}

    def complete(self, job):
        with self.lock:
            n = self.seen.get(job.image_id, 0) + 1
            self.seen[job.image_id] = n
        if n <= self.failures:
            raise RuntimeError(f"flake {n}")
        return f"ok {job.image_id}"


class TestRunJobs:
    def test_results_preserve_input_order(self):
        jobs = [job_for(i) for i in (9, 2, 7, 4)]
        for parallelism in (1, 4):
            results = run_jobs(jobs, EchoClient(), parallelism=parallelism)
            assert [r.job.image_id for r in results] == [9, 2, 7, 4]
            assert [r.response for r in results] == ["echo 9", "echo 2", "echo 7", "echo 4"]
            assert all(r.error is None and r.attempts == 1 for r in results)

    def test_retries_until_success(self):
        results = run_jobs([job_for(1)], FlakyClient(failures=2), max_retries=2)
        assert results[0].response == "ok 1"
        assert results[0].error is None
        assert results[0].attempts == 3

    def test_exhausted_retries_report_last_error(self):
        results = run_jobs([job_for(1)], FlakyClient(failures=99), max_retries=1)
        assert results[0].response is None
        assert results[0].attempts == 2
        assert "flake 2" in results[0].error

    def test_failures_do_not_poison_other_jobs(self, tmp_path):
        (tmp_path / "2.txt").write_text("fine", encoding="utf-8")
        results = run_jobs(
            [job_for(1), job_for(2)], FixtureModelClient(tmp_path), max_retries=0, parallelism=2
        )
        assert results[0].response is None and results[0].error
        assert results[1].response == "fine"

    def test_parallelism_validated_and_empty_ok(self):
        with pytest.raises(ValueError):
            run_jobs([job_for(1)], EchoClient(), parallelism=0)
        assert run_jobs([], EchoClient()) == []

    def test_negative_retries_rejected(self):
        # -1 used to record zero attempts and -2 a negative count
        for max_retries in (-1, -2):
            with pytest.raises(ValueError, match="max_retries"):
                run_jobs([job_for(1)], EchoClient(), max_retries=max_retries)


def http_error(status):
    """The error `raise_for_status` raises for an HTTP `status`."""
    return requests.HTTPError(f"{status} error", response=SimpleNamespace(status_code=status))


class TestRetryOnlyWhatARetryCanFix:
    def test_a_missing_fixture_is_tried_once(self, tmp_path):
        results = run_jobs([job_for(1)], FixtureModelClient(tmp_path), max_retries=2)
        assert results[0].attempts == 1
        assert "no fixture response" in results[0].error

    def test_an_undecodable_fixture_is_named_and_tried_once(self, tmp_path):
        path = tmp_path / "1.txt"
        path.write_bytes(b"reply \xff")
        with pytest.raises(ModelClientError) as caught:
            FixtureModelClient(tmp_path).complete(job_for(1))
        assert caught.value.retry is False
        results = run_jobs([job_for(1)], FixtureModelClient(tmp_path), max_retries=2)
        assert results[0].attempts == 1 and results[0].response is None
        assert results[0].error == (
            f"fixture response at {path} is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 6: "
            "invalid start byte"
        )

    @pytest.mark.parametrize("response", [
        FakeResponse(status_error=http_error(404)),
        FakeResponse(status_error=http_error(400)),
        FakeResponse(json_error=True),
        FakeResponse({"output": "x"}),
    ])
    def test_a_failure_a_retry_cannot_fix_is_tried_once(self, response):
        session = FakeSession(response)
        results = run_jobs([job_for(3)], HttpModelClient("http://a", session=session), max_retries=2)
        assert results[0].response is None and results[0].error
        assert results[0].attempts == len(session.calls) == 1

    @pytest.mark.parametrize("session", [
        FakeSession(FakeResponse(status_error=http_error(503))),
        FakeSession(FakeResponse(status_error=http_error(500))),
        FakeSession(FakeResponse(status_error=http_error(429))),
        FakeSession(FakeResponse(status_error=http_error(408))),
        FakeSession(FakeResponse(status_error=requests.HTTPError("no response"))),
        FakeSession(raises=requests.ConnectionError("refused")),
        FakeSession(raises=requests.Timeout("slow")),
    ])
    def test_a_transient_failure_is_retried(self, session):
        results = run_jobs([job_for(3)], HttpModelClient("http://a", session=session), max_retries=2)
        assert results[0].response is None and "request for image 3 failed" in results[0].error
        assert results[0].attempts == len(session.calls) == 3
