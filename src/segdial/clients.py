"""Annotator clients: an HTTP backend, a directory-of-files fixture, and a job runner."""

from __future__ import annotations

import base64
import logging
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional, Protocol, Sequence

from segdial.curation import PromptJob

if TYPE_CHECKING:
    import requests

__all__ = [
    "FixtureModelClient",
    "HttpModelClient",
    "JobResult",
    "ModelClient",
    "ModelClientError",
    "run_jobs",
]

log = logging.getLogger(__name__)


class ModelClientError(RuntimeError):
    """A failed completion; `retry` is False where asking again cannot
    help: a missing or undecodable fixture, an HTTP 4xx other than 408 and
    429, or a reply that is not JSON or lacks `text`."""

    def __init__(self, message: str, retry: bool = True):
        super().__init__(message)
        self.retry = retry


class ModelClient(Protocol):
    def complete(self, job: PromptJob) -> str:
        """Return the annotator's raw text response for one job."""
        ...


class FixtureModelClient:
    """Serves canned responses from a directory of {image_id}.txt files."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def complete(self, job: PromptJob) -> str:
        path = self.directory / f"{job.image_id}.txt"
        if not path.is_file():
            raise ModelClientError(f"no fixture response at {path}", retry=False)
        try:
            return path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ModelClientError(f"fixture response at {path} is not UTF-8: {exc}", retry=False) from exc


class HttpModelClient:
    """POSTs {"prompt", "image", "image_name"} as JSON and expects {"text": ...} back.

    The image is attached base64-encoded when `image_root` is given and the
    job's file exists there; bearer auth when `auth_token` is set. `requests`
    is imported on first use, so nothing else pays for loading it.
    """

    def __init__(
        self,
        endpoint: str,
        auth_token: Optional[str] = None,
        image_root: Optional[str | Path] = None,
        timeout: float = 60.0,
        session: Optional[requests.Session] = None,
    ):
        self.endpoint = endpoint
        self.auth_token = auth_token
        self.image_root = Path(image_root) if image_root is not None else None
        self.timeout = timeout
        if session is None:
            import requests

            session = requests.Session()
        self.session = session

    def complete(self, job: PromptJob) -> str:
        import requests

        payload = {"prompt": job.prompt_text, "image": None, "image_name": job.file_name}
        if self.image_root is not None:
            image_path = self.image_root / job.file_name
            if image_path.is_file():
                payload["image"] = base64.b64encode(image_path.read_bytes()).decode("ascii")
        headers = {}
        if self.auth_token:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        try:
            resp = self.session.post(
                self.endpoint, json=payload, headers=headers, timeout=self.timeout
            )
            resp.raise_for_status()
        except requests.RequestException as exc:
            status = getattr(exc.response, "status_code", None)
            retry = not (isinstance(status, int) and 400 <= status < 500) or status in (408, 429)
            raise ModelClientError(f"request for image {job.image_id} failed: {exc}", retry=retry) from exc
        try:
            data = resp.json()
        except ValueError as exc:  # requests' own JSON error is a ValueError too
            raise ModelClientError(f"non-JSON response for image {job.image_id}", retry=False) from exc
        text = data.get("text") if isinstance(data, dict) else None
        if not isinstance(text, str):
            raise ModelClientError(f"response for image {job.image_id} lacks a 'text' field", retry=False)
        return text


class JobResult(NamedTuple):
    job: PromptJob
    response: Optional[str]
    error: Optional[str]
    attempts: int


def _run_one(job: PromptJob, client: ModelClient, max_retries: int) -> JobResult:
    for attempt in range(1, max_retries + 2):
        try:
            return JobResult(job=job, response=client.complete(job), error=None, attempts=attempt)
        except Exception as exc:  # noqa: BLE001 - client backends fail in many shapes
            last_error = str(exc)
            log.warning(
                "job for image %s failed (attempt %d/%d): %s",
                job.image_id,
                attempt,
                max_retries + 1,
                exc,
            )
            if isinstance(exc, ModelClientError) and not exc.retry:
                break
    return JobResult(job=job, response=None, error=last_error, attempts=attempt)


def run_jobs(
    jobs: Sequence[PromptJob],
    client: ModelClient,
    max_retries: int = 2,
    parallelism: int = 1,
) -> list[JobResult]:
    """Run every job, retrying each failure up to `max_retries` times unless
    it is a `ModelClientError` that a retry cannot fix; results come back
    in input order."""
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(lambda j: _run_one(j, client, max_retries), jobs))
