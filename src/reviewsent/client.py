"""HTTP clients for app details and paged review feeds.

The store endpoints are configuration: a base URL (overridable for stub
servers in tests), a request rate limit, and retry behavior. App detail
lookups follow the search-API shape ``GET {base}/lookup?id=...`` with a
``{"resultCount": n, "results": [...]}`` payload; review feeds are
``GET {base}/apps/{app_id}/reviews?page=N`` returning
``{"reviews": [...], "more": bool}`` pages, newest first.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
import time
from dataclasses import dataclass, field

from .store import AppRecord, Review

log = logging.getLogger(__name__)

DEFAULT_BASE_URL = "https://itunes.apple.com"
DEFAULT_RATE_LIMIT = 1.0  # requests per second
RETRYABLE_STATUS = frozenset([429, *range(500, 600)])


class ClientError(RuntimeError):
    """Request failed permanently or the response was unusable."""


@dataclass(frozen=True)
class ClientConfig:
    base_url: str = DEFAULT_BASE_URL
    rate_limit: float = DEFAULT_RATE_LIMIT
    max_retries: int = 3
    backoff: float = 0.5  # seconds, doubled per retry
    timeout: float = 10.0

    def __post_init__(self):
        if not self.base_url:
            raise ClientError("base_url must be nonempty")
        # NaN and inf make the throttle's interval NaN or 0: no request waits
        if not 0 < self.rate_limit < math.inf:
            raise ClientError(f"rate_limit must be finite and > 0, got {self.rate_limit}")
        if self.max_retries < 0:
            raise ClientError(f"max_retries must be >= 0, got {self.max_retries}")
        # max(retry_after, nan) is retry_after: a NaN backoff would turn it off
        if not 0 <= self.backoff < math.inf:
            raise ClientError(f"backoff must be finite and >= 0, got {self.backoff}")
        if not 0 < self.timeout < math.inf:
            raise ClientError(f"timeout must be finite and > 0, got {self.timeout}")


@dataclass
class AppDetailsResult:
    records: list[AppRecord] = field(default_factory=list)
    errors: dict[str, str] = field(default_factory=dict)  # app_id -> reason


@dataclass
class ReviewFetchResult:
    reviews: list[Review] = field(default_factory=list)
    duplicates: int = 0
    errors: list[str] = field(default_factory=list)  # bad items, or why the drain stopped


class StoreClient:
    """Rate-limited, retrying JSON client for the review store endpoints."""

    def __init__(self, config: ClientConfig):
        # Deferred: requests adds ~0.13 s and ~12 MiB to a CLI process
        # (Python 3.11), and only ``ingest --app-id`` uses it.
        import requests

        self.config = config
        self._session = requests.Session()
        self._last_request = 0.0

    def close(self) -> None:
        self._session.close()

    def __enter__(self) -> "StoreClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _throttle(self) -> None:
        interval = 1.0 / self.config.rate_limit
        wait = self._last_request + interval - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        self._last_request = time.monotonic()

    def _get_json(self, url: str, params: dict | None = None) -> dict:
        import requests

        last_error = "no attempt made"
        retry_after = 0.0
        for attempt in range(self.config.max_retries + 1):
            if attempt > 0:
                time.sleep(max(retry_after, self.config.backoff * 2 ** (attempt - 1)))
            retry_after = 0.0
            self._throttle()
            try:
                response = self._session.get(
                    url, params=params, timeout=self.config.timeout
                )
            except requests.RequestException as exc:
                last_error = f"connection error: {exc}"
                log.warning("GET %s failed (%s), attempt %d", url, exc, attempt + 1)
                continue
            if response.status_code in RETRYABLE_STATUS:
                last_error = f"HTTP {response.status_code}"
                retry_after = _retry_after_seconds(response.headers.get("Retry-After"))
                log.warning(
                    "GET %s returned %d, attempt %d", url, response.status_code, attempt + 1
                )
                continue
            if response.status_code != 200:
                raise ClientError(f"GET {url}: HTTP {response.status_code}")
            try:
                payload = response.json()
            except ValueError as exc:
                raise ClientError(f"GET {url}: invalid JSON ({exc})") from None
            if not isinstance(payload, dict):
                raise ClientError(f"GET {url}: expected a JSON object")
            return payload
        raise ClientError(f"GET {url}: giving up after retries ({last_error})")

    # --- app details -------------------------------------------------------

    def fetch_app_details(self, app_ids: list[str]) -> AppDetailsResult:
        """Look up one AppRecord per id; failures are recorded per id.

        Raises when called with no ids or when every id fails.
        """
        if not app_ids:
            raise ClientError("no ids")
        result = AppDetailsResult()
        for app_id in app_ids:
            try:
                result.records.append(self._lookup_app(app_id))
            except (ClientError, KeyError, TypeError, ValueError) as exc:
                result.errors[app_id] = str(exc) or repr(exc)
                log.warning("app %s: %s", app_id, exc)
        if not result.records:
            raise ClientError(f"all {len(app_ids)} ids failed: {result.errors}")
        return result

    def _lookup_app(self, app_id: str) -> AppRecord:
        payload = self._get_json(
            f"{self.config.base_url}/lookup", params={"id": app_id}
        )
        results = payload.get("results") or []
        if payload.get("resultCount", len(results)) == 0 or not results:
            raise ClientError(f"app {app_id} not found")
        detail = results[0]
        if not isinstance(detail, dict):
            raise ClientError(f"app {app_id}: expected a JSON object")
        return AppRecord(
            app_id=str(detail.get("trackId", app_id)),
            name=str(detail.get("trackName", "")),
            primary_category=str(detail.get("primaryGenreName", "")),
            price=float(detail.get("price", 0.0)),
            current_version=str(detail.get("version", "")),
            raw_details=detail,
        )

    # --- review feed -------------------------------------------------------

    def fetch_reviews(
        self, app_id: str, since: dt.date | None = None
    ) -> ReviewFetchResult:
        """Drain the paged review feed for one app.

        Pages are read until exhausted or, when ``since`` is given, until
        a review older than it appears (the feed is newest first).
        Duplicate review ids are dropped and counted. A bad review payload
        is skipped; its reason, and the reason the drain stopped early, if
        it did, are kept in ``errors`` in the order they happened.
        """
        result = ReviewFetchResult()
        seen: set[str] = set()
        page = 1
        while True:
            try:
                payload = self._get_json(
                    f"{self.config.base_url}/apps/{app_id}/reviews",
                    params={"page": page},
                )
            except ClientError as exc:
                result.errors.append(str(exc))
                log.warning("review feed for %s aborted at page %d: %s", app_id, page, exc)
                return result
            items = payload.get("reviews") or []
            if not isinstance(items, list):
                result.errors.append(f"page {page}: expected a list of reviews")
                log.warning("app %s: %s", app_id, result.errors[-1])
                return result
            for item in items:
                try:
                    review = _review_from_feed(app_id, item)
                except (KeyError, TypeError, ValueError) as exc:
                    result.errors.append(f"page {page}: bad review payload ({exc})")
                    log.warning("app %s: %s", app_id, result.errors[-1])
                    continue
                if since is not None and review.date < since:
                    return result
                if review.review_id in seen:
                    result.duplicates += 1
                    log.warning(
                        "app %s: duplicate review id %r dropped", app_id, review.review_id
                    )
                    continue
                seen.add(review.review_id)
                result.reviews.append(review)
            if not payload.get("more") or not items:
                return result
            page += 1


def _retry_after_seconds(value: str | None) -> float:
    """Delay asked for by a delta-seconds ``Retry-After`` header.

    Absent, HTTP-date and malformed values give 0, so the caller falls
    back to its own backoff.
    """
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


def _review_from_feed(app_id: str, item: dict) -> Review:
    return Review(
        review_id=str(item["id"]),
        app_id=app_id,
        author=str(item.get("author", "")),
        title=str(item.get("title", "")),
        body=str(item.get("body", "")),
        rating=int(item["rating"]),
        date=dt.date.fromisoformat(item["date"]),
        helpful_votes=int(item.get("votes", 0)),
        app_version=str(item.get("version", "")),
        raw=item,
    )
