"""Store client behavior against a local stub HTTP server."""

import datetime as dt
import time
from types import SimpleNamespace

import pytest

from reviewsent import client as client_module
from reviewsent.client import ClientConfig, ClientError, StoreClient

from helpers import feed_item, lookup_payload


def fast_config(stub) -> ClientConfig:
    return ClientConfig(
        base_url=stub.base_url, rate_limit=10_000, max_retries=2, backoff=0.01
    )


# --- app details ---------------------------------------------------------------


def test_app_details_preserves_44_value_payload(stub_server):
    stub_server.app_payloads["a1"] = lookup_payload("a1", n_keys=44)
    with StoreClient(fast_config(stub_server)) as client:
        result = client.fetch_app_details(["a1"])
    assert result.errors == {}
    (record,) = result.records
    assert record.app_id == "a1"
    assert record.name == "App a1"
    assert record.primary_category == "Games"
    assert record.is_free
    assert len(record.raw_details) == 44
    assert record.raw_details == stub_server.app_payloads["a1"]


def test_app_details_empty_ids_rejected(stub_server):
    with StoreClient(fast_config(stub_server)) as client:
        with pytest.raises(ClientError, match="no ids"):
            client.fetch_app_details([])


def test_app_details_unknown_id_is_per_id_error(stub_server):
    stub_server.app_payloads["good"] = lookup_payload("good")
    with StoreClient(fast_config(stub_server)) as client:
        result = client.fetch_app_details(["good", "ghost"])
    assert [r.app_id for r in result.records] == ["good"]
    assert "ghost" in result.errors
    assert "not found" in result.errors["ghost"]


def test_app_details_non_object_result_is_per_id_error(stub_server):
    stub_server.app_payloads["good"] = lookup_payload("good")
    stub_server.app_payloads["odd"] = "not an object"
    with StoreClient(fast_config(stub_server)) as client:
        result = client.fetch_app_details(["good", "odd"])
    assert [r.app_id for r in result.records] == ["good"]
    assert "odd" in result.errors
    assert "expected a JSON object" in result.errors["odd"]


@pytest.mark.parametrize("price", ["Infinity", "NaN"])
def test_app_details_non_finite_price_is_per_id_error(stub_server, price):
    stub_server.app_payloads["good"] = lookup_payload("good")
    stub_server.app_payloads["odd"] = dict(lookup_payload("odd"), price=float(price))
    with StoreClient(fast_config(stub_server)) as client:
        result = client.fetch_app_details(["good", "odd"])
    assert [r.app_id for r in result.records] == ["good"]
    assert result.errors == {"odd": f"app odd: price {float(price)} is not finite"}


def test_app_details_all_failed_raises(stub_server):
    with StoreClient(fast_config(stub_server)) as client:
        with pytest.raises(ClientError, match="all 2 ids failed"):
            client.fetch_app_details(["ghost1", "ghost2"])


def test_transient_500_is_retried(stub_server):
    stub_server.app_payloads["a1"] = lookup_payload("a1")
    stub_server.fail_remaining["/lookup"] = 2
    with StoreClient(fast_config(stub_server)) as client:
        result = client.fetch_app_details(["a1"])
    assert len(result.records) == 1


def test_persistent_500_gives_up(stub_server):
    stub_server.app_payloads["a1"] = lookup_payload("a1")
    stub_server.fail_remaining["/lookup"] = 99
    with StoreClient(fast_config(stub_server)) as client:
        with pytest.raises(ClientError):
            client.fetch_app_details(["a1"])


def test_rate_limited_429_is_retried(stub_server):
    stub_server.app_payloads["a1"] = lookup_payload("a1")
    stub_server.review_pages["a1"] = [[feed_item(i) for i in range(5)]]
    stub_server.throttle_remaining["/lookup"] = 2
    stub_server.throttle_remaining["/apps/a1/reviews"] = 2
    with StoreClient(fast_config(stub_server)) as client:
        details = client.fetch_app_details(["a1"])
        feed = client.fetch_reviews("a1")
    assert [r.app_id for r in details.records] == ["a1"]
    assert len(feed.reviews) == 5
    assert feed.errors == []
    assert len(stub_server.requests) == 6


def test_persistent_429_gives_up(stub_server):
    stub_server.app_payloads["a1"] = lookup_payload("a1")
    stub_server.review_pages["a1"] = [[feed_item(i) for i in range(5)]]
    stub_server.throttle_remaining["/lookup"] = 3
    stub_server.throttle_remaining["/apps/a1/reviews"] = 3
    with StoreClient(fast_config(stub_server)) as client:
        with pytest.raises(ClientError, match=r"HTTP 429"):
            client.fetch_app_details(["a1"])
        feed = client.fetch_reviews("a1")
    assert feed.reviews == []
    (reason,) = feed.errors
    assert "giving up after retries (HTTP 429)" in reason


@pytest.mark.parametrize(
    "retry_after, backoff, expected",
    [("2", 0.01, [2.0, 2.0]), ("0", 0.5, [0.5, 1.0]), ("soon", 0.5, [0.5, 1.0])],
)
def test_retry_waits_for_retry_after_or_longer_backoff(
    stub_server, monkeypatch, retry_after, backoff, expected
):
    sleeps = []
    fake_time = SimpleNamespace(monotonic=time.monotonic, sleep=sleeps.append)
    monkeypatch.setattr(client_module, "time", fake_time)
    stub_server.app_payloads["a1"] = lookup_payload("a1")
    stub_server.throttle_remaining["/lookup"] = 2
    stub_server.retry_after = retry_after
    config = ClientConfig(
        base_url=stub_server.base_url, rate_limit=1e9, max_retries=2, backoff=backoff
    )
    with StoreClient(config) as client:
        client.fetch_app_details(["a1"])
    assert [s for s in sleeps if s >= 0.01] == expected


@pytest.mark.parametrize(
    "value, seconds",
    [
        (None, 0.0),
        ("", 0.0),
        ("0", 0.0),
        ("7", 7.0),
        (" 120 ", 120.0),
        ("1.5", 0.0),
        ("-3", 0.0),
        ("\u0663", 0.0),  # a non-ASCII digit
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0),
    ],
)
def test_retry_after_seconds_reads_delta_seconds_only(value, seconds):
    assert client_module._retry_after_seconds(value) == seconds


# --- review feed -----------------------------------------------------------------


def test_pagination_drains_three_pages(stub_server):
    stub_server.review_pages["a1"] = [
        [feed_item(i) for i in range(page * 50, page * 50 + 50)] for page in range(3)
    ]
    with StoreClient(fast_config(stub_server)) as client:
        result = client.fetch_reviews("a1")
    assert len(result.reviews) == 150
    assert len({r.review_id for r in result.reviews}) == 150
    assert result.duplicates == 0
    assert result.errors == []


def test_duplicate_review_id_dropped_and_counted(stub_server):
    items = [feed_item(i) for i in range(150)]
    items[120] = dict(items[120], id="rev-0003")  # duplicate of an earlier id
    stub_server.review_pages["a1"] = [items[0:50], items[50:100], items[100:150]]
    with StoreClient(fast_config(stub_server)) as client:
        result = client.fetch_reviews("a1")
    assert len(result.reviews) == 149
    assert result.duplicates == 1


def test_since_cutoff_stops_drain(stub_server):
    # newest first: June, March, January, December 2015
    stub_server.review_pages["a1"] = [
        [feed_item(i, date="2016-06-01") for i in range(3)],
        [feed_item(i + 10, date="2016-03-01") for i in range(3)],
        [feed_item(i + 20, date="2016-01-05") for i in range(3)],
        [feed_item(i + 30, date="2015-12-01") for i in range(3)],
    ]
    with StoreClient(fast_config(stub_server)) as client:
        result = client.fetch_reviews("a1", since=dt.date(2016, 2, 1))
    assert len(result.reviews) == 6
    assert all(r.date >= dt.date(2016, 2, 1) for r in result.reviews)
    # the drain stops inside page 3; page 4 is never requested
    assert not any("page=4" in path for path in stub_server.requests)


def test_since_equal_date_included(stub_server):
    stub_server.review_pages["a1"] = [[feed_item(1, date="2016-03-01")]]
    with StoreClient(fast_config(stub_server)) as client:
        result = client.fetch_reviews("a1", since=dt.date(2016, 3, 1))
    assert len(result.reviews) == 1


def test_persistent_feed_failure_keeps_partial_result(stub_server):
    stub_server.review_pages["a1"] = [
        [feed_item(i) for i in range(5)],
        [feed_item(i + 5) for i in range(5)],
    ]
    stub_server.fail_pages["/apps/a1/reviews"] = {2}
    with StoreClient(fast_config(stub_server)) as client:
        partial = client.fetch_reviews("a1")
    assert len(partial.reviews) == 5  # first page survived
    (reason,) = partial.errors
    assert "giving up" in reason


def test_feed_page_without_review_list_is_feed_error(stub_server):
    # the stub serves each page as {"reviews": page, ...}; page 2 is a number
    stub_server.review_pages["a1"] = [[feed_item(i) for i in range(3)], 5]
    with StoreClient(fast_config(stub_server)) as client:
        result = client.fetch_reviews("a1")
    assert len(result.reviews) == 3
    assert result.errors == ["page 2: expected a list of reviews"]


def test_every_bad_review_payload_is_kept(stub_server):
    # one bad item on each of two pages; before, the second reason replaced the first
    first = [feed_item(0), {"id": "no-rating", "date": "2016-03-01"}, feed_item(1)]
    second = [feed_item(2, date="March 1"), feed_item(3)]
    stub_server.review_pages["a1"] = [first, second]
    with StoreClient(fast_config(stub_server)) as client:
        result = client.fetch_reviews("a1")
    assert [r.review_id for r in result.reviews] == ["rev-0000", "rev-0001", "rev-0003"]
    assert result.errors == [
        "page 1: bad review payload ('rating')",
        "page 2: bad review payload (Invalid isoformat string: 'March 1')",
    ]


def test_rate_limit_config_validated():
    with pytest.raises(ClientError):
        ClientConfig(base_url="http://x", rate_limit=0)
    with pytest.raises(ClientError):
        ClientConfig(base_url="")
    for rate_limit in float("nan"), float("inf"):  # either would turn the throttle off
        with pytest.raises(ClientError, match="rate_limit must be finite and > 0"):
            ClientConfig(base_url="http://x", rate_limit=rate_limit)


@pytest.mark.parametrize("backoff", [float("nan"), float("inf"), -1.0, -0.5])
def test_backoff_config_validated(backoff):
    # max(retry_after, nan) is retry_after: a NaN or negative backoff turns it off
    with pytest.raises(ClientError, match="backoff must be finite and >= 0"):
        ClientConfig(base_url="http://x", backoff=backoff)


@pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0, -1.0])
def test_timeout_config_validated(timeout):
    with pytest.raises(ClientError, match="timeout must be finite and > 0"):
        ClientConfig(base_url="http://x", timeout=timeout)


def test_zero_backoff_is_allowed():
    assert ClientConfig(base_url="http://x", backoff=0.0).backoff == 0.0
