"""Incremental event-stream ingestion (SURVEY.md S2) + retrying fetch (S4).

Reference behavior being reproduced (not ported):
- readers/streamreader.py:10-70 — an SSE edit stream is filtered (wiki,
  namespace 0, title matching ^Q[1-9]\\d+$), micro-batched 50 ids at a time,
  and each batch's item contents are fetched; the stream ends when the
  source is exhausted.
- readers/apireaderbase.py:20-44 — fetches retry up to 5 times with linear
  backoff ((1+attempt) * delay seconds), payloads marked 'missing' are
  dropped, and the final failure re-raises.

Sandbox shape: there is no network here, so the event source is any
iterable of event dicts — `tail_jsonl_events` provides the file-tailing
stand-in for a live SSE feed (one JSON object per line, resumable via a
byte offset). The ingestion loop itself is driver-side by design: a live
stream is a latency-bound, single-consumer head; each micro-batch is handed
to Ray Data (`micro_batches_to_dataset`) where the heavy per-item work
(projection, indexing, upsert compaction via stages/dedup.compact_by_key)
runs distributed, exactly like the delta re-run path in cli.py.
"""

from __future__ import annotations

import json
import re
import time
from collections.abc import Callable, Iterable, Iterator

ID_RE = re.compile(r"^Q[1-9]\d*$")


class FetchError(RuntimeError):
    pass


class RetryingFetcher:
    """Retry/backoff wrapper for a batch fetch callable (reference
    apireaderbase.py:20-44 semantics: `retries` attempts, linear backoff
    (1+attempt)*delay, drop payloads marked 'missing', re-raise after the
    last failure).

    `sleep` is injectable so tests assert the backoff schedule without
    waiting."""

    def __init__(
        self,
        fetch: Callable[[list[str]], list[dict]],
        retries: int = 5,
        delay: float = 5.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.fetch = fetch
        self.retries = retries
        self.delay = delay
        self.sleep = sleep

    def fetch_items(self, ids: list[str]) -> list[dict]:
        if not ids:
            return []
        last: Exception | None = None
        for attempt in range(self.retries):
            try:
                payloads = self.fetch(list(ids))
                return [p for p in payloads if "missing" not in p]
            except Exception as e:  # noqa: BLE001 - mirror reference breadth
                last = e
                if attempt < self.retries - 1:
                    self.sleep((1 + attempt) * self.delay)
        raise FetchError(f"fetch failed after {self.retries} attempts") from last


def filter_event(event: dict, wiki: str = "wikidatawiki", namespaces=(0,)) -> str | None:
    """Reference event filter (streamreader.py:55-70): same wiki, allowed
    namespace, title shaped like an entity id -> the id, else None."""
    try:
        if (
            event.get("wiki") == wiki
            and event.get("namespace") in namespaces
            and event.get("title")
            and ID_RE.match(event["title"])
        ):
            return event["title"]
    except TypeError:
        pass
    return None


class EventStreamReader:
    """Filter an event iterable and yield fetched item micro-batches of
    `batch_size` ids (reference streamreader.py:43-53: batch the id stream
    50 at a time, fetch each batch, flush the remainder when the stream
    ends)."""

    def __init__(
        self,
        events: Iterable[dict],
        fetcher: RetryingFetcher,
        batch_size: int = 50,
        wiki: str = "wikidatawiki",
        namespaces=(0,),
    ):
        self.events = events
        self.fetcher = fetcher
        self.batch_size = batch_size
        self.wiki = wiki
        self.namespaces = tuple(namespaces)

    def id_stream(self) -> Iterator[str]:
        for event in self.events:
            qid = filter_event(event, self.wiki, self.namespaces)
            if qid is not None:
                yield qid

    def __iter__(self) -> Iterator[list[dict]]:
        batch: list[str] = []
        seen_order: dict[str, None] = {}
        for qid in self.id_stream():
            if qid in seen_order:
                continue  # de-dup ids within a micro-batch (one fetch each)
            seen_order[qid] = None
            batch.append(qid)
            if len(batch) >= self.batch_size:
                yield self.fetcher.fetch_items(batch)
                batch = []
                seen_order.clear()
        if batch:
            yield self.fetcher.fetch_items(batch)


def tail_jsonl_events(path: str, offset: int = 0) -> tuple[list[dict], int]:
    """File-tailing stand-in for the SSE endpoint: read complete JSON lines
    starting at byte `offset`, return (events, new_offset). Re-calling with
    the returned offset resumes exactly after the last complete line, so an
    ingestion loop polling a growing file never re-reads or skips events."""
    events: list[dict] = []
    with open(path, "rb") as f:
        f.seek(offset)
        data = f.read()
    end = data.rfind(b"\n")
    if end < 0:
        return [], offset
    for line in data[: end + 1].splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except ValueError:
            continue  # torn/garbled line: skip, mirroring the reference
    return events, offset + end + 1


def micro_batches_to_dataset(batches: Iterable[list[dict]]):
    """Materialize fetched micro-batches as a Ray Dataset of (id, item_json)
    rows — the same shape `sources/dumpreader.py` produces, so the whole
    indexing pipeline (projection -> upsert compaction -> checkpoint) runs
    unchanged on stream deltas."""
    import pyarrow as pa

    from opentapioca_ray.stages.exchange import driver_dataset

    ids: list[str] = []
    payloads: list[str] = []
    for batch in batches:
        for item in batch:
            ids.append(str(item.get("id", "")))
            payloads.append(json.dumps(item, sort_keys=True))
    table = pa.table(
        {
            "id": pa.array(ids, type=pa.string()),
            "item_json": pa.array(payloads, type=pa.string()),
        }
    )
    return driver_dataset(table)
