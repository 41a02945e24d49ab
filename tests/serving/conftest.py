"""Shared fixtures for the serving-layer tests.

The comment feed interleaves records across items round-robin (newest
page of every item, then the next page, ...), which is what a recurring
crawl of a live platform produces -- items grow gradually instead of
arriving fully formed.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import time

import pytest

from repro.analysis.adapters import comment_records_for_item
from repro.collector.records import CommentRecord


def interleaved_feed(platform, n_items: int = 25) -> list[CommentRecord]:
    """Round-robin comment feed over the platform's busiest items."""
    items = sorted(
        platform.items, key=lambda i: len(i.comments), reverse=True
    )[:n_items]
    per_item = [comment_records_for_item(platform, item) for item in items]
    feed: list[CommentRecord] = []
    depth = max(len(records) for records in per_item)
    for level in range(depth):
        for records in per_item:
            if level < len(records):
                feed.append(records[level])
    return feed


def keepalive_median_ms(
    host: str, port: int, method: str, path: str, body=None, n: int = 20
) -> float:
    """Median round trip of *n* sequential requests on ONE connection.

    A keep-alive client is where a Nagle/delayed-ACK stall shows: the
    server's body write waits for the ACK of its header write, which
    the client delays by ~40 ms.
    """
    conn = http.client.HTTPConnection(host, port, timeout=30)
    payload = json.dumps(body) if body is not None else None
    samples = []
    try:
        for _ in range(n):
            started = time.perf_counter()
            conn.request(
                method,
                path,
                body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
            samples.append((time.perf_counter() - started) * 1000)
            assert response.status == 200, (method, path, response.status)
    finally:
        conn.close()
    return statistics.median(samples)


def post_declaring_length(
    host: str, port: int, path: str, length: int
) -> tuple[int, dict[str, str], bytes]:
    """POST headers declaring a *length*-byte body, send no body, and
    read until the server closes: ``(status, headers, body)``.

    A server that tries to read the declared body blocks and the read
    times out, so a missing body cap fails the caller instead of
    hanging it.
    """
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n".encode("ascii")
        )
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), headers, body


@pytest.fixture(scope="session")
def feed(taobao_platform) -> list[CommentRecord]:
    return interleaved_feed(taobao_platform)


@pytest.fixture(scope="session")
def feed_item_ids(feed) -> list[int]:
    return sorted({record.item_id for record in feed})
