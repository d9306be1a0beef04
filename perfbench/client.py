"""Socket client for the wallet service: closed, open and windowed loops.

Requests are encoded with the service's own ``encode_frame`` before a
phase starts, and responses (a 4-byte big-endian length plus a
canonical payload) are decoded after it ends, so the client's codec
work stays off the measured path and out of the sender's way. Each
codec call is still timed per request for the traced breakdown. All
loops use one connection.
"""

import socket
import struct
import threading
from time import perf_counter, sleep
from typing import Dict, List, Tuple

from repro.crypto.encoding import canonical_decode
from repro.service.transport import encode_frame

HEADER = struct.Struct(">I")


class Timings:
    """Client-side per-request records, keyed by request id."""

    def __init__(self) -> None:
        self.encode: Dict[object, float] = {}
        self.decode: Dict[object, float] = {}
        self.request_bytes: Dict[object, int] = {}
        self.response_bytes: Dict[object, int] = {}
        self.round_trip: Dict[object, float] = {}


class Connection:
    def __init__(self, port: int, timings: Timings,
                 timeout: float = 30.0) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port),
                                              timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")
        self.timings = timings

    def encode(self, request: dict) -> bytes:
        started = perf_counter()
        frame = encode_frame(request)
        rid = request.get("id")
        self.timings.encode[rid] = perf_counter() - started
        self.timings.request_bytes[rid] = len(frame)
        return frame

    def decode(self, payload: bytes) -> dict:
        started = perf_counter()
        response = canonical_decode(payload)
        rid = response.get("id")
        self.timings.decode[rid] = perf_counter() - started
        self.timings.response_bytes[rid] = HEADER.size + len(payload)
        return response

    def send(self, frame: bytes) -> None:
        self._sock.sendall(frame)

    def receive(self) -> bytes:
        """The next response payload, undecoded."""
        header = self._reader.read(HEADER.size)
        if len(header) < HEADER.size:
            raise ConnectionError("service closed the connection")
        (length,) = HEADER.unpack(header)
        payload = self._reader.read(length)
        if len(payload) < length:
            raise ConnectionError("service closed mid-frame")
        return payload

    def request(self, message: dict) -> dict:
        self.send(self.encode(message))
        return self.decode(self.receive())

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


def closed_loop(conn: Connection, requests: List[dict],
                responses: Dict[object, dict]) -> float:
    """One request in flight; returns wall seconds."""
    frames = [(r["id"], conn.encode(r)) for r in requests]
    payloads = []
    round_trip = conn.timings.round_trip
    started = perf_counter()
    for rid, frame in frames:
        sent = perf_counter()
        conn.send(frame)
        payloads.append(conn.receive())
        round_trip[rid] = perf_counter() - sent
    elapsed = perf_counter() - started
    for payload in payloads:
        response = conn.decode(payload)
        responses[response.get("id")] = response
    return elapsed


def windowed_loop(conn: Connection, requests: List[dict],
                  responses: Dict[object, dict], window: int) -> float:
    """Keep ``window`` requests in flight on one connection (saturating
    closed loop); returns the completion rate in requests/s."""
    frames = [conn.encode(r) for r in requests]
    payloads = []
    in_flight = sent = 0
    started = perf_counter()
    while sent < len(frames) or in_flight:
        while sent < len(frames) and in_flight < window:
            conn.send(frames[sent])
            sent += 1
            in_flight += 1
        payloads.append(conn.receive())
        in_flight -= 1
    elapsed = perf_counter() - started
    for payload in payloads:
        response = conn.decode(payload)
        responses[response.get("id")] = response
    return len(frames) / elapsed


def open_loop(conn: Connection, requests: List[dict], rate: float,
              responses: Dict[object, dict]
              ) -> Tuple[Dict[object, float], List[float]]:
    """Send on a fixed schedule from one thread, receive on another.

    Returns each request's latency, timed from its scheduled send time
    so a stall charges every request queued behind it, and how late the
    sender ran for each request (seconds). Each request's round trip,
    from its actual send, goes to the connection's timings.
    """
    frames = [(r["id"], conn.encode(r)) for r in requests]
    arrivals: List[Tuple[float, bytes]] = []
    failure: List[BaseException] = []

    def receiver() -> None:
        try:
            for _ in range(len(frames)):
                payload = conn.receive()
                arrivals.append((perf_counter(), payload))
        except (OSError, ConnectionError) as exc:
            failure.append(exc)

    due: Dict[object, float] = {}
    sent: Dict[object, float] = {}
    lag: List[float] = []
    thread = threading.Thread(target=receiver, name="open-loop-receiver")
    start = perf_counter() + 0.05
    thread.start()
    try:
        for index, (rid, frame) in enumerate(frames):
            scheduled = start + index / rate
            due[rid] = scheduled
            wait = scheduled - perf_counter()
            if wait > 0:
                sleep(wait)
            sent[rid] = now = perf_counter()
            lag.append(max(0.0, now - scheduled))
            conn.send(frame)
    finally:
        thread.join()
    if failure:
        raise failure[0]
    latency = {}
    round_trip = conn.timings.round_trip
    for arrived, payload in arrivals:
        response = conn.decode(payload)
        rid = response.get("id")
        responses[rid] = response
        latency[rid] = arrived - due[rid]
        round_trip[rid] = arrived - sent[rid]
    return latency, lag
