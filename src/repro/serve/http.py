"""Minimal HTTP/1.1 framing over asyncio streams.

The fleet service speaks plain HTTP/1.1 with no dependency beyond the
standard library: this module owns the wire details --
request-line/header/body parsing on the way in, status lines, JSON
envelopes, and stored files as ``Content-Length`` + sendfile bodies on
the way out -- so
:mod:`repro.serve.service` deals only in parsed :class:`HttpRequest`
objects and response helpers.

Deliberate simplifications (documented, not accidental):

* every response carries ``Connection: close`` and the server closes the
  stream after writing it -- one request per connection keeps the read
  loop trivial and costs nothing for a service whose requests are
  long-lived runs, not static assets;
* request bodies must carry ``Content-Length`` (no chunked *uploads*)
  and are capped at :data:`MAX_BODY_BYTES`;
* the request target's query string is split off and ignored by the
  router (no endpoint takes query parameters yet).
"""

from __future__ import annotations

import json
import os
from asyncio import IncompleteReadError, LimitOverrunError, StreamReader
from asyncio import StreamWriter, get_running_loop
from dataclasses import dataclass, field
from typing import Any, BinaryIO

__all__ = [
    "HttpError",
    "HttpRequest",
    "MAX_BODY_BYTES",
    "read_request",
    "send_file",
    "send_json",
]

#: Upper bound on accepted request bodies (a run request is ~200 bytes).
MAX_BODY_BYTES = 1 << 20

#: Upper bound on the request line plus headers block.
_MAX_HEADER_BYTES = 1 << 16

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request the server answers with an error status (not a bug)."""

    def __init__(
        self, status: int, message: str, *, headers: dict[str, str] | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})


@dataclass(frozen=True)
class HttpRequest:
    """One parsed request: the shape the router dispatches on."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """The body parsed as JSON (400 for syntax errors)."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from None


async def read_request(reader: StreamReader) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on a clean EOF.

    Malformed framing raises :class:`HttpError` (400/413) for the
    handler to turn into a response.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head") from None
    except LimitOverrunError:
        raise HttpError(413, "request head too large") from None
    if len(head) > _MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")
    try:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")[:-2]
        method, target, _version = request_line.split(" ", 2)
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    headers: dict[str, str] = {}
    for line in header_lines:
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    path = target.split("?", 1)[0]
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        # RFC 9110 §8.6: 1*DIGIT, so no sign, underscore or non-ASCII digit.
        if not (length_header.isascii() and length_header.isdigit()):
            raise HttpError(400, "malformed Content-Length")
        # Bound the digit count before int(), which refuses huge strings.
        digits = length_header.lstrip("0") or "0"
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            raise HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        length = int(digits)
        try:
            body = await reader.readexactly(length)
        except IncompleteReadError:
            raise HttpError(400, "truncated request body") from None
    return HttpRequest(method=method, path=path, headers=headers, body=body)


def _head(status: int, headers: dict[str, str], content_length: int) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    lines.append(f"Content-Length: {content_length}")
    lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def send_json(
    writer: StreamWriter,
    status: int,
    document: dict[str, Any],
    *,
    headers: dict[str, str] | None = None,
) -> None:
    """One complete JSON response (sorted keys, Content-Length framing)."""
    body = (json.dumps(document, sort_keys=True, default=str) + "\n").encode("utf-8")
    head = {"Content-Type": "application/json", **(headers or {})}
    writer.write(_head(status, head, len(body)) + body)
    await writer.drain()


async def send_file(
    writer: StreamWriter, handle: BinaryIO, headers: dict[str, str]
) -> None:
    """A ``200`` whose body is a whole JSONL file: ``Content-Length`` from
    ``fstat``, then one ``loop.sendfile`` (a kernel copy, no read loop)."""
    size = os.fstat(handle.fileno()).st_size
    head = {"Content-Type": "application/x-ndjson", **headers}
    writer.write(_head(200, head, size))
    await writer.drain()  # raises ConnectionResetError if the client left
    await get_running_loop().sendfile(writer.transport, handle, 0, size)


# No response uses it; bench/layers.py wraps it by name, so it stays importable.
async def send_chunk(writer: StreamWriter, data: bytes) -> None:
    if not data:
        return
    writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
    await writer.drain()
