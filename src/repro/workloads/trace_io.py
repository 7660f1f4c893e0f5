"""Portable on-disk branch-trace format with streaming I/O.

The paper's evaluation records a committed branch stream once and studies
it many times (§6); this module gives the repo the same workflow. A trace
file carries everything :func:`repro.sim.driver.simulate` needs to replay
a recorded run **bit-for-bit**, wrong-path fetch included:

* the program's **CFG structure** (blocks, pcs, uop counts, edges — no
  behaviour models), which the speculative front end traverses down both
  correct and wrong paths; and
* the **committed branch stream** — one fixed-width
  :class:`~repro.workloads.trace.BranchRecord` per architecturally
  resolved conditional branch, in commit order.

Because behaviours are, by contract, resolved exactly once per committed
branch in program order (see :mod:`repro.workloads.behaviors`), replaying
the recorded outcomes through the same CFG reproduces the live run's
every statistic, including wrong-path uops.

File layout (version 1)::

    REPROTRACE {header json}\\n      <- one uncompressed ASCII line
    <gzip stream>
        {structure json}\\n           <- CFG structure, one line
        record * record_count        <- little-endian packed, 13 B each

The header line is tiny and uncompressed, so :func:`read_trace_header`
is O(1) — spec hashing and ``trace info`` never decompress the stream.
It carries a SHA-256 **content digest** over the structure line plus all
packed records; the digest is the trace's identity in
:class:`~repro.sim.specs.ProgramSpec` hashing, so cache keys survive
renaming or moving the file. The gzip stream is written with a fixed
mtime, making equal-content traces byte-identical on disk.

Reads and writes are streaming: neither :class:`TraceWriter` nor
:class:`TraceReader` ever materialises the full record list in memory.
Malformed input of any kind — bad magic, unsupported version, truncated
or corrupt gzip data, a short record block, trailing bytes, a digest
mismatch — raises :exc:`TraceFormatError` with the offending path,
offset and expected/actual detail, never a bare ``struct`` or EOF error.

Writing and reading round-trip exactly:

>>> import os, tempfile
>>> from repro.workloads.trace import BranchRecord
>>> structure = {"name": "doc", "seed": 1, "entry": 0, "watched": [],
...              "blocks": [[0, 64, 2, "cond", 0, 0]]}
>>> path = os.path.join(tempfile.mkdtemp(), "doc.trace")
>>> with TraceWriter(path, structure) as writer:
...     writer.write(BranchRecord(pc=64, taken=True, uops=2))
...     writer.write(BranchRecord(pc=64, taken=False, uops=2))
>>> header = read_trace_header(path)
>>> (header.record_count, header.taken_count, header.total_uops)
(2, 1, 4)
>>> with TraceReader(path) as reader:
...     [record.taken for record in reader.records()]
[True, False]
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

from repro.workloads.trace import BranchRecord

#: Leads the uncompressed header line of every trace file.
TRACE_MAGIC = b"REPROTRACE"

#: Bumped on any incompatible change to the layout above.
TRACE_FORMAT_VERSION = 1

#: pc (u64), taken (u8), uops (u32) — little endian, unpadded.
_RECORD = struct.Struct("<QBI")

#: Records decoded per read; multiple of the record size.
_CHUNK_RECORDS = 4096

#: Upper bound on the uncompressed header line (it is ~300 bytes).
_MAX_HEADER_BYTES = 1 << 20


class TraceFormatError(ValueError):
    """A trace file is malformed, truncated or corrupt.

    Carries structured context so callers (and error messages) can say
    exactly what went wrong where:

    ``path``
        The offending file.
    ``offset``
        Record index (or byte offset, as stated in the message) at which
        the problem was detected.
    ``expected`` / ``actual``
        The mismatching quantities (counts, byte lengths, digests).
    ``version``
        The format version involved, when the problem is version-related.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | os.PathLike | None = None,
        offset: int | None = None,
        expected: object | None = None,
        actual: object | None = None,
        version: int | None = None,
    ) -> None:
        details = []
        if offset is not None:
            details.append(f"offset {offset}")
        if expected is not None:
            details.append(f"expected {expected!r}")
        if actual is not None:
            details.append(f"actual {actual!r}")
        if version is not None:
            details.append(f"version {version}")
        suffix = f" ({', '.join(details)})" if details else ""
        prefix = f"{os.fspath(path)}: " if path is not None else ""
        super().__init__(f"{prefix}{message}{suffix}")
        self.path = os.fspath(path) if path is not None else None
        self.offset = offset
        self.expected = expected
        self.actual = actual
        self.version = version


@dataclass(frozen=True)
class TraceHeader:
    """The O(1)-readable identity and inventory of a trace file."""

    version: int
    name: str
    record_count: int
    total_uops: int
    taken_count: int
    #: SHA-256 over the structure line + all packed records: the trace's
    #: content identity (what :class:`~repro.sim.specs.ProgramSpec` hashes).
    digest: str
    #: Optional provenance (recording profile, branch count, …).
    source: dict | None = None

    @property
    def taken_rate(self) -> float:
        """Fraction of recorded branches that were taken."""
        if self.record_count == 0:
            return 0.0
        return self.taken_count / self.record_count

    def describe(self) -> dict:
        """Flat summary for ``trace info`` and tests."""
        payload = {
            "version": self.version,
            "name": self.name,
            "records": self.record_count,
            "total_uops": self.total_uops,
            "taken_rate": round(self.taken_rate, 4),
            "digest": self.digest,
        }
        if self.source:
            payload["source"] = dict(self.source)
        return payload


def pack_record(record: BranchRecord) -> bytes:
    """Encode one record to its fixed-width wire form."""
    if record.pc < 0 or record.pc > 0xFFFFFFFFFFFFFFFF:
        raise ValueError(f"pc {record.pc:#x} does not fit an unsigned 64-bit field")
    if record.uops < 0 or record.uops > 0xFFFFFFFF:
        raise ValueError(f"uop count {record.uops} does not fit an unsigned 32-bit field")
    return _RECORD.pack(record.pc, int(record.taken), record.uops)


class TraceWriter:
    """Streams committed branch records into a trace file.

    The record stream is gzipped to a sibling temp file while counters
    and the running content digest accumulate; :meth:`close` then writes
    ``<header line> + <gzip bytes>`` to a second temp file and publishes
    it with an atomic rename. A crashed or aborted write never leaves a
    partial trace at the target path, and memory use is constant in the
    trace length. Use as a context manager: the file is published on
    clean exit and the partials removed if the block raises.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        structure: dict,
        *,
        name: str | None = None,
        source: dict | None = None,
    ) -> None:
        self.path = Path(path)
        self.name = name if name is not None else str(structure.get("name", "trace"))
        self.source = source
        self.record_count = 0
        self.total_uops = 0
        self.taken_count = 0
        #: Set by :meth:`close`; the header of the published file.
        self.header: TraceHeader | None = None
        self._digest = hashlib.sha256()
        self._body_path = self.path.with_name(self.path.name + ".body.part")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._raw: IO[bytes] | None = open(self._body_path, "wb")
        # Fixed mtime and empty filename keep equal-content traces
        # byte-identical — the digest story extends to the file itself.
        self._gz: gzip.GzipFile | None = gzip.GzipFile(
            filename="", mode="wb", fileobj=self._raw, mtime=0
        )
        structure_line = (
            json.dumps(structure, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        self._gz.write(structure_line)
        self._digest.update(structure_line)

    def write(self, record: BranchRecord) -> None:
        """Append one committed branch record."""
        if self._gz is None:
            raise ValueError("trace writer is closed")
        packed = pack_record(record)
        self._gz.write(packed)
        self._digest.update(packed)
        self.record_count += 1
        self.total_uops += record.uops
        self.taken_count += int(record.taken)

    def close(self) -> TraceHeader:
        """Finalise counters, assemble the file, publish atomically."""
        if self._gz is None:
            assert self.header is not None
            return self.header
        self._gz.close()
        self._gz = None
        assert self._raw is not None
        self._raw.close()
        self._raw = None
        header = TraceHeader(
            version=TRACE_FORMAT_VERSION,
            name=self.name,
            record_count=self.record_count,
            total_uops=self.total_uops,
            taken_count=self.taken_count,
            digest=self._digest.hexdigest(),
            source=self.source,
        )
        header_json = json.dumps(
            {
                "version": header.version,
                "name": header.name,
                "record_count": header.record_count,
                "total_uops": header.total_uops,
                "taken_count": header.taken_count,
                "digest": header.digest,
                "source": header.source,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        final_part = self.path.with_name(self.path.name + ".part")
        try:
            with open(final_part, "wb") as out:
                out.write(TRACE_MAGIC + b" " + header_json.encode("utf-8") + b"\n")
                with open(self._body_path, "rb") as body:
                    while chunk := body.read(1 << 20):
                        out.write(chunk)
            os.replace(final_part, self.path)
        except BaseException:
            _unlink_quietly(final_part)
            raise
        finally:
            _unlink_quietly(self._body_path)
        self.header = header
        return header

    def abort(self) -> None:
        """Discard everything written; leave no file behind."""
        if self._gz is not None:
            self._gz.close()
            self._gz = None
        if self._raw is not None:
            self._raw.close()
            self._raw = None
        _unlink_quietly(self._body_path)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def _unlink_quietly(path: Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


class TraceReader:
    """Streams a trace file back: header, structure, then records.

    The header is parsed eagerly (and cheaply); the gzip stream is only
    opened when :meth:`structure` or :meth:`records` is first used.
    Iterating :meth:`records` to completion verifies the record count and
    the content digest against the header; any shortfall, excess or
    mismatch raises :exc:`TraceFormatError`. Partial iteration (a replay
    shorter than the trace) performs no verification.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._raw: IO[bytes] | None = open(self.path, "rb")
        try:
            self.header = _parse_header_line(self._raw, self.path)
        except BaseException:
            self._raw.close()
            self._raw = None
            raise
        self._gz: gzip.GzipFile | None = None
        self._structure: dict | None = None
        self._structure_line: bytes | None = None

    def _open_stream(self) -> gzip.GzipFile:
        if self._raw is None:
            raise ValueError("trace reader is closed")
        if self._gz is None:
            self._gz = gzip.GzipFile(fileobj=self._raw, mode="rb")
            try:
                line = self._gz.readline(_MAX_HEADER_BYTES << 4)
            except (EOFError, OSError, zlib.error) as exc:
                raise TraceFormatError(
                    f"compressed stream is truncated or corrupt: {exc}",
                    path=self.path,
                ) from exc
            if not line.endswith(b"\n"):
                raise TraceFormatError(
                    "structure line is truncated (no terminating newline)",
                    path=self.path,
                    actual=f"{len(line)} bytes",
                )
            self._structure_line = line
            try:
                self._structure = json.loads(line)
            except ValueError as exc:
                raise TraceFormatError(
                    f"structure line is not valid JSON: {exc}", path=self.path
                ) from exc
        return self._gz

    def structure(self) -> dict:
        """The recorded program's CFG structure (decoded JSON)."""
        self._open_stream()
        assert self._structure is not None
        return self._structure

    def records(self) -> Iterator[BranchRecord]:
        """Yield every record in commit order, verifying at exhaustion."""
        stream = self._open_stream()
        assert self._structure_line is not None
        digest = hashlib.sha256(self._structure_line)
        expected = self.header.record_count
        produced = 0
        pending = b""
        while produced < expected:
            try:
                chunk = stream.read(_RECORD.size * _CHUNK_RECORDS)
            except (EOFError, OSError, zlib.error) as exc:
                raise TraceFormatError(
                    f"compressed stream is truncated or corrupt: {exc}",
                    path=self.path,
                    offset=produced,
                    expected=f"{expected} records",
                ) from exc
            if not chunk:
                raise TraceFormatError(
                    "record stream ends early",
                    path=self.path,
                    offset=produced,
                    expected=f"{expected} records",
                    actual=f"{produced} records"
                    + (f" + {len(pending)} stray bytes" if pending else ""),
                )
            pending += chunk
            usable = len(pending) - (len(pending) % _RECORD.size)
            take = min(usable, (expected - produced) * _RECORD.size)
            block, pending = pending[:take], pending[take:]
            digest.update(block)
            for pc, taken, uops in _RECORD.iter_unpack(block):
                if taken > 1:
                    raise TraceFormatError(
                        "corrupt record: taken flag out of range",
                        path=self.path,
                        offset=produced,
                        expected="0 or 1",
                        actual=taken,
                    )
                produced += 1
                yield BranchRecord(pc=pc, taken=bool(taken), uops=uops)
        if pending or stream.read(1):
            raise TraceFormatError(
                "trailing data after the final record",
                path=self.path,
                offset=produced,
                expected=f"{expected} records",
            )
        if digest.hexdigest() != self.header.digest:
            raise TraceFormatError(
                "content digest mismatch (file tampered or corrupt)",
                path=self.path,
                expected=self.header.digest,
                actual=digest.hexdigest(),
            )

    def __iter__(self) -> Iterator[BranchRecord]:
        return self.records()

    def close(self) -> None:
        if self._gz is not None:
            self._gz.close()
            self._gz = None
        if self._raw is not None:
            self._raw.close()
            self._raw = None

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _parse_header_line(handle: IO[bytes], path: Path) -> TraceHeader:
    line = handle.readline(_MAX_HEADER_BYTES)
    if not line.startswith(TRACE_MAGIC + b" "):
        raise TraceFormatError(
            "not a repro trace file (bad magic)",
            path=path,
            expected=TRACE_MAGIC.decode(),
            actual=line[: len(TRACE_MAGIC)].decode("ascii", "replace"),
        )
    if not line.endswith(b"\n"):
        raise TraceFormatError(
            "header line is truncated (no terminating newline)", path=path
        )
    try:
        payload = json.loads(line[len(TRACE_MAGIC) + 1 :])
        version = int(payload["version"])
        if version != TRACE_FORMAT_VERSION:
            raise TraceFormatError(
                "unsupported trace format version",
                path=path,
                expected=TRACE_FORMAT_VERSION,
                actual=version,
                version=version,
            )
        return TraceHeader(
            version=version,
            name=str(payload["name"]),
            record_count=int(payload["record_count"]),
            total_uops=int(payload["total_uops"]),
            taken_count=int(payload["taken_count"]),
            digest=str(payload["digest"]),
            source=payload.get("source"),
        )
    except TraceFormatError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise TraceFormatError(
            f"header json is malformed: {exc}", path=path
        ) from exc


#: Parsed headers keyed by path, guarded by a (size, mtime_ns, inode)
#: stat signature. Sweep workers consult a trace cell's header for its
#: content digest on every cell; the memo turns that into one stat call
#: instead of an open + parse. A rewritten file changes its signature
#: and is re-read, so the cache can never serve a stale header.
_HEADER_CACHE: dict[str, tuple[tuple[int, int, int], TraceHeader]] = {}


def read_trace_header(path: str | os.PathLike, use_cache: bool = True) -> TraceHeader:
    """Read just the header — O(1), no decompression (memoized by stat)."""
    name = os.fspath(path)
    signature = None
    if use_cache:
        try:
            stat = os.stat(name)
            signature = (stat.st_size, stat.st_mtime_ns, stat.st_ino)
        except OSError:
            signature = None  # let open() below raise the real error
        cached = _HEADER_CACHE.get(name)
        if cached is not None and signature is not None and cached[0] == signature:
            return cached[1]
    with open(name, "rb") as handle:
        header = _parse_header_line(handle, Path(name))
    if signature is not None:
        _HEADER_CACHE[name] = (signature, header)
    return header


def verify_trace(path: str | os.PathLike) -> TraceHeader:
    """Stream the whole file, checking count and digest; return the header.

    Raises :exc:`TraceFormatError` on any inconsistency.
    """
    with TraceReader(path) as reader:
        for _ in reader.records():
            pass
        return reader.header
