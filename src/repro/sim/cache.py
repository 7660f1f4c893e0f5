"""Content-addressed result cache for sweep cells, over pluggable backends.

Results are keyed by :meth:`repro.sim.specs.SweepCell.content_hash` — a
SHA-256 over the cell's *content* (system spec, resolved workload
profile, simulation config, format version). Because every cell is
deterministic in its spec, a hit can be substituted for a run without
changing a single bit of the sweep's outcome; the differential tests in
``tests/sim/test_execution.py`` enforce exactly that.

The *codec* (result ↔ JSON document) and the validation of fetched
entries live in :class:`ResultCache`; *where the bytes go* is a
:class:`CacheBackend`:

* :class:`LocalDirBackend` — today's on-disk layout, byte for byte:
  ``<root>/<key[:2]>/<key>.json``, one small JSON document per cell,
  written atomically (temp file + ``os.replace``) so a crashed or
  interrupted sweep never leaves a truncated entry. Pre-refactor cache
  directories keep hitting unchanged
  (``tests/serve/test_differential_local_backend.py`` pins the bytes).
* :class:`HTTPBackend` — speaks ``GET/PUT /cache/<key>`` to a running
  sweep daemon (:mod:`repro.serve`), so several daemons on several
  machines can shard one cache. Cell hashes are machine-independent
  (trace digests, not paths), which is what makes the remote share
  sound.
* :class:`TieredBackend` — local over remote: reads prefer the local
  tier and write remote hits through; writes land locally and are
  mirrored to the remote best-effort (a dead peer degrades throughput,
  never correctness).

Reads treat any malformed, mismatched or unreachable entry as a miss.
Every backend is therefore safe to share between concurrent sweeps and
to delete wholesale at any time; :func:`cache_from_url` builds the
backend stack from one ``--cache-url`` string.

Hardening (PR 10, proven by the seeded chaos suite in
``tests/faults/``): entries carry an integrity ``checksum`` verified on
read — a corrupt entry is *evicted* (``CacheBackend.discard``) and
recomputed, never served and never fatal; :class:`HTTPBackend` retries
transient peer trouble under a :class:`~repro.faults.policy.RetryPolicy`;
:class:`TieredBackend` stops hammering a dead hub behind a
:class:`~repro.faults.policy.CircuitBreaker` and probes for recovery.
The policies live in :mod:`repro.faults.policy` because they are about
wall time, which REP001 bans from ``sim/`` itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

from repro.faults.policy import CircuitBreaker, RetryPolicy

from repro.core.critiques import CritiqueCensus, CritiqueKind
from repro.sim.metrics import RunStats
from repro.sim.specs import SPEC_FORMAT_VERSION

if TYPE_CHECKING:  # pipeline imports sim.driver; keep the runtime DAG acyclic
    from repro.pipeline.machine import PipelineResult

#: Schema version of the cached payloads themselves.
CACHE_SCHEMA_VERSION = 1

#: Cache keys are SHA-256 hex digests; backends validate before touching
#: storage (the HTTP server additionally refuses anything else, so a key
#: can never become a path traversal).
_KEY_RE = re.compile(r"^[0-9a-f]{64}$")

_RUNSTATS_COUNTERS = (
    "branches",
    "committed_uops",
    "mispredicts",
    "prophet_mispredicts",
    "static_branches",
    "forced_critiques",
    "critic_redirects",
    "fetched_uops",
    "taken_branches",
)

_PIPELINE_COUNTERS = (
    "cycles",
    "committed_uops",
    "fetched_uops",
    "branches",
    "mispredicts",
    "critic_redirects",
    "ftq_empty_cycles",
)


def stats_to_dict(stats: RunStats) -> dict:
    """Serialise a :class:`RunStats` to a JSON-safe dict (lossless)."""
    payload: dict = {
        "benchmark": stats.benchmark,
        "system": stats.system,
        "census": stats.census.as_dict(),
    }
    for name in _RUNSTATS_COUNTERS:
        payload[name] = getattr(stats, name)
    if stats.per_site is not None:
        payload["per_site"] = {str(pc): row for pc, row in stats.per_site.items()}
    return payload


def stats_from_dict(payload: dict) -> RunStats:
    """Rebuild a :class:`RunStats` from :func:`stats_to_dict` output."""
    stats = RunStats(benchmark=payload["benchmark"], system=payload["system"])
    for name in _RUNSTATS_COUNTERS:
        setattr(stats, name, int(payload[name]))
    stats.census = CritiqueCensus(
        counts={kind: int(payload["census"][kind.value]) for kind in CritiqueKind}
    )
    if "per_site" in payload:
        stats.per_site = {
            int(pc): [int(v) for v in row] for pc, row in payload["per_site"].items()
        }
    return stats


def pipeline_to_dict(result: "PipelineResult") -> dict:
    """Serialise a :class:`PipelineResult` (timing cells) to a dict."""
    payload: dict = {"benchmark": result.benchmark, "system": result.system}
    for name in _PIPELINE_COUNTERS:
        payload[name] = getattr(result, name)
    return payload


def pipeline_from_dict(payload: dict) -> "PipelineResult":
    from repro.pipeline.machine import PipelineResult

    result = PipelineResult(benchmark=payload["benchmark"], system=payload["system"])
    for name in _PIPELINE_COUNTERS:
        setattr(result, name, int(payload[name]))
    return result


def encode_result(result: "RunStats | PipelineResult") -> dict:
    """Wrap a cell result with its type tag and schema versions."""
    from repro.pipeline.machine import PipelineResult

    if isinstance(result, RunStats):
        return {"type": "accuracy", "payload": stats_to_dict(result)}
    if isinstance(result, PipelineResult):
        return {"type": "timing", "payload": pipeline_to_dict(result)}
    raise TypeError(f"uncacheable result type {type(result).__name__}")


def decode_result(document: dict) -> "RunStats | PipelineResult":
    if document["type"] == "accuracy":
        return stats_from_dict(document["payload"])
    if document["type"] == "timing":
        return pipeline_from_dict(document["payload"])
    raise ValueError(f"unknown cached result type {document['type']!r}")


def clone_result(result: "RunStats | PipelineResult") -> "RunStats | PipelineResult":
    """An independent copy of a cell result, via the cache's own codec.

    The duplicate-cell path needs a copy it can stamp with different
    display labels. Round-tripping the lossless dict codec is both much
    cheaper than ``copy.deepcopy`` (which walks every nested object) and
    guaranteed to agree with what a cache hit for the same cell would
    return — one reconstruction path, not two.
    """
    return decode_result(encode_result(result))


class CacheBackendError(OSError):
    """A backend could not reach its storage (bad key, dead peer, HTTP 5xx).

    Subclasses :class:`OSError` deliberately: :meth:`ResultCache.get`
    already treats I/O trouble as a miss, and network trouble is the
    same advisory condition — a cache read that cannot complete is a
    miss, never corruption. Writes still surface it (a sweep should not
    silently stop recording results).
    """


def _check_key(key: str) -> str:
    if not _KEY_RE.fullmatch(key):
        raise CacheBackendError(f"malformed cache key {key!r} (want 64 hex chars)")
    return key


class CacheBackend:
    """Where cache entries' bytes live. Keys are SHA-256 hex digests.

    Backends store and fetch *opaque bytes*; the codec, schema stamps and
    entry validation stay in :class:`ResultCache`, so every backend is
    trivially interchangeable and a corrupt or truncated entry from any
    of them decodes to a miss, never a wrong result.
    """

    def get_bytes(self, key: str) -> bytes | None:
        """The entry's bytes, or None on miss. May raise CacheBackendError."""
        raise NotImplementedError

    def put_bytes(self, key: str, data: bytes) -> None:
        """Store an entry (atomic, last-writer-wins per key)."""
        raise NotImplementedError

    def discard(self, key: str) -> None:
        """Best-effort removal of a (corrupt) entry; default no-op.

        Called by the read path when an entry fails integrity checks, so
        the next reader recomputes instead of re-tripping on the same
        bytes. Advisory: failure to discard must never fail a run.
        """

    def location(self) -> str:
        """Human-readable description of where entries live (CLI stats)."""
        raise NotImplementedError


class LocalDirBackend(CacheBackend):
    """Today's on-disk layout: ``<root>/<key[:2]>/<key>.json``.

    Byte-compatible with the pre-backend :class:`ResultCache`: entries
    written by either are indistinguishable on disk, so existing cache
    directories keep hitting (pinned by the differential test in
    ``tests/serve/test_differential_local_backend.py``). Writes are
    atomic (temp file + ``os.replace`` in the destination directory).
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (two-level fan-out)."""
        return self.root / key[:2] / f"{key}.json"

    def get_bytes(self, key: str) -> bytes | None:
        _check_key(key)
        try:
            return self.path_for(key).read_bytes()
        except OSError:
            return None

    def put_bytes(self, key: str, data: bytes) -> None:
        _check_key(key)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def discard(self, key: str) -> None:
        _check_key(key)
        try:
            self.path_for(key).unlink()
        except OSError:
            pass  # already gone or unremovable: both fine, it's advisory

    def location(self) -> str:
        return str(self.root)

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))


class HTTPBackend(CacheBackend):
    """Remote tier: ``GET/PUT /cache/<key>`` against a sweep daemon.

    One short-lived connection per operation (``Connection: close``), so
    the backend is trivially picklable across pool workers and needs no
    lock. A 404 is a miss; any other failure (refused connection, 5xx,
    short body) raises :class:`CacheBackendError` — after bounded
    retries with deterministic jitter (``retry``), because one dropped
    packet should not cost a recompute. Reads treat the final error as
    a miss and writes surface it.
    """

    #: Default bounded backoff: three tries, ~0.15 s worst-case sleep.
    DEFAULT_RETRY = RetryPolicy(attempts=3, base_delay=0.05, max_delay=1.0)

    def __init__(
        self,
        url: str,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        # http.client and urllib.parse load here, not with the module:
        # http.client pulls in ssl and email, which every importer of
        # repro.sim.batched would otherwise pay for at startup.
        import urllib.parse

        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme not in ("http",):
            raise ValueError(f"HTTPBackend needs an http:// URL, got {url!r}")
        if not parsed.hostname:
            raise ValueError(f"HTTPBackend URL has no host: {url!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.prefix = parsed.path.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else self.DEFAULT_RETRY

    def _url(self) -> str:
        return f"http://{self.host}:{self.port}{self.prefix}"

    def _request(self, method: str, key: str, body: bytes | None = None):
        import http.client

        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            headers = {"Connection": "close"}
            if body is not None:
                headers["Content-Type"] = "application/json"
            connection.request(method, f"{self.prefix}/cache/{key}", body=body, headers=headers)
            response = connection.getresponse()
            data = response.read()
            return response.status, data
        except OSError as exc:
            raise CacheBackendError(
                f"cache peer {self._url()} unreachable: {exc}"
            ) from exc
        finally:
            connection.close()

    def get_bytes(self, key: str) -> bytes | None:
        _check_key(key)

        def attempt() -> bytes | None:
            status, data = self._request("GET", key)
            if status == 404:
                return None
            if status != 200:
                raise CacheBackendError(
                    f"cache peer {self._url()} answered HTTP {status} on GET {key[:12]}…"
                )
            return data

        return self.retry.call(attempt, retry_on=CacheBackendError, token=f"get:{key}")

    def put_bytes(self, key: str, data: bytes) -> None:
        _check_key(key)

        def attempt() -> None:
            # PUT of content-addressed bytes is idempotent, so retrying
            # after an ambiguous failure can never double-apply.
            status, _ = self._request("PUT", key, body=data)
            if status not in (200, 201, 204):
                raise CacheBackendError(
                    f"cache peer {self._url()} answered HTTP {status} on PUT {key[:12]}…"
                )

        self.retry.call(attempt, retry_on=CacheBackendError, token=f"put:{key}")

    def discard(self, key: str) -> None:
        _check_key(key)
        try:
            self._request("DELETE", key)
        except CacheBackendError:
            pass  # advisory; an unreachable or pre-PR-10 peer is fine

    def location(self) -> str:
        return self._url()


class TieredBackend(CacheBackend):
    """Local tier over a remote tier (the multi-daemon sharding shape).

    Reads prefer the local tier; a remote hit is written through locally
    so the next read is one file open. Writes land locally first (the
    correctness tier) and are mirrored to the remote *best-effort*: a
    dead or lagging peer costs shared hits, never a failed sweep. Remote
    read trouble likewise degrades to a miss.

    A :class:`~repro.faults.policy.CircuitBreaker` guards the remote
    tier: after a few consecutive failures the circuit opens and remote
    ops are skipped outright (a dead hub costs microseconds, not a
    connect timeout per cell), with periodic half-open probes so a
    recovered hub is re-detected without operator action. Breaker state
    is per process — a pickled copy in a pool worker trips on its own
    evidence, which is the behaviour a shared-nothing pool wants.
    """

    def __init__(
        self,
        local: CacheBackend,
        remote: CacheBackend,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.local = local
        self.remote = remote
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        #: Remote ops skipped while the circuit was open (telemetry).
        self.remote_skipped = 0

    def get_bytes(self, key: str) -> bytes | None:
        data = self.local.get_bytes(key)
        if data is not None:
            return data
        if not self.breaker.allow():
            self.remote_skipped += 1
            return None
        try:
            data = self.remote.get_bytes(key)
        except CacheBackendError:
            self.breaker.record_failure()
            return None
        self.breaker.record_success()
        if data is not None:
            self.local.put_bytes(key, data)
        return data

    def put_bytes(self, key: str, data: bytes) -> None:
        self.local.put_bytes(key, data)
        if not self.breaker.allow():
            self.remote_skipped += 1
            return
        try:
            self.remote.put_bytes(key, data)
        except CacheBackendError:
            self.breaker.record_failure()
            return  # peer down: local tier already holds the truth
        self.breaker.record_success()

    def discard(self, key: str) -> None:
        # Local only: the corruption was observed on *our* read path; if
        # the remote copy is good, the next local miss re-fetches it,
        # and if it is the corrupt source, the recompute's put_bytes
        # overwrites both tiers anyway.
        self.local.discard(key)

    def location(self) -> str:
        return f"tiered({self.local.location()} over {self.remote.location()})"

    def __len__(self) -> int:
        # Only the local tier is enumerable in general (the remote may be
        # another machine's disk); documented as the local entry count.
        return len(self.local)  # type: ignore[arg-type]


def cache_from_url(url: str | os.PathLike) -> CacheBackend:
    """Build a backend stack from one ``--cache-url`` string.

    * ``http://host:port[/prefix]`` — :class:`HTTPBackend` against a
      running daemon's ``/cache`` endpoints;
    * ``tiered:<local-dir>|<url>`` — :class:`TieredBackend` with a local
      directory over any other URL this function understands;
    * ``file://<path>`` or a plain path — :class:`LocalDirBackend`.

    >>> cache_from_url("/tmp/c").location()
    '/tmp/c'
    >>> cache_from_url("tiered:/tmp/c|http://127.0.0.1:9/x").location()
    'tiered(/tmp/c over http://127.0.0.1:9/x)'
    """
    text = os.fspath(url)
    if text.startswith(("http://", "https://")):
        return HTTPBackend(text)
    if text.startswith("tiered:"):
        rest = text[len("tiered:"):]
        local_part, sep, remote_part = rest.partition("|")
        if not sep or not local_part or not remote_part:
            raise ValueError(
                f"tiered cache URL must look like 'tiered:<local-dir>|<remote-url>', got {text!r}"
            )
        return TieredBackend(LocalDirBackend(local_part), cache_from_url(remote_part))
    if text.startswith("file://"):
        text = text[len("file://"):]
    return LocalDirBackend(text)


#: Schema version of persisted architectural-trace columns. Bump on any
#: change to the RTRC layout below; old entries then read as misses.
#: v2 (PR 10): a 16-byte truncated SHA-256 over the body follows the
#: header, so byte-level corruption is detected instead of silently
#: decoding into wrong columns.
TRACE_SCHEMA_VERSION = 2

_TRACE_MAGIC = b"RTRC"

#: Bytes of SHA-256 digest embedded in a v2 trace entry.
_TRACE_DIGEST_LEN = 16


def trace_cache_key(build_key: str) -> str:
    """Cache key for a program's architectural-trace columns.

    Domain-separated from result entries (same 64-hex namespace, same
    backends) by hashing a ``trace`` tag and the schema version alongside
    the program's build key, so a trace entry can never collide with a
    cell result and a schema bump retires old entries wholesale.
    """
    material = f"trace:{TRACE_SCHEMA_VERSION}:{build_key}".encode("utf-8")
    return hashlib.sha256(material).hexdigest()


def encode_trace_columns(n: int, cols) -> bytes:
    """Serialise ``(t_pc, t_tk, t_uops, t_tt, t_ft, t_snap)`` to bytes.

    Fixed-width little-endian arrays for the scalar columns and a
    (depth, block-ids...) run per branch for the RAS snapshots — compact
    enough to ship over the HTTP backend and decodes in microseconds,
    which is the point: a hit must be much cheaper than the CFG walk.
    """
    import struct
    from array import array

    t_pc, t_tk, t_uops, t_tt, t_ft, t_snap = cols
    body = [
        array("q", t_pc[:n]).tobytes(),
        bytes(bytearray(t_tk[:n])),
        array("q", t_uops[:n]).tobytes(),
        array("q", t_tt[:n]).tobytes(),
        array("q", t_ft[:n]).tobytes(),
        bytes(bytearray(len(s) for s in t_snap[:n])),
    ]
    flat = array("I")
    for s in t_snap[:n]:
        flat.extend(s)
    body.append(struct.pack("<I", len(flat)))
    body.append(flat.tobytes())
    body_bytes = b"".join(body)
    digest = hashlib.sha256(body_bytes).digest()[:_TRACE_DIGEST_LEN]
    return b"".join(
        [_TRACE_MAGIC, struct.pack("<II", TRACE_SCHEMA_VERSION, n), digest, body_bytes]
    )


def decode_trace_columns(data: bytes):
    """Inverse of :func:`encode_trace_columns`: ``(n, cols)`` or ValueError."""
    import struct
    from array import array

    if data[:4] != _TRACE_MAGIC:
        raise ValueError("not a trace-column entry")
    try:
        version, n = struct.unpack_from("<II", data, 4)
    except struct.error as exc:
        # struct.error is not a ValueError subclass; a record truncated
        # inside the header must still take the corrupt-eviction path.
        raise ValueError("short trace entry") from exc
    if version != TRACE_SCHEMA_VERSION:
        raise ValueError(f"trace schema {version} != {TRACE_SCHEMA_VERSION}")
    digest = data[12:12 + _TRACE_DIGEST_LEN]
    if len(digest) != _TRACE_DIGEST_LEN:
        raise ValueError("short trace entry")
    body = data[12 + _TRACE_DIGEST_LEN:]
    if hashlib.sha256(body).digest()[:_TRACE_DIGEST_LEN] != digest:
        raise ValueError("trace entry digest mismatch (corrupt bytes)")
    off = 12 + _TRACE_DIGEST_LEN

    def _ints(count):
        nonlocal off
        out = array("q")
        out.frombytes(data[off:off + 8 * count])
        if len(out) != count:
            raise ValueError("short trace entry")
        off += 8 * count
        return out.tolist()

    t_pc = _ints(n)
    t_tk = [b != 0 for b in data[off:off + n]]
    if len(t_tk) != n:
        raise ValueError("short trace entry")
    off += n
    t_uops = _ints(n)
    t_tt = _ints(n)
    t_ft = _ints(n)
    depths = data[off:off + n]
    if len(depths) != n:
        raise ValueError("short trace entry")
    off += n
    try:
        (flat_len,) = struct.unpack_from("<I", data, off)
    except struct.error as exc:
        raise ValueError("short trace entry") from exc
    off += 4
    flat = array("I")
    flat.frombytes(data[off:off + 4 * flat_len])
    if len(flat) != flat_len:
        raise ValueError("short trace entry")
    t_snap = [()] * n
    pos = 0
    for i, depth in enumerate(depths):
        t_snap[i] = tuple(flat[pos:pos + depth])
        pos += depth
    if pos != flat_len:
        raise ValueError("trace snapshot lengths disagree with payload")
    return n, (t_pc, t_tk, t_uops, t_tt, t_ft, t_snap)


class TraceColumnStore:
    """Persistent architectural-trace columns over a :class:`CacheBackend`.

    One entry per program ``build_key``, holding the *longest* trace
    built so far; because the architectural stream is prefix-stable in
    the branch count, that single entry serves every shorter request as
    a slice (the kernel side already slices). ``put`` never shortens an
    existing entry, so concurrent writers converge on the longest
    prefix. All read trouble — missing, corrupt, stale schema,
    unreachable peer — degrades to a miss and a fresh CFG walk.
    """

    def __init__(self, backend: CacheBackend) -> None:
        self.backend = backend
        self.hits = 0
        self.misses = 0
        #: Entries evicted because their bytes failed to decode/verify.
        self.corrupt_evictions = 0

    def get(self, build_key: str, n: int):
        """``(stored_n, cols)`` with ``stored_n >= n``, or None."""
        key = trace_cache_key(build_key)
        try:
            data = self.backend.get_bytes(key)
            if data is None:
                self.misses += 1
                return None
            stored_n, cols = decode_trace_columns(data)
        except ValueError:
            # Undecodable bytes (corruption, digest mismatch): evict so
            # the recomputed columns replace them instead of every
            # future reader re-tripping on the same entry.
            self.corrupt_evictions += 1
            self.backend.discard(key)
            self.misses += 1
            return None
        except OSError:
            self.misses += 1
            return None
        if stored_n < n:
            self.misses += 1
            return None
        self.hits += 1
        return stored_n, cols

    def put(self, build_key: str, n: int, cols) -> None:
        """Persist ``cols`` unless a longer entry already exists."""
        key = trace_cache_key(build_key)
        try:
            existing = self.backend.get_bytes(key)
            if existing is not None and decode_trace_columns(existing)[0] >= n:
                return
        except (OSError, ValueError):
            pass  # unreadable entry: overwrite it
        try:
            self.backend.put_bytes(key, encode_trace_columns(n, cols))
        except CacheBackendError:
            pass  # advisory tier: a dead peer never fails a run


class ResultCache:
    """Content-addressed store of cell results over a :class:`CacheBackend`.

    ``ResultCache(path)`` keeps the historical constructor — a local
    directory in today's layout; pass any :class:`CacheBackend` (or use
    :meth:`from_url`) to put the same validated codec over a remote or
    tiered store. Malformed, stale-format and unreachable entries all
    read as misses.
    """

    def __init__(self, root: str | os.PathLike | CacheBackend) -> None:
        self.backend = root if isinstance(root, CacheBackend) else LocalDirBackend(root)
        #: Telemetry for the current process (reported by the CLI).
        self.hits = 0
        self.misses = 0
        #: Entries evicted because their bytes failed to parse or their
        #: integrity checksum disagreed (chaos-report telemetry).
        self.corrupt_evictions = 0

    @staticmethod
    def from_url(url: str | os.PathLike) -> "ResultCache":
        """A cache over whatever backend ``--cache-url`` denotes."""
        return ResultCache(cache_from_url(url))

    @property
    def root(self):
        """The local root path (local backends) or a location string."""
        if isinstance(self.backend, LocalDirBackend):
            return self.backend.root
        return self.backend.location()

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (local-directory backends)."""
        if not isinstance(self.backend, LocalDirBackend):
            raise TypeError(
                f"cache backend {self.backend.location()!r} has no local paths"
            )
        return self.backend.path_for(key)

    def get(self, key: str) -> RunStats | PipelineResult | None:
        """Fetch a result, or None on miss / stale format / corruption.

        Never crashes and never serves bad bytes: an entry that fails to
        parse, whose integrity ``checksum`` disagrees, or whose ``key``
        field does not match is *evicted* (best-effort
        :meth:`CacheBackend.discard`) and reads as a miss, so the caller
        recomputes and the recompute's ``put`` replaces the bytes. The
        ``checksum`` field is optional on read — pre-PR-10 entries keep
        hitting — while stale schema/format stamps stay plain misses
        (retired, not destroyed).
        """
        try:
            data = self.backend.get_bytes(key)
        except OSError:
            self.misses += 1
            return None
        if data is None:
            self.misses += 1
            return None
        try:
            document = json.loads(data.decode("utf-8"))
            if not isinstance(document, dict):
                raise ValueError("cache entry is not a JSON object")
            stored_checksum = document.pop("checksum", None)
            if stored_checksum is not None and stored_checksum != entry_checksum(
                document
            ):
                raise ValueError("cache entry checksum mismatch")
            if document.get("key") != key:
                raise ValueError("cache entry key mismatch")
            if (
                document.get("cache_schema") != CACHE_SCHEMA_VERSION
                or document.get("spec_format") != SPEC_FORMAT_VERSION
            ):
                self.misses += 1
                return None
            result = decode_result(document)
        except (ValueError, KeyError, TypeError):
            self.corrupt_evictions += 1
            try:
                self.backend.discard(key)
            except OSError:
                pass  # advisory: eviction failing must not fail the read
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: RunStats | PipelineResult) -> None:
        """Store a result atomically (last writer wins, all writers agree).

        Best-effort: a backend that cannot take the write (full disk,
        dead peer, injected transient) costs a future cache miss, never
        the freshly computed result — the error is degraded, not raised.
        """
        try:
            self.backend.put_bytes(key, serialize_entry(key, result))
        except OSError as exc:
            from repro.faults.handling import degrade

            degrade(exc, f"caching result {key[:12]}…")

    def __len__(self) -> int:
        return len(self.backend)  # type: ignore[arg-type]


def entry_checksum(document: dict) -> str:
    """Integrity checksum over an entry document (sans ``checksum``).

    SHA-256 of the document's canonical bytes — the same compact
    separators and insertion order :func:`serialize_entry` writes, which
    a JSON round-trip preserves, so reader and writer always hash the
    same bytes.
    """
    canonical = json.dumps(document, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def serialize_entry(key: str, result: "RunStats | PipelineResult") -> bytes:
    """The canonical entry bytes for ``key`` — every backend stores these.

    Deterministic in (key, result): same compact separators and field
    order as every cache since PR 1, so all writers of a key agree byte
    for byte and racing ``put``\\ s are unobservable. The trailing
    ``checksum`` field (PR 10) covers every preceding field; readers
    verify it when present and evict on mismatch, so a flipped bit in
    any offset class — header, digest, payload — is detected, while
    checksum-less pre-PR-10 entries keep hitting.
    """
    document = encode_result(result)
    document["key"] = key
    document["cache_schema"] = CACHE_SCHEMA_VERSION
    document["spec_format"] = SPEC_FORMAT_VERSION
    document["checksum"] = entry_checksum(document)
    return json.dumps(document, separators=(",", ":")).encode("utf-8")
