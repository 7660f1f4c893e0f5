"""The pluggable cache backends: local, HTTP, tiered, and URL parsing.

:class:`~repro.sim.cache.ResultCache` now puts one validated codec over
interchangeable byte stores. These tests pin each backend's contract —
atomicity, miss-vs-error semantics, write-through, degradation with a
dead peer — and the ``--cache-url`` grammar that assembles them. The
HTTP tier runs against a **live daemon's** ``/cache`` endpoints, not a
mock.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve import ServeConfig, start_daemon
from repro.sim import ResultCache, SimulationConfig, run_cell
from repro.sim.cache import (
    CacheBackendError,
    HTTPBackend,
    LocalDirBackend,
    TieredBackend,
    cache_from_url,
    serialize_entry,
    stats_to_dict,
)
from repro.sim.specs import ProgramSpec, SweepCell, SystemSpec

CONFIG = SimulationConfig(n_branches=1200, warmup=240)


@pytest.fixture(scope="module")
def entry():
    """One canonical (key, bytes, result) triple for byte-level checks."""
    cell = SweepCell(
        "gshare", "swim", SystemSpec.single("gshare", 2),
        ProgramSpec(benchmark="swim"), CONFIG,
    )
    key = cell.content_hash()
    result = run_cell(cell)
    return key, serialize_entry(key, result), result


class TestLocalDirBackend:
    def test_roundtrip_and_layout(self, tmp_path, entry):
        key, data, _ = entry
        backend = LocalDirBackend(tmp_path)
        assert backend.get_bytes(key) is None
        backend.put_bytes(key, data)
        assert backend.get_bytes(key) == data
        # two-level fan-out, exactly as every cache since PR 1
        assert backend.path_for(key) == tmp_path / key[:2] / f"{key}.json"
        assert backend.path_for(key).read_bytes() == data
        assert len(backend) == 1

    def test_malformed_key_rejected_before_touching_disk(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        for bad in ("", "abc", "../../../../etc/passwd", "A" * 64, "g" * 64):
            with pytest.raises(CacheBackendError):
                backend.get_bytes(bad)
            with pytest.raises(CacheBackendError):
                backend.put_bytes(bad, b"x")

    def test_unreadable_entry_is_a_miss(self, tmp_path, entry):
        key, data, _ = entry
        backend = LocalDirBackend(tmp_path)
        backend.put_bytes(key, data)
        backend.path_for(key).unlink()
        assert backend.get_bytes(key) is None


class TestHTTPBackendAgainstLiveDaemon:
    @pytest.fixture
    def served(self, tmp_path):
        handle = start_daemon(
            ServeConfig(port=0, cache_url=str(tmp_path / "hub"))
        )
        yield handle
        handle.stop()

    def test_roundtrip_through_daemon(self, served, entry):
        key, data, _ = entry
        backend = HTTPBackend(served.url)
        assert backend.get_bytes(key) is None  # 404 → miss
        backend.put_bytes(key, data)
        assert backend.get_bytes(key) == data
        # ...and the daemon's local tier holds the same bytes on disk.
        assert served.daemon.cache.backend.get_bytes(key) == data

    def test_malformed_key_is_an_error_not_a_request(self, served):
        backend = HTTPBackend(served.url)
        with pytest.raises(CacheBackendError):
            backend.get_bytes("nope")

    def test_dead_peer_raises_backend_error(self, entry):
        key, data, _ = entry
        backend = HTTPBackend("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(CacheBackendError):
            backend.get_bytes(key)
        with pytest.raises(CacheBackendError):
            backend.put_bytes(key, data)

    def test_result_cache_treats_dead_peer_reads_as_miss(self, entry):
        """ResultCache.get over an unreachable remote: miss, not crash."""
        key, _, _ = entry
        cache = ResultCache(HTTPBackend("http://127.0.0.1:9", timeout=2.0))
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError):
            HTTPBackend("ftp://host/x")
        with pytest.raises(ValueError):
            HTTPBackend("http://")


class TestTieredBackend:
    def test_remote_hit_writes_through_to_local(self, tmp_path, entry):
        key, data, _ = entry
        remote = LocalDirBackend(tmp_path / "remote")
        remote.put_bytes(key, data)
        local = LocalDirBackend(tmp_path / "local")
        tiered = TieredBackend(local, remote)
        assert tiered.get_bytes(key) == data
        # write-through: the next read never touches the remote tier
        assert local.get_bytes(key) == data

    def test_put_lands_in_both_tiers(self, tmp_path, entry):
        key, data, _ = entry
        local = LocalDirBackend(tmp_path / "local")
        remote = LocalDirBackend(tmp_path / "remote")
        TieredBackend(local, remote).put_bytes(key, data)
        assert local.get_bytes(key) == data
        assert remote.get_bytes(key) == data

    def test_dead_remote_degrades_never_fails(self, tmp_path, entry):
        key, data, result = entry
        tiered = TieredBackend(
            LocalDirBackend(tmp_path / "local"),
            HTTPBackend("http://127.0.0.1:9", timeout=2.0),
        )
        tiered.put_bytes(key, data)  # remote mirror fails silently
        assert tiered.get_bytes(key) == data
        # an absent key degrades to a miss (remote error swallowed)
        other = "0" * 64
        assert tiered.get_bytes(other) is None
        # the full ResultCache over the same stack still round-trips
        cache = ResultCache(tiered)
        fetched = cache.get(key)
        assert fetched is not None
        assert stats_to_dict(fetched) == stats_to_dict(result)


class TestCacheFromUrl:
    def test_plain_path_and_file_scheme(self, tmp_path):
        backend = cache_from_url(tmp_path / "a")
        assert isinstance(backend, LocalDirBackend)
        backend = cache_from_url(f"file://{tmp_path / 'b'}")
        assert isinstance(backend, LocalDirBackend)
        assert backend.location() == str(tmp_path / "b")

    def test_http_scheme(self):
        backend = cache_from_url("http://127.0.0.1:7777/prefix")
        assert isinstance(backend, HTTPBackend)
        assert backend.location() == "http://127.0.0.1:7777/prefix"

    def test_tiered_grammar(self, tmp_path):
        backend = cache_from_url(f"tiered:{tmp_path / 'l'}|http://127.0.0.1:7777")
        assert isinstance(backend, TieredBackend)
        assert isinstance(backend.local, LocalDirBackend)
        assert isinstance(backend.remote, HTTPBackend)

    @pytest.mark.parametrize("bad", ["tiered:", "tiered:/only-local",
                                     "tiered:|http://h", "tiered:/l|"])
    def test_bad_tiered_urls_rejected(self, bad):
        with pytest.raises(ValueError):
            cache_from_url(bad)

    def test_result_cache_from_url(self, tmp_path, entry):
        key, _, result = entry
        cache = ResultCache.from_url(str(tmp_path / "via-url"))
        cache.put(key, result)
        again = ResultCache.from_url(str(tmp_path / "via-url"))
        fetched = again.get(key)
        assert fetched is not None
        assert stats_to_dict(fetched) == stats_to_dict(result)


def test_simulation_imports_leave_http_client_out():
    """Only HTTPBackend needs http.client (which pulls in ssl and email):
    the modules every experiment run imports must not load it."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import sys\n"
        "import repro.experiments, repro.sim.batched\n"
        "print(sorted(m for m in ('http.client', 'ssl', 'email') if m in sys.modules))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert completed.stdout.strip() == "[]"
