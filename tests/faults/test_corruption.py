"""Corruption sweep: every offset class, both stores, never a crash.

Satellite of the PR-10 hardening: flip/truncate bytes at every
structurally distinct offset of (a) a :class:`LocalDirBackend` result
entry and (b) a :class:`TraceColumnStore` RTRC record, then prove the
read path detects the damage, evicts the entry, and a recompute returns
bit-identical results.
"""

from __future__ import annotations

import json

import pytest

from repro.sim import ResultCache, SimulationConfig, run_cell
from repro.sim.cache import (
    LocalDirBackend,
    TraceColumnStore,
    decode_trace_columns,
    encode_trace_columns,
    stats_to_dict,
    trace_cache_key,
)
from repro.sim.specs import ProgramSpec, SweepCell, SystemSpec


def _cell() -> SweepCell:
    config = SimulationConfig(n_branches=600, warmup=120)
    return SweepCell(
        "gshare-2", "swim", SystemSpec.single("gshare", 2),
        ProgramSpec(benchmark="swim"), config,
    )


def _flip(path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset % len(data)] ^= 0xFF
    path.write_bytes(bytes(data))


class TestResultEntryCorruption:
    """LocalDirBackend JSON entries: header, payload, checksum, truncation."""

    def _offsets(self, raw: bytes) -> dict[str, int]:
        """One representative offset per structural region of the entry."""
        text = raw.decode("utf-8")
        return {
            "header": text.index('"type"') + 2,
            "payload": text.index('"payload"') + len('"payload"') + 4,
            "key_field": text.index('"key"') + len('"key"') + 4,
            "checksum": text.index('"checksum"') + len('"checksum"') + 4,
        }

    @pytest.mark.parametrize(
        "region", ["header", "payload", "key_field", "checksum"]
    )
    def test_flipped_byte_evicts_and_recomputes_identically(self, tmp_path, region):
        cell = _cell()
        key = cell.content_hash()
        reference = run_cell(cell)

        cache = ResultCache(LocalDirBackend(tmp_path))
        cache.put(key, reference)
        path = cache.path_for(key)
        _flip(path, self._offsets(path.read_bytes())[region])

        assert cache.get(key) is None  # never served, never crashed
        assert cache.corrupt_evictions == 1
        assert not path.exists()  # evicted on detection

        recomputed = run_cell(cell)
        cache.put(key, recomputed)
        fetched = cache.get(key)
        assert fetched is not None
        assert stats_to_dict(fetched) == stats_to_dict(reference)

    def test_truncated_entry_is_evicted(self, tmp_path):
        cell = _cell()
        key = cell.content_hash()
        cache = ResultCache(LocalDirBackend(tmp_path))
        cache.put(key, run_cell(cell))
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])

        assert cache.get(key) is None
        assert cache.corrupt_evictions == 1
        assert not path.exists()

    def test_swapped_entry_under_wrong_key_is_rejected(self, tmp_path):
        # A structurally valid entry filed under the wrong key (a rename
        # gone wrong) must fail the key-field check, not serve bad data.
        cell = _cell()
        key = cell.content_hash()
        other = "f" * 64
        cache = ResultCache(LocalDirBackend(tmp_path))
        cache.put(key, run_cell(cell))
        cache.backend.put_bytes(other, cache.path_for(key).read_bytes())
        assert cache.get(other) is None
        assert cache.corrupt_evictions == 1

    def test_checksumless_legacy_entry_still_hits(self, tmp_path):
        # Pre-PR-10 entries carry no checksum; they must keep hitting.
        cell = _cell()
        key = cell.content_hash()
        cache = ResultCache(LocalDirBackend(tmp_path))
        cache.put(key, run_cell(cell))
        path = cache.path_for(key)
        document = json.loads(path.read_bytes())
        document.pop("checksum")
        path.write_bytes(json.dumps(document, separators=(",", ":")).encode())
        assert cache.get(key) is not None
        assert cache.corrupt_evictions == 0


class TestTraceRecordCorruption:
    """RTRC records: magic, version/count header, digest, body, truncation."""

    def _cols(self, n: int):
        t_pc = [100 + 8 * i for i in range(n)]
        t_tk = [i % 2 == 0 for i in range(n)]
        t_uops = [4] * n
        t_tt = [200 + 8 * i for i in range(n)]
        t_ft = [108 + 8 * i for i in range(n)]
        t_snap = [tuple(range(i % 3)) for i in range(n)]
        return (t_pc, t_tk, t_uops, t_tt, t_ft, t_snap)

    #: offset 0 = magic, 5 = version/count header, 13 = digest, -4 = body
    @pytest.mark.parametrize("offset", [0, 5, 13, -4])
    def test_flipped_byte_raises_value_error(self, offset):
        blob = bytearray(encode_trace_columns(4, self._cols(4)))
        blob[offset] ^= 0xFF
        with pytest.raises(ValueError):
            decode_trace_columns(bytes(blob))

    def test_truncation_raises_value_error(self):
        blob = encode_trace_columns(4, self._cols(4))
        for cut in (3, 11, 20, len(blob) - 5):
            with pytest.raises(ValueError):
                decode_trace_columns(blob[:cut])

    def test_store_evicts_corrupt_record_and_reserves_fresh_put(self, tmp_path):
        store = TraceColumnStore(LocalDirBackend(tmp_path))
        cols = self._cols(6)
        store.put("buildkey", 6, cols)
        key = trace_cache_key("buildkey")
        backend = store.backend

        damaged = bytearray(backend.get_bytes(key))
        damaged[-3] ^= 0xFF
        backend.put_bytes(key, bytes(damaged))

        assert store.get("buildkey", 6) is None  # detected, not served
        assert store.corrupt_evictions == 1
        assert backend.get_bytes(key) is None  # evicted

        store.put("buildkey", 6, cols)  # recompute path repopulates
        stored_n, fetched = store.get("buildkey", 6)
        assert stored_n == 6
        assert fetched[0] == cols[0] and fetched[3] == cols[3]

    def test_round_trip_is_lossless(self):
        cols = self._cols(5)
        stored_n, out = decode_trace_columns(encode_trace_columns(5, cols))
        assert stored_n == 5
        assert out[0] == cols[0]
        assert out[1] == cols[1]
        assert [tuple(s) for s in out[5]] == [tuple(s) for s in cols[5]]
