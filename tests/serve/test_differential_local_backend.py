"""Differential proof: :class:`LocalDirBackend` is the pre-refactor cache.

PR 7 factored the on-disk cache behind :class:`CacheBackend`; nothing on
disk was allowed to move. These tests hold that line three ways:

* a **frozen legacy writer** — the pre-backend ``ResultCache.put``,
  reproduced verbatim below — must produce byte-identical files to
  today's ``LocalDirBackend`` path for the same (key, result);
* a cache directory **written by the legacy code** must keep hitting
  through today's reader (the resume-after-upgrade path);
* the canonical cell's content hash **and** its serialized entry bytes
  are pinned to hard-coded digests (the PR-6 idiom): any drift in the
  spec hash, the codec field order, or the separators breaks the pin
  before it breaks a user's cache. The pins hold under **both**
  simulation backends — the backend is execution strategy, not content,
  so it must appear in neither the key nor the entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from repro.sim import ResultCache, SimulationConfig, run_cell
from repro.sim.cache import (
    CACHE_SCHEMA_VERSION,
    LocalDirBackend,
    encode_result,
    serialize_entry,
    stats_to_dict,
)
from repro.sim.specs import SPEC_FORMAT_VERSION, ProgramSpec, SweepCell, SystemSpec

#: The canonical cell: Table-3 16KB 2Bc-gskew baseline on swim, the
#: PR-6 pinning grid's shape. Pinned digests computed once at PR 7.
_PINNED_CONTENT_HASH = (
    "2cf2752bb12ccc2c86a54148ff0f3b7fdade2b1d1698ea7fb3661eb0a5ec3bff"
)
#: Re-pinned at PR 10: entries gained a trailing integrity ``checksum``
#: field (docs/ROBUSTNESS.md). Everything before it is byte-identical to
#: the PR-7 pin, which `test_backend_writes_the_legacy_bytes` proves.
_PINNED_ENTRY_SHA256 = (
    "a28699e9a54b50232dac834c5e2f41f539e557f4d234c8e7457dafccc5172385"
)


def _canonical_cell() -> SweepCell:
    config = SimulationConfig(n_branches=1200, warmup=240)
    return SweepCell(
        "baseline", "swim", SystemSpec.single("2bc-gskew", 16),
        ProgramSpec(benchmark="swim"), config,
    )


def _legacy_put(root, key: str, result) -> None:
    """The pre-refactor ``ResultCache.put``, frozen verbatim (PR 6 tree)."""
    document = encode_result(result)
    document["key"] = key
    document["cache_schema"] = CACHE_SCHEMA_VERSION
    document["spec_format"] = SPEC_FORMAT_VERSION
    path = root / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class TestByteIdenticalLayout:
    def test_backend_writes_the_legacy_bytes(self, tmp_path):
        """Today's entry is the legacy entry plus a trailing checksum.

        PR 10 appended an integrity ``checksum`` as the *last* field, so
        everything a pre-PR-10 reader parses is byte-for-byte what the
        legacy writer produced; strip the one new field and the
        documents must re-serialize to identical bytes.
        """
        cell = _canonical_cell()
        key = cell.content_hash()
        result = run_cell(cell)

        legacy_root = tmp_path / "legacy"
        legacy_root.mkdir()
        _legacy_put(legacy_root, key, result)

        cache = ResultCache(tmp_path / "today")
        cache.put(key, result)

        legacy_bytes = (legacy_root / key[:2] / f"{key}.json").read_bytes()
        today_bytes = cache.path_for(key).read_bytes()
        # the canonical serialization is exactly what hits the disk...
        assert today_bytes == serialize_entry(key, result)
        # ...and minus the appended checksum it IS the legacy entry
        document = json.loads(today_bytes)
        assert list(document)[-1] == "checksum"
        document.pop("checksum")
        stripped = json.dumps(document, separators=(",", ":")).encode("utf-8")
        assert stripped == legacy_bytes

    def test_legacy_directory_keeps_hitting(self, tmp_path):
        """A cache dir written by the pre-refactor code resumes cleanly."""
        cell = _canonical_cell()
        key = cell.content_hash()
        result = run_cell(cell)
        _legacy_put(tmp_path, key, result)

        cache = ResultCache(tmp_path)  # today's reader over yesterday's dir
        fetched = cache.get(key)
        assert fetched is not None
        assert cache.hits == 1
        assert stats_to_dict(fetched) == stats_to_dict(result)

    def test_layout_is_unchanged(self, tmp_path):
        """Two-level fan-out, ``.json`` suffix, root auto-created."""
        backend = LocalDirBackend(tmp_path / "fresh")
        assert (tmp_path / "fresh").is_dir()
        key = "ab" + "0" * 62
        assert backend.path_for(key) == (
            tmp_path / "fresh" / "ab" / f"{key}.json"
        )


class TestPinnedDigests:
    """PR-6-style content pins: drift fails here before it bites users."""

    def test_content_hash_is_pinned(self):
        cell = _canonical_cell()
        assert cell.content_hash() == _PINNED_CONTENT_HASH, (
            "the canonical cell's content hash moved — existing caches "
            "would silently stop hitting; if intentional, bump "
            "SPEC_FORMAT_VERSION and re-pin"
        )

    def test_entry_bytes_are_pinned(self):
        """sha256 of the on-disk entry: codec + separators + field order."""
        cell = _canonical_cell()
        result = run_cell(cell)
        data = serialize_entry(cell.content_hash(), result)
        assert hashlib.sha256(data).hexdigest() == _PINNED_ENTRY_SHA256, (
            "the serialized cache entry's bytes moved — either the result "
            "changed (simulation regression!) or the codec drifted; if "
            "intentional, bump CACHE_SCHEMA_VERSION and re-pin"
        )

    def test_entry_document_fields_in_order(self):
        """The JSON document's insertion order is part of the format."""
        cell = _canonical_cell()
        data = serialize_entry(cell.content_hash(), run_cell(cell))
        document = json.loads(data)
        assert list(document) == ["type", "payload", "key",
                                  "cache_schema", "spec_format", "checksum"]
        assert document["cache_schema"] == CACHE_SCHEMA_VERSION
        assert document["spec_format"] == SPEC_FORMAT_VERSION
