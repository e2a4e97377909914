"""Checksummed record framing and hostile-byte recovery.

PR 9's contract for the durable store: every ``wal``/``snapshot`` blob
carries a verified frame (magic, record version, payload length, CRC32),
recovery distinguishes a *torn tail* (incomplete final WAL record --
truncate and continue, counting ``store.wal_truncated``) from *damage*
(anything else -- raise a structured :class:`StoreCorrupt`, never a raw
pickle traceback), and ``readonly=True`` opens degraded instead of
raising so damaged stores stay inspectable.
"""

import pickle
import sqlite3

import pytest

from repro import SqliteStore, StoreCorrupt, parse_atom, parse_database
from repro.obs import Instrumentation, instrumented
from repro.store import open_store
from repro.store.sqlite import (
    RECORD_VERSION,
    SCHEMA_VERSION,
    TornRecord,
    content_digest,
    decode_record,
    frame_record,
)


def build_store(path, n=6, checkpoint=False):
    with SqliteStore(path) as store:
        for i in range(n):
            store.insert(parse_atom("p(%d)" % i))
        if checkpoint:
            store.checkpoint()


def wal_rows(path):
    conn = sqlite3.connect(path)
    try:
        return list(conn.execute("SELECT seq, fact FROM wal ORDER BY seq"))
    finally:
        conn.close()


def rewrite_wal(path, seq, blob):
    conn = sqlite3.connect(path, isolation_level=None)
    try:
        conn.execute("UPDATE wal SET fact=? WHERE seq=?", (blob, seq))
    finally:
        conn.close()


class TestFrame:
    def test_round_trip(self):
        fact = parse_atom("acct(alice, 100)")
        blob = frame_record(fact)
        assert decode_record(blob, path="x", table="wal", rowid=1) == fact

    def test_header_is_twelve_bytes_plus_pickle(self):
        fact = parse_atom("p(1)")
        blob = frame_record(fact)
        assert len(blob) == 12 + len(pickle.dumps(fact, protocol=4))

    def test_bad_magic(self):
        blob = b"\x00\x00" + frame_record(parse_atom("p(1)"))[2:]
        with pytest.raises(StoreCorrupt, match="magic"):
            decode_record(blob, path="x", table="wal", rowid=1)

    def test_bad_record_version(self):
        blob = bytearray(frame_record(parse_atom("p(1)")))
        blob[2] = RECORD_VERSION + 1
        with pytest.raises(StoreCorrupt, match="record version"):
            decode_record(bytes(blob), path="x", table="wal", rowid=1)

    def test_payload_flip_is_crc_mismatch(self):
        blob = bytearray(frame_record(parse_atom("p(1)")))
        blob[-1] ^= 0xFF
        with pytest.raises(StoreCorrupt, match="CRC32"):
            decode_record(bytes(blob), path="x", table="wal", rowid=1)

    def test_short_payload_is_torn_not_corrupt(self):
        blob = frame_record(parse_atom("p(1)"))
        with pytest.raises(TornRecord):
            decode_record(blob[:-3], path="x", table="wal", rowid=1)

    def test_short_header_is_torn(self):
        with pytest.raises(TornRecord):
            decode_record(b"\x10\x7d\x01", path="x", table="wal", rowid=1)

    def test_trailing_garbage_is_corrupt(self):
        blob = frame_record(parse_atom("p(1)")) + b"xx"
        with pytest.raises(StoreCorrupt, match="trailing garbage"):
            decode_record(blob, path="x", table="wal", rowid=1)

    def test_guarded_unpickle_never_leaks_a_traceback(self):
        # A frame whose checksum is *valid* but whose payload is not a
        # pickled atom: the CRC passes, the decode must still be
        # structured.
        import struct
        import zlib

        payload = b"not a pickle at all"
        blob = struct.Struct("<HBxII").pack(
            0x7D10, RECORD_VERSION, len(payload), zlib.crc32(payload)
        ) + payload
        with pytest.raises(StoreCorrupt, match="does not unpickle"):
            decode_record(blob, path="x", table="wal", rowid=7)

    def test_valid_pickle_of_wrong_type_is_corrupt(self):
        import struct
        import zlib

        payload = pickle.dumps([1, 2, 3], protocol=4)
        blob = struct.Struct("<HBxII").pack(
            0x7D10, RECORD_VERSION, len(payload), zlib.crc32(payload)
        ) + payload
        with pytest.raises(StoreCorrupt, match="expected a ground atom"):
            decode_record(blob, path="x", table="wal", rowid=7)

    def test_corrupt_error_carries_location(self):
        blob = bytearray(frame_record(parse_atom("p(1)")))
        blob[-1] ^= 1
        with pytest.raises(StoreCorrupt) as err:
            decode_record(bytes(blob), path="s.tdlog", table="wal", rowid=42)
        assert err.value.path == "s.tdlog"
        assert err.value.table == "wal"
        assert err.value.rowid == 42
        assert "wal row 42" in str(err.value)


class TestContentDigest:
    def test_order_independent(self):
        a, b = parse_atom("p(1)"), parse_atom("q(2)")
        assert content_digest([a, b]) == content_digest([b, a])

    def test_sensitive_to_content(self):
        assert content_digest([parse_atom("p(1)")]) != content_digest(
            [parse_atom("p(2)")]
        )

    def test_fits_sqlite_integer(self):
        digest = content_digest(parse_database("p(1). q(2). r(3)."))
        assert 0 <= digest < 2 ** 63

    def test_stable_across_processes(self):
        # hash() randomization must not leak into the digest: recompute
        # in a subprocess with a different PYTHONHASHSEED.
        import os
        import subprocess
        import sys

        here = content_digest(parse_database("p(1). q(foo)."))
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro import parse_database;"
             "from repro.store.sqlite import content_digest;"
             "print(content_digest(parse_database('p(1). q(foo).')))"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert int(out.stdout.strip()) == here


class TestTornTail:
    def test_torn_final_record_is_truncated(self, tmp_path):
        path = str(tmp_path / "s.tdlog")
        build_store(path, n=5)
        rows = wal_rows(path)
        seq, blob = rows[-1]
        rewrite_wal(path, seq, bytes(blob[:-4]))
        with SqliteStore(path) as recovered:
            assert set(recovered) == {parse_atom("p(%d)" % i) for i in range(4)}

    def test_truncation_counts_and_heals_the_file(self, tmp_path):
        path = str(tmp_path / "s.tdlog")
        build_store(path, n=3)
        seq, blob = wal_rows(path)[-1]
        rewrite_wal(path, seq, bytes(blob[:14]))
        inst = Instrumentation.create()
        with instrumented(inst):
            SqliteStore(path).close()
        assert inst.metrics.counters.get("store.wal_truncated") == 1
        # The torn row was deleted: a second open sees a clean log.
        inst2 = Instrumentation.create()
        with instrumented(inst2):
            SqliteStore(path).close()
        assert "store.wal_truncated" not in inst2.metrics.counters

    def test_torn_mid_log_record_is_damage(self, tmp_path):
        path = str(tmp_path / "s.tdlog")
        build_store(path, n=5)
        rows = wal_rows(path)
        seq, blob = rows[1]
        rewrite_wal(path, seq, bytes(blob[:-4]))
        with pytest.raises(StoreCorrupt, match="before end of log"):
            SqliteStore(path)

    def test_crc_damage_raises_structured_error(self, tmp_path):
        path = str(tmp_path / "s.tdlog")
        build_store(path, n=4)
        seq, blob = wal_rows(path)[2]
        bad = bytearray(blob)
        bad[-1] ^= 0x40
        rewrite_wal(path, seq, bytes(bad))
        with pytest.raises(StoreCorrupt) as err:
            SqliteStore(path)
        assert err.value.table == "wal"
        assert err.value.rowid == seq

    def test_failed_open_releases_the_lease(self, tmp_path):
        from repro.store.lease import read_lease

        path = str(tmp_path / "s.tdlog")
        build_store(path, n=4)
        seq, blob = wal_rows(path)[1]
        rewrite_wal(path, seq, b"\x00" * len(blob))
        with pytest.raises(StoreCorrupt):
            SqliteStore(path)
        assert read_lease(path) is None  # no wedged lease left behind


class TestSnapshotIntegrity:
    def test_snapshot_damage_is_never_torn(self, tmp_path):
        # Snapshot rows are rewritten atomically, so even a
        # short-payload snapshot row reports as corruption.
        path = str(tmp_path / "s.tdlog")
        build_store(path, n=4, checkpoint=True)
        conn = sqlite3.connect(path, isolation_level=None)
        rowid, blob = conn.execute(
            "SELECT rowid, fact FROM snapshot LIMIT 1"
        ).fetchone()
        conn.execute(
            "UPDATE snapshot SET fact=? WHERE rowid=?", (blob[:-5], rowid)
        )
        conn.close()
        with pytest.raises(StoreCorrupt) as err:
            SqliteStore(path)
        assert err.value.table == "snapshot"

    def test_checkpoint_records_content_digest(self, tmp_path):
        path = str(tmp_path / "s.tdlog")
        build_store(path, n=4, checkpoint=True)
        conn = sqlite3.connect(path)
        recorded = conn.execute(
            "SELECT value FROM meta WHERE key='snapshot_digest'"
        ).fetchone()[0]
        conn.close()
        assert recorded == content_digest(
            parse_atom("p(%d)" % i) for i in range(4)
        )

    def test_snapshot_rows_are_framed_records(self, tmp_path):
        path = str(tmp_path / "s.tdlog")
        build_store(path, n=4, checkpoint=True)
        conn = sqlite3.connect(path)
        rows = sorted(
            (pred, bytes(blob))
            for pred, blob in conn.execute("SELECT pred, fact FROM snapshot")
        )
        conn.close()
        assert rows == sorted(
            ("p", frame_record(parse_atom("p(%d)" % i))) for i in range(4)
        )


class TestReadonlyDegradedOpen:
    def test_readonly_refuses_mutation(self, tmp_path):
        path = str(tmp_path / "s.tdlog")
        build_store(path, n=2)
        with open_store(path, readonly=True) as ro:
            assert len(ro) == 2
            with pytest.raises(Exception, match="read-only"):
                ro.insert(parse_atom("p(9)"))

    def test_readonly_missing_file_does_not_create(self, tmp_path):
        from repro import StoreError

        path = str(tmp_path / "absent.tdlog")
        with pytest.raises(StoreError, match="no such store"):
            open_store(path, readonly=True)
        assert not (tmp_path / "absent.tdlog").exists()

    def test_readonly_takes_no_lease(self, tmp_path):
        from repro.store.lease import read_lease

        path = str(tmp_path / "s.tdlog")
        build_store(path, n=2)
        with open_store(path, readonly=True):
            assert read_lease(path) is None

    def test_damaged_store_opens_degraded(self, tmp_path):
        path = str(tmp_path / "s.tdlog")
        build_store(path, n=5)
        rows = wal_rows(path)
        seq, blob = rows[1]
        rewrite_wal(path, seq, b"\x00" * len(blob))
        with open_store(path, readonly=True) as ro:
            stats = ro.stats()
            assert stats["degraded"] is not None
            assert "wal row %d" % seq in stats["degraded"]
            # Replay stopped at the damage: only the prefix is visible.
            assert set(ro) == {parse_atom("p(0)")}

    def test_mem_readonly_is_an_error(self):
        from repro import StoreError

        with pytest.raises(StoreError, match="readonly"):
            open_store("mem", readonly=True)

    def test_schema_version_mismatch_readonly_is_degraded(self, tmp_path):
        path = str(tmp_path / "s.tdlog")
        build_store(path, n=2)
        conn = sqlite3.connect(path, isolation_level=None)
        conn.execute(
            "UPDATE meta SET value=? WHERE key='schema_version'",
            (SCHEMA_VERSION + 7,),
        )
        conn.close()
        with open_store(path, readonly=True) as ro:
            assert "schema version" in ro.stats()["degraded"]
