"""Write-ahead job journal tests: append/replay, torn tails, corruption.

Covers the durability contract of :mod:`repro.service.journal`:

* append → replay round-trips records bit-identically (JSON float repr
  included), with strictly increasing sequence numbers and per-record
  SHA-256 integrity,
* a defective *final* record -- truncated bytes, a lost newline, or
  garbage -- is a torn write: replay drops it, flags ``torn_tail``, and
  the journal keeps working,
* a defective record *before* the final line is corruption: replay
  quarantines the file (``<path>.corrupt``) and raises the structured
  :exc:`~repro.exceptions.JournalCorrupt`,
* fsync policies and telemetry counters.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.exceptions import JournalCorrupt, ReproError
from repro.service.journal import JobJournal, record_digest


def make_journal(tmp_path, **kwargs) -> JobJournal:
    return JobJournal(str(tmp_path / "journal.jsonl"), **kwargs)


class TestAppendReplay:
    def test_round_trip_is_bit_identical(self, tmp_path):
        data = [
            {"job": "j000000", "coverage": 0.123456789, "codes": [1, -1, 3]},
            {"job": "j000000", "state": "running", "unix": 1.5},
            {"job": "j000000", "record": {"nested": {"pi": 3.141592653589793}}},
        ]
        with make_journal(tmp_path) as journal:
            for kind, payload in zip(("submit", "state", "result"), data):
                journal.append(kind, payload)
        replayed = make_journal(tmp_path).replay()
        assert not replayed.torn_tail
        assert [r.seq for r in replayed.records] == [0, 1, 2]
        assert [r.kind for r in replayed.records] == [
            "submit", "state", "result",
        ]
        assert [r.data for r in replayed.records] == data

    def test_append_resumes_past_replayed_sequence(self, tmp_path):
        with make_journal(tmp_path) as journal:
            assert journal.append("submit", {"n": 0}) == 0
            assert journal.append("state", {"n": 1}) == 1
        reopened = make_journal(tmp_path)
        reopened.replay()
        assert reopened.append("result", {"n": 2}) == 2
        reopened.close()
        final = make_journal(tmp_path).replay()
        assert [r.seq for r in final.records] == [0, 1, 2]

    def test_unknown_kind_and_policy_are_refused(self, tmp_path):
        with pytest.raises(ReproError, match="fsync policy"):
            make_journal(tmp_path, fsync="sometimes")
        journal = make_journal(tmp_path)
        with pytest.raises(ReproError, match="record kind"):
            journal.append("gossip", {})

    def test_missing_file_replays_empty(self, tmp_path):
        replay = make_journal(tmp_path).replay()
        assert replay.records == [] and not replay.torn_tail

    def test_fsync_policies_and_stats(self, tmp_path):
        always = make_journal(tmp_path, fsync="always")
        always.append("submit", {"n": 0})
        always.append("submit", {"n": 1})
        assert always.stats["fsyncs"] == 2
        always.close()

        never = JobJournal(str(tmp_path / "never.jsonl"), fsync="never")
        never.append("submit", {"n": 0})
        assert never.stats["fsyncs"] == 0
        never.close()

        interval = JobJournal(
            str(tmp_path / "interval.jsonl"),
            fsync="interval",
            fsync_interval=3600.0,
        )
        for n in range(5):
            interval.append("submit", {"n": n})
        assert interval.stats["fsyncs"] == 1  # rate-limited
        interval.close()

        snapshot = always.stats_snapshot()
        assert snapshot["appends"] == 2
        assert snapshot["bytes"] == snapshot["bytes_written"]
        assert snapshot["fsync"] == "always"

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("submit", {"n": 0})
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(ReproError, match="closed"):
            journal.append("submit", {"n": 1})


class TestTornTail:
    def test_truncated_final_record_is_dropped(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("submit", {"n": 0})
        journal.append("result", {"n": 1, "record": {"big": list(range(50))}})
        journal.close()
        path = tmp_path / "journal.jsonl"
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])  # mid-write crash: lose the tail
        replay = make_journal(tmp_path).replay()
        assert replay.torn_tail
        assert [r.data for r in replay.records] == [{"n": 0}]

    def test_lost_newline_with_intact_record_is_kept(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("submit", {"n": 0})
        journal.append("state", {"n": 1})
        journal.close()
        path = tmp_path / "journal.jsonl"
        path.write_bytes(path.read_bytes()[:-1])  # only the \n is gone
        replay = make_journal(tmp_path).replay()
        assert not replay.torn_tail
        assert [r.data for r in replay.records] == [{"n": 0}, {"n": 1}]

    def test_tear_tail_helper_then_append_recovers(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("submit", {"n": 0})
        journal.append("state", {"n": 1})
        journal.tear_tail()
        # the torn journal keeps accepting appends (after the tear point)
        journal.append("state", {"n": "after-tear"})
        journal.close()
        replay = make_journal(tmp_path).replay()
        # the torn record is gone; the first and the post-tear one remain
        assert [r.data for r in replay.records][0] == {"n": 0}

    def test_garbage_tail_sets_torn_flag(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("submit", {"n": 0})
        journal.close()
        path = tmp_path / "journal.jsonl"
        with open(path, "ab") as handle:
            handle.write(b'{"half": ')  # unterminated, no newline
        replay = make_journal(tmp_path).replay()
        assert replay.torn_tail
        assert [r.data for r in replay.records] == [{"n": 0}]


class TestCorruption:
    def _write_three(self, tmp_path):
        journal = make_journal(tmp_path)
        for n in range(3):
            journal.append("submit", {"n": n})
        journal.close()
        return tmp_path / "journal.jsonl"

    def test_flipped_byte_mid_file_quarantines(self, tmp_path):
        path = self._write_three(tmp_path)
        raw = bytearray(path.read_bytes())
        # flip one byte inside the *first* record's data
        target = raw.index(b'"n":0'[0:1], 2)
        raw[target + 4] = ord("7")
        path.write_bytes(bytes(raw))
        with pytest.raises(JournalCorrupt) as excinfo:
            make_journal(tmp_path).replay()
        error = excinfo.value
        assert error.line_no == 1
        assert "sha256" in error.reason or "JSON" in error.reason
        assert os.path.exists(error.quarantined)
        assert not os.path.exists(path)
        # the quarantined copy keeps the evidence verbatim
        assert open(error.quarantined, "rb").read() == bytes(raw)
        # a fresh journal starts cleanly in its place
        fresh = make_journal(tmp_path)
        assert fresh.replay().records == []
        fresh.append("submit", {"n": 0})
        fresh.close()

    def test_sequence_gap_mid_file_quarantines(self, tmp_path):
        path = self._write_three(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        del lines[1]  # drop seq 1: 0,2 is a gap, not a torn tail
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalCorrupt, match="sequence gap"):
            make_journal(tmp_path).replay()

    def test_unknown_version_mid_file_quarantines(self, tmp_path):
        path = self._write_three(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["v"] = 99
        lines[1] = (
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode()
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalCorrupt, match="version"):
            make_journal(tmp_path).replay()

    def test_quarantine_does_not_clobber_prior_evidence(self, tmp_path):
        path = self._write_three(tmp_path)
        (tmp_path / "journal.jsonl.corrupt").write_text("older wreck\n")
        raw = bytearray(path.read_bytes())
        raw[5] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(JournalCorrupt) as excinfo:
            make_journal(tmp_path).replay()
        assert excinfo.value.quarantined.endswith(".corrupt.1")
        assert (tmp_path / "journal.jsonl.corrupt").read_text() == (
            "older wreck\n"
        )


class TestRecordDigest:
    def test_digest_is_canonical(self):
        a = record_digest(0, "submit", {"b": 1, "a": 2})
        b = record_digest(0, "submit", {"a": 2, "b": 1})
        assert a == b
        assert a != record_digest(1, "submit", {"a": 2, "b": 1})
        assert a != record_digest(0, "result", {"a": 2, "b": 1})


#: Three appends as journal lines, byte for byte: the sealed-record
#: framing (canonical JSON body plus its SHA-256) must never drift, or
#: journals written by earlier versions stop replaying.
PINNED_DATA = [
    ("submit", {"job": "j000000", "coverage": 0.123456789}),
    ("state", {"job": "j000000", "state": "running", "unix": 1.5}),
    ("result", {"job": "j000000", "record": {"name": "sr2", "status": "ok"}}),
]
PINNED_LINES = (
    b'{"data":{"coverage":0.123456789,"job":"j000000"},"kind":"submit",'
    b'"seq":0,"sha256":"d8cebd42cbc9d1e2bf9546ded608c72d052201224da7de77'
    b'8517a16ad4ee6db3","v":1}\n'
    b'{"data":{"job":"j000000","state":"running","unix":1.5},"kind":"state",'
    b'"seq":1,"sha256":"9cc5fc08f2f1fb131d832b632df85fba83b8899056959efa4b'
    b'95c6793bb614b1","v":1}\n'
    b'{"data":{"job":"j000000","record":{"name":"sr2","status":"ok"}},'
    b'"kind":"result","seq":2,"sha256":"b46500d1ef7887f8ec844e8efdf50b11e0'
    b'3a6a6b0d1026cd20c9c96475618689","v":1}\n'
)


class TestWireFormat:
    def test_appends_write_the_pinned_bytes(self, tmp_path):
        with make_journal(tmp_path, fsync="never") as journal:
            for kind, data in PINNED_DATA:
                journal.append(kind, data)
        assert (tmp_path / "journal.jsonl").read_bytes() == PINNED_LINES

    def test_pinned_journal_replays_and_extends(self, tmp_path):
        (tmp_path / "journal.jsonl").write_bytes(PINNED_LINES)
        journal = make_journal(tmp_path, fsync="never")
        replay = journal.replay()
        assert not replay.torn_tail
        assert [(r.kind, r.data) for r in replay.records] == PINNED_DATA
        assert journal.append("state", {"n": 3}) == 3
        journal.close()
        assert len(make_journal(tmp_path).replay().records) == 4
