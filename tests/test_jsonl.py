"""Property tests for the one JSONL reader and appender
(:mod:`repro.faults.records`).

A generated file mixes records, malformed or non-object lines, blank
lines and an optional unterminated tail (a torn fragment, or a whole
record whose newline never made it).  The contracts:

* a live read never consumes or counts the unterminated tail, so
  tailing a growing file at any split offsets sees exactly what one
  live read of the whole file sees;
* a finished read is the live read plus the tail rule — a valid tail
  record is kept, a torn one is one skipped line;
* the appender terminates a torn tail, so the fragment costs exactly
  one skipped line and the next record reads back intact.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import append_jsonl, open_jsonl, read_jsonl

MALFORMED = [b"{broken", b"[1, 2]", b"null", b"42", b"not json",
             b'{"a": ', b"\xff\xfe{", b'"text"']

values = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
records = st.dictionaries(st.text(max_size=6), values, max_size=4)
entries = st.lists(
    st.one_of(
        st.tuples(st.just("record"), records),
        st.tuples(st.just("malformed"), st.sampled_from(MALFORMED)),
        st.tuples(st.just("blank"), st.sampled_from([b"", b"   ", b"\r"])),
    ),
    max_size=12,
)
tails = st.one_of(
    st.none(),
    st.tuples(st.just("whole"), records),
    st.tuples(st.just("torn"), records, st.floats(0.0, 1.0,
                                                  exclude_max=True)),
)


def _encode(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True, default=str).encode("utf-8")


def _build(entries, tail):
    """(file bytes, expected complete records, expected skipped lines,
    tail bytes, tail record or None)."""
    body = b""
    expected = []
    skipped = 0
    for kind, payload in entries:
        if kind == "record":
            body += _encode(payload) + b"\n"
            expected.append(payload)
        else:
            body += payload + b"\n"
            skipped += kind == "malformed"
    tail_bytes, tail_record = b"", None
    if tail is not None and tail[0] == "whole":
        tail_bytes, tail_record = _encode(tail[1]), tail[1]
    elif tail is not None:
        line = _encode(tail[1])
        # a proper, non-empty prefix of an object is never valid JSON
        tail_bytes = line[:1 + int(tail[2] * (len(line) - 1))]
    return body + tail_bytes, expected, skipped, tail_bytes, tail_record


@settings(max_examples=60, deadline=None)
@given(entries=entries, tail=tails, cuts=st.lists(st.floats(0.0, 1.0),
                                                  max_size=5))
def test_live_reads_at_any_split_match_one_live_read(
        tmp_path_factory, entries, tail, cuts):
    content, expected, skipped, _, _ = _build(entries, tail)
    path = tmp_path_factory.mktemp("live") / "bus.jsonl"
    path.write_bytes(b"")
    seen, seen_skipped, offset, written = [], 0, 0, 0
    for cut in sorted(int(c * len(content)) for c in cuts) + [len(content)]:
        with open(path, "ab") as handle:
            handle.write(content[written:cut])
        written = max(written, cut)
        got, offset, bad = read_jsonl(path, offset, live=True)
        seen += got
        seen_skipped += bad
    whole, whole_offset, whole_skipped = read_jsonl(path, live=True)
    assert seen == whole == expected
    assert seen_skipped == whole_skipped == skipped
    assert offset == whole_offset == content.rfind(b"\n") + 1


@settings(max_examples=60, deadline=None)
@given(entries=entries, tail=tails)
def test_finished_read_is_live_read_plus_tail_rule(tmp_path_factory,
                                                   entries, tail):
    content, expected, skipped, tail_bytes, tail_record = \
        _build(entries, tail)
    path = tmp_path_factory.mktemp("finished") / "events.jsonl"
    path.write_bytes(content)
    live, _, live_skipped = read_jsonl(path, live=True)
    finished, end, finished_skipped = read_jsonl(path)
    assert end == len(content)
    if tail_record is not None:
        assert finished == live + [tail_record]
        assert finished_skipped == live_skipped
    else:
        assert finished == live
        assert finished_skipped == live_skipped + bool(tail_bytes)


@settings(max_examples=60, deadline=None)
@given(entries=entries, tail=tails, new=records)
def test_append_after_torn_tail_costs_one_skipped_line(tmp_path_factory,
                                                       entries, tail, new):
    content, expected, skipped, tail_bytes, tail_record = \
        _build(entries, tail)
    path = tmp_path_factory.mktemp("append") / "sub" / "ledger.jsonl"
    # the appender writes exactly the bytes the builder expects
    with open_jsonl(path) as handle:
        for kind, payload in entries:
            if kind == "record":
                append_jsonl(handle, payload)
            else:
                handle.write(payload + b"\n")
        handle.write(tail_bytes)
    assert path.read_bytes() == content
    with open_jsonl(path) as handle:
        append_jsonl(handle, new)
    got, _, bad = read_jsonl(path)
    if tail_record is not None:
        assert got == expected + [tail_record, new]
        assert bad == skipped
    else:
        assert got == expected + [new]
        assert bad == skipped + bool(tail_bytes)


def test_missing_file_reads_empty(tmp_path):
    assert read_jsonl(tmp_path / "absent.jsonl", 7) == ([], 7, 0)
    assert read_jsonl(tmp_path / "absent.jsonl", live=True) == ([], 0, 0)
