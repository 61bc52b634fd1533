import gc
import io
import math
import os
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ampwatch.errors import InvalidInputError, LogParseError, StreamOrderError
from ampwatch.event_log import (
    EVENTS_HEADER,
    AnomalyEvent,
    EventKind,
    LOG_HEADER,
    LogRecord,
    iter_log,
    parse_record,
    read_events,
    read_log,
    write_events,
    write_log,
    write_trace,
)
from ampwatch.signal_core import RmsRecord
from ampwatch.simulator import (
    LABELS_HEADER,
    GroundTruthLabel,
    ScenarioKind,
    read_labels,
    write_labels,
)
from ampwatch.zscore_model import ModelParams
from seed_copy import seed


def line_of(rec):
    """The line ``write_log`` writes for the one record."""
    buf = io.StringIO()
    write_log([rec], buf)
    return buf.getvalue().split("\n")[1]


def test_basic_line():
    rec = LogRecord(1_700_000_000, 0.87, 0.12, 0, EventKind.NONE)
    assert line_of(rec) == "1700000000,0.8700,0.1200,0,none"


def test_training_phase_empty_z():
    rec = LogRecord(1_700_000_000, 0.07, None, 0, EventKind.NONE)
    assert line_of(rec) == "1700000000,0.0700,,0,none"


def test_anomaly_line():
    rec = LogRecord(1_700_000_500, 0.88, 3.1, 1, EventKind.ZSCORE)
    assert line_of(rec) == "1700000500,0.8800,3.1000,1,zscore"


def test_parse_garbage():
    with pytest.raises(LogParseError):
        parse_record("garbage")


def test_parse_flag_kind_inconsistency():
    with pytest.raises(LogParseError):
        parse_record("1700000000,0.8700,0.1200,1,none")
    with pytest.raises(LogParseError):
        parse_record("1700000000,0.8700,0.1200,0,zscore")


def test_parse_negative_rms():
    with pytest.raises(LogParseError):
        parse_record("1700000000,-0.1000,,0,none")


@pytest.mark.parametrize("line, column", [
    ("1700000000,nan,,0,none", 2),
    ("1700000000,inf,,0,none", 2),
    ("1700000000,-inf,,0,none", 2),
    ("1700000000,0.8700,nan,0,none", 3),
    ("1700000000,0.8700,inf,0,none", 3),
    ("1700000000,0.8700,-inf,1,zscore", 3),
    ("1700000000,0.8700,0.1200,1,none", 4),
    ("1700000000,0.8700,0.1200,0,zscore", 4),
    ("1700000000,0.8700,0.1200,1,gap", 5),
    ("1700000000,-0.1000,,0,none", 2),
])
def test_parse_rejects_non_finite_values_with_position(line, column):
    with pytest.raises(LogParseError) as exc:
        parse_record(line, line_number=9)
    assert (exc.value.line_number, exc.value.column) == (9, column)


def test_parse_error_carries_position():
    with pytest.raises(LogParseError) as exc:
        parse_record("1700000000,xx,,0,none", line_number=17)
    assert exc.value.line_number == 17
    assert exc.value.column == 2
    assert "line 17" in str(exc.value)


def test_record_invariant_enforced_at_construction():
    with pytest.raises(InvalidInputError):
        LogRecord(0, 0.1, None, 1, EventKind.NONE)
    with pytest.raises(InvalidInputError):
        LogRecord(0, 0.1, None, 0, EventKind.WATCHDOG)
    for bad_rms in (-0.1, float("inf"), float("nan")):
        with pytest.raises(InvalidInputError):
            LogRecord(0, bad_rms, None, 0, EventKind.NONE)
    assert LogRecord(0, -0.0, None, 0, EventKind.NONE).rms_amps == 0.0


def test_flag_is_read_from_the_kind():
    assert LogRecord.__slots__ == ("timestamp_s", "rms_amps", "composite_z", "event_kind")
    rec = LogRecord(1, 0.5, None, 0, "none")
    rec.event_kind = EventKind.WATCHDOG
    assert rec.anomaly_flag == 1
    rec.event_kind = EventKind.NONE
    assert rec.anomaly_flag == 0
    with pytest.raises(AttributeError):
        rec.anomaly_flag = 1
    with pytest.raises(InvalidInputError) as exc:
        LogRecord(1, 0.5, None, 1, "none")
    assert exc.value.column == 4


quant = st.integers(0, 10_000_000).map(lambda n: n / 10_000)
kinds = st.sampled_from([EventKind.NONE, EventKind.ZSCORE, EventKind.WATCHDOG])


@st.composite
def log_records(draw):
    kind = draw(kinds)
    z = draw(st.none() | st.integers(-500_000, 500_000).map(lambda n: n / 10_000))
    return LogRecord(
        timestamp_s=draw(st.integers(0, 2**33)),
        rms_amps=draw(quant),
        composite_z=z,
        anomaly_flag=0 if kind == EventKind.NONE else 1,
        event_kind=kind,
    )


@given(log_records())
@settings(max_examples=500)
def test_round_trip_identity(rec):
    assert parse_record(line_of(rec)) == rec


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_INTS = st.sampled_from([1.5, 1.0, -0.0, True, False, None, "1", math.nan])


@given(
    ts=st.integers(0, 2**40) | NOT_INTS,
    rms=st.floats(-10, 1e6) | NON_FINITE,
    z=st.none() | st.floats(-1e6, 1e6) | NON_FINITE,
    flag=st.sampled_from([0, 1, True, False, 0.0, 1.0, -0.0, 2, -1, 0.5, math.nan, "1", None]),
    kind=st.sampled_from(list(EventKind) + ["none", "zscore", "watchdog", "ZSCORE", "gap",
                                            "", None, 1, ("zscore",), ["zscore"], {}]),
)
@example(ts=1, rms=0.5, z=None, flag=True, kind=EventKind.ZSCORE)  # was written as "True"
@example(ts=1, rms=0.5, z=-0.0, flag=1.0, kind="watchdog")  # was written as "1.0"
@example(ts=1, rms=0.5, z=None, flag=1, kind="bogus")  # was accepted, then unwritable
@example(ts=1, rms=0.5, z=math.nan, flag=0, kind=EventKind.NONE)  # was written as "nan"
@example(ts=True, rms=0.5, z=None, flag=0, kind="none")  # was written as "True"
@example(ts=1.0, rms=0.5, z=None, flag=0, kind="none")  # was written as "1.0"
@settings(max_examples=500)
def test_constructor_accepts_exactly_what_round_trips(ts, rms, z, flag, kind):
    valid_kind = isinstance(kind, str) and kind in ("none", "zscore", "watchdog")
    valid = (type(ts) is int and valid_kind and flag == (kind != "none")
             and 0 <= rms < math.inf and (z is None or math.isfinite(z)))
    if not valid:
        with pytest.raises(InvalidInputError):
            LogRecord(ts, rms, z, flag, kind)
        return
    rec = LogRecord(ts, rms, z, flag, kind)
    assert rec.event_kind is EventKind(kind)
    assert type(rec.anomaly_flag) is int and rec.anomaly_flag == flag
    line = line_of(rec)
    back = parse_record(line)
    assert line_of(back) == line
    assert (back.timestamp_s, back.anomaly_flag, back.event_kind) == (
        ts, rec.anomaly_flag, rec.event_kind)


def _records_with_z(steps):
    """One record per step; "same" repeats the previous z object, "copy"
    repeats its value in a new float, "zscore" or "watchdog" flags the
    record with that kind and keeps the previous z object (the row that
    ``Monitor.run`` writes when the watchdog fires mid-OFF-streak),
    anything else is the next z.  Only a flagging step's record is flagged."""
    z, records = None, []
    for i, step in enumerate(steps):
        kind = EventKind.NONE
        if step in ("zscore", "watchdog"):
            kind = EventKind(step)
        elif step == "copy":
            z = None if z is None else float(repr(z))
        elif step != "same":
            z = step
        records.append(LogRecord(i, 0.07, z, int(kind is not EventKind.NONE), kind))
    return records


@given(st.lists(st.sampled_from(["same", "copy", "zscore", "watchdog", None, 0.0, -0.0])
                | st.floats(-1e3, 1e3)))
@example([0.0, -0.0, "copy", "same", None, 0.5, "copy", None])
@example([-0.0, "copy", 0.0, "same", -0.0])
@example([0.5, "watchdog", "same", None, "zscore", "watchdog", "same"])
@settings(max_examples=300)
def test_write_log_lines_are_serialize_record(steps):
    # the seed's serialize_record, on a seed record with the flag set from the kind
    records = _records_with_z(steps)
    buf = io.StringIO()
    assert write_log(records, buf) == len(records)
    want = [seed.event_log.serialize_record(seed.LogRecord(
        r.timestamp_s, r.rms_amps, r.composite_z, int(r.event_kind is not EventKind.NONE),
        seed.EventKind(r.event_kind.value))) for r in records]
    assert buf.getvalue().splitlines() == [LOG_HEADER] + want


def _parse_each_line(text):
    """iter_log's contract, line by line: parse_record on each non-blank
    line but a header on line 1, then the order check."""
    records, last_ts = [], -math.inf
    for i, line in enumerate(io.StringIO(text), start=1):
        line = line.rstrip("\n")
        if not line or (i == 1 and line == LOG_HEADER):
            continue
        rec = parse_record(line, i)
        if rec.timestamp_s <= last_ts:
            raise LogParseError(f"timestamp {rec.timestamp_s} not after {last_ts}", i, 1)
        last_ts = rec.timestamp_s
        records.append(rec)
    return records


def _outcome(read, text):
    try:
        return [(rec, line_of(rec)) for rec in read(text)]  # -0.0 == 0.0
    except LogParseError as exc:
        return str(exc), exc.line_number, exc.column


LOG_TAILS = ["0.9098,0,none", "0.9098,1,zscore", "0.9098,1,watchdog", ",0,none",
             ",1,watchdog", "-0.9098,0,none", "0.0000,0,none", "-0.0000,0,none"]


@st.composite
def bad_lines(draw, ts, rms, tail):
    """A line that breaks one rule, or whose tail is one character off."""
    how = draw(st.sampled_from(["ts", "rms", "4 columns", "6 columns",
                                "sign", "case", "flag", "off by one"]))
    z, flag, kind = tail.split(",")
    if how == "sign":  # +0.9098 is not written back as itself, + is no number
        return f"{ts},{rms},+{tail}"
    if how == "case":
        return f"{ts},{rms},{z},{flag},{kind.upper()}"
    if how == "flag":
        return f"{ts},{rms},{z},{1 - int(flag)},{kind}"
    if how == "ts":
        return f"{draw(st.sampled_from(['x', '1.5', '', '1e3']))},{rms},{tail}"
    if how == "rms":
        return f"{ts},{draw(st.sampled_from(['x', '', '-0.5000', 'nan', 'inf']))},{tail}"
    if how == "4 columns":
        return f"{ts},{rms},{tail.rsplit(',', 1)[0]}"
    if how == "6 columns":
        return f"{ts},{rms},{tail},none"
    j = draw(st.integers(0, len(tail)))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    c = draw(st.sampled_from("+-.,019neNE"))
    tail = tail[:j] + ("" if edit == "delete" else c) + tail[j + (edit != "insert"):]
    return f"{ts},{rms},{tail}"


@st.composite
def log_texts(draw):
    """Runs of one tail, the tail changing at event rows, an optional
    header, blank lines, a missing final newline, a timestamp now and then
    out of order, and a bad line now and then right after a run."""
    lines = [LOG_HEADER] if draw(st.booleans()) else []
    ts = 1_700_000_000
    for tail in draw(st.lists(st.sampled_from(LOG_TAILS), max_size=5)):
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.integers(0, 7)) == 0:
                lines.append("")
            ts += draw(st.sampled_from([30, 30, 30, 30, 30, 30, 1, 0, -30]))
            lines.append(f"{ts},{draw(st.integers(0, 99_999)) / 10_000:.4f},{tail}")
        if draw(st.integers(0, 2)) == 0:
            ts += 30
            lines.append(draw(bad_lines(ts, "0.8700", tail)))
    text = "\n".join(lines)
    return text + "\n" if lines and draw(st.booleans()) else text


@given(log_texts())
@example("1,0.5000,0.9098,0,none\n2,0.5000,0.9098,0,none\n3,0.5000,+0.9098,0,none\n"
         "4,0.5000,0.9098,0,none")
@example("1,0.5000,0.9098,0,none\n2,0.5000,0.9098,0,NONE\n")
@example("1,0.5000,0.9098,0,none\n2,0.5000,0.9098,1,none\n")
@example("1,0.5000,0.9098,0,none\n\n2,0.5000,0.9098,1,zscore\n3,0.5000,0.9098,0,none")
@settings(max_examples=300)
def test_iter_log_is_parse_record_line_by_line(text):
    # the same records, or the same first error at the same line and column
    want = _outcome(_parse_each_line, text)
    assert _outcome(lambda t: list(iter_log(io.StringIO(t))), text) == want
    assert _outcome(lambda t: read_log(io.StringIO(t)), text) == want


@pytest.mark.parametrize("rms", ["nan", "-1", "inf"])
def test_iter_log_refuses_a_bad_rms_right_after_a_run_of_one_tail(rms):
    """The line repeats its predecessor's tail, so only ts and rms are
    converted; the rms that LogRecord would refuse goes to parse_record."""
    bad = f"3,{rms},0.9098,0,none"
    with pytest.raises(LogParseError) as want:
        parse_record(bad, 3)
    text = f"1,0.5000,0.9098,0,none\n2,0.5000,0.9098,0,none\n{bad}\n"
    with pytest.raises(LogParseError) as got:
        list(iter_log(io.StringIO(text)))
    assert (str(got.value), got.value.line_number, got.value.column) == (str(want.value), 3, 2)


HUGE_TS = "1" + "0" * 400


@pytest.mark.parametrize("position", [1, 31, 32, 33, 64, 65])
@pytest.mark.parametrize("bad, column", [
    ("1_700_000_030,+0.9000,,0,none", 1),
    (f"{HUGE_TS},0.9000,,0,none", 1),
    ("10000000000000000000,0.9000,,0,none", 1),
    (" 1700000030,0.9000,,0,none", 1),
    ("01700000030,0.9000,,0,none", 1),
    ("-0,0.9000,,0,none", 1),
    ("1700000030,+0.9000,,0,none", 2),
    ("1700000030,0.90000,,0,none", 2),
    ("1700000030,0.9000 ,,0,none", 2),
    ("1700000030,0.9e0,,0,none", 2),
    ("1700000030,\u0660.9000,,0,none", 2),
    ("1700000030,100000000000.0000,,0,none", 2),
    ("1700000030,-0.5000,,0,none", 2),
    ("1700000030,0.9000,+0.9098,0,none", 3),
    ("1700000030,0.9000,0.90980,0,none", 3),
    ("1700000030,0.9000,,0,NONE", 5),
])
def test_a_bad_line_is_refused_at_its_line_in_any_batch(bad, column, position):
    """A line the writer does not write is refused with parse_record's
    error, line and column, wherever it falls in iter_log's batches of 32,
    among lines whose tail repeats."""
    with pytest.raises(LogParseError) as want:
        parse_record(bad, position)
    assert (want.value.line_number, want.value.column) == (position, column)
    lines = [f"{1_700_000_000 + 30 * i},0.8700,,0,none" for i in range(1, 70)]
    lines[position - 1] = bad.replace("1700000030", str(1_700_000_000 + 30 * position))
    with pytest.raises(LogParseError) as got:
        read_log(io.StringIO("\n".join(lines) + "\n"))
    assert (str(got.value), got.value.line_number, got.value.column) == (
        str(want.value).replace("1700000030", str(1_700_000_000 + 30 * position)),
        position, column)


@pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65])
def test_iter_log_hands_on_each_records_prefix_as_written(n):
    """The prefix of every record, in order, whether its batch was checked
    whole or read line by line (a header, a blank line, no final newline)."""
    records = [LogRecord(1_700_000_000 + 30 * i, i / 10_000, None if i < 5 else 0.5, 0, "none")
               for i in range(n)]
    text = io.StringIO()
    write_log(records, text)
    lines = text.getvalue().split("\n")
    for blank_at in (None, n // 2 + 1):
        edited = lines[:blank_at] + [""] + lines[blank_at:] if blank_at else lines
        prefixes = []
        back = list(iter_log(io.StringIO("\n".join(edited).rstrip("\n")), prefixes.append))
        assert back == records
        assert prefixes == [line.rsplit(",", 3)[0] + "," for line in lines[1:-1]]


def test_write_log_copies_the_prefixes_iter_log_hands_on():
    """Given the prefixes, write_log copies them in front of each tail; a
    log read and written again this way is written byte for byte."""
    records = [LogRecord(-100_000 + 30 * i, 0.87, None if i < 40 else 1.25, 0, "none")
               for i in range(70)]
    text = io.StringIO()
    write_log(records, text)
    prefixes, again = [], io.StringIO()
    assert write_log(iter_log(io.StringIO(text.getvalue()), prefixes.append), again,
                     prefixes) == 70
    assert again.getvalue() == text.getvalue()
    # the copy is taken as it is: the records' own ts and rms are not written
    prefixes = ["1,2.0000,"]
    write_log([LogRecord(5, 0.5, None, 0, "none")], again, prefixes)
    assert again.getvalue().endswith(LOG_HEADER + "\n1,2.0000,,0,none\n")


def test_the_writers_write_only_what_the_grammar_reads():
    """Negative timestamps and -0.0 are written and read back as
    themselves; a timestamp of 20 digits and an rms written with 12 integer
    digits are refused where they enter and by both writers."""
    largest = 99999999999.99994  # written as 99999999999.9999
    records = [LogRecord(-(10**19 - 1), -0.0, -0.0, 0, "none"),
               LogRecord(-5, largest, None, 0, "none"),
               LogRecord(10**19 - 1, 0.0, None, 0, "none")]
    log, trace = io.StringIO(), io.StringIO()
    write_log(records, log)
    write_trace([RmsRecord(r.timestamp_s, r.rms_amps) for r in records], trace)
    for text in (log.getvalue(), trace.getvalue()):
        assert written(write_log, read_log(io.StringIO(text))) == text
    assert line_of(records[0]) == "-9999999999999999999,-0.0000,-0.0000,0,none"
    assert line_of(records[1]) == "-5,99999999999.9999,,0,none"
    for ts, rms, column, match in [(10**19, 0.5, 1, "19 digits"), (-10**19, 0.5, 1, "19 digits"),
                                   (0, 99999999999.99995, 2, "below"), (0, 1e15, 2, "below")]:
        with pytest.raises(InvalidInputError, match=match) as exc:
            LogRecord(ts, rms, None, 0, "none")
        assert exc.value.column == column
        with pytest.raises(InvalidInputError, match=match):
            write_trace([RmsRecord(ts, rms)], io.StringIO())
        rec = LogRecord(0, 0.5, None, 0, "none")
        rec.timestamp_s, rec.rms_amps = ts, rms  # the slots are not checked
        with pytest.raises(InvalidInputError, match=match):
            write_log([rec], io.StringIO())


@pytest.mark.parametrize("read, text", [
    (read_events, EVENTS_HEADER + "\n1000,zscore,3.1234,1,500,1000\n"
                  f"{HUGE_TS},watchdog,,0,5000,{HUGE_TS}\n"),
    (read_events, "1000,zscore,3.1234,1,500,1000\n"
                  "10000000000000000000,watchdog,,0,5000,9000\n"),
    (read_labels, LABELS_HEADER + f"\n345600,363600,door_open\n{HUGE_TS},{HUGE_TS}1,door_open\n"),
    (read_labels, "345600,363600,door_open\n-10000000000000000000,0,door_open\n"),
])
def test_row_readers_refuse_an_int_of_20_digits_at_its_line(read, text):
    with pytest.raises(LogParseError, match="19 digits") as exc:
        read(io.StringIO(text))
    assert exc.value.line_number == text.count("\n")


def test_write_log_memory_does_not_grow_with_record_count():
    def peak(n):
        # a new composite object every 150 records, as cycle closes give
        records = (LogRecord(i, 0.87, None if i < 1500 else float(i // 150), 0, EventKind.NONE)
                   for i in range(n))
        with open(os.devnull, "w") as sink:
            gc.collect()  # empties the free lists, whose reuse tracemalloc does not see
            tracemalloc.start()
            try:
                write_log(records, sink)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    assert peak(40_000) <= peak(4_000) + 1024


# 99999999999.99994 is the largest rms written with 11 integer digits
RMS_EDGES = st.sampled_from([0.0, -0.0, 5e-05, 0.00015, 5e-324, 99999999999.99994])


@given(st.lists(st.tuples(st.integers(-2**40, 2**40), RMS_EDGES | st.floats(0, 10)),
                unique_by=lambda row: row[0]))
@settings(max_examples=300)
def test_write_trace_writes_what_write_log_writes_for_trace_rows(rows):
    records = [RmsRecord(ts, rms) for ts, rms in sorted(rows)]
    trace, log = io.StringIO(), io.StringIO()
    assert write_trace(records, trace) == len(records)
    assert write_log((LogRecord(r.timestamp_s, r.rms_amps, None, 0, EventKind.NONE)
                      for r in records), log) == len(records)
    assert trace.getvalue() == log.getvalue()
    assert [(r.timestamp_s, r.rms_amps) for r in iter_log(io.StringIO(trace.getvalue()))] == [
        (r.timestamp_s, float(f"{r.rms_amps:.4f}")) for r in records]


def test_write_trace_refuses_what_log_record_refuses():
    buf = io.StringIO()
    assert write_trace([], buf) == 0
    assert buf.getvalue() == LOG_HEADER + "\n"
    with pytest.raises(InvalidInputError, match="timestamp_s"):
        write_trace([RmsRecord(1.5, 0.5)], io.StringIO())
    changed = RmsRecord(1, 0.5)
    changed.rms_amps = math.nan  # RmsRecord checks only at construction
    with pytest.raises(InvalidInputError, match="rms_amps"):
        write_trace([RmsRecord(0, 0.5), changed], io.StringIO())
    # iter_log refuses a timestamp not after the previous one, in its wording
    for first, second in [(5, 5), (9, 3)]:
        with pytest.raises(StreamOrderError, match=f"^timestamp {second} not after {first}$"):
            write_trace([RmsRecord(first, 0.5), RmsRecord(second, 0.5)], io.StringIO())
        with pytest.raises(LogParseError, match=f"timestamp {second} not after {first}"):
            read_log(io.StringIO(f"{first},0.5000,,0,none\n{second},0.5000,,0,none\n"))


def test_write_log_refuses_what_iter_log_refuses():
    for first, second in [(5, 5), (9, 3)]:
        records = [LogRecord(ts, 0.5, None, 0, EventKind.NONE) for ts in (first, second)]
        with pytest.raises(StreamOrderError, match=f"^timestamp {second} not after {first}$"):
            write_log(records, io.StringIO())


def test_file_round_trip_with_header():
    records = [
        LogRecord(100, 0.07, None, 0, EventKind.NONE),
        LogRecord(130, 0.87, None, 0, EventKind.NONE),
        LogRecord(160, 0.07, 0.5, 0, EventKind.NONE),
    ]
    buf = io.StringIO()
    write_log(records, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == LOG_HEADER
    assert read_log(io.StringIO(text)) == records
    # header is optional on read
    headerless = "\n".join(text.splitlines()[1:]) + "\n"
    assert read_log(io.StringIO(headerless)) == records


def test_strict_mode_rejects_out_of_order():
    text = "100,0.0700,,0,none\n90,0.0700,,0,none\n"
    with pytest.raises(LogParseError):
        read_log(io.StringIO(text))


def test_events_file_round_trip():
    events = [
        AnomalyEvent(EventKind.ZSCORE, 1000, 3.1234, 1, 500, 1000),
        AnomalyEvent(EventKind.WATCHDOG, 9000, None, 0, 5000, 9000),
    ]
    buf = io.StringIO()
    write_events(events, buf)
    assert read_events(io.StringIO(buf.getvalue())) == events


def test_event_invariants():
    with pytest.raises(InvalidInputError):
        AnomalyEvent(EventKind.WATCHDOG, 1000, 2.0, 0, 500, 1000)
    with pytest.raises(InvalidInputError):
        AnomalyEvent(EventKind.ZSCORE, 400, 2.0, 0, 500, 1000)
    for kind in ("none", "bogus", None, ["zscore"]):
        with pytest.raises(InvalidInputError):
            AnomalyEvent(kind, 1000, None, 0, 500, 1000)
    with pytest.raises(InvalidInputError, match="streak"):
        AnomalyEvent(EventKind.ZSCORE, 1000, 2.0, -4, 500, 1000)
    with pytest.raises(InvalidInputError, match="cycle_end_s"):
        AnomalyEvent(EventKind.ZSCORE, 1000, 2.0, 1, 500, 100)
    # a watchdog's streak is 0, and a flagged log record's event is one instant
    AnomalyEvent(EventKind.WATCHDOG, 9000, None, 0, 5000, 9000)
    AnomalyEvent(EventKind.ZSCORE, 1000, 2.0, 0, 1000, 1000)


# the log's integer bound: at most 19 digits
EVENT_INTS = st.integers(-2**40, 2**40) | st.sampled_from(
    [10**19 - 1, -(10**19 - 1), 10**19, -10**19]) | NOT_INTS


@given(
    kind=st.sampled_from(list(EventKind) + ["zscore", "watchdog", "none", "gap"]),
    detected=EVENT_INTS,
    composite=st.none() | st.floats(-1e6, 1e6) | NON_FINITE,
    streak=EVENT_INTS,
    start=EVENT_INTS,
    end=EVENT_INTS,
)
@example(kind="zscore", detected=10, composite=math.nan, streak=1, start=5, end=10)  # was written as "nan"
@example(kind="zscore", detected=10, composite=3.0, streak=1.5, start=5, end=10)  # was written as "1.5"
@settings(max_examples=500)
def test_event_constructor_accepts_exactly_what_round_trips(
        kind, detected, composite, streak, start, end):
    ints = (detected, streak, start, end)
    valid = (kind in ("zscore", "watchdog") and (composite is None) == (kind == "watchdog")
             and (composite is None or math.isfinite(composite))
             and all(type(t) is int and abs(t) < 10**19 for t in ints) and detected >= start
             and end >= start and streak >= 0)
    if not valid:
        with pytest.raises(InvalidInputError):
            AnomalyEvent(kind, detected, composite, streak, start, end)
        return
    event = AnomalyEvent(kind, detected, composite, streak, start, end)
    buf = io.StringIO()
    write_events([event], buf)
    (back,) = read_events(io.StringIO(buf.getvalue()))
    assert (back.kind, back.detected_at_s, back.streak, back.cycle_start_s,
            back.cycle_end_s) == (event.kind, *ints)
    again = io.StringIO()
    write_events([back], again)
    assert again.getvalue() == buf.getvalue()


def test_event_kind_given_as_text_is_the_member():
    event = AnomalyEvent("zscore", 10, 3.0, 1, 5, 10)
    assert event.kind is EventKind.ZSCORE
    buf = io.StringIO()
    write_events([event], buf)
    assert read_events(io.StringIO(buf.getvalue())) == [event]


EVENTS_FILE = EVENTS_HEADER + "\n1000,zscore,3.1234,1,500,1000\n"
LABELS_FILE = LABELS_HEADER + "\n345600,363600,thermostat_long_on\n"


@pytest.mark.parametrize("read, text, line_number", [
    (read_events, EVENTS_FILE + "9000,watchdog,,0,5000\n", 3),
    (read_events, EVENTS_FILE + "9000,watchdog,,0,5000,9000,1\n", 3),
    (read_events, EVENTS_FILE + "9000,meltdown,,0,5000,9000\n", 3),
    (read_events, EVENTS_FILE + "9000.5,watchdog,,0,5000,9000\n", 3),
    (read_events, EVENTS_FILE + "9000,watchdog,,0,50x0,9000\n", 3),
    (read_events, EVENTS_FILE + "9000,watchdog,2.0000,0,5000,9000\n", 3),
    (read_events, EVENTS_FILE + "9000,zscore,inf,1,5000,9000\n", 3),
    (read_events, EVENTS_FILE + "9000,zscore,nan,1,5000,9000\n", 3),
    (read_events, EVENTS_FILE + "\n\n9000,none,,0,5000,9000\n", 5),
    (read_events, EVENTS_FILE + EVENTS_HEADER + "\n", 3),
    (read_events, EVENTS_FILE + "100,zscore,3.0,-4,50,100\n", 3),
    (read_events, EVENTS_FILE + "100,zscore,3.0,1,50,10\n", 3),
    (read_events, EVENTS_FILE + "1000,watchdog,,0,500,1000\n", 3),  # not after the last
    (read_events, EVENTS_FILE + "999,watchdog,,0,500,999\n", 3),
    # accepted and rewritten before the write-back rule
    (read_events, EVENTS_FILE + "+9000,watchdog,,0,5000,9000\n", 3),
    (read_events, EVENTS_FILE + "9000,watchdog,,0,5_000,9000\n", 3),
    (read_events, EVENTS_FILE + "9000,watchdog,, 0,5000,9000\n", 3),
    (read_events, EVENTS_FILE + "9000,zscore,3.0,1,5000,9000\n", 3),
    (read_labels, LABELS_FILE + "604800,605700\n", 3),
    (read_labels, LABELS_FILE + "604800,605700,door_open,1\n", 3),
    (read_labels, LABELS_FILE + "604800,605700,meltdown\n", 3),
    (read_labels, LABELS_FILE + "604800.5,605700,door_open\n", 3),
    (read_labels, LABELS_FILE + "605700,604800,door_open\n", 3),
    (read_labels, LABELS_FILE + "604800,604800,door_open\n", 3),
    (read_labels, "\n" + LABELS_FILE.split("\n", 1)[1] + "\nx,1,door_open\n", 4),
    (read_labels, LABELS_FILE + LABELS_HEADER + "\n", 3),
    (read_labels, LABELS_FILE + "363599,370000,door_open\n", 3),  # starts before the last ends
    (read_labels, LABELS_FILE + "100,200,door_open\n", 3),
    (read_labels, LABELS_FILE + "+604800,605700,door_open\n", 3),
    (read_labels, LABELS_FILE + "604800,605_700,door_open\n", 3),
])
def test_row_readers_reject_bad_lines_with_line_number(read, text, line_number):
    with pytest.raises(LogParseError) as info:
        read(io.StringIO(text))
    assert info.value.line_number == line_number


@pytest.mark.parametrize("read, text", [
    (read_events, EVENTS_FILE),
    (read_labels, LABELS_FILE),
])
def test_row_readers_skip_blank_lines_and_take_header_less_files(read, text):
    header, rows = text.split("\n", 1)
    expected = read(io.StringIO(text))
    assert len(expected) == 1
    assert read(io.StringIO(rows)) == expected
    assert read(io.StringIO("\n" + rows + "\n\n")) == expected
    with pytest.raises(LogParseError) as info:  # a repeated line is out of order
        read(io.StringIO("\n" + rows + "\n\n" + rows))
    assert info.value.line_number == 5
    assert read(io.StringIO("")) == []
    assert read(io.StringIO(header + "\n")) == []


def test_event_and_label_writers_refuse_what_their_readers_refuse():
    """Events in detection order and labels that do not overlap are written
    and read back; a repeated event or an overlapping label is refused."""
    event = AnomalyEvent("watchdog", 1000, None, 0, 500, 1000)
    with pytest.raises(StreamOrderError):
        write_events([event, event], io.StringIO())
    labels = [GroundTruthLabel(100, 200, "door_open"), GroundTruthLabel(200, 300, "door_open")]
    fh = io.StringIO()
    write_labels(labels, fh)  # a label may start where the one before it ends
    assert read_labels(io.StringIO(fh.getvalue())) == labels
    with pytest.raises(StreamOrderError):
        write_labels([labels[0], GroundTruthLabel(199, 300, "door_open")], io.StringIO())


# Each small file is defined by its writer: a reader accepts a text only if
# the values it reads are written back as that text, but for the named
# exceptions (no header on line 1, blank lines, no final newline).

@st.composite
def one_char_edit(draw, text):
    """``text`` with one character inserted, deleted or replaced; each line
    is as likely to be edited as the next, so the header does not dominate."""
    lines = text.splitlines(keepends=True)
    n = draw(st.sampled_from(range(len(lines))))
    i = len("".join(lines[:n])) + draw(st.sampled_from(range(len(lines[n]) + 1)))
    char = draw(st.sampled_from("0123456789\u0660-+_.e, =\n\r#x"))
    op = draw(st.sampled_from(["insert", "delete", "replace"]))
    if op == "insert":
        return text[:i] + char + text[i:]
    return text[:i] + (char if op == "replace" else "") + text[i + 1:]


@st.composite
def event_lists(draw):
    t, events = draw(st.integers(-2**40, 2**40)), []
    for _ in range(draw(st.integers(1, 3))):
        t += draw(st.integers(1, 10**6))
        kind = draw(st.sampled_from(["zscore", "watchdog"]))
        composite = draw(st.integers(-10**8, 10**8)) / 10_000 if kind == "zscore" else None
        start = t - draw(st.integers(0, 10**6))
        events.append(AnomalyEvent(kind, t, composite, draw(st.integers(0, 10**4)),
                                   start, start + draw(st.integers(0, 2 * 10**6))))
    return events


@st.composite
def label_lists(draw):
    t, labels = draw(st.integers(-2**40, 2**40) | st.just(-(10**19 - 1))), []
    for _ in range(draw(st.integers(1, 3))):
        start = t + draw(st.integers(0, 10**6))
        t = start + draw(st.integers(1, 10**6))
        labels.append(GroundTruthLabel(start, t, draw(st.sampled_from(list(ScenarioKind)))))
    return labels


def written(write, rows):
    fh = io.StringIO()
    write(rows, fh)
    return fh.getvalue()


@st.composite
def log_lists(draw):
    """Up to 40 records, so that an edit lands in any of two batches of
    iter_log's; timestamps from either side of zero, the edge rms values."""
    ts, records = draw(st.integers(-2**40, 2**40)), []
    for _ in range(draw(st.integers(1, 40))):
        ts += draw(st.sampled_from([1, 30, 30, 30, 10**6]))
        rms = draw(st.sampled_from([-0.0, 99999999999.9999]) | st.integers(0, 99_999).map(
            lambda n: n / 10_000))
        kind = draw(kinds)
        z = draw(st.none() | st.just(-0.0) | st.integers(-10**8, 10**8).map(lambda n: n / 10_000))
        records.append(LogRecord(ts, rms, z, int(kind is not EventKind.NONE), kind))
    return records


@pytest.mark.parametrize("write, read, header, rows", [
    (write_events, read_events, EVENTS_HEADER, event_lists()),
    (write_labels, read_labels, LABELS_HEADER, label_lists()),
    (write_log, read_log, LOG_HEADER, log_lists()),
])
@given(data=st.data())
@settings(max_examples=1000)
def test_row_readers_accept_only_what_their_writer_writes_back(write, read, header, rows, data):
    rows = data.draw(rows)
    text = written(write, rows)
    assert read(io.StringIO(text)) == rows
    edited = data.draw(one_char_edit(text))
    try:
        back = read(io.StringIO(edited))
    except LogParseError as exc:
        assert 1 <= exc.line_number <= edited.count("\n") + 1
        return
    lines = edited.split("\n")
    if lines[0] == header:
        lines = lines[1:]
    assert written(write, back) == "".join(line + "\n" for line in [header] + lines if line)


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(model=st.builds(ModelParams, mean=st.tuples(*[FINITE] * 5),
                       std=st.tuples(*[POSITIVE] * 5), trained_on=st.integers(2, 2**63)),
       data=st.data())
@settings(max_examples=300)
def test_model_reader_accepts_only_what_to_text_writes(model, data):
    text = model.to_text()
    assert ModelParams.from_text(text) == model
    edited = data.draw(one_char_edit(text))
    try:
        back = ModelParams.from_text(edited)
    except InvalidInputError:
        return
    assert back.to_text() in (edited, edited + "\n")
