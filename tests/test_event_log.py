import gc
import io
import math
import os
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ampwatch.errors import InvalidInputError, LogParseError
from ampwatch.event_log import (
    EVENTS_HEADER,
    AnomalyEvent,
    EventKind,
    LOG_HEADER,
    LogRecord,
    parse_record,
    read_events,
    read_log,
    serialize_record,
    write_events,
    write_log,
)
from ampwatch.simulator import LABELS_HEADER, read_labels


def test_basic_line():
    rec = LogRecord(1_700_000_000, 0.87, 0.12, 0, EventKind.NONE)
    assert serialize_record(rec) == "1700000000,0.8700,0.1200,0,none"


def test_training_phase_empty_z():
    rec = LogRecord(1_700_000_000, 0.07, None, 0, EventKind.NONE)
    assert serialize_record(rec) == "1700000000,0.0700,,0,none"


def test_anomaly_line():
    rec = LogRecord(1_700_000_500, 0.88, 3.1, 1, EventKind.ZSCORE)
    assert serialize_record(rec) == "1700000500,0.8800,3.1000,1,zscore"


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
    assert parse_record(serialize_record(rec)) == rec


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
    line = serialize_record(rec)
    back = parse_record(line)
    assert serialize_record(back) == line
    assert (back.timestamp_s, back.anomaly_flag, back.event_kind) == (
        ts, rec.anomaly_flag, rec.event_kind)


def _records_with_z(steps):
    """One record per step; "same" repeats the previous z object, "copy"
    repeats its value in a new float, anything else is the next z."""
    z, records = None, []
    for i, step in enumerate(steps):
        if step == "copy":
            z = None if z is None else float(repr(z))
        elif step != "same":
            z = step
        records.append(LogRecord(i, 0.07, z, 0, EventKind.NONE))
    return records


@given(st.lists(st.sampled_from(["same", "copy", None, 0.0, -0.0]) | st.floats(-1e3, 1e3)))
@example([0.0, -0.0, "copy", "same", None, 0.5, "copy", None])
@example([-0.0, "copy", 0.0, "same", -0.0])
@settings(max_examples=300)
def test_write_log_lines_are_serialize_record(steps):
    records = _records_with_z(steps)
    buf = io.StringIO()
    assert write_log(records, buf) == len(records)
    assert buf.getvalue().splitlines() == [LOG_HEADER] + [serialize_record(r) for r in records]


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


EVENT_INTS = st.integers(-2**40, 2**40) | NOT_INTS


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
             and all(type(t) is int for t in ints) and detected >= start)
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
    (read_labels, LABELS_FILE + "604800,605700\n", 3),
    (read_labels, LABELS_FILE + "604800,605700,door_open,1\n", 3),
    (read_labels, LABELS_FILE + "604800,605700,meltdown\n", 3),
    (read_labels, LABELS_FILE + "604800.5,605700,door_open\n", 3),
    (read_labels, LABELS_FILE + "605700,604800,door_open\n", 3),
    (read_labels, LABELS_FILE + "604800,604800,door_open\n", 3),
    (read_labels, "\n" + LABELS_FILE.split("\n", 1)[1] + "\nx,1,door_open\n", 4),
    (read_labels, LABELS_FILE + LABELS_HEADER + "\n", 3),
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
    assert read(io.StringIO("\n" + rows + "\n\n" + rows)) == expected * 2
    assert read(io.StringIO("")) == []
    assert read(io.StringIO(header + "\n")) == []
