"""CSV log records and anomaly events, with lossless round-trip parsing.

Log schema (one line per RMS record, header optional):

    timestamp,rms,zscore,flag,kind

timestamp is integer epoch seconds; rms and zscore carry exactly 4
fractional digits; zscore is empty while the model is still training;
flag is read from the kind: 1 exactly when kind is not "none", else 0.
``write_log`` holds the one definition of the line.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, List, Optional, TextIO

from .errors import InvalidInputError, LogParseError, StreamOrderError
from .signal_core import RmsRecord

LOG_HEADER = "timestamp,rms,zscore,flag,kind"
EVENTS_HEADER = "detected_at,kind,composite,streak,cycle_start,cycle_end"


class EventKind(str, Enum):
    NONE = "none"
    ZSCORE = "zscore"
    WATCHDOG = "watchdog"


# member keys: a member (Monitor.run's) hits by identity, ~2x faster than text
_KINDS = {kind: kind for kind in EventKind}
# Enum members read once here: through the class, each read costs ~0.15 us
_NONE = EventKind.NONE
_isfinite = math.isfinite
_FLAGS = {"0": 0, "1": 1}


@dataclass(slots=True, init=False)
class LogRecord:
    """One log line, holding only what ``write_log`` can write back: the kind
    as a member (its text is accepted); the flag, checked, is read from it."""

    timestamp_s: int
    rms_amps: float
    composite_z: Optional[float]  # None during the training phase
    event_kind: EventKind

    def __init__(self, timestamp_s, rms_amps, composite_z, anomaly_flag, event_kind):
        # in column order, but the kind (5) before the flag (4) that must match it
        if type(timestamp_s) is not int:
            raise InvalidInputError(f"timestamp_s must be an int, got {timestamp_s!r}", 1)
        if not 0 <= rms_amps < math.inf:
            raise InvalidInputError("rms_amps must be finite and non-negative", 2)
        if composite_z is not None and not _isfinite(composite_z):
            raise InvalidInputError("composite_z must be None or finite", 3)
        try:
            kind = _KINDS[event_kind]
        except (KeyError, TypeError):
            raise InvalidInputError(f"unknown event_kind {event_kind!r}", 5) from None
        if anomaly_flag != (0 if kind is _NONE else 1):
            raise InvalidInputError("anomaly_flag must be 1 iff event_kind != none", 4)
        self.timestamp_s = timestamp_s
        self.rms_amps = rms_amps
        self.composite_z = composite_z
        self.event_kind = kind

    @property
    def anomaly_flag(self) -> int:
        return 0 if self.event_kind is _NONE else 1


@dataclass(frozen=True)
class AnomalyEvent:
    """A detector or watchdog firing; ``kind`` may be given as its text."""

    kind: EventKind
    detected_at_s: int
    composite: Optional[float]  # present iff kind == ZSCORE
    streak: int
    cycle_start_s: int
    cycle_end_s: int

    def __post_init__(self):
        try:
            kind = _KINDS[self.kind]
        except (KeyError, TypeError):
            raise InvalidInputError(f"unknown event kind {self.kind!r}") from None
        object.__setattr__(self, "kind", kind)
        if kind is _NONE:
            raise InvalidInputError("an anomaly event must have a non-none kind")
        if (self.composite is not None) != (kind is EventKind.ZSCORE):
            raise InvalidInputError("composite present iff kind is zscore")
        if self.composite is not None and not _isfinite(self.composite):
            raise InvalidInputError(f"composite must be finite, got {self.composite!r}")
        ints = (self.detected_at_s, self.streak, self.cycle_start_s, self.cycle_end_s)
        if any(type(v) is not int for v in ints):
            raise InvalidInputError(f"event times and streak must be ints, got {ints!r}")
        if self.detected_at_s < self.cycle_start_s:
            raise InvalidInputError("detected_at_s must be >= cycle_start_s")
        if self.cycle_end_s < self.cycle_start_s:
            raise InvalidInputError("cycle_end_s must be >= cycle_start_s")
        if self.streak < 0:
            raise InvalidInputError(f"streak must be >= 0, got {self.streak}")


def parse_record(line: str, line_number: Optional[int] = None) -> LogRecord:
    """Inverse of ``write_log``'s line: convert the five fields, and
    LogRecord checks the values.  Either failure is a LogParseError at the
    column it names, and a wrong column count one at the line."""
    fields = line.rstrip("\n").split(",")
    if len(fields) != 5:
        raise LogParseError(f"expected 5 columns, got {len(fields)}", line_number)
    ts_s, rms_s, z_s, flag_s, kind_s = fields
    try:
        ts = int(ts_s)
    except ValueError:
        raise LogParseError(f"bad timestamp {ts_s!r}", line_number, 1) from None
    try:
        rms = float(rms_s)
    except ValueError:
        raise LogParseError(f"bad rms {rms_s!r}", line_number, 2) from None
    try:
        z = None if z_s == "" else float(z_s)
    except ValueError:
        raise LogParseError(f"bad zscore {z_s!r}", line_number, 3) from None
    flag = _FLAGS.get(flag_s)
    if flag is None:
        raise LogParseError(f"bad flag {flag_s!r}", line_number, 4)
    try:
        return LogRecord(ts, rms, z, flag, kind_s)
    except InvalidInputError as exc:
        raise LogParseError(str(exc), line_number, exc.column) from None


def write_log(records: Iterable[LogRecord], fh: TextIO) -> int:
    """Write the header and each record's line, the only definition of it;
    returns the record count.  The ``zscore,flag,kind`` tail is formatted
    again only when ``composite_z`` is not the previous record's object
    (identity, as 0.0 == -0.0 but prints differently) or the kind, and so
    the flag, changes.
    A timestamp that ``iter_log`` would refuse raises StreamOrderError.
    """
    write = fh.write
    write(LOG_HEADER + "\n")
    n, last_ts = 0, -math.inf
    last_z = last_kind = tail = None
    for n, rec in enumerate(records, start=1):
        ts, z, kind = rec.timestamp_s, rec.composite_z, rec.event_kind
        if ts <= last_ts:
            raise StreamOrderError(f"timestamp {ts} not after {last_ts}")
        last_ts = ts
        if z is not last_z or kind is not last_kind:
            last_z, last_kind = z, kind
            # _value_ is the member's plain attribute; .value is a slower property
            tail = f"{'' if z is None else f'{z:.4f}'},{rec.anomaly_flag},{kind._value_}\n"
        write(f"{ts},{rec.rms_amps:.4f},{tail}")
    return n


def write_trace(records: Iterable[RmsRecord], fh: TextIO) -> int:
    """What ``write_log`` writes for the records as LogRecords with no z and
    no event; returns the count.  LogRecord's InvalidInputError is raised for
    a non-int timestamp, or an rms that was set out of range after building;
    ``write_log``'s StreamOrderError for a timestamp out of order."""
    write = fh.write
    write(LOG_HEADER + "\n")
    n, last_ts = 0, -math.inf
    for n, rec in enumerate(records, start=1):
        ts, rms = rec.timestamp_s, rec.rms_amps
        if type(ts) is not int:
            raise InvalidInputError(f"timestamp_s must be an int, got {ts!r}", 1)
        if ts <= last_ts:
            raise StreamOrderError(f"timestamp {ts} not after {last_ts}")
        last_ts = ts
        if not 0 <= rms < math.inf:
            raise InvalidInputError("rms_amps must be finite and non-negative", 2)
        write(f"{ts},{rms:.4f},,0,none\n")
    return n


def iter_log(fh: TextIO) -> Iterator[LogRecord]:
    """Parse each non-blank line as ``parse_record`` does (a header on
    line 1 is skipped); non-increasing timestamps are rejected.  A line's
    ``zscore,flag,kind`` tail is converted and checked only when its text
    differs from the previous record's; otherwise that record's checked z
    object and kind are reused, and only ts and rms are converted.
    Such a line's record is built without a second call into ``__init__``
    once ``int`` and ``float`` take ts and rms and the rms is in [0, inf),
    LogRecord's remaining checks; any other line goes to ``parse_record``.
    """
    new, inf = object.__new__, math.inf
    last_ts = -inf
    tail = z = kind = None
    for i, line in enumerate(fh, start=1):
        try:
            ts_s, rms_s, text = line.split(",", 2)  # text keeps the newline
        except ValueError:  # a blank line, or under 5 columns
            text = ""
        if text == tail:
            try:
                ts, rms = int(ts_s), float(rms_s)
            except ValueError:
                rms = math.nan
            if 0 <= rms < inf:
                rec = new(LogRecord)
                rec.timestamp_s = ts
                rec.rms_amps = rms
                rec.composite_z = z
                rec.event_kind = kind
            else:  # parse_record words the error and finds its column
                rec = parse_record(line, i)
        else:
            line = line.rstrip("\n")
            if not line or (i == 1 and line == LOG_HEADER):
                continue
            rec = parse_record(line, i)
            tail, z, kind = text, rec.composite_z, rec.event_kind
        ts = rec.timestamp_s
        if ts <= last_ts:
            raise LogParseError(f"timestamp {ts} not after {last_ts}", i, 1)
        last_ts = ts
        yield rec


def read_log(fh: TextIO) -> List[LogRecord]:
    """The whole of iter_log as a list."""
    return list(iter_log(fh))


def write_rows(rows: Iterable, fh: TextIO, header: str, line, in_order) -> None:
    """Write ``header``, then ``line(row)`` for each row; a row for which
    ``in_order(previous_row, row)`` is false raises StreamOrderError."""
    fh.write(header + "\n")
    prev = None
    for row in rows:
        if prev is not None and not in_order(prev, row):
            raise StreamOrderError(f"{line(row)!r} is out of order after {line(prev)!r}")
        fh.write(line(row) + "\n")
        prev = row


def read_rows(fh: TextIO, header: str, build, line, in_order) -> list:
    """The rows ``build`` makes from each line's fields, with or without the
    header and final newline, blank lines skipped; a line ``line`` does not
    write back from its row, or ``in_order`` refuses, raises LogParseError."""
    rows = []
    for i, text in enumerate(fh, start=1):
        text = text.rstrip("\n")
        if not text or (i == 1 and text == header):
            continue
        try:  # a TypeError is a wrong column count
            row = build(*text.split(","))
        except (TypeError, ValueError) as exc:  # InvalidInputError included
            raise LogParseError(f"bad line {text!r}: {exc}", i) from None
        if line(row) != text:
            raise LogParseError(f"line {text!r} is written back as {line(row)!r}", i)
        if rows and not in_order(rows[-1], row):
            raise LogParseError(f"{text!r} is out of order after {line(rows[-1])!r}", i)
        rows.append(row)
    return rows


def _event_line(ev: AnomalyEvent) -> str:
    comp = "" if ev.composite is None else f"{ev.composite:.4f}"
    return (f"{ev.detected_at_s},{ev.kind.value},{comp},{ev.streak},"
            f"{ev.cycle_start_s},{ev.cycle_end_s}")


def _event_from_fields(detected_at, kind, composite, streak, cycle_start, cycle_end):
    return AnomalyEvent(kind, int(detected_at), None if composite == "" else float(composite),
                        int(streak), int(cycle_start), int(cycle_end))


def _event_after(prev: AnomalyEvent, ev: AnomalyEvent) -> bool:
    return ev.detected_at_s > prev.detected_at_s


def write_events(events: Iterable[AnomalyEvent], fh: TextIO) -> None:
    """An event not detected after the one before it raises StreamOrderError."""
    write_rows(events, fh, EVENTS_HEADER, _event_line, _event_after)


def read_events(fh: TextIO) -> List[AnomalyEvent]:
    return read_rows(fh, EVENTS_HEADER, _event_from_fields, _event_line, _event_after)
