"""CSV log records and anomaly events, with lossless round-trip parsing.

Log schema (one line per RMS record, header optional):

    timestamp,rms,zscore,flag,kind

timestamp is integer epoch seconds of at most 19 digits; rms and zscore
carry exactly 4 fractional digits; zscore is empty while the model is
still training; flag is read from the kind: 1 exactly when kind is not
"none", else 0.  ``write_log`` holds the one definition of the line, and
a line is read only as the text it writes: ``_PREFIX`` is the grammar of
its ``ts,rms,`` text, and its tail must be written back as itself.
"""

import math
import re
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Callable, Iterable, Iterator, List, Optional, TextIO

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

# every int of a log, events or labels line is above -TS_END and below it
TS_END = 10**19
# the least float that ":.4f" writes with 12 integer digits.  An rms text of
# at most 11 integer digits and 4 places (15 significant digits) comes back
# from float() and ":.4f" as itself, so the pattern alone decides it is canonical
_RMS_END = 99999999999.99995
# a line's "ts,rms," text, which is canonical; -0.0 is written as -0.0000
_PREFIX = re.compile(r"(?:0|-?[1-9][0-9]{0,18}),(?:(?:0|[1-9][0-9]{0,10})\.[0-9]{4}|-0\.0000),")
_LINE = _PREFIX.pattern + r"[^\n]*\n"
# iter_log's check of a batch of whole lines: sub leaves nothing of one whose
# every line matches.  Eight lines are written out: a (?:line)* repeat keeps
# ~500 B of regex stack a line, and a possessive *+ needs Python 3.11.
# Compiled at import (~1 ms): on first use, its ~43 KB would add to the peak
# memory of the first read
_LINES = re.compile(_LINE * 8 + "|" + _LINE)
_BATCH = 32


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
        if type(timestamp_s) is not int or not -TS_END < timestamp_s < TS_END:
            raise _bad_ts(timestamp_s)
        if not 0 <= rms_amps < _RMS_END:
            raise _bad_rms(rms_amps)
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
        if any(type(v) is not int or not -TS_END < v < TS_END for v in ints):
            raise InvalidInputError(
                f"event times and streak must be ints of at most 19 digits, got {ints!r}")
        if self.detected_at_s < self.cycle_start_s:
            raise InvalidInputError("detected_at_s must be >= cycle_start_s")
        if self.cycle_end_s < self.cycle_start_s:
            raise InvalidInputError("cycle_end_s must be >= cycle_start_s")
        if self.streak < 0:
            raise InvalidInputError(f"streak must be >= 0, got {self.streak}")


def _bad_ts(ts, last_ts: int = -TS_END) -> Exception:
    """What a timestamp LogRecord refuses raises, or one not after ``last_ts``."""
    if type(ts) is not int:
        return InvalidInputError(f"timestamp_s must be an int, got {ts!r}", 1)
    if -TS_END < ts <= last_ts:
        return StreamOrderError(f"timestamp {ts} not after {last_ts}")
    return InvalidInputError(f"timestamp_s must have at most 19 digits, got {ts!r}", 1)


def _bad_rms(rms) -> InvalidInputError:
    if 0 <= rms < math.inf:
        return InvalidInputError(f"rms_amps must be below {_RMS_END!r}, got {rms!r}", 2)
    return InvalidInputError("rms_amps must be finite and non-negative", 2)


def parse_record(line: str, line_number: Optional[int] = None) -> LogRecord:
    """Inverse of ``write_log``'s line: the timestamp and rms must match
    their grammar, the five fields convert, LogRecord checks the values, and
    the tail must be written back as itself.  A failure is a LogParseError
    at the column it names, and a wrong column count one at the line."""
    fields = line.rstrip("\n").split(",")
    if len(fields) != 5:
        raise LogParseError(f"expected 5 columns, got {len(fields)}", line_number)
    ts_s, rms_s, z_s, flag_s, kind_s = fields
    if not _PREFIX.match(line):
        if not _PREFIX.match(ts_s + ",0.0000,"):
            raise LogParseError(f"bad timestamp {ts_s!r}", line_number, 1)
        raise LogParseError(f"bad rms {rms_s!r}", line_number, 2)
    try:
        z = None if z_s == "" else float(z_s)
    except ValueError:
        raise LogParseError(f"bad zscore {z_s!r}", line_number, 3) from None
    flag = _FLAGS.get(flag_s)
    if flag is None:
        raise LogParseError(f"bad flag {flag_s!r}", line_number, 4)
    try:
        rec = LogRecord(int(ts_s), float(rms_s), z, flag, kind_s)
    except InvalidInputError as exc:
        raise LogParseError(str(exc), line_number, exc.column) from None
    # z written back as write_log writes it; the flag and kind are exact by their dicts
    if z is not None and f"{z:.4f}" != z_s:
        raise LogParseError(f"bad zscore {z_s!r}", line_number, 3)
    return rec


def write_log(records: Iterable[LogRecord], fh: TextIO,
              prefixes: Optional[list] = None) -> int:
    """Write the header and each record's line, the only definition of it,
    joined 32 lines a write; returns the record count.  The ``zscore,flag,kind``
    tail is formatted again only when ``composite_z`` is not the previous
    record's object (identity, as 0.0 == -0.0 but prints differently) or the
    kind, and so the flag, changes.  A timestamp or rms that ``iter_log``
    would refuse raises LogRecord's InvalidInputError, or StreamOrderError.
    ``prefixes``, the list whose ``append`` was given to the ``iter_log``
    that ``records`` comes from, one record out per record in, holds each
    line's checked ``ts,rms,`` text: it is copied, not formatted again.
    """
    write = fh.write
    write(LOG_HEADER + "\n")
    lines = [] if prefixes is None else prefixes
    n, last_ts = 0, -TS_END
    last_z = last_kind = tail = None
    for n, rec in enumerate(records, start=1):
        z, kind = rec.composite_z, rec.event_kind
        if z is not last_z or kind is not last_kind:
            last_z, last_kind = z, kind
            # _value_ is the member's plain attribute; .value is a slower property
            tail = f"{'' if z is None else f'{z:.4f}'},{rec.anomaly_flag},{kind._value_}\n"
        if prefixes is None:
            ts, rms = rec.timestamp_s, rec.rms_amps
            if not last_ts < ts < TS_END:
                raise _bad_ts(ts, last_ts)
            last_ts = ts
            if not 0 <= rms < _RMS_END:
                raise _bad_rms(rms)
            lines.append(f"{ts},{rms:.4f},")
        lines.append(tail)
        if not n % _BATCH:
            write("".join(lines))
            lines.clear()
    write("".join(lines))
    return n


def write_trace(records: Iterable[RmsRecord], fh: TextIO) -> int:
    """What ``write_log`` writes for the records as LogRecords with no z and
    no event; returns the count.  LogRecord's InvalidInputError is raised for
    a timestamp or rms it refuses (an rms may be set out of range after
    building); ``write_log``'s StreamOrderError for a timestamp out of order."""
    write = fh.write
    write(LOG_HEADER + "\n")
    n, last_ts = 0, -TS_END
    for n, rec in enumerate(records, start=1):
        ts, rms = rec.timestamp_s, rec.rms_amps
        if type(ts) is not int or not last_ts < ts < TS_END:
            raise _bad_ts(ts, last_ts)
        last_ts = ts
        if not 0 <= rms < _RMS_END:
            raise _bad_rms(rms)
        write(f"{ts},{rms:.4f},,0,none\n")
    return n


def iter_log(fh: TextIO, on_prefix: Optional[Callable[[str], None]] = None
             ) -> Iterator[LogRecord]:
    """Parse each non-blank line as ``parse_record`` does (a header on
    line 1 is skipped); non-increasing timestamps are rejected.  Lines are
    read 32 at a time, so a record waits for the rest of its batch: on a
    slow pipe, for up to 31 later lines.
    A batch whose every line is whole and opens with a canonical ``ts,rms,``
    (one regex call) is read by tail: a line's ``zscore,flag,kind`` text is
    checked by ``parse_record`` only when it differs from the previous
    line's, and otherwise that record's z object and kind are reused, only
    ts and rms converted, and the record built without a call into
    ``__init__``.  Any other batch goes line by line through ``parse_record``.
    ``on_prefix``, if given, is called with each record's ``ts,rms,`` text
    just before the record is yielded (see ``write_log``'s ``prefixes``).
    """
    new = object.__new__
    last_ts = -TS_END
    tail = z = kind = None
    i = 0
    while lines := list(islice(fh, _BATCH)):
        checked = not _LINES.sub("", "".join(lines))
        for i, line in enumerate(lines, i + 1):
            if checked:
                ts_s, rms_s, text = line.split(",", 2)
            else:
                line = line.rstrip("\n")
                if not line or (i == 1 and line == LOG_HEADER):
                    continue
                text = ""  # never a checked tail, which ends in its newline
            if text == tail:
                rec = new(LogRecord)
                rec.timestamp_s = ts = int(ts_s)
                rec.rms_amps = float(rms_s)
                rec.composite_z = z
                rec.event_kind = kind
            else:
                rec = parse_record(line, i)
                ts = rec.timestamp_s
                if text:
                    tail, z, kind = text, rec.composite_z, rec.event_kind
                else:
                    ts_s, rms_s, _ = line.split(",", 2)
            if ts <= last_ts:
                raise LogParseError(f"timestamp {ts} not after {last_ts}", i, 1)
            last_ts = ts
            if on_prefix is not None:
                on_prefix(f"{ts_s},{rms_s},")
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
