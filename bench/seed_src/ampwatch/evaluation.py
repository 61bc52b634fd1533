"""Event-level detection scoring against ground-truth label windows."""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .event_log import AnomalyEvent
from .simulator import GroundTruthLabel

DEFAULT_MATCH_GRACE_S = 7200.0


@dataclass
class EvalReport:
    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    precision: Optional[float] = None  # None when TP+FP == 0
    recall: Optional[float] = None     # None when TP+FN == 0
    f1: Optional[float] = None
    # (label kind, detected_at - window_start) per matched pair
    detection_delays: List[Tuple[str, float]] = field(default_factory=list)
    per_kind: Dict[str, Dict[str, int]] = field(default_factory=dict)


def evaluate(
    events: Sequence[AnomalyEvent],
    truth: Sequence[GroundTruthLabel],
    match_grace_s: float = DEFAULT_MATCH_GRACE_S,
) -> EvalReport:
    """Match events to labels by time and compute precision/recall/F1.

    An event matches a label when its detection time falls inside the
    label window widened by the grace interval on both sides.  Each
    label consumes at most one event (the earliest unconsumed match);
    leftover events are false positives, leftover labels false
    negatives.  Input order is irrelevant; sorting is internal.
    """
    evs = sorted(events, key=lambda e: e.detected_at_s)
    labels = sorted(truth, key=lambda l: l.window_start_s)
    consumed = [False] * len(evs)

    report = EvalReport()

    def bucket(kind: str) -> Dict[str, int]:
        return report.per_kind.setdefault(kind, {"tp": 0, "fp": 0, "fn": 0})

    for lab in labels:
        lo = lab.window_start_s - match_grace_s
        hi = lab.window_end_s + match_grace_s
        match = None
        for i, ev in enumerate(evs):
            if consumed[i]:
                continue
            if lo <= ev.detected_at_s <= hi:
                match = i
                break
        if match is None:
            report.false_negatives += 1
            bucket(lab.kind.value)["fn"] += 1
        else:
            consumed[match] = True
            report.true_positives += 1
            bucket(lab.kind.value)["tp"] += 1
            report.detection_delays.append(
                (lab.kind.value, float(evs[match].detected_at_s - lab.window_start_s))
            )
    for i, ev in enumerate(evs):
        if not consumed[i]:
            report.false_positives += 1
            bucket(ev.kind.value)["fp"] += 1

    tp, fp, fn = report.true_positives, report.false_positives, report.false_negatives
    if tp + fp > 0:
        report.precision = tp / (tp + fp)
    if tp + fn > 0:
        report.recall = tp / (tp + fn)
    if report.precision is not None and report.recall is not None:
        s = report.precision + report.recall
        report.f1 = 2 * report.precision * report.recall / s if s > 0 else 0.0
    return report


def _fmt_ratio(x: Optional[float]) -> str:
    return "n/a" if x is None else f"{x:.4f}"


def report_text(report: EvalReport) -> str:
    lines = [
        f"true_positives:  {report.true_positives}",
        f"false_positives: {report.false_positives}",
        f"false_negatives: {report.false_negatives}",
        f"precision:       {_fmt_ratio(report.precision)}",
        f"recall:          {_fmt_ratio(report.recall)}",
        f"f1:              {_fmt_ratio(report.f1)}",
    ]
    for kind in sorted(report.per_kind):
        c = report.per_kind[kind]
        lines.append(f"  {kind}: tp={c['tp']} fp={c['fp']} fn={c['fn']}")
    if report.detection_delays:
        delays = ", ".join(f"{k}={d:.0f}s" for k, d in report.detection_delays)
        lines.append(f"detection delays: {delays}")
    return "\n".join(lines)


def report_kv(report: EvalReport) -> str:
    """Machine-readable key=value document; vacuous metrics are omitted."""
    lines = [
        f"tp={report.true_positives}",
        f"fp={report.false_positives}",
        f"fn={report.false_negatives}",
    ]
    if report.precision is not None:
        lines.append(f"precision={report.precision!r}")
    if report.recall is not None:
        lines.append(f"recall={report.recall!r}")
    if report.f1 is not None:
        lines.append(f"f1={report.f1!r}")
    for kind in sorted(report.per_kind):
        c = report.per_kind[kind]
        for key in ("tp", "fp", "fn"):
            lines.append(f"{kind}.{key}={c[key]}")
    for i, (kind, delay) in enumerate(report.detection_delays):
        lines.append(f"delay.{i}.kind={kind}")
        lines.append(f"delay.{i}.seconds={delay!r}")
    return "\n".join(lines) + "\n"
