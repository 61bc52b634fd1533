import math
import random

import pytest

from ampwatch.errors import InvalidInputError
from ampwatch.evaluation import evaluate, report_kv, report_text
from ampwatch.event_log import AnomalyEvent, EventKind
from ampwatch.simulator import GroundTruthLabel, ScenarioKind


def zev(t, cycle_start=None):
    cs = t - 1800 if cycle_start is None else cycle_start
    return AnomalyEvent(EventKind.ZSCORE, t, 3.0, 1, cs, t)


def wev(t):
    return AnomalyEvent(EventKind.WATCHDOG, t, None, 0, t - 3630, t)


def label(start, end, kind=ScenarioKind.THERMOSTAT_LONG_ON):
    return GroundTruthLabel(start, end, kind)


def test_perfect_match():
    labels = [label(i * 100_000, i * 100_000 + 5000) for i in range(4)]
    events = [zev(l.window_end_s) for l in labels]
    rep = evaluate(events, labels)
    assert (rep.true_positives, rep.false_positives, rep.false_negatives) == (4, 0, 0)
    assert rep.precision == 1.0
    assert rep.recall == 1.0
    assert rep.f1 == 1.0
    assert [d for _, d in rep.detection_delays] == [5000.0] * 4


def test_vacuous_metrics_absent():
    rep = evaluate([], [])
    assert rep.precision is None
    assert rep.recall is None
    assert rep.f1 is None
    assert "precision" not in report_kv(rep)
    assert "n/a" in report_text(rep)


def test_harmonic_mean():
    labels = [label(0, 1000), label(100_000, 101_000)]
    events = [zev(500)]
    rep = evaluate(events, labels)
    assert rep.precision == 1.0
    assert rep.recall == 0.5
    assert rep.f1 == pytest.approx(2 / 3)


def test_unmatched_event_is_fp():
    rep = evaluate([zev(500_000)], [label(0, 1000)])
    assert rep.false_positives == 1
    assert rep.false_negatives == 1
    assert rep.precision == 0.0
    assert rep.recall == 0.0
    assert rep.f1 == 0.0


def test_grace_window_edges():
    lab = label(10_000, 20_000)
    inside = zev(20_000 + 7200)
    outside = zev(20_000 + 7201, cycle_start=20_000)
    assert evaluate([inside], [lab], match_grace_s=7200).true_positives == 1
    assert evaluate([outside], [lab], match_grace_s=7200).true_positives == 0
    assert evaluate([zev(20_000)], [lab], match_grace_s=0).true_positives == 1


@pytest.mark.parametrize("grace", [math.nan, -1e9, -1.0, math.inf])
def test_bad_grace_is_refused(grace):
    # a NaN or negative grace matches no event, an infinite one matches all
    lab = label(10_000, 20_000)
    with pytest.raises(InvalidInputError, match="match_grace_s"):
        evaluate([zev(20_000)], [lab], match_grace_s=grace)


def test_label_consumes_earliest_match_once():
    lab = label(10_000, 20_000)
    early, late = zev(15_000), zev(19_000)
    rep = evaluate([late, early], [lab])
    assert rep.true_positives == 1
    assert rep.false_positives == 1
    assert rep.detection_delays == [("thermostat_long_on", 5000.0)]


def test_counting_identities():
    rng = random.Random(6)
    labels = [label(i * 50_000, i * 50_000 + 4000) for i in range(10)]
    events = [zev(rng.randrange(0, 600_000)) for _ in range(15)]
    rep = evaluate(events, labels)
    assert rep.true_positives + rep.false_negatives == len(labels)
    assert rep.true_positives + rep.false_positives == len(events)


def test_input_order_irrelevant():
    rng = random.Random(8)
    labels = [label(i * 50_000, i * 50_000 + 4000) for i in range(6)]
    events = [zev(l.window_start_s + 2000) for l in labels[:4]] + [zev(590_000)]
    base = evaluate(events, labels)
    for _ in range(5):
        ev2, lab2 = events[:], labels[:]
        rng.shuffle(ev2)
        rng.shuffle(lab2)
        rep = evaluate(ev2, lab2)
        assert (rep.true_positives, rep.false_positives, rep.false_negatives) == (
            base.true_positives,
            base.false_positives,
            base.false_negatives,
        )
        assert sorted(rep.detection_delays) == sorted(base.detection_delays)


def test_per_kind_breakdown():
    labels = [
        label(0, 5000, ScenarioKind.THERMOSTAT_LONG_ON),
        label(100_000, 107_200, ScenarioKind.POWER_DISRUPTION),
    ]
    events = [zev(5000), wev(103_630), wev(500_000)]
    rep = evaluate(events, labels)
    assert rep.per_kind["thermostat_long_on"]["tp"] == 1
    assert rep.per_kind["power_disruption"]["tp"] == 1
    assert rep.per_kind["watchdog"]["fp"] == 1
