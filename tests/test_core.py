import math
import warnings
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsed.core import (
    ClassOrigin,
    ClipMetadata,
    Event,
    EventTable,
    MaskMode,
    Origin,
    Posteriorgram,
    build_vocabulary,
    canonicalize_events,
    class_mask,
    default_vocabulary,
    frame_spans,
    frame_time,
    rasterize,
)
from oracles import brute_rasterize, canonical_order

DESED10 = [
    "alarm_bell_ringing", "blender", "cat", "dishes", "dog",
    "electric_shaver_toothbrush", "frying", "running_water", "speech", "vacuum_cleaner",
]
MAESTRO11 = [
    "birds_singing", "car", "people_talking", "footsteps", "children_voices",
    "wind_blowing", "brakes_squeaking", "large_vehicle", "cutlery_and_dishes",
    "metro_approaching", "metro_leaving",
]
CROSS = [
    ("speech", "people_talking"),
    ("speech", "children_voices"),
    ("dishes", "cutlery_and_dishes"),
]


def meta(origin, clip_id="c0"):
    return ClipMetadata(clip_id=clip_id, origin=origin, duration=10.0)


def test_build_vocabulary_21_classes_desed_first():
    vocab = build_vocabulary(DESED10, MAESTRO11, CROSS)
    assert len(vocab) == 21
    assert vocab.origins[:10] == (ClassOrigin.DESED,) * 10
    assert vocab.origins[10:] == (ClassOrigin.MAESTRO,) * 11
    # alphabetical within each family keeps indices stable
    assert list(vocab.classes[:10]) == sorted(DESED10)
    assert list(vocab.classes[10:]) == sorted(MAESTRO11)
    assert vocab.cross_map["speech"] == frozenset({"people_talking", "children_voices"})


def test_build_vocabulary_trivial_two_classes():
    vocab = build_vocabulary(["a"], ["b"])
    assert len(vocab) == 2
    assert vocab.cross_map == {}


def test_build_vocabulary_rejects_reversed_mapping():
    with pytest.raises(ValueError, match="not a DESED class"):
        build_vocabulary(["a"], ["b"], [("b", "a")])


def test_build_vocabulary_rejects_unknown_target():
    with pytest.raises(ValueError, match="not a MAESTRO class"):
        build_vocabulary(["a"], ["b"], [("a", "zzz")])


def test_build_vocabulary_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        build_vocabulary(["a", "b"], ["b"])
    with pytest.raises(ValueError, match="non-empty"):
        build_vocabulary([], ["b"])


def test_default_vocabulary_drops_unevaluated_targets():
    vocab = default_vocabulary()
    assert len(vocab) == 21
    assert "dog_bark" not in vocab.classes
    assert "announcements" not in vocab.classes
    assert "dog" not in vocab.cross_map  # its only target is unevaluated
    assert vocab.cross_map["dishes"] == frozenset({"cutlery_and_dishes"})


def test_independent_mask_maestro_covers_maestro_only():
    vocab = build_vocabulary(DESED10, MAESTRO11, CROSS)
    mask = class_mask(meta(Origin.MAESTRO), vocab, MaskMode.INDEPENDENT)
    assert mask.sum() == 11
    assert not mask[:10].any() and mask[10:].all()


def test_baseline_mask_maestro_adds_super_classes():
    vocab = build_vocabulary(DESED10, MAESTRO11, CROSS)
    mask = class_mask(meta(Origin.MAESTRO), vocab, MaskMode.BASELINE)
    extras = {vocab.classes[i] for i in np.flatnonzero(mask[:10])}
    assert extras == {"speech", "dishes"}
    assert mask[10:].all()


def test_independent_mask_desed_weak():
    vocab = build_vocabulary(DESED10, MAESTRO11, CROSS)
    mask = class_mask(meta(Origin.DESED_WEAK), vocab, MaskMode.INDEPENDENT)
    assert mask[:10].all() and not mask[10:].any()


def test_mask_inclusion_and_partition_properties():
    vocab = build_vocabulary(DESED10, MAESTRO11, CROSS)
    for origin in Origin:
        ind = class_mask(meta(origin), vocab, MaskMode.INDEPENDENT)
        base = class_mask(meta(origin), vocab, MaskMode.BASELINE)
        assert not np.any(ind & ~base), f"independent not within baseline for {origin}"
    desed = class_mask(meta(Origin.DESED_STRONG), vocab, MaskMode.INDEPENDENT)
    maestro = class_mask(meta(Origin.MAESTRO), vocab, MaskMode.INDEPENDENT)
    assert not np.any(desed & maestro)
    assert np.all(desed | maestro)


def test_canonicalize_empty_and_sorting():
    assert canonicalize_events([]) == []
    e1 = Event("b", 0, 1.0, 2.0)
    e2 = Event("a", 1, 0.0, 1.0)
    e3 = Event("a", 0, 3.0, 4.0)
    out = canonicalize_events([e1, e2, e3])
    assert out == [e3, e2, e1]


def test_canonicalize_idempotent():
    rng = np.random.default_rng(7)
    events = [
        Event(f"c{rng.integers(3)}", int(rng.integers(4)), float(o), float(o) + 1.0)
        for o in rng.uniform(0, 9, size=25)
    ]
    once = canonicalize_events(events)
    assert canonicalize_events(once) == once


def test_canonicalize_reports_degenerate_interval_with_index():
    events = [Event("a", 0, 0.0, 1.0), Event("a", 0, 2.0, 2.0)]
    with pytest.raises(ValueError, match="event 1"):
        canonicalize_events(events)


def test_canonicalize_aggregates_all_problems():
    events = [Event("a", 0, 3.0, 2.0), Event("b", -1, 0.0, 1.0)]
    with pytest.raises(ValueError) as err:
        canonicalize_events(events)
    assert "event 0" in str(err.value) and "event 1" in str(err.value)


@pytest.mark.parametrize("onset, offset", [(np.nan, 1.0), (0.0, np.inf), (0.0, np.nan), (-np.inf, 1.0)])
def test_canonicalize_rejects_non_finite_times(onset, offset):
    with pytest.raises(ValueError, match="event 1: non-finite time"):
        canonicalize_events([Event("a", 0, 0.0, 1.0), Event("a", 0, onset, offset)])


# a field that makes an event invalid, and a value for it
_BAD_FIELDS = [("onset", math.nan), ("onset", -1.0), ("offset", math.inf), ("offset", 0.0),
               ("confidence", 1.5), ("confidence", math.nan), ("class_idx", -1), ("class_idx", np.int64(-2))]


@st.composite
def events_to_order(draw):
    """Events with many equal sort keys (0.0 and -0.0 onsets, numpy and
    Python class indices, confidences that the key ignores), non-ASCII clip
    ids, and in half the lists some invalid fields."""
    bad = draw(st.booleans())
    events = []
    for _ in range(draw(st.integers(0, 12))):
        onset = draw(st.sampled_from([0.0, -0.0, 0.5, np.float64(0.5), 2.5]))
        fields = dict(
            clip_id=draw(st.sampled_from(["a", "b", "Z", "", "é", "e\u0301", "日本", "\U0001f50a"])),
            class_idx=draw(st.sampled_from([0, 1, 2, np.int64(1), np.int32(2), np.intp(0)])),
            onset=onset,
            offset=onset + draw(st.sampled_from([0.5, 1.0, 3.0])),
            confidence=draw(st.sampled_from([None, 0.0, 0.25, 1.0])),
        )
        if bad and draw(st.booleans()):
            field, value = draw(st.sampled_from(_BAD_FIELDS))
            fields[field] = value
        events.append(Event(**fields))
    return events


@settings(max_examples=300, deadline=None)
@given(events_to_order())
def test_canonicalize_events_keeps_the_key_sort_and_its_errors(events):
    try:
        want = canonical_order(events)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            canonicalize_events(events)
        assert str(err.value) == str(exc)
        return
    got = canonicalize_events(events)
    assert isinstance(got, EventTable)
    # every field to the bit (0.0 and -0.0 onsets apart), so the order of
    # rows with equal sort keys is checked too
    assert list(map(_bits, got)) == list(map(_bits, want))


def _bits(ev):
    return ev.clip_id, int(ev.class_idx), float(ev.onset).hex(), float(ev.offset).hex(), (
        None if ev.confidence is None else float(ev.confidence).hex())


def test_posteriorgram_validation():
    Posteriorgram(np.zeros((3, 2)), 0.02, "x")
    with pytest.raises(ValueError):
        Posteriorgram(np.zeros((3, 2)) - 0.1, 0.02, "x")
    with pytest.raises(ValueError):
        Posteriorgram(np.zeros((3, 2)), -1.0, "x")
    with pytest.raises(ValueError):
        Posteriorgram(np.zeros((0, 2)), 0.02, "x")


def test_posteriorgram_accepts_zero_classes():
    post = Posteriorgram(np.zeros((4, 0)), 0.02, "x")
    assert (post.num_frames, post.num_classes) == (4, 0)


@pytest.mark.parametrize("value, message", [
    (np.nan, "scores contain non-finite values"),
    (-np.inf, "scores contain non-finite values"),
    (1.5, "scores outside [0, 1]"),
    (-0.5, "scores outside [0, 1]"),
])
def test_posteriorgram_range_messages(value, message):
    scores = np.full((3, 2), 0.5)
    scores[1, 1] = value
    with pytest.raises(ValueError) as err:
        Posteriorgram(scores, 0.02, "x")
    assert str(err.value) == message


def test_clip_metadata_validation():
    with pytest.raises(ValueError):
        ClipMetadata("x", Origin.MAESTRO, 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_posteriorgram_rejects_a_non_finite_frame_period(bad):
    with pytest.raises(ValueError, match="frame_period"):
        Posteriorgram(np.full((3, 1), 0.5), bad, "x")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_clip_metadata_rejects_a_non_finite_duration(bad):
    with pytest.raises(ValueError, match="duration"):
        ClipMetadata("x", Origin.MAESTRO, bad)


def test_rasterize_frames():
    events = EventTable.from_events([Event("x", 0, 0.0, 0.2, None), Event("x", 1, 0.35, 0.5, 0.6)])
    target = rasterize(events, n=5, period=0.1, num_classes=2)
    assert np.allclose(target[:, 0], [1, 1, 0, 0, 0])
    assert np.allclose(target[:, 1], [0, 0, 0, 0.6, 0.6])


_SPAN_CASES = [  # (onset, offset, period, n), expected (first, stop)
    ((0.3, 0.5, 0.1, 10), (3, 5)),  # edges on frame boundaries
    ((0.35, 0.5, 0.05, 20), (7, 10)),  # 0.35 / 0.05 = 6.999999999999999
    ((0.14, 0.28, 0.02, 20), (7, 14)),  # 0.28 / 0.02 = 14.000000000000002
    ((0.35, 0.36, 0.1, 10), (3, 4)),  # inside one frame
    ((0.8, 2.0, 0.1, 10), (8, 10)),  # runs past the clip
    ((1.0, 2.0, 0.1, 10), (10, 10)),  # starts at the end: no frame
    ((0.3, 0.3 + 1e-12, 0.1, 10), (3, 4)),  # at least one frame
    ((0.0, 1.7e308, 0.05, 40), (0, 40)),  # offset / period overflows to inf
    ((1e308, 1.7e308, 1e-3, 40), (40, 40)),  # so do both edges
]


def test_frame_spans_edges():
    onset, offset, period, n = map(np.array, zip(*(case for case, _ in _SPAN_CASES)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflowing cases raise no warning
        first, stop = frame_spans(onset, offset, period, n)
    assert list(zip(first.tolist(), stop.tolist())) == [want for _, want in _SPAN_CASES]
    assert first.dtype == stop.dtype == np.int64
    # one period and one frame count per row, as segmentize passes them
    first, stop = frame_spans(np.array([0.5, 0.5, 2.5]), np.array([1.5, 9.0, 9.0]), 1.0, np.array([10, 3, 2]))
    assert first.tolist() == [0, 0, 2] and stop.tolist() == [2, 3, 2]
    with pytest.raises(ValueError, match="NaN"):
        frame_spans(np.array([0.0, np.nan]), np.array([1.0, 2.0]), 0.1, 10)
    with pytest.raises(ValueError, match="class index 2"):
        rasterize(EventTable.from_events([Event("x", 2, 0.0, 1.0)]), 5, 0.1, 2)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**7), st.integers(1, 10**6))
def test_frame_time_is_the_double_nearest_the_exact_decimal(k, us):
    period = us / 1e6
    exact = float(Fraction(k * us, 10**6))
    assert frame_time(k, period) == exact
    assert frame_time(np.array([k]), period).tolist() == [exact]
    # the value a TSV holds reads back unchanged
    assert float(f"{exact:.6f}") == exact


def test_frame_time_of_a_period_off_the_microsecond_grid_is_the_product():
    assert frame_time(3, 1 / 3) == 3 * (1 / 3)
    assert frame_time(82, 0.1) == 8.2 != 82 * 0.1


@settings(max_examples=300, deadline=None)
@given(
    period=st.sampled_from([0.01, 0.02, 0.04, 0.05, 0.1, 0.25, 1.0]),
    n=st.integers(1, 16),
    num_classes=st.integers(1, 3),
    data=st.data(),
)
def test_rasterize_equals_frame_meets_event_oracle(period, n, num_classes, data):
    # edges on a quarter-frame grid, rounded to 6 decimals as a TSV gives
    # them back; onsets run up to two frames past the clip
    cells = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, num_classes - 1),
                st.integers(0, 4 * n + 8),
                st.one_of(st.integers(1, 4 * n), st.none()),
                st.one_of(st.none(), st.floats(0.0, 1.0)),
            ),
            max_size=8,
        )
    )
    # a length of None ends the event at 1.7e308 s, whose frame index
    # overflows to inf
    events = EventTable.from_events(
        Event("c", cls, round(a * period / 4, 6), 1.7e308 if k is None else round((a + k) * period / 4, 6), conf)
        for cls, a, k, conf in cells
    )
    expected = brute_rasterize(
        [(cls, a, 4 * n + 9 if k is None else a + k, 1.0 if conf is None else conf) for cls, a, k, conf in cells],
        n, num_classes,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(rasterize(events, n, period, num_classes), expected)


def _columns_and_events():
    events = [Event("b", 1, 0.5, 1.0, 0.25), Event("a", 0, 0.0, 2.0), Event("b", 0, 1.0, 1.5, 0.0)]
    return EventTable.from_events(events), events


def test_event_table_iterates_as_its_events_without_a_take_per_row():
    columns, events = _columns_and_events()
    with patch.object(EventTable, "take", autospec=True, side_effect=EventTable.take) as take:
        assert list(columns) == events
        assert [ev for ev in columns.take([])] == []
    assert take.call_count == 1  # the empty take above; iterating took none
    assert [ev.confidence for ev in columns] == [0.25, None, 0.0]


def test_event_table_equals_the_events_it_holds():
    columns, events = _columns_and_events()
    assert columns == events and events == columns and columns == tuple(events)
    assert columns.take([]) == [] and [] == columns.take([]) and columns.take([]) == ()
    assert columns == EventTable.from_events(events) and columns.take([0, 1, 2]) == columns
    assert columns != events[::-1] and columns != events[:2] and columns != columns.take([1, 0, 2])
    assert columns != [Event("b", 1, 0.5, 1.0), *events[1:]]  # an absent confidence is not 0.25
    assert columns != [Event("b", 1, 0.5, 1.0, 0.0), *events[1:]]
    assert columns.take([2]) != [Event("b", 0, 1.0, 1.5)]  # nor is it 0.0
    for other in (3, "events", [1, 2, 3], [*events[:2], ("b", 0, 1.0, 1.5, 0.0)]):
        assert columns.__eq__(other) is NotImplemented
        assert columns != other
