from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsed.core import (
    ClassOrigin,
    ClipMetadata,
    Event,
    MaskMode,
    Origin,
    Posteriorgram,
    build_vocabulary,
    canonicalize_events,
    class_mask,
    default_vocabulary,
    frame_span,
    frame_time,
    rasterize,
)
from oracles import brute_rasterize

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


def test_posteriorgram_validation():
    Posteriorgram(np.zeros((3, 2)), 0.02, "x")
    with pytest.raises(ValueError):
        Posteriorgram(np.zeros((3, 2)) - 0.1, 0.02, "x")
    with pytest.raises(ValueError):
        Posteriorgram(np.zeros((3, 2)), -1.0, "x")
    with pytest.raises(ValueError):
        Posteriorgram(np.zeros((0, 2)), 0.02, "x")


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
    events = [Event("x", 0, 0.0, 0.2, None), Event("x", 1, 0.35, 0.5, 0.6)]
    target = rasterize(events, n=5, period=0.1, num_classes=2)
    assert np.allclose(target[:, 0], [1, 1, 0, 0, 0])
    assert np.allclose(target[:, 1], [0, 0, 0, 0.6, 0.6])


def test_frame_span_edges():
    assert frame_span(0.3, 0.5, 0.1, 10) == (3, 5)  # edges on frame boundaries
    assert frame_span(0.35, 0.5, 0.05, 20) == (7, 10)  # 0.35 / 0.05 = 6.999999999999999
    assert frame_span(0.14, 0.28, 0.02, 20) == (7, 14)  # 0.28 / 0.02 = 14.000000000000002
    assert frame_span(0.35, 0.36, 0.1, 10) == (3, 4)  # inside one frame
    assert frame_span(0.8, 2.0, 0.1, 10) == (8, 10)  # runs past the clip
    assert frame_span(1.0, 2.0, 0.1, 10) == (10, 10)  # starts at the end: no frame
    assert frame_span(0.3, 0.3 + 1e-12, 0.1, 10) == (3, 4)  # at least one frame
    with pytest.raises(ValueError, match="class index 2"):
        rasterize([Event("x", 2, 0.0, 1.0)], 5, 0.1, 2)


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
                st.integers(1, 4 * n),
                st.one_of(st.none(), st.floats(0.0, 1.0)),
            ),
            max_size=8,
        )
    )
    events = [
        Event("c", cls, round(a * period / 4, 6), round((a + k) * period / 4, 6), conf)
        for cls, a, k, conf in cells
    ]
    expected = brute_rasterize(
        [(cls, a, a + k, 1.0 if conf is None else conf) for cls, a, k, conf in cells], n, num_classes
    )
    assert np.array_equal(rasterize(events, n, period, num_classes), expected)
