from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsed import postprocess
from hetsed.core import Event, EventTable, Posteriorgram, canonicalize_events, frame_time
from hetsed.evaluation import segment_scores, segmentize
from hetsed.postprocess import (
    NOISE_FLOOR,
    ClassSebbParams,
    CsebbParams,
    csebb_detect,
    default_grid,
    ensemble_average,
    frame_threshold_merge,
    moving_average,
    tune_csebb,
)
from oracles import change_points_loop, greedy_merge, median_threshold_runs, window_mean_moving_average




def post_of(track, fp=0.05, clip_id="p0"):
    track = np.asarray(track, dtype=np.float64)
    scores = track[:, None] if track.ndim == 1 else track
    return Posteriorgram(scores=scores, frame_period=fp, clip_id=clip_id)


# ---------------------------------------------------------------- median

def test_median_window_keeps_a_constant_track_whole():
    post = post_of(np.full((9, 2), 0.4))
    assert frame_threshold_merge([post], [0.3, 0.4], 5) == [Event("p0", 0, 0.0, frame_time(9, 0.05))]
    assert frame_threshold_merge([post], [0.4, 0.4], 9) == []


def test_median_window_three_removes_a_one_frame_spike():
    # edge-replicated windows [0,0,1] [0,1,0] [1,0,0]: every median is 0
    for threshold in (0.0, 0.5, 0.99):
        assert frame_threshold_merge([post_of([0.0, 1.0, 0.0])], [threshold], 3) == []


def test_median_window_one_keeps_a_one_frame_spike():
    post = post_of([0.0, 1.0, 0.0, 0.6, 0.2])
    assert frame_threshold_merge([post], [0.5], 1) == [Event("p0", 0, 0.05, 0.1), Event("p0", 0, 0.15, 0.2)]
    assert frame_threshold_merge([post], [0.5], 1) == frame_threshold_merge([post], [0.5])


# ------------------------------------------------------- frame thresholding

def test_frame_threshold_merge_run_arithmetic():
    post = post_of([0.2, 0.8, 0.9, 0.1], fp=0.016)
    events = frame_threshold_merge([post], [0.5])
    assert len(events) == 1
    assert events[0].onset == pytest.approx(0.016)
    assert events[0].offset == pytest.approx(0.048)


def test_frame_threshold_merge_empty_and_full():
    post = post_of([0.1, 0.2, 0.3])
    assert list(frame_threshold_merge([post], [0.5])) == []
    full = frame_threshold_merge([post], [0.0])
    assert len(full) == 1
    assert full[0].onset == 0.0 and full[0].offset == pytest.approx(3 * 0.05)


def test_frame_threshold_merge_rejects_bad_windows():
    post = post_of([0.2, 0.8, 0.9])
    for window, message in ((0, "odd and >= 1"), (-1, "odd and >= 1"), (4, "odd and >= 1"),
                            (7, "window 7 too large for 3 frames")):
        with pytest.raises(ValueError, match=message):
            frame_threshold_merge([post], [0.5], window)


@pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
def test_frame_threshold_merge_rejects_thresholds_outside_the_unit_interval(bad):
    post = post_of(np.full((4, 2), 0.9))
    with pytest.raises(ValueError, match=r"thresholds must lie in \[0, 1\]"):
        frame_threshold_merge([post], [0.5, bad])


def test_frame_threshold_merge_multiclass_runs():
    scores = np.zeros((6, 2))
    scores[1:3, 0] = 0.9
    scores[4:6, 1] = 0.7
    events = frame_threshold_merge([post_of(scores)], [0.5, 0.5])
    assert [(e.class_idx, e.onset, e.offset) for e in events] == [
        (0, pytest.approx(0.05), pytest.approx(0.15)),
        (1, pytest.approx(0.20), pytest.approx(0.30)),
    ]


# ---------------------------------------------------------------- cSEBB

def test_csebb_ideal_step_single_box():
    track = np.zeros(200)
    track[80:120] = 1.0
    params = CsebbParams(default=ClassSebbParams(window=5, half_width=2))
    boxes = csebb_detect([post_of(track)], params)
    assert len(boxes) == 1
    box = boxes[0]
    s_seconds = 2 * 0.05
    assert abs(box.onset - 80 * 0.05) <= s_seconds
    assert abs(box.offset - 120 * 0.05) <= s_seconds
    assert box.confidence > 0.85


def test_csebb_constant_zero_no_boxes():
    assert list(csebb_detect([post_of(np.zeros(50))])) == []


def test_csebb_dip_merged_against_bruteforce_segmentation():
    # plateau 0.9 with a 2-frame dip to 0.6; merge thresholds permit bridging
    track = np.zeros(20)
    track[5:15] = 0.9
    track[9:11] = 0.6
    params = CsebbParams(
        default=ClassSebbParams(window=1, half_width=1, rel_merge=0.4, abs_merge=0.15, min_gap=0.1)
    )
    boxes = csebb_detect([post_of(track, fp=0.1)], params)
    assert len(boxes) == 1
    box = boxes[0]

    # oracle: among all 3-piece segmentations, minimize within-segment squared
    # deviation; the winner's middle segment must be the detected box
    def sse(segments):
        return sum(float(np.sum((track[a:b] - track[a:b].mean()) ** 2)) for a, b in segments)

    candidates = [((0, i), (i, j), (j, 20)) for i, j in combinations(range(1, 20), 2)]
    best = min(candidates, key=sse)
    onset_frames = int(round(box.onset / 0.1))
    offset_frames = int(round(box.offset / 0.1))
    assert (onset_frames, offset_frames) == best[1]
    assert box.confidence == pytest.approx(track[onset_frames:offset_frames].mean())
    assert box.confidence == pytest.approx(0.84)


def test_csebb_boxes_disjoint_and_ordered_per_class():
    rng = np.random.default_rng(1)
    scores = np.clip(rng.uniform(size=(120, 3)) ** 2 + 0.1 * rng.normal(size=(120, 3)), 0, 1)
    boxes = csebb_detect([post_of(scores)], CsebbParams(default=ClassSebbParams(window=3, half_width=1)))
    for c in range(3):
        spans = [(b.onset, b.offset) for b in boxes if b.class_idx == c]
        assert spans == sorted(spans)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end - 1e-12


def test_csebb_matches_frame_threshold_on_noiseless_rectangles():
    # one clean rectangle per class, lengths 10/30/60 frames
    scores = np.zeros((200, 3))
    scores[60:70, 0] = 1.0
    scores[80:110, 1] = 1.0
    scores[100:160, 2] = 1.0
    post = post_of(scores)
    params = CsebbParams(default=ClassSebbParams(window=3, half_width=1))
    boxes = csebb_detect([post], params)
    events = frame_threshold_merge([post], [0.5, 0.5, 0.5])
    assert len(boxes) == len(events) == 3
    tolerance = 1 * post.frame_period  # half_width frames
    for box, event in zip(boxes, sorted(events, key=lambda e: e.class_idx)):
        assert box.class_idx == event.class_idx
        assert abs(box.onset - event.onset) <= tolerance + 1e-12
        assert abs(box.offset - event.offset) <= tolerance + 1e-12


# ------------------------------------------------------ event thresholding

def test_frame_thresholding_shrinks_events_where_boxes_do_not():
    # a ramped event: raising the frame threshold moves its edges inward,
    # while tightening the box threshold only changes which boxes survive
    track = np.concatenate([np.zeros(20), np.linspace(0.0, 1.0, 10),
                            np.ones(20), np.linspace(1.0, 0.0, 10), np.zeros(20)])
    post = post_of(track)
    low = frame_threshold_merge([post], [0.3])
    high = frame_threshold_merge([post], [0.8])
    assert len(low) == len(high) == 1
    assert high[0].onset > low[0].onset and high[0].offset < low[0].offset

    boxes = csebb_detect([post], CsebbParams(default=ClassSebbParams(window=3, half_width=2)))
    event_boxes = [b for b in boxes if b.confidence > 0.5]
    assert len(event_boxes) == 1
    for thr in (0.1, 0.3, event_boxes[0].confidence - 1e-6):
        kept = [b for b in event_boxes if b.confidence > thr]
        assert [(e.onset, e.offset) for e in kept] == [
            (event_boxes[0].onset, event_boxes[0].offset)
        ]


# ------------------------------------------------------------- ensembling

def test_ensemble_single_input_identity():
    post = post_of(np.random.default_rng(2).uniform(size=(10, 2)))
    out = ensemble_average([post])
    assert np.array_equal(out.scores, post.scores)


def test_ensemble_symmetry_and_convexity():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(8, 2))
    a, b = post_of(x), post_of(1.0 - x)
    out = ensemble_average([a, b])
    assert np.allclose(out.scores, 0.5)
    c = post_of(rng.uniform(size=(8, 2)))
    mixed = ensemble_average([a, c])
    assert np.all(mixed.scores >= np.minimum(a.scores, c.scores) - 1e-12)
    assert np.all(mixed.scores <= np.maximum(a.scores, c.scores) + 1e-12)


def test_ensemble_permutation_invariant():
    rng = np.random.default_rng(4)
    posts = [post_of(rng.uniform(size=(6, 2))) for _ in range(4)]
    fwd = ensemble_average(posts)
    rev = ensemble_average(posts[::-1])
    assert np.allclose(fwd.scores, rev.scores)


def test_ensemble_rejects_mismatches():
    a = post_of(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        ensemble_average([a, post_of(np.zeros((5, 2)))])
    with pytest.raises(ValueError):
        ensemble_average([a, post_of(np.zeros((4, 2)), fp=0.1)])
    with pytest.raises(ValueError):
        ensemble_average([a, post_of(np.zeros((4, 2)), clip_id="other")])
    with pytest.raises(ValueError):
        ensemble_average([])


# ----------------------------------------------------------------- tuning

def _dip_fixture():
    """Three clips, one dipped rectangle each; metric rewards one box per event."""
    posts = []
    for i, (start, stop) in enumerate([(50, 110), (80, 150), (30, 120)]):
        track = np.zeros(200)
        track[start:stop] = 0.9
        mid = (start + stop) // 2
        track[mid : mid + 3] = 0.25
        posts.append(post_of(track, clip_id=f"clip{i}"))
    return posts


def box_count_metric(boxes, sets):
    # plant: exactly one box per clip is optimal
    return [-abs(len(index) - 3) for index in sets]


def recording_metric(seen):
    """A metric that records the boxes of every candidate and scores all 0."""
    def metric(boxes, sets):
        # every box belongs to some candidate
        assert np.array_equal(np.unique(np.concatenate(sets)), np.arange(len(boxes)))
        seen.extend([boxes[i] for i in index.tolist()] for index in sets)
        return [0.0] * len(sets)
    return metric


def test_tune_csebb_singleton_grid():
    only = CsebbParams(default=ClassSebbParams(window=3, half_width=1))
    assert tune_csebb(_dip_fixture(), [only], box_count_metric) is only


def test_tune_csebb_selects_planted_optimum():
    merging = CsebbParams(
        default=ClassSebbParams(window=3, half_width=1, rel_merge=0.8, abs_merge=0.15)
    )
    fragmenting = CsebbParams(
        default=ClassSebbParams(window=3, half_width=1, rel_merge=0.0, abs_merge=0.0)
    )
    best = tune_csebb(_dip_fixture(), [fragmenting, merging], box_count_metric)
    assert best is merging
    # deterministic across runs and grid orderings
    again = tune_csebb(_dip_fixture(), [merging, fragmenting], box_count_metric)
    assert again is merging


def test_tune_csebb_tie_breaks_toward_smaller_window():
    small = CsebbParams(default=ClassSebbParams(window=3, half_width=1))
    large = CsebbParams(default=ClassSebbParams(window=11, half_width=5))
    best = tune_csebb(_dip_fixture(), [large, small], lambda boxes, sets: [0.0] * len(sets))
    assert best is small


def test_tune_csebb_scores_the_boxes_csebb_detect_gives():
    # the segmentation is shared across grid points with the same
    # (window, half_width, min_gap), per class: the boxes must not change
    rng = np.random.default_rng(3)
    posts = [post_of(moving_average(rng.uniform(size=120), 5)[:, None] * [1.0, 0.8], clip_id=f"c{i}")
             for i in range(3)]
    names = ["x", "y"]
    grid = default_grid() + [
        CsebbParams(default=ClassSebbParams(window=3, half_width=1),
                    per_class={"y": ClassSebbParams(window=7, half_width=2, min_gap=0.05)})
    ]
    seen = []
    tune_csebb(posts, grid, recording_metric(seen), names)
    assert seen == [[b for p in posts for b in csebb_detect([p], cand, names)] for cand in grid]
    assert len({len(boxes) for boxes in seen}) > 1


def test_tune_csebb_needs_one_score_per_candidate():
    grid = default_grid()[:3]
    with pytest.raises(ValueError, match="metric gave 2 scores for 3 candidates"):
        tune_csebb(_dip_fixture(), grid, lambda boxes, sets: [0.0, 0.0])


def test_tune_csebb_empty_grid():
    with pytest.raises(ValueError):
        tune_csebb([], [], box_count_metric)


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 24
    windows = {g.default.window for g in grid}
    assert windows == {3, 7, 11, 21}


# ------------------------------- whole-posteriorgram passes vs per track

_SWV = np.lib.stride_tricks.sliding_window_view


@st.composite
def filter_cases(draw):
    t = draw(st.integers(1, 30))
    c = draw(st.integers(1, 4))
    decimals = draw(st.integers(0, 2))
    cells = draw(st.lists(st.integers(0, 10**decimals), min_size=t * c, max_size=t * c))
    scores = np.array(cells, dtype=np.float64).reshape(t, c) / 10**decimals
    return scores, draw(st.sampled_from([1, 3, 5, 7, 9, 11, 21, 33, 129, 131]))


@settings(max_examples=200, deadline=None)
@given(filter_cases())
def test_filters_on_a_posteriorgram_equal_the_per_track_filters(case):
    scores, window = case
    pad = window // 2
    averaged = moving_average(scores, window)
    for c in range(scores.shape[1]):
        track = scores[:, c]
        assert np.array_equal(averaged[:, c], moving_average(track, window))
        plain = _SWV(np.pad(track, pad, mode="edge"), window).mean(axis=1) if window > 1 else track
        assert np.array_equal(averaged[:, c], plain)


_MAGNITUDES = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1, 1 / 3, 0.5, 1.0, 7.25, 1e10, -1e-5, -3.0])


@st.composite
def moving_average_cases(draw):
    """A [T] or [T, C] array of mixed magnitudes and signed zeros, and an
    odd window from 1 to 301 (sequential below 8 values, eight accumulators
    up to 128, split halves above)."""
    shape = draw(st.sampled_from([(draw(st.integers(1, 40)),), (draw(st.integers(1, 40)), draw(st.integers(1, 4)))]))
    cells = draw(st.lists(_MAGNITUDES | st.floats(-1e12, 1e12), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    window = draw(st.integers(0, 150).map(lambda k: 2 * k + 1))
    return np.array(cells).reshape(shape), window


@settings(max_examples=300, deadline=None)
@given(moving_average_cases())
def test_moving_average_equals_the_window_means_bit_for_bit(case):
    scores, window = case
    got = moving_average(scores, window)
    want = window_mean_moving_average(scores, window)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("window", [3, 7, 9, 129, 131, 301])
def test_moving_average_of_negative_zeros_is_positive_zero(window):
    got = moving_average(np.full((5, 2), -0.0), window)
    assert got.tobytes() == window_mean_moving_average(np.full((5, 2), -0.0), window).tobytes()
    assert not np.signbit(got).any()


@st.composite
def median_event_cases(draw):
    """Scores on a grid of 10**-d steps and thresholds on the same grid, so
    that score == threshold ties are common; an odd window up to 2T - 1."""
    t = draw(st.integers(1, 30))
    c = draw(st.integers(1, 3))
    steps = 10 ** draw(st.integers(0, 2))
    cells = draw(st.lists(st.integers(0, steps), min_size=t * c, max_size=t * c))
    thresholds = draw(st.lists(st.integers(0, steps), min_size=c, max_size=c))
    window = draw(st.integers(0, t - 1).map(lambda k: 2 * k + 1))
    return np.array(cells, dtype=np.float64).reshape(t, c) / steps, np.array(thresholds) / steps, window


@settings(max_examples=300, deadline=None)
@given(median_event_cases())
def test_median_window_events_equal_median_filter_then_threshold(case):
    scores, thresholds, window = case
    post = post_of(scores, fp=0.02)
    assert (list(frame_threshold_merge([post], thresholds, window))
            == [Event(*run) for run in median_threshold_runs(post, thresholds, window)])


@st.composite
def threshold_directories(draw):
    """Clips of mixed frame counts and periods in file order, which differs
    from clip-id order ("a-b" sorts before "a" as a file, "a-b.sedp", and
    after it as a clip id); scores and thresholds on one grid of 10**-d
    steps, so ties are common; an odd window up to 2T - 1 of the shortest
    clip; and a stacking cap from one clip per pass to all of them."""
    c = draw(st.integers(1, 3))
    steps = 10 ** draw(st.integers(0, 2))
    level = st.integers(0, steps).map(lambda k: k / steps)
    names = sorted(draw(st.lists(st.sampled_from(["a", "a-b", "a_b", "b", "é", "clip_10", "clip_9"]),
                                 min_size=1, max_size=6, unique=True)), key=lambda name: name + ".sedp")
    posts = []
    for name in names:
        t = draw(st.sampled_from([1, 2, 3, 8, 25]))
        cells = draw(st.lists(level, min_size=t * c, max_size=t * c))
        period = draw(st.sampled_from([0.02, 0.05, 0.064]))
        posts.append(Posteriorgram(np.array(cells).reshape(t, c), period, name))
    thresholds = draw(st.lists(level, min_size=c, max_size=c))
    shortest = min(post.num_frames for post in posts)
    window = draw(st.integers(0, shortest - 1).map(lambda k: 2 * k + 1))
    return posts, thresholds, window, draw(st.sampled_from([1, 30, 100, postprocess._STACK_CELLS]))


@settings(max_examples=300, deadline=None)
@given(threshold_directories())
def test_stacked_threshold_runs_equal_runs_after_median_filter_clip_by_clip(case):
    posts, thresholds, window, cap = case
    with patch.object(postprocess, "_STACK_CELLS", cap):
        got = frame_threshold_merge(posts, thresholds, window)
    want = [run for post in posts for run in median_threshold_runs(post, thresholds, window)]
    rows = [(ev.clip_id, ev.class_idx, ev.onset, ev.offset) for ev in got]
    assert sorted(rows) == sorted(want)
    assert canonicalize_events(got) == canonicalize_events([Event(*run) for run in want])
    for post in posts:
        assert list(frame_threshold_merge([post], thresholds, window)) == [
            Event(*run) for run in median_threshold_runs(post, thresholds, window)]


@pytest.mark.parametrize("frames, classes, thresholds, window, message", [
    ((5, 2, 1), (1, 1, 1), [0.5], 5, "window 5 too large for 2 frames"),
    ((5, 2, 1), (1, 1, 1), [0.5], 3, "window 3 too large for 1 frames"),
    ((5, 5, 1), (1, 2, 1), [0.5], 9, r"need one threshold per class, got \(1,\)"),
    ((5, 1), (2, 2), [0.5, 1.5], 3, r"thresholds must lie in \[0, 1\]"),
    ((5, 1), (1, 1), [float("nan")], 1, r"thresholds must lie in \[0, 1\]"),
    ((5, 1), (1, 1), [0.5], 4, "window must be odd and >= 1, got 4"),
    ((5, 1), (1, 1), [0.5], -1, "window must be odd and >= 1, got -1"),
    ((5,), (1,), [0.5], 0, "window must be odd and >= 1, got 0"),
    ((3,), (1,), [0.5], 6, "window must be odd and >= 1, got 6"),
    ((3,), (1,), [0.5], 7, "window 7 too large for 3 frames"),
])
def test_threshold_runs_raise_the_error_of_the_first_failing_clip_in_file_order(
        frames, classes, thresholds, window, message):
    posts = [post_of(np.full((t, c), 0.7), clip_id=f"c{i}") for i, (t, c) in enumerate(zip(frames, classes))]
    with pytest.raises(ValueError, match=message) as stacked:
        frame_threshold_merge(posts, thresholds, window)
    with pytest.raises(ValueError) as clip_by_clip:
        [frame_threshold_merge([post], thresholds, window) for post in posts]
    assert str(stacked.value) == str(clip_by_clip.value)


def _track_with_steps(steps, half_width):
    """A track whose interior step response d[t] = y[t+s] - y[t-s] is
    ``steps`` (the 2s edge frames of d follow from edge replication)."""
    y = np.zeros(len(steps) + 2 * half_width)
    for k, step in enumerate(steps):
        y[k + 2 * half_width] = y[k] + step
    return y


@st.composite
def change_point_cases(draw):
    """Rows of one length T; each row is either rounded scores or a track
    built from plateaus of |d| whose values drift by a few 1e-10, so that
    plateaus of the chained and the anchored reading part ways."""
    half_width = draw(st.integers(1, 4))
    decimals = draw(st.integers(0, 2))
    level = st.integers(0, 10**decimals).map(lambda v: v / 10**decimals)
    t = draw(st.integers(1, 40))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        if t <= 2 * half_width or draw(st.booleans()):
            rows.append(np.array(draw(st.lists(level, min_size=t, max_size=t))))
            continue
        steps = []
        while len(steps) < t - 2 * half_width:
            value = draw(level) * draw(st.sampled_from([1.0, -1.0]))
            walk = np.cumsum(draw(st.lists(st.integers(-7, 7), min_size=1, max_size=8)))
            steps.extend(value + walk * 1e-10)
        rows.append(_track_with_steps(steps[: t - 2 * half_width], half_width))
    return np.array(rows), half_width, draw(st.sampled_from([0.0, 0.05, 0.3]))


def _change_points_of(tracks, half_width, min_gap):
    """The change points of the rows of ``tracks`` [K, T] as the box search
    finds them, as ascending flat indices row * T + frame: the hot cells
    taken as a pass is held and searched as at a flush, with the cuts of the
    rows searched on all their cells as the pass is held."""
    t = tracks.shape[1]
    live, cells, values, cuts = postprocess._hot_cells(tracks, half_width, min_gap)
    row, frame = np.divmod(np.union1d(postprocess._change_points(cells, values, t), cuts), t)
    return live[row] * t + frame


def _per_row(flat, tracks):
    """Flat change-point indices as per-row frame lists."""
    k, t = tracks.shape
    return [(flat[flat // t == r] % t).tolist() for r in range(k)]


@settings(max_examples=400, deadline=None)
@given(change_point_cases())
def test_vectorised_change_points_equal_the_loop(case):
    tracks, half_width, min_gap = case
    flat = _change_points_of(tracks, half_width, min_gap)
    assert flat.dtype == np.int64 and np.all(np.diff(flat) > 0)
    got = _per_row(flat, tracks)
    assert got == [change_points_loop(row, half_width, min_gap) for row in tracks]


@pytest.mark.parametrize("steps", [
    # a chained run drifting 1.2e-9 from its first value: the anchored
    # plateau ends before the chained one
    [0.0, 0.5, 0.5 + 6e-10, 0.5 + 1.2e-9, 0.5 + 1.8e-9, 0.0, 0.0],
    # the value after a chained run is back within 1e-9 of its first value:
    # the anchored plateau runs on past the chained break
    [0.0, 0.0, 0.5, 0.5 + 9e-10, 0.5 - 3e-10, 0.5 - 3e-10, 0.0],
])
def test_change_points_rescan_rows_where_chaining_differs(monkeypatch, steps):
    rescanned = []
    anchored = postprocess._anchored_starts
    monkeypatch.setattr(postprocess, "_anchored_starts", lambda a: rescanned.append(a) or anchored(a))
    tracks = np.array([_track_with_steps(steps, 1), np.linspace(0.0, 1.0, len(steps) + 2)])
    got = _per_row(_change_points_of(tracks, 1, 0.1), tracks)
    assert got == [change_points_loop(row, 1, 0.1) for row in tracks]
    assert len(rescanned) == 1


@st.composite
def sparse_change_point_cases(draw):
    """Rows of one length T, most of them flat or staying below min_gap; a
    step from 0 of exactly min_gap, so that only the strict test keeps the
    row out, or of just above it; and live rows of rounded levels.  A
    negative min_gap makes every row live."""
    half_width = draw(st.integers(1, 4))
    t = draw(st.integers(1, 40))
    min_gap = draw(st.sampled_from([-0.1, 0.0, 0.05, 0.1, 0.25]))
    gap = max(min_gap, 0.0)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["flat", "flat", "below", "at", "at", "live"]))
        if kind == "flat":
            rows.append(np.full(t, draw(st.sampled_from([0.0, 0.3, 1.0]))))
        elif kind == "below":
            # |d| is at most the spread of the row, under min_gap
            noise = draw(st.lists(st.floats(0.0, 0.49), min_size=t, max_size=t))
            rows.append(0.5 + gap * np.array(noise))
        elif kind == "at":
            height = draw(st.sampled_from([gap, np.nextafter(gap, 1.0), gap + 0.005]))
            k = draw(st.integers(0, t))
            step = np.where(np.arange(t) < k, 0.0, height)
            rows.append(step[::-1].copy() if draw(st.booleans()) else step)
        else:
            levels = draw(st.lists(st.integers(0, 10), min_size=t, max_size=t))
            rows.append(np.array(levels) / 10)
    return np.array(rows), half_width, min_gap


@settings(max_examples=400, deadline=None)
@given(sparse_change_point_cases())
def test_change_points_of_mostly_dead_rows_equal_the_loop(case):
    tracks, half_width, min_gap = case
    flat = _change_points_of(tracks, half_width, min_gap)
    assert flat.dtype == np.int64 and np.all(np.diff(flat) > 0)
    assert _per_row(flat, tracks) == [change_points_loop(row, half_width, min_gap) for row in tracks]


@st.composite
def hot_cell_cases(draw):
    """Rows of one length T whose step response |d| sits at min_gap plus or
    minus k * 1e-9 (k = 0..6), on plateaus within the tolerance, on chained
    runs that drift from their first value or come back to it, on hot runs
    that touch frame 0 or frame T - 1, and on whole-row plateaus; min_gap 0
    and negative too.  A row with a |d| that close to min_gap is searched on
    all its cells, any other through its hot cells alone."""
    half_width = draw(st.integers(1, 3))
    min_gap = draw(st.sampled_from([-0.2, -1e-9, 0.0, 0.1, 0.35]))
    gap = max(min_gap, 0.0)
    near = [gap + k * 1e-9 for k in range(-6, 7)]
    wobble = [0.6 + j * 4e-10 for j in range(-4, 5)]
    t = draw(st.integers(1, 30))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["levels", "steps", "steps", "whole"]))
        if kind == "levels":
            # a score of 0 next to one of these makes a |d| of it, at either end too
            rows.append(np.array(draw(st.lists(st.sampled_from([0.0, 1.0] + near + wobble), min_size=t, max_size=t))))
        elif kind == "whole":
            # |d| within the tolerance of its first value on the whole row
            base = draw(st.sampled_from([0.0, 0.5, gap]))
            rows.append(base + np.array(draw(st.lists(st.integers(0, 4), min_size=t, max_size=t))) * 1e-10)
        else:
            steps = []
            while len(steps) < t - 2 * half_width:
                sign, n = draw(st.sampled_from([1.0, -1.0])), draw(st.integers(1, 5))
                run = draw(st.sampled_from(["near", "wobble", "drift", "zero"]))
                if run == "near":
                    steps += [sign * draw(st.sampled_from(near))] * n
                elif run == "wobble":
                    steps += [sign * draw(st.sampled_from(wobble)) for _ in range(n)]
                elif run == "drift":  # each value within 1e-9 of the last, drifting from the first
                    j = draw(st.integers(-4, 4))
                    steps += [sign * (0.6 + (j + i) * 4e-10) for i in range(n + 2)]
                else:
                    steps += [0.0] * n
            rows.append(_track_with_steps(steps[: max(t - 2 * half_width, 0)], half_width)[:t])
    return np.array(rows), half_width, min_gap


@settings(max_examples=600, deadline=None)
@given(hot_cell_cases())
def test_change_points_from_hot_cells_equal_the_loop(case):
    tracks, half_width, min_gap = case
    flat = _change_points_of(tracks, half_width, min_gap)
    assert flat.dtype == np.int64 and np.all(np.diff(flat) > 0)
    assert _per_row(flat, tracks) == [change_points_loop(row, half_width, min_gap) for row in tracks]


@st.composite
def ranged_change_point_cases(draw):
    """Rows whose range (max - min) is below, at, or just above min_gap, with
    values anywhere in between, next to flat rows and live rows."""
    half_width = draw(st.integers(1, 4))
    t = draw(st.integers(1, 40))
    min_gap = draw(st.sampled_from([0.0, 0.05, 0.1, 0.3]))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["flat", "ranged", "ranged", "ranged", "live"]))
        low = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5]) | st.floats(0.0, 0.6))
        if kind == "flat":
            rows.append(np.full(t, low))
            continue
        if kind == "live":
            spread = draw(st.floats(min_gap, 0.4))
        else:
            spread = draw(st.sampled_from([min_gap, np.nextafter(min_gap, 0.0), np.nextafter(min_gap, 1.0)]))
        fraction = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
        row = low + spread * np.array(draw(st.lists(fraction, min_size=t, max_size=t)))
        # both ends of the range present, where the row is long enough
        row[: min(t, 2)] = [low, low + spread][: min(t, 2)]
        rows.append(row[np.array(draw(st.permutations(range(t))))])
    return np.array(rows), half_width, min_gap


@settings(max_examples=400, deadline=None)
@given(ranged_change_point_cases())
def test_change_points_take_the_step_response_of_ranged_rows_only(case):
    tracks, half_width, min_gap = case
    padded_rows = []
    edge_padded = postprocess._edge_padded
    with patch.object(postprocess, "_edge_padded",
                      lambda a, pad, axis=0: padded_rows.append(a.shape[0]) or edge_padded(a, pad, axis)):
        flat = _change_points_of(tracks, half_width, min_gap)
    assert padded_rows == [int(np.sum(tracks.max(axis=1) - tracks.min(axis=1) > min_gap))]
    assert flat.dtype == np.int64 and np.all(np.diff(flat) > 0)
    assert _per_row(flat, tracks) == [change_points_loop(row, half_width, min_gap) for row in tracks]


@st.composite
def segment_directories(draw):
    """Clips of mixed frame counts and one class count whose class tracks
    are flat, or stepped with rounded noise, under one smoothing key, with a
    stacking cap from one cell per pass to ``_STACK_CELLS``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.integers(1, 3))
    posts = []
    for i in range(draw(st.integers(1, 6))):
        t = draw(st.sampled_from([1, 2, 5, 12, 40]))
        columns = []
        for _ in range(c):
            if draw(st.booleans()):
                columns.append(np.full(t, draw(st.sampled_from([0.0, 0.005, 0.4]))))
                continue
            levels = np.repeat(rng.integers(0, 11, size=t // 4 + 1) / 10, 4)[:t]
            columns.append(np.clip(levels + rng.normal(0.0, 0.05, size=t).round(2), 0.0, 1.0))
        posts.append(Posteriorgram(np.stack(columns, axis=1), 0.02, f"c{i}"))
    key = (draw(st.sampled_from([1, 3, 5, 7])), draw(st.integers(1, 4)),
           draw(st.sampled_from([-0.1, 0.0, 0.05, 0.1, 0.3])))
    cap = draw(st.sampled_from([1, 7, 40, 100, postprocess._STACK_CELLS]))
    return posts, key, cap


@settings(max_examples=200, deadline=None)
@given(segment_directories())
def test_segment_arrays_equal_the_slice_sums_of_each_track_bit_for_bit(case):
    posts, (window, half_width, min_gap), cap = case
    first_track = np.cumsum([0] + [post.num_classes for post in posts])
    want = []
    for i, post in enumerate(posts):
        smoothed = window_mean_moving_average(post.scores, window)
        for c in range(post.num_classes):
            track = np.ascontiguousarray(smoothed[:, c])
            edges = [0] + change_points_loop(track, half_width, min_gap) + [track.size]
            want.extend((first_track[i] + c, a, b - a, track[a:b].sum()) for a, b in zip(edges[:-1], edges[1:]))
    with patch.object(postprocess, "_STACK_CELLS", cap):
        flushes = list(postprocess._segment_arrays(posts, [(window, half_width, min_gap)], []))
    # a flush's tracks are numbered from its first clip's, one key here
    assert [first for first, _, _ in flushes] == [0] + [stop for _, stop, _ in flushes[:-1]]
    track, start, length, total = (np.concatenate(column) for column in zip(*(
        (segments[0] + first_track[first], *segments[1:]) for first, _, segments in flushes)))
    order = np.lexsort((start, track))
    assert [(tr, a, n) for tr, a, n, _ in want] == list(zip(*(x[order].tolist() for x in (track, start, length))))
    assert np.array_equal(total[order].view(np.int64), np.array([sum_ for *_, sum_ in want]).view(np.int64))


def _boxes_of(sums, lengths, clip_id, c, fp):
    boxes = []
    start = 0
    for total, n in zip(sums, lengths):
        if total / n > NOISE_FLOOR:
            boxes.append(Event(clip_id, c, frame_time(start, fp), frame_time(start + n, fp),
                               min(1.0, max(0.0, total / n))))
        start += n
    return boxes


def _boxes_from_loop(post, p):
    """csebb_detect's boxes, segmented column by column with the loop and
    merged by the merge loop."""
    boxes = []
    for c in range(post.num_classes):
        track = post.scores[:, c]
        if p.window > 1:
            track = _SWV(np.pad(track, p.window // 2, mode="edge"), p.window).mean(axis=1)
        edges = [0] + change_points_loop(track, p.half_width, p.min_gap) + [track.size]
        sums = [float(track[a:b].sum()) for a, b in zip(edges[:-1], edges[1:])]
        lengths = [b - a for a, b in zip(edges[:-1], edges[1:])]
        merged = greedy_merge(sums, lengths, p.rel_merge, p.abs_merge)
        boxes.extend(_boxes_of(*merged, post.clip_id, c, post.frame_period))
    return boxes


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 120),
    st.sampled_from([1, 3, 7, 11, 21]),
    st.integers(1, 4),
    st.sampled_from([0.0, 0.1]),
)
def test_csebb_boxes_equal_those_of_the_loop_segmentation(seed, t, window, half_width, min_gap):
    rng = np.random.default_rng(seed)
    levels = np.repeat(rng.integers(0, 11, size=(t // 5 + 1, 3)) / 10, 5, axis=0)[:t]
    scores = np.clip(levels + rng.normal(0.0, 0.05, size=levels.shape).round(2), 0.0, 1.0)
    post = post_of(scores.astype(np.float32).astype(np.float64))
    p = ClassSebbParams(window=window, half_width=half_width, min_gap=min_gap)
    assert list(csebb_detect([post], CsebbParams(default=p))) == _boxes_from_loop(post, p)


_THRESHOLDS = st.sampled_from([0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def merge_cases(draw):
    """Segment sums and lengths of one track, and (rel_merge, abs_merge)
    pairs in drawn order.  Quarter-step means make equal means and equal
    differences (ties for the first-minimum rule) common."""
    n = draw(st.integers(1, 12))
    lengths = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    quarters = draw(st.booleans())
    level = st.integers(0, 4).map(lambda q: q / 4) if quarters else st.floats(0.0, 1.0)
    sums = [draw(level) * length for length in lengths]
    candidates = draw(st.lists(st.tuples(_THRESHOLDS, _THRESHOLDS), min_size=0, max_size=8))
    return sums, lengths, candidates


@settings(max_examples=300, deadline=None)
@given(st.lists(merge_cases(), min_size=1, max_size=6))
def test_lock_step_merge_stops_and_boxes_equal_the_merge_loop(cases):
    # all tracks merge in one call, listed in ascending track order, each
    # with its own segment count and candidates (none, or repeated pairs)
    ids = range(len(cases))
    segments = tuple(np.array(column) for column in zip(*[
        (i, start, n, total)
        for i, (sums, lengths, _) in zip(ids, cases)
        for start, n, total in zip(np.cumsum([0] + lengths[:-1]).tolist(), lengths, sums)
    ]))
    candidates = [(i, rel, abs_) for i, (_, _, pairs) in zip(ids, cases) for rel, abs_ in pairs]
    (track, start, length, mean, step), begin, end = postprocess._greedy_merge_stops(
        segments, *(np.array([c[k] for c in candidates], dtype=dtype)
                    for k, dtype in enumerate((np.intp, float, float))))
    boxes = [Event("clip", 1, frame_time(s, 0.1), frame_time(s + n, 0.1), min(1.0, m))
             for s, n, m in zip(start.tolist(), length.tolist(), mean.tolist())]
    assert np.all(np.diff(step) >= 0)
    for j, (i, r, a) in enumerate(candidates):
        sums, lengths, _ = cases[i]
        assert set(track[begin[j]:end[j]].tolist()) <= {i}
        # a candidate's boxes are those of its track at the step it stops
        assert len(set(step[begin[j]:end[j]].tolist())) <= 1
        assert boxes[begin[j]:end[j]] == _boxes_of(*greedy_merge(sums, lengths, r, a), "clip", 1, 0.1)


def _stepped_post(rng, t, clip_id):
    levels = np.repeat(rng.integers(0, 11, size=(t // 8 + 1, 3)) / 10, 8, axis=0)[:t]
    scores = np.clip(levels + rng.normal(0.0, 0.05, size=levels.shape).round(2), 0.0, 1.0)
    return post_of(scores, fp=0.02, clip_id=clip_id)


def test_tune_csebb_stacks_clips_in_capped_passes_and_scores_the_csebb_detect_boxes(monkeypatch):
    rng = np.random.default_rng(11)
    frames = [400, 150, 400, 400, 37, 400, 400, 150, 400, 400, 400]
    posts = [_stepped_post(rng, t, f"c{i}") for i, t in enumerate(frames)]
    names = ["x", "y", "z"]
    grid = default_grid() + [
        CsebbParams(default=ClassSebbParams(window=21, half_width=10),
                    per_class={"y": ClassSebbParams(window=5, half_width=2, rel_merge=0.4, min_gap=0.05)})
    ]
    # a cap of ten 400-frame rows: three clips per pass
    monkeypatch.setattr(postprocess, "_STACK_CELLS", 4000)
    passes = []
    smooth = postprocess.moving_average
    monkeypatch.setattr(postprocess, "moving_average",
                        lambda scores, window: passes.append((scores.shape, window)) or smooth(scores, window))
    seen = []
    tune_csebb(posts, grid, recording_metric(seen), names)
    # every pass stacks consecutive clips of one frame count within the cap;
    # the eight 400-frame clips take four passes per smoothing key: [c0],
    # [c2, c3], [c5, c6] and [c8, c9, c10]
    assert all(rows * t <= postprocess._STACK_CELLS for (t, rows), _ in passes if rows > 3)
    assert [rows for (t, rows), window in passes if (t, window) == (400, 21)] == [3, 6, 6, 9]
    assert sum(rows for (t, rows), window in passes if window == 3) == 3 * len(posts)
    monkeypatch.setattr(postprocess, "moving_average", smooth)
    assert seen == [[b for p in posts for b in csebb_detect([p], cand, names)] for cand in grid]
    assert seen == [list(csebb_detect(posts, cand, names)) for cand in grid]
    assert list(csebb_detect(posts, grid[-1])) == [b for p in posts for b in csebb_detect([p], grid[-1])]
    assert len({len(boxes) for boxes in seen}) > 1


@st.composite
def flush_directories(draw):
    """Clips of mixed frame counts with stepped 3-class tracks, a class
    table or none, and a grid of several smoothing keys and per-class
    parameters, min_gap 0 and negative among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = draw(st.lists(st.sampled_from([1, 30, 60, 60]), min_size=1, max_size=7))
    posts = [_stepped_post(rng, t, f"c{i}") for i, t in enumerate(frames)]
    grid = [
        CsebbParams(default=ClassSebbParams(window=3, half_width=1)),
        CsebbParams(default=ClassSebbParams(window=5, half_width=2, rel_merge=0.3, min_gap=0.0),
                    per_class={"y": ClassSebbParams(window=1, half_width=1, abs_merge=0.05, min_gap=-0.1)}),
        CsebbParams(default=ClassSebbParams(window=7, half_width=3, abs_merge=0.05),
                    per_class={"x": ClassSebbParams(window=3, half_width=1, rel_merge=0.1)}),
    ]
    return posts, draw(st.sampled_from([["x", "y", "z"], None])), grid


@settings(max_examples=60, deadline=None)
@given(flush_directories())
def test_box_search_gives_the_same_boxes_sets_and_choice_at_every_flush_cap(case):
    # one cell flushes after every pass, a few hundred after a few passes
    posts, names, grid = case
    results = []
    for cap in [1, 300, postprocess._CUT_CELLS]:
        seen = []

        def metric(boxes, sets):
            seen.append((list(boxes), [index.tolist() for index in sets]))
            return [float(np.sum(boxes.confidence[index])) for index in sets]

        with patch.object(postprocess, "_CUT_CELLS", cap):
            best = tune_csebb(posts, grid, metric, names)
            detected = [list(csebb_detect(posts, params, names)) for params in grid]
        results.append((seen, best, detected))
    assert results[0] == results[1] == results[2]


_SEARCH_PARAMS = CsebbParams(default=ClassSebbParams(window=3, half_width=1))

# the library consumers of a stream of 3-class clips, the mPAUC pair on
# 0.2 s segments
STREAM_CONSUMERS = {
    "frame_threshold_merge": lambda posts: frame_threshold_merge(posts, np.full(3, 0.5)),
    "csebb_detect": lambda posts: csebb_detect(posts, _SEARCH_PARAMS),
    "tune_csebb": lambda posts: tune_csebb(posts, [_SEARCH_PARAMS], lambda boxes, sets: [0.0]),
    "segment_scores": lambda posts: segment_scores(posts, 0.2),
    "segmentize": lambda posts: segmentize(EventTable.from_events([]), posts, 0.2),
}


@pytest.mark.parametrize("search", ["csebb_detect", "tune_csebb", "segment_scores", "segmentize"])
def test_box_search_refuses_a_clip_of_another_class_count(search):
    # the third clip has 1 class, then 2: a 1-class track would fit every
    # column of a 3-class block
    for width in (1, 2):
        rng = np.random.default_rng(12)
        posts = [_stepped_post(rng, 40, "c0"), _stepped_post(rng, 40, "c1"),
                 post_of(np.full((40, width), 0.5), fp=0.02, clip_id="narrow"), _stepped_post(rng, 40, "c3")]
        with pytest.raises(ValueError, match=f"^clip 'narrow' has {width} classes, the first clip 3$"):
            STREAM_CONSUMERS[search](posts)


@pytest.mark.parametrize("search", ["frame_threshold_merge", "csebb_detect", "tune_csebb", "segment_scores"])
def test_a_stream_refuses_a_repeated_clip_id(search):
    rng = np.random.default_rng(13)
    posts = [_stepped_post(rng, 40, "c0"), _stepped_post(rng, 40, "c1"), _stepped_post(rng, 40, "c0")]
    with pytest.raises(ValueError, match="^clip 2 has the id 'c0' of clip 0$"):
        STREAM_CONSUMERS[search](posts)


def test_moving_average_edge_replication():
    out = moving_average(np.array([1.0, 0.0, 0.0]), 3)
    assert np.allclose(out, [2 / 3, 1 / 3, 0.0])


def test_class_params_validation():
    with pytest.raises(ValueError):
        ClassSebbParams(window=4)
    with pytest.raises(ValueError):
        ClassSebbParams(half_width=0)
    for name in ("rel_merge", "abs_merge", "min_gap"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=name):
                ClassSebbParams(**{name: value})
