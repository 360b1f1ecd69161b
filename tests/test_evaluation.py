import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsed import evaluation
from hetsed.core import Event, EventTable, Posteriorgram, rasterize
from hetsed.evaluation import (
    OperatingPointCurve,
    PsdsConfig,
    binary_roc,
    joint_score,
    mpauc,
    mpauc_per_class,
    partial_auc_standardized,
    psds,
    roc_from_confidences,
    segment_scores,
    segmentize,
)

CFG = PsdsConfig()


table = EventTable.from_events


def one_set(dets, refs, hours, cfg, num_classes):
    """The curve of the one set that holds every detection (lists of Events)."""
    (curve,) = roc_from_confidences(table(dets), [np.arange(len(dets))], table(refs), hours, cfg, num_classes)
    return curve


# ----------------------------------------------------- intersection matching

def one_threshold_counts(dets, refs, rho_dtc, rho_gtc):
    """(TP, FP) of one class read off the one-threshold curve (one hour)."""
    cfg = PsdsConfig(rho_dtc=rho_dtc, rho_gtc=rho_gtc)
    curve = one_set(dets, refs, 1.0, cfg, 1)
    return curve.tpr[-1, 0] * len(refs), curve.efpr[-1]


def test_match_perfect_overlap():
    refs = [Event("a", 0, 1.0, 3.0)]
    dets = [Event("a", 0, 1.0, 3.0)]
    tp, fp = one_threshold_counts(dets, refs, 1.0, 1.0)
    assert tp == 1 and fp == 0


def test_match_disjoint_is_fp():
    refs = [Event("a", 0, 1.0, 3.0)]
    dets = [Event("a", 0, 5.0, 6.0)]
    tp, fp = one_threshold_counts(dets, refs, 0.7, 0.7)
    assert tp == 0 and fp == 1


def test_match_boundary_ratio_interval_arithmetic():
    # det (0,10) vs ref (0,7): det ratio 7/10 = 0.7 passes at 0.7; ref fully covered
    refs = [Event("a", 0, 0.0, 7.0)]
    dets = [Event("a", 0, 0.0, 10.0)]
    tp, fp = one_threshold_counts(dets, refs, 0.7, 0.7)
    assert tp == 1 and fp == 0
    tp, fp = one_threshold_counts(dets, refs, 0.71, 0.7)
    assert tp == 0 and fp == 1


def test_match_respects_clip_boundaries():
    refs = [Event("a", 0, 1.0, 3.0)]
    dets = [Event("b", 0, 1.0, 3.0)]  # same span, different clip
    tp, fp = one_threshold_counts(dets, refs, 0.7, 0.7)
    assert tp == 0 and fp == 1


def test_match_union_coverage_across_fragments():
    # two fragments jointly cover 80% of the ref; each passes the DTC alone
    refs = [Event("a", 0, 0.0, 10.0)]
    dets = [Event("a", 0, 0.0, 4.0), Event("a", 0, 6.0, 10.0)]
    tp, fp = one_threshold_counts(dets, refs, 0.7, 0.7)
    assert tp == 1 and fp == 0
    tp, fp = one_threshold_counts(dets, refs, 0.7, 0.9)
    assert tp == 0 and fp == 0


# ---------------------------------------------------------------- the curve

def sebb(clip, cls, on, off, conf):
    return Event(clip, cls, on, off, conf)


def test_curve_perfect_detections_single_point():
    refs = [Event("a", 0, 1.0, 3.0), Event("a", 1, 4.0, 6.0)]
    dets = [sebb("a", 0, 1.0, 3.0, 0.9), sebb("a", 1, 4.0, 6.0, 0.4)]
    curve = one_set(dets, refs, 1.0, CFG, 2)
    assert curve.efpr[0] == 0.0
    assert np.allclose(curve.tpr[-1], 1.0)
    assert psds(curve, CFG) == pytest.approx(1.0)


def test_curve_no_detections():
    refs = [Event("a", 0, 1.0, 3.0)]
    curve = one_set([], refs, 1.0, CFG, 1)
    assert curve.efpr.tolist() == [0.0]
    assert np.allclose(curve.tpr, 0.0)
    assert psds(curve, CFG) == 0.0


def test_curve_excludes_classes_without_refs():
    refs = [Event("a", 0, 1.0, 3.0)]
    dets = [sebb("a", 1, 1.0, 3.0, 0.5)]
    with pytest.warns(UserWarning, match="without references"):
        curve = one_set(dets, refs, 1.0, CFG, 2)
    assert curve.included.tolist() == [True, False]


def test_psds_ideal_and_unstable_curves():
    ideal = OperatingPointCurve(np.array([0.0]), np.ones((1, 2)), np.array([True, True]))
    assert psds(ideal, CFG) == 1.0
    lopsided = OperatingPointCurve(np.array([0.0]), np.array([[1.0, 0.0]]), np.array([True, True]))
    # mean 0.5 - std 0.5 = 0 at alpha_st = 1
    assert psds(lopsided, PsdsConfig(alpha_st=1.0)) == 0.0
    assert psds(lopsided, PsdsConfig(alpha_st=0.0)) == pytest.approx(0.5)


def test_curve_validation():
    with pytest.raises(ValueError):
        OperatingPointCurve(np.array([1.0, 0.5]), np.zeros((2, 1)), np.array([True]))
    with pytest.raises(ValueError):
        OperatingPointCurve(np.array([0.0]), np.array([[1.5]]), np.array([True]))
    nan = float("nan")
    for efpr, tpr in (([0.0, nan], [[nan], [0.5]]), ([0.0, nan], [[0.1], [0.5]]), ([0.0, 1.0], [[0.1], [nan]])):
        with pytest.raises(ValueError):
            OperatingPointCurve(efpr=efpr, tpr=tpr, included=[True])


def test_psds_config_rejects_non_finite_e_max_and_alpha_st():
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="e_max"):
            PsdsConfig(e_max=value)
        with pytest.raises(ValueError, match="alpha_st"):
            PsdsConfig(alpha_st=value)


def test_sweep_rejects_a_nan_confidence():
    refs = [Event("a", 0, 1.0, 2.0)]
    dets = [Event("a", 0, 1.0, 2.0, 0.9), Event("a", 0, 3.0, 4.0, float("nan"))]
    with pytest.raises(ValueError, match="confidence"):
        one_set(dets, refs, 1.0, CFG, 1)
    # every detection of the pool is checked, also one that no set uses
    with pytest.raises(ValueError, match="confidence"):
        roc_from_confidences(table(dets), [np.array([0])], table(refs), 1.0, CFG, 1)


# ------------------------------------------------ PSDS brute-force oracle

from oracles import (  # noqa: E402
    _merge_intervals,
    _overlap,
    brute_force_psds,
    brute_pauc,
    intersection_match,
    psds_loop,
    rematch_curve,
    segment_scores_at,
)


def _random_case(rng):
    num_classes = int(rng.integers(1, 4))
    confidences = np.round(rng.uniform(0.05, 0.95, size=int(rng.integers(1, 6))), 3)
    hours = float(rng.uniform(0.05, 0.5))
    refs, dets = [], []
    for _ in range(int(rng.integers(1, 5))):
        on = float(rng.uniform(0, 8))
        refs.append(Event(f"c{rng.integers(2)}", int(rng.integers(num_classes)), on,
                          on + float(rng.uniform(0.2, 2.0))))
    for _ in range(int(rng.integers(0, 5))):
        on = float(rng.uniform(0, 8))
        dets.append(sebb(f"c{rng.integers(2)}", int(rng.integers(num_classes)), on,
                         on + float(rng.uniform(0.2, 2.0)),
                         float(rng.choice(confidences))))
    return dets, refs, hours, num_classes


def test_psds_matches_bruteforce_enumeration():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(150):
        dets, refs, hours, num_classes = _random_case(rng)
        if not refs:
            continue
        with np.errstate(all="ignore"):
            import warnings as _w

            with _w.catch_warnings():
                _w.simplefilter("ignore")
                curve = one_set(dets, refs, hours, CFG, num_classes)
                value = psds(curve, CFG)
        expected = brute_force_psds(dets, refs, hours, CFG, num_classes)
        assert value == pytest.approx(expected, abs=1e-9), (dets, refs, hours)
        checked += 1
    assert checked > 100


def test_psds_monotone_under_tp_and_fp_additions():
    refs = [Event("a", 0, 1.0, 3.0), Event("a", 0, 5.0, 7.0)]
    partial = [Event("a", 0, 1.0, 3.0)]
    base = psds(one_set(partial, refs, 0.2, CFG, 1), CFG)
    with_tp = psds(one_set(partial + [Event("a", 0, 5.0, 7.0)], refs, 0.2, CFG, 1), CFG)
    with_fp = psds(one_set(partial + [Event("a", 0, 8.5, 9.5)], refs, 0.2, CFG, 1), CFG)
    assert with_tp >= base
    assert with_fp <= base


def test_psds_invariant_under_monotone_confidence_transform():
    rng = np.random.default_rng(7)
    dets, refs, hours, num_classes = _random_case(rng)
    while not refs or not dets:
        dets, refs, hours, num_classes = _random_case(rng)
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("ignore")
        a = psds(one_set(dets, refs, hours, CFG, num_classes), CFG)
        cubed = [sebb(d.clip_id, d.class_idx, d.onset, d.offset, d.confidence**3) for d in dets]
        b = psds(one_set(cubed, refs, hours, CFG, num_classes), CFG)
    assert a == pytest.approx(b, abs=1e-12)


# ------------------------------------- one-pass sweep vs re-match oracle

# onsets and lengths on a coarse grid so intervals touch (onset == offset)
# and nest; few confidence values so thresholds tie (None counts as 1.0)
_spans = st.tuples(st.integers(0, 12), st.integers(1, 4)).map(lambda s: (s[0] * 0.5, (s[0] + s[1]) * 0.5))
_clips = st.sampled_from(["a", "b", "c"])


@st.composite
def sweep_cases(draw):
    num_classes = draw(st.integers(1, 3))
    classes = st.integers(0, num_classes - 1)
    refs = [Event(clip, c, lo, hi) for clip, c, (lo, hi) in
            draw(st.lists(st.tuples(_clips, classes, _spans), min_size=1, max_size=6))]
    confidence = st.sampled_from([0.2, 0.5, 0.9, 1.0, None])
    dets = [Event(clip, c, lo, hi, conf) for clip, c, (lo, hi), conf in
            draw(st.lists(st.tuples(_clips, classes, _spans, confidence), max_size=12))]
    cfg = PsdsConfig(
        rho_dtc=draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0])),
        rho_gtc=draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0])),
        alpha_st=draw(st.sampled_from([0.0, 1.0])),
    )
    hours = draw(st.sampled_from([0.05, 0.3, 1.0]))
    return dets, refs, hours, cfg, num_classes, draw(st.permutations(range(len(dets))))


@settings(max_examples=300, deadline=None)
@given(sweep_cases())
def test_one_pass_sweep_equals_rematch_oracle(case):
    dets, refs, hours, cfg, num_classes, order = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = one_set(dets, refs, hours, cfg, num_classes)
        shuffled = one_set([dets[i] for i in order], refs, hours, cfg, num_classes)
    expected = rematch_curve(dets, refs, hours, cfg, num_classes)
    assert np.array_equal(curve.efpr, expected.efpr)
    assert np.array_equal(curve.tpr, expected.tpr)
    assert np.array_equal(curve.included, expected.included)
    assert psds(shuffled, cfg) == psds(curve, cfg)


def test_curve_keeps_the_envelope_when_coverage_drops_in_the_last_bit():
    # the 0.5 detection bridges a one-ulp gap: in floats the merged span
    # covers less of the reference than the two pieces did, so the reference
    # found at 0.9 is lost at 0.5 and the TPR envelope must keep 1.0
    gap = float(np.nextafter(0.7, 1.0))
    refs = [Event("a", 0, 0.1, 2.3)]
    dets = [Event("a", 0, 0.1, 0.7, 0.9), Event("a", 0, gap, 1.8, 0.9), Event("a", 0, 0.7, gap, 0.5)]
    cfg = PsdsConfig(rho_gtc=((0.7 - 0.1) + (1.8 - gap)) / (2.3 - 0.1))
    assert intersection_match(dets[:2], refs, cfg.rho_dtc, cfg.rho_gtc, 1)[0].tolist() == [1]
    assert intersection_match(dets, refs, cfg.rho_dtc, cfg.rho_gtc, 1)[0].tolist() == [0]
    curve = one_set(dets, refs, 1.0, cfg, 1)
    expected = rematch_curve(dets, refs, 1.0, cfg, 1)
    assert curve.efpr.tolist() == expected.efpr.tolist() == [0.0]
    assert curve.tpr.tolist() == expected.tpr.tolist() == [[1.0]]


@pytest.mark.parametrize("spans, short", [
    # three pieces: summed right to left they cover an ulp less
    pytest.param([(0.1, 1.2), (1.5, 2.6), (3.3, 3.9)], (3.9 - 3.3) + (2.6 - 1.5) + (1.2 - 0.1), id="order"),
    # two pieces touch at 3.0: left apart they cover an ulp less than merged
    pytest.param([(0.7, 2.7), (1.6, 3.0), (3.0, 3.9)], (3.0 - 0.7) + (3.9 - 3.0), id="touching"),
])
@pytest.mark.parametrize("side", ["gtc", "dtc"])
def test_coverage_sums_the_merged_spans_left_to_right(spans, short, side):
    # rho is exactly the coverage of the merged spans summed in onset order,
    # so a different order or merge rule flips the verdict
    rho = _overlap(0.0, 4.1, _merge_intervals(spans)) / 4.1
    assert short / 4.1 < rho
    if side == "gtc":  # the spans are detections covering one reference
        dets = [Event("a", 0, a, b, 0.9) for a, b in spans]
        refs = [Event("a", 0, 0.0, 4.1)]
        cfg = PsdsConfig(rho_gtc=rho)
    else:  # the spans are references covering one detection
        dets = [Event("a", 0, 0.0, 4.1, 0.9)]
        refs = [Event("a", 0, a, b) for a, b in spans]
        cfg = PsdsConfig(rho_dtc=rho)
    curve = one_set(dets, refs, 1.0, cfg, 1)
    expected = rematch_curve(dets, refs, 1.0, cfg, 1)
    assert curve.efpr.tolist() == expected.efpr.tolist() == [0.0]
    assert curve.tpr.tolist() == expected.tpr.tolist() == [[1.0]]


@settings(max_examples=200, deadline=None)
@given(sweep_cases(), st.lists(st.text("abcz_0-", min_size=1, max_size=4), min_size=3, max_size=3, unique=True))
def test_psds_invariant_under_clip_renaming(case, names):
    dets, refs, hours, cfg, num_classes, _ = case
    rename = dict(zip(["a", "b", "c"], names))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = one_set(dets, refs, hours, cfg, num_classes)
        renamed = one_set(
            [replace(d, clip_id=rename[d.clip_id]) for d in dets],
            [replace(r, clip_id=rename[r.clip_id]) for r in refs],
            hours, cfg, num_classes,
        )
    assert np.array_equal(renamed.efpr, curve.efpr)
    assert np.array_equal(renamed.tpr, curve.tpr)
    assert psds(renamed, cfg) == psds(curve, cfg)


# ------------------------------------------ every set in one batched sweep

@st.composite
def batched_cases(draw):
    """A pool of detections and 1-6 index sets into it: sets that repeat an
    index, empty sets, pool entries that no set uses, confidences tied across
    sets, a clip that no reference is on and classes out of range."""
    num_classes = draw(st.integers(1, 3))
    refs = [Event(clip, c, lo, hi) for clip, c, (lo, hi) in
            draw(st.lists(st.tuples(_clips, st.integers(0, num_classes - 1), _spans), max_size=6))]
    detection = st.builds(
        lambda clip, c, span, conf: Event(clip, c, *span, conf),
        st.sampled_from(["a", "b", "c", "z"]),
        st.integers(-1, num_classes),
        _spans,
        st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0, None]),
    )
    dets = draw(st.lists(detection, max_size=12))
    index = st.lists(st.integers(0, len(dets) - 1), max_size=10) if dets else st.just([])
    sets = [np.array(s, dtype=np.intp) for s in draw(st.lists(index, min_size=1, max_size=6))]
    cfg = PsdsConfig(
        rho_dtc=draw(st.sampled_from([0.0, 0.5, 1.0])),
        rho_gtc=draw(st.sampled_from([0.0, 0.5, 1.0])),
        alpha_st=draw(st.sampled_from([0.0, 1.0])),
    )
    return dets, sets, refs, draw(st.sampled_from([0.05, 1.0])), cfg, num_classes


def _equal_curves(curve, other):
    assert np.array_equal(curve.efpr, other.efpr)
    assert np.array_equal(curve.tpr, other.tpr)
    assert np.array_equal(curve.included, other.included)


@settings(max_examples=300, deadline=None)
@given(batched_cases())
def test_batched_sweep_equals_the_per_set_sweep_and_the_rematch_oracle(case):
    dets, sets, refs, hours, cfg, num_classes = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curves = roc_from_confidences(table(dets), sets, table(refs), hours, cfg, num_classes)
        alone = [one_set([dets[i] for i in s], refs, hours, cfg, num_classes) for s in sets]
    assert len(curves) == len(sets)
    for s, curve, single in zip(sets, curves, alone):
        expected = rematch_curve([dets[i] for i in s], refs, hours, cfg, num_classes)
        _equal_curves(curve, expected)
        _equal_curves(single, expected)
        assert psds(curve, cfg) == psds_loop(expected, cfg)


def test_batched_sweep_in_capped_passes_equals_the_per_set_sweep(monkeypatch):
    # a pass takes whole sets up to the cap, and at least one set
    monkeypatch.setattr(evaluation, "_SWEEP_DETECTIONS", 5)
    rng = np.random.default_rng(9)
    for _ in range(30):
        _, refs, hours, num_classes = _random_case(rng)
        det_sets = [_random_case(rng)[0] for _ in range(int(rng.integers(1, 7)))]
        dets = [d for own in det_sets for d in own]
        sets = np.split(np.arange(len(dets)), np.cumsum([len(own) for own in det_sets])[:-1])
        sets.append(np.tile(sets[0], 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            curves = roc_from_confidences(table(dets), sets, table(refs), hours, CFG, num_classes)
        assert len(curves) == len(sets)
        for s, curve in zip(sets, curves):
            expected = rematch_curve([dets[i] for i in s], refs, hours, CFG, num_classes)
            _equal_curves(curve, expected)
            assert psds(curve, CFG) == psds_loop(expected, CFG)


def test_batched_sweep_warns_at_the_caller_and_names_the_first_bad_detection():
    refs = table([Event("a", 0, 0.0, 1.0)])
    no_dets = [np.zeros(0, dtype=np.intp)]
    with pytest.warns(UserWarning, match=r"excluded from PSDS: \[1\]") as caught:
        roc_from_confidences(table([]), no_dets, refs, 1.0, CFG, 2)
    assert [w.filename for w in caught] == [__file__]
    bad = Event("a", 0, 2.0, 2.0, 0.5)
    dets = table([Event("a", 0, 0.0, 1.0, 0.5), Event("a", 0, 1.0, 3.0, 0.5), bad, replace(bad, offset=1.0)])
    with pytest.raises(ValueError, match="detection needs finite times") as err:
        roc_from_confidences(dets, [np.array([0]), np.array([1, 2, 3])], refs, 1.0, CFG, 1)
    assert str(bad) in str(err.value)
    # every detection of the pool is checked, also one that no set uses
    with pytest.raises(ValueError, match="detection needs finite times") as err:
        roc_from_confidences(dets, [np.array([0, 1])], refs, 1.0, CFG, 1)
    assert str(bad) in str(err.value)
    with pytest.raises(ValueError, match="total_hours"):
        roc_from_confidences(table([]), no_dets, refs, 0.0, CFG, 1)


@st.composite
def curves(draw):
    num_classes = draw(st.integers(1, 3))
    steps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 7.25, 40.0, 99.5, 100.0, 250.0]), max_size=12))
    efpr = np.cumsum(steps)
    rates = st.floats(0.0, 1.0, allow_subnormal=False)
    tpr = np.array(draw(st.lists(st.lists(rates, min_size=num_classes, max_size=num_classes),
                                 min_size=efpr.size, max_size=efpr.size))).reshape(efpr.size, num_classes)
    included = np.array(draw(st.lists(st.booleans(), min_size=num_classes, max_size=num_classes)))
    cfg = PsdsConfig(alpha_st=draw(st.sampled_from([0.0, 0.5, 1.0])),
                     e_max=draw(st.sampled_from([0.5, 40.0, 100.0, 1000.0])))
    return OperatingPointCurve(efpr=efpr, tpr=tpr, included=included), cfg


@settings(max_examples=300, deadline=None)
@given(curves())
def test_psds_area_equals_the_loop_over_curve_points(case):
    curve, cfg = case
    assert psds(curve, cfg) == psds_loop(curve, cfg)


# ----------------------------------------------------------------- segments

def ten_seconds(num_classes=1, clip_id="a"):
    """A silent 10 s posteriorgram of one-second frames."""
    return Posteriorgram(np.zeros((10, num_classes)), 1.0, clip_id)


def test_segmentize_aligned_event():
    labels = segmentize(table([Event("a", 0, 3.0, 4.0)]), [ten_seconds()])
    assert labels.shape == (10, 1)
    assert labels[3, 0] == 1.0
    assert labels.sum() == 1.0


def test_segmentize_soft_value_kept():
    labels = segmentize(table([Event("a", 0, 0.0, 10.0, 0.4)]), [ten_seconds()])
    assert np.allclose(labels, 0.4)
    assert not np.any(labels >= 0.5)  # hard labels at 0.5 are all zero


def test_segmentize_counts_and_overlap_rule():
    labels = segmentize(table([Event("a", 0, 2.5, 3.5)]), [ten_seconds()])
    assert labels.shape[0] == 10
    assert labels[:, 0].tolist() == [0, 0, 1, 1, 0, 0, 0, 0, 0, 0]


def test_segment_scores_constant_and_spike():
    post = Posteriorgram(np.full((40, 2), 0.3), 0.25, "a")
    scores = segment_scores([post])
    assert scores.shape == (10, 2)
    assert np.allclose(scores, 0.3)

    spiky = np.zeros((40, 1))
    spiky[17, 0] = 0.9  # frame 17 at 0.25 s/frame -> segment 4
    post2 = Posteriorgram(spiky, 0.25, "b")
    scores2 = segment_scores([post2])
    assert scores2[4, 0] == pytest.approx(0.9)
    assert scores2.sum() == pytest.approx(0.9)


@st.composite
def segment_cases(draw):
    """Frame periods a whole number of frames per segment, a fraction of one
    (segments shorter than a frame leave some empty) or neither; scores with
    signed zeros and ties."""
    t = draw(st.integers(1, 60))
    c = draw(st.integers(1, 3))
    fp = draw(st.sampled_from([0.02, 0.1, 0.25, 0.5, 1.0, 0.03, 0.07, 0.3, 0.6, 1.5, 2.5]))
    segment = draw(st.sampled_from([1.0, 0.5, 0.01, 0.75]))
    value = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    cells = draw(st.lists(value, min_size=t * c, max_size=t * c))
    return Posteriorgram(np.array(cells).reshape(t, c), fp, "a"), segment


@settings(max_examples=300, deadline=None)
@given(segment_cases())
def test_segment_scores_equal_the_unbuffered_frame_max(case):
    post, segment = case
    got = segment_scores([post], segment)
    want = segment_scores_at(post, segment)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_segment_scores_count_formula():
    for t, fp in ((618, 0.016), (988, 0.01), (100, 0.064)):
        post = Posteriorgram(np.zeros((t, 1)), fp, "x")
        assert segment_scores([post]).shape[0] == int(np.ceil(t * fp / 1.0 - 1e-9))


@st.composite
def segment_directories(draw):
    """Clips of mixed frame counts and periods, each with an id of its own, a
    segment that need not be a whole number of frames, and references with
    and without confidences: edges a hair either side of a segment boundary,
    spans shorter than the boundary tolerance, and ends past the clip."""
    segment = draw(st.sampled_from([1.0, 0.5, 0.3, 0.75, 1.3, 0.07]))
    value = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    posts = []
    for clip_id in draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True)):
        fp = draw(st.sampled_from([0.02, 0.05, 0.1, 0.25, 0.03, 0.07, 0.3, 0.6, 1.5]))
        least = math.ceil(segment / fp - 1e-9)
        t = draw(st.integers(least, least + 30))
        cells = draw(st.lists(value, min_size=2 * t, max_size=2 * t))
        posts.append(Posteriorgram(np.array(cells).reshape(t, 2), fp, clip_id))
    time = (st.integers(0, 40).map(lambda k: k * segment)
            | st.builds(lambda k, e: max(0.0, k * segment + e), st.integers(0, 40), st.sampled_from([-1e-10, 1e-10]))
            | st.floats(0.0, 40.0))
    refs = []
    for _ in range(draw(st.integers(0, 10))):
        onset = draw(time)
        boundary = st.builds(lambda k, e: (math.floor(onset / segment) + k) * segment + e,
                             st.integers(1, 5), st.sampled_from([0.0, -1e-10, 1e-10]))
        offset = max(np.nextafter(onset, np.inf), draw(
            boundary | st.sampled_from([1e-10, 1e-6, 0.5, 1e300]).map(lambda length: onset + length)
            | st.floats(1e-3, 50.0).map(lambda length: onset + length)))
        confidence = draw(st.none() | value)
        refs.append(Event(draw(st.sampled_from(sorted({p.clip_id for p in posts}))), draw(st.integers(0, 1)),
                          onset, offset, confidence))
    return posts, refs, segment


@settings(max_examples=300, deadline=None)
@given(segment_directories())
def test_segment_table_stacks_the_per_clip_segments(case):
    posts, refs, segment = case
    scores, labels = segment_scores(posts, segment), segmentize(table(refs), posts, segment)
    want_scores = np.concatenate([segment_scores_at(post, segment) for post in posts])
    want_labels = np.concatenate([
        rasterize(table(ev for ev in refs if ev.clip_id == post.clip_id), len(segment_scores_at(post, segment)),
                  segment, 2)
        for post in posts])
    assert scores.shape == want_scores.shape and labels.shape == want_labels.shape
    assert scores.tobytes() == want_scores.tobytes()
    assert labels.tobytes() == want_labels.tobytes()


def test_segmentize_refuses_references_without_a_segment_row():
    posts = [ten_seconds(2, "a"), Posteriorgram(np.zeros((3, 2)), 0.25, "b")]
    # a bad segment comes first, then the first clip shorter than one
    with pytest.raises(ValueError, match="segment must be a finite length > 0 s, got 0.0"):
        segmentize(table([]), posts, 0.0)
    with pytest.raises(ValueError, match="duration 0.75 shorter than one segment 1.0"):
        segmentize(table([]), posts)
    assert segment_scores(posts).shape == (11, 2)
    with pytest.raises(ValueError, match="class index 2 out of range"):
        segmentize(table([Event("a", 2, 0.0, 1.0)]), posts[:1])
    with pytest.raises(ValueError, match=r"references for clips without posteriors: \['b'\]"):
        segmentize(table([Event("a", 0, 0.0, 1.0), Event("b", 0, 0.0, 1.0)]), posts[:1])
    with pytest.raises(ValueError, match="need at least one posteriorgram"):
        segment_scores([])


def test_segmentize_refuses_a_repeated_clip_id():
    posts = [ten_seconds(2, "a"), ten_seconds(2, "b"), ten_seconds(2, "a")]
    assert segment_scores(posts).shape == (30, 2)
    with pytest.raises(ValueError, match="^clip 2 has the id 'a' of clip 0$"):
        segmentize(table([Event("a", 0, 0.0, 1.0)]), posts)


# -------------------------------------------------------------------- mPAUC

def test_mpauc_perfect_and_chance():
    labels = np.array([[1], [1], [0], [0], [1], [0]], dtype=bool)
    perfect = labels.astype(float)
    assert mpauc(perfect, labels) == pytest.approx(1.0, abs=1e-12)
    ties = np.full((6, 1), 0.5)
    assert mpauc(ties, labels) == pytest.approx(0.5, abs=1e-12)


def test_mpauc_small_case_vs_bruteforce():
    scores = np.array([[0.9], [0.8], [0.75], [0.3], [0.2], [0.65]])
    labels = np.array([[1], [0], [1], [0], [0], [1]], dtype=bool)
    expected = brute_pauc(labels[:, 0], scores[:, 0], 0.1)
    assert mpauc(scores, labels) == pytest.approx(expected, abs=1e-12)


def test_mpauc_random_cases_vs_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(100):
        scores = rng.uniform(size=(50, 3))
        labels = rng.uniform(size=(50, 3)) < 0.4
        if np.any(labels.sum(axis=0) == 0) or np.any(labels.sum(axis=0) == 50):
            continue
        expected = np.mean([brute_pauc(labels[:, c], scores[:, c], 0.1) for c in range(3)])
        assert mpauc(scores, labels) == pytest.approx(expected, abs=1e-9)


def test_mpauc_rank_invariance():
    rng = np.random.default_rng(12)
    scores = rng.uniform(size=(30, 2))
    labels = rng.uniform(size=(30, 2)) < 0.5
    a = mpauc(scores, labels)
    b = mpauc(scores**3, labels)
    assert a == pytest.approx(b, abs=1e-12)


def test_mpauc_symmetry_at_full_range():
    # complementing tie-free scores mirrors the ROC; exact only at max_fpr = 1
    rng = np.random.default_rng(13)
    scores = rng.permutation(np.linspace(0.01, 0.99, 40))[:, None]
    labels = (rng.uniform(size=(40, 1)) < 0.5)
    labels[0, 0], labels[1, 0] = True, False
    total = mpauc(scores, labels, max_fpr=1.0) + mpauc(1.0 - scores, labels, max_fpr=1.0)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_mpauc_symmetry_fails_below_full_range():
    # documented counterexample: partial-range standardization is not symmetric
    scores = np.array([[0.9], [0.1]])
    labels = np.array([[1], [0]], dtype=bool)
    total = mpauc(scores, labels, max_fpr=0.1) + mpauc(1.0 - scores, labels, max_fpr=0.1)
    assert total != pytest.approx(1.0, abs=1e-3)


def test_mpauc_excludes_degenerate_classes():
    scores = np.array([[0.9, 0.2], [0.1, 0.3]])
    labels = np.array([[1, 1], [0, 1]], dtype=bool)  # class 1 has no negatives
    with pytest.warns(UserWarning, match="excluded"):
        per_class = mpauc_per_class(scores, labels)
    assert np.isnan(per_class[1]) and not np.isnan(per_class[0])
    all_bad = np.ones((2, 1), dtype=bool)
    with pytest.raises(ValueError):
        with pytest.warns(UserWarning):
            mpauc(scores[:, :1], all_bad)


def test_binary_roc_shape():
    fpr, tpr = binary_roc(np.array([True, False, True, False]), np.array([0.9, 0.8, 0.7, 0.1]))
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == 1.0 and tpr[-1] == 1.0
    assert np.all(np.diff(fpr) >= 0) and np.all(np.diff(tpr) >= 0)


def test_partial_auc_bounds():
    with pytest.raises(ValueError):
        partial_auc_standardized(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.0)


# -------------------------------------------------------------- joint score

def test_joint_score_reported_values():
    assert joint_score(0.529, 0.721) == pytest.approx(1.250, abs=1e-9)
    assert joint_score(0.656, 0.762) == pytest.approx(1.418, abs=1e-9)
    assert joint_score(0.0, 0.0) == 0.0


def test_joint_score_validates_range():
    with pytest.raises(ValueError):
        joint_score(1.2, 0.3)
