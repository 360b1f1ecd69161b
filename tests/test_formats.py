import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hetsed import synth
from hetsed.core import Event, Posteriorgram, canonicalize_events
from hetsed.evaluation import psds, roc_from_confidences
from hetsed.formats import (
    read_csebb_grid,
    read_csebb_params,
    read_durations_tsv,
    read_events_tsv,
    read_features,
    read_posteriorgram,
    read_score_report,
    write_csebb_params,
    write_durations_tsv,
    write_events_tsv,
    write_features,
    write_posteriorgram,
    write_score_report,
    write_soft_events_tsv,
    write_summary,
)
from hetsed.postprocess import ClassSebbParams, CsebbParams, csebb_detect, frame_threshold_merge

CLASSES = ["car", "dog", "speech"]


def events_fixture():
    return [
        Event("clip_b", 1, 0.5, 2.0),
        Event("clip_a", 0, 1.25, 3.0),
        Event("clip_a", 2, 0.064, 4.128),
    ]


def test_events_tsv_round_trip_and_header(tmp_path):
    path = tmp_path / "events.tsv"
    write_events_tsv(path, events_fixture(), CLASSES)
    text = path.read_text()
    assert text.startswith("filename\tonset\toffset\tevent_label\n")
    events, names = read_events_tsv(path, CLASSES)
    assert names == CLASSES
    assert {(e.clip_id, e.class_idx, e.onset, e.offset) for e in events} == {
        ("clip_b", 1, 0.5, 2.0),
        ("clip_a", 0, 1.25, 3.0),
        ("clip_a", 2, 0.064, 4.128),
    }
    # second write is byte-stable
    path2 = tmp_path / "again.tsv"
    write_events_tsv(path2, events, CLASSES)
    assert path2.read_bytes() == path.read_bytes()


def test_events_tsv_infers_sorted_class_names(tmp_path):
    path = tmp_path / "events.tsv"
    write_events_tsv(path, events_fixture(), CLASSES)
    _, names = read_events_tsv(path)
    assert names == sorted(CLASSES)


def test_events_tsv_seconds_have_three_decimals(tmp_path):
    path = tmp_path / "events.tsv"
    write_events_tsv(path, [Event("c", 0, 0.5, 2.0)], ["x"])
    line = path.read_text().splitlines()[1]
    assert line == "c\t0.500\t2.000\tx"


def test_soft_tsv_preserves_missing_confidence(tmp_path):
    path = tmp_path / "soft.tsv"
    events = [Event("c", 0, 0.0, 1.0, 0.35), Event("c", 0, 2.0, 3.0, None)]
    write_soft_events_tsv(path, events, ["x"])
    lines = path.read_text().splitlines()
    assert lines[0].endswith("\tconfidence")
    assert lines[1].endswith("\t0.350000")
    assert lines[2].endswith("\t")  # absent, not 0
    back, _ = read_events_tsv(path, ["x"])
    assert back[0].confidence == pytest.approx(0.35)
    assert back[1].confidence is None


def test_sebbs_tsv_round_trip(tmp_path):
    # a box is an Event whose confidence is set
    path = tmp_path / "sebbs.tsv"
    boxes = [Event("c", 0, 1.0, 2.0, 0.75)]
    write_soft_events_tsv(path, boxes, ["x"])
    back, _ = read_events_tsv(path, ["x"])
    assert back[0].confidence == pytest.approx(0.75)


def test_events_tsv_rejects_unknown_label(tmp_path):
    path = tmp_path / "events.tsv"
    write_events_tsv(path, [Event("c", 0, 0.0, 1.0)], ["mystery"])
    with pytest.raises(ValueError, match="unknown class"):
        read_events_tsv(path, CLASSES)


def test_durations_round_trip(tmp_path):
    path = tmp_path / "durations.tsv"
    durations = {"b": 10.0, "a": 182.5}
    write_durations_tsv(path, durations)
    assert read_durations_tsv(path) == durations
    assert path.read_text().splitlines()[1].startswith("a\t")  # sorted


def test_posteriorgram_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    scores = rng.uniform(size=(40, 3)).astype(np.float32)
    post = Posteriorgram(scores, frame_period=0.016, clip_id="clip_x")
    path = tmp_path / "clip_x.sedp"
    write_posteriorgram(path, post, CLASSES)
    back, names = read_posteriorgram(path)
    assert names == CLASSES
    assert back.clip_id == "clip_x"
    assert back.frame_period == pytest.approx(0.016)
    assert np.array_equal(back.scores, post.scores)  # float32 payload, exact
    # binary header
    assert path.read_bytes()[:4] == b"SEDP"


def test_posteriorgram_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.sedp"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        read_posteriorgram(path)


def test_features_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.normal(size=(618, 128)).astype(np.float32)
    path = tmp_path / "clip.mel"
    write_features(path, values, 0.016)
    back, fp = read_features(path)
    assert fp == pytest.approx(0.016)
    assert np.array_equal(back, values.astype(np.float64))
    assert path.read_bytes()[:4] == b"SEDF"
    assert len(path.read_bytes()) == 16 + 618 * 128 * 4


@pytest.mark.parametrize("damage, message", [
    (lambda data: data[:9], "truncated header: 9 bytes, need at least 16"),
    (lambda data: data[:-1], "truncated data"),
    (lambda data: data + b"\x00", "1 trailing bytes after the data"),
    (lambda data: data[:12] + bytes(4) + data[16:], "frame period must be positive, got 0 us"),
])
def test_features_reject_damaged_files(tmp_path, damage, message):
    path = tmp_path / "clip.mel"
    write_features(path, np.zeros((5, 3)), 0.016)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        read_features(path)


def test_posteriorgram_rejects_a_truncated_class_table(tmp_path):
    path = tmp_path / "clip.sedp"
    write_posteriorgram(path, Posteriorgram(np.zeros((2, 3)), 0.1, "clip"), CLASSES)
    path.write_bytes(path.read_bytes()[:21])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated class table"):
        read_posteriorgram(path)


def test_posteriorgram_rejects_a_class_name_that_is_not_utf8(tmp_path):
    path = tmp_path / "clip.sedp"
    write_posteriorgram(path, Posteriorgram(np.zeros((2, 3)), 0.1, "clip"), CLASSES)
    data = bytearray(path.read_bytes())
    data[25] = 0xFF  # first byte of the second name, "dog"
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: class name 1 is not UTF-8"):
        read_posteriorgram(path)


def test_posteriorgram_rejects_a_repeated_class_name(tmp_path):
    path = tmp_path / "clip.sedp"
    write_posteriorgram(path, Posteriorgram(np.zeros((2, 3)), 0.1, "clip"), ["car", "dog", "car"])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: class table repeats a name"):
        read_posteriorgram(path)


def _write_sedp(path, period):
    write_posteriorgram(path, Posteriorgram(np.zeros((2, 1)), period, "clip"), ["x"])


def _write_mel(path, period):
    write_features(path, np.zeros((2, 3)), period)


def test_binaries_round_trip_a_period_a_truncating_encoder_would_shift(tmp_path):
    # 0.007817 * 1e6 is 7816.999..., which int() would store as 7816 us
    _write_sedp(tmp_path / "clip.sedp", 0.007817)
    _write_mel(tmp_path / "clip.mel", 0.007817)
    assert read_posteriorgram(tmp_path / "clip.sedp")[0].frame_period == 0.007817
    assert read_features(tmp_path / "clip.mel")[1] == 0.007817


@pytest.mark.parametrize("write", [_write_sedp, _write_mel])
@pytest.mark.parametrize("period", [2e-7, 0.0166666, float("nan"), 5000.0])
def test_binary_writers_reject_a_period_that_is_not_whole_microseconds(tmp_path, write, period):
    path = tmp_path / "clip.bin"
    message = f"^{re.escape(str(path))}: frame period {period!r} s is not a whole"
    if write is _write_sedp and math.isnan(period):  # a Posteriorgram itself refuses a NaN period
        message = "^frame_period must be positive and finite, got nan$"
    with pytest.raises(ValueError, match=message):
        write(path, period)
    assert not path.exists()


def test_csebb_params_round_trip(tmp_path):
    params = CsebbParams(
        default=ClassSebbParams(window=7, half_width=3, rel_merge=0.2, abs_merge=0.15, min_gap=0.1),
        per_class={"dog": ClassSebbParams(window=11, half_width=5, rel_merge=0.3, abs_merge=0.05,
                                          min_gap=0.02)},
    )
    path = tmp_path / "params.tsv"
    write_csebb_params(path, params)
    back = read_csebb_params(path)
    assert back.default == params.default
    assert back.per_class == dict(params.per_class)
    assert back.for_class("dog").window == 11
    assert back.for_class("car").window == 7


def test_score_report_round_trip(tmp_path):
    entries = {"psds": 0.529, "mpauc": 0.721, "tpr.dog": 0.875}
    path = tmp_path / "report.tsv"
    write_score_report(path, entries)
    back = read_score_report(path)
    assert back == pytest.approx(entries)
    write_summary(tmp_path / "report.txt", "PSDS report", entries)
    text = (tmp_path / "report.txt").read_text()
    assert "psds" in text and "0.5290" in text


@pytest.mark.parametrize("read", [
    read_events_tsv, read_durations_tsv, read_csebb_params, read_csebb_grid, read_score_report,
])
def test_text_readers_check_the_header(tmp_path, read):
    path = tmp_path / "bad.tsv"
    path.write_text("filename\tstart\nx\t1.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: expected header"):
        read(path)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.tsv"
    write_durations_tsv(path, {"a": 1.0})
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.tsv"]
    assert leftovers == []


# ------------------------------------------------- write then read, exactly

@st.composite
def tsv_events(draw, confidence):
    """Events with times on a 1 ms grid and the given confidence strategy."""
    rows = draw(st.lists(st.tuples(
        st.sampled_from(["a", "clip_1", "b-2"]),
        st.integers(0, len(CLASSES) - 1),
        st.integers(0, 600_000),
        st.integers(1, 60_000),
        confidence,
    ), max_size=12))
    return [Event(clip, c, on / 1000, (on + length) / 1000, conf) for clip, c, on, length, conf in rows]


_six_decimals = st.integers(0, 10**6).map(lambda m: m / 10**6)


@settings(max_examples=200, deadline=None)
@given(tsv_events(st.none()), tsv_events(st.one_of(st.none(), _six_decimals)))
def test_event_tsvs_read_back_identical(events, boxes):
    with tempfile.TemporaryDirectory() as tmp:
        write_events_tsv(Path(tmp) / "events.tsv", events, CLASSES)
        write_soft_events_tsv(Path(tmp) / "boxes.tsv", boxes, CLASSES)
        assert read_events_tsv(Path(tmp) / "events.tsv", CLASSES) == (canonicalize_events(events), CLASSES)
        assert read_events_tsv(Path(tmp) / "boxes.tsv", CLASSES) == (canonicalize_events(boxes), CLASSES)


@settings(max_examples=200, deadline=None)
@given(
    arrays(np.float32, st.tuples(st.integers(1, 30), st.integers(1, 4)), elements=st.floats(0, 1, width=32)),
    st.integers(1, 10**6).map(lambda us: us / 1e6),
    st.lists(st.text(max_size=6), min_size=4, max_size=4, unique=True),
)
def test_posteriorgram_reads_back_identical(scores, period, names):
    names = names[: scores.shape[1]]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clip_7.sedp"
        write_posteriorgram(path, Posteriorgram(scores, period, "clip_7"), names)
        back, back_names = read_posteriorgram(path)
    assert back_names == names
    assert back.clip_id == "clip_7"
    assert back.frame_period == period
    assert np.array_equal(back.scores, scores.astype(np.float64))


@pytest.mark.filterwarnings("ignore:classes without references")
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from([0.02, 0.05, 0.064, 0.1]))
def test_psds_in_memory_equals_psds_after_the_tsv_round_trip(seed, n_clips, period):
    # frame times read back unchanged; a confidence keeps the 6 decimals the
    # writer prints
    rng = np.random.default_rng(seed)
    truth, metas = synth.gen_ground_truth(rng, n_clips, len(CLASSES), 3.0, snap=period)
    posts = synth.render_posteriors(truth, metas, len(CLASSES), period, blur=3, noise_sd=0.05,
                                    dip_prob=1.0, rng=rng)
    hours = sum(meta.duration for meta in metas) / 3600
    events = [ev for post in posts for ev in frame_threshold_merge(post, [0.5] * len(CLASSES))]
    boxes = csebb_detect(posts, CsebbParams(), CLASSES)
    printed = [replace(box, confidence=float(f"{box.confidence:.6f}")) for box in boxes]
    with tempfile.TemporaryDirectory() as tmp:
        write_events_tsv(Path(tmp) / "refs.tsv", truth, CLASSES)
        write_events_tsv(Path(tmp) / "events.tsv", events, CLASSES)
        write_soft_events_tsv(Path(tmp) / "boxes.tsv", boxes, CLASSES)
        refs, events_back, boxes_back = (
            read_events_tsv(Path(tmp) / name, CLASSES)[0] for name in ("refs.tsv", "events.tsv", "boxes.tsv")
        )
    assert events_back == canonicalize_events(events)
    assert boxes_back == canonicalize_events(printed)
    for in_memory, read_back in ((events, events_back), (printed, boxes_back)):
        values = [psds(roc_from_confidences(dets, refs, hours, num_classes=len(CLASSES)))
                  for dets in (in_memory, read_back)]
        assert values[0] == values[1] or math.isnan(values[0]) and math.isnan(values[1])
