import inspect
import math
import os
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hetsed import formats, synth
from hetsed.core import Event, EventTable, Posteriorgram, canonicalize_events
from hetsed.evaluation import PsdsConfig, psds, roc_from_confidences
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
from oracles import event_tsv_text

CLASSES = ["car", "dog", "speech"]
table = EventTable.from_events


def events_fixture():
    return table([
        Event("clip_b", 1, 0.5, 2.0),
        Event("clip_a", 0, 1.25, 3.0),
        Event("clip_a", 2, 0.064, 4.128),
    ])


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
    write_events_tsv(path, table([Event("c", 0, 0.5, 2.0)]), ["x"])
    line = path.read_text().splitlines()[1]
    assert line == "c\t0.500\t2.000\tx"


def test_soft_tsv_preserves_missing_confidence(tmp_path):
    path = tmp_path / "soft.tsv"
    events = table([Event("c", 0, 0.0, 1.0, 0.35), Event("c", 0, 2.0, 3.0, None)])
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
    boxes = table([Event("c", 0, 1.0, 2.0, 0.75)])
    write_soft_events_tsv(path, boxes, ["x"])
    back, _ = read_events_tsv(path, ["x"])
    assert back[0].confidence == pytest.approx(0.75)


def test_events_tsv_rejects_unknown_label(tmp_path):
    path = tmp_path / "events.tsv"
    write_events_tsv(path, table([Event("c", 0, 0.0, 1.0)]), ["mystery"])
    with pytest.raises(ValueError, match="unknown class"):
        read_events_tsv(path, CLASSES)


def test_read_events_tsv_gives_the_canonical_events(tmp_path):
    path = tmp_path / "soft.tsv"
    path.write_text("\n".join([formats.SOFT_HEADER, "b\t0.5\t2.0\tdog\t0.25", "a\t1.0\t3.0\tspeech\t", "",
                               "a\t0.0\t1.0\tspeech\t1.0", "b\t0.5\t1.5\tcar\t0.0"]) + "\n")
    columns, names = read_events_tsv(path)
    assert names == CLASSES
    assert list(columns) == [Event("a", 2, 0.0, 1.0, 1.0), Event("a", 2, 1.0, 3.0, None),
                                Event("b", 0, 0.5, 1.5, 0.0), Event("b", 1, 0.5, 2.0, 0.25)]
    assert read_events_tsv(path) == (columns, names)
    assert sorted(columns.clip_ids) == ["a", "b"]
    assert read_events_tsv(path, ["car", "dog", "speech", "x"])[0].class_idx.tolist() == [2, 2, 0, 1]


@pytest.mark.parametrize("row, message", [
    ("c\t0.0\t1.0\tcar", "expected 5 columns, got 4"),
    ("c\t0.0\tsoon\tcar\t", "could not convert string to float: 'soon'"),
    ("c\t2.0\t1.0\tcar\t", "offset 1.0 <= onset 2.0"),
    ("c\t-1.0\tinf\tcar\t", "non-finite time: onset -1.0, offset inf; negative onset -1.0"),
    ("c\t0.0\t1.0\tcar\t1.5", "confidence 1.5 outside [0, 1]"),
    ("c\t0.0\t1.0\tcat\t0.5", "unknown class label 'cat'"),
])
def test_event_readers_name_the_first_bad_row(tmp_path, row, message):
    path = tmp_path / "soft.tsv"
    path.write_text("\n".join([formats.SOFT_HEADER, "c\t0.0\t1.0\tdog\t", "", row, "c\t0.0\tx\tdog\t"]) + "\n")
    with pytest.raises(ValueError) as error:
        read_events_tsv(path, CLASSES)
    assert str(error.value) == f"{path}:4: {message}"


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


def _read_buffer(array):
    """What ``array`` is a view of: the end of its chain of bases, through a
    memoryview to the object it views."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj if isinstance(base, memoryview) else base


@pytest.mark.parametrize("kind", ["posteriorgram", "features"])
def test_a_binary_read_returns_the_stored_float32_in_the_buffer_it_read(tmp_path, kind):
    scores = np.random.default_rng(3).uniform(size=(40, 3)).astype(np.float32)
    path = tmp_path / f"clip.{kind}"
    if kind == "posteriorgram":
        write_posteriorgram(path, Posteriorgram(scores, 0.016, "clip"), CLASSES)
        values = read_posteriorgram(path)[0].scores
    else:
        write_features(path, scores, 0.016)
        values = read_features(path)[0]
    assert values.dtype == np.float32 and values.dtype.isnative and np.array_equal(values, scores)
    # no copy: the values are the payload of the whole file as it was read
    buffer = _read_buffer(values)
    assert isinstance(buffer, bytearray) and bytes(buffer) == path.read_bytes()
    assert np.shares_memory(values, np.frombuffer(buffer, np.uint8))
    assert values.flags.writeable
    values[0, 0] = 0.25  # lands in the buffer, not in the file
    assert bytes(buffer) != path.read_bytes()


@pytest.mark.parametrize("skew", [-1000, -1, 0, 1, 1000])
def test_a_binary_read_takes_the_whole_file_whatever_size_was_taken_first(tmp_path, monkeypatch, skew):
    # a size taken short stands for a file that grew before the read, one
    # taken long for a file that shrank
    scores = np.random.default_rng(4).uniform(size=(300, 3)).astype(np.float32)
    path = tmp_path / "clip.sedp"
    write_posteriorgram(path, Posteriorgram(scores, 0.02, "clip"), CLASSES)
    fstat = os.fstat

    def skewed(fd):
        status = tuple(fstat(fd))
        return os.stat_result(status[:6] + (max(status[6] + skew, 0),) + status[7:])

    monkeypatch.setattr(os, "fstat", skewed)
    post, names = read_posteriorgram(path)
    assert np.array_equal(post.scores, scores) and names == CLASSES
    assert bytes(_read_buffer(post.scores)) == path.read_bytes()


def test_a_binary_read_of_a_directory_is_refused_as_open_refuses_it(tmp_path):
    with pytest.raises(IsADirectoryError) as opened:
        open(tmp_path, "rb")
    for read in (read_posteriorgram, read_features):
        with pytest.raises(IsADirectoryError) as refused:
            read(tmp_path)
        assert str(refused.value) == str(opened.value)


def test_every_reader_takes_one_file_path_first():
    # a traced benchmark run sizes each read from the reader's first argument
    readers = [fn for name, fn in vars(formats).items() if name.startswith("read_") and callable(fn)]
    assert len(readers) >= 7
    for fn in readers:
        first = next(iter(inspect.signature(fn).parameters.values()))
        assert first.name == "path", fn.__name__
        assert first.annotation == "Path | str", fn.__name__


@pytest.mark.parametrize("data, line", [
    (b"a\r\nb\rc\n\xffd\n", 4),  # a lone CR ends a line, as in splitlines
    ("a\x0cb\u2028c\x85d\n".encode() + b"\xff", 5),
    (b"\xff", 1),
    (b"ok\n\n\xc3", 3),  # a multi-byte character cut short
    (b"caf\xc3\xa9\n\xe9t\xc3\xa9\n", 2),
])
def test_text_that_is_not_utf8_is_named_by_file_and_line(tmp_path, data, line):
    path = tmp_path / "t.tsv"
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        formats._read_text(path)
    assert str(info.value) == f"{path}:{line}: not valid UTF-8"
    # the line a row error in the same file would name
    assert "\ufffd" in data.decode("utf-8", "replace").splitlines()[line - 1]


def test_text_splits_into_the_lines_of_a_text_mode_read(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes("a\r\nb\rc\n\x0bd\u2028é\r\r\n\n\ufefff\r".encode())
    with open(path, encoding="utf-8") as fh:
        assert formats._read_text(path).splitlines() == fh.read().splitlines()


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
    assert back.dtype == np.float32 and back.dtype.isnative and back.flags.writeable
    assert np.array_equal(back, values)
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
    for _ in range(2):  # a rejected table is not remembered for the next file
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


# 0.1234567 is a grid value that :g would round to 0.123457
_merge_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 0.1, 0.15, 0.2, 1e-7, 0.1234567, 2.5e-300, 1 / 3]),
)


@settings(max_examples=300, deadline=None)
@given(_merge_values, _merge_values, _merge_values)
def test_csebb_params_merge_fields_read_back_as_the_same_floats(rel, abs_, gap):
    params = CsebbParams(default=ClassSebbParams(rel_merge=rel, abs_merge=abs_, min_gap=gap),
                         per_class={"dog": ClassSebbParams(window=3, rel_merge=gap, abs_merge=rel, min_gap=abs_)})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.tsv"
        write_csebb_params(path, params)
        back = read_csebb_params(path)
        cells = [line.split("\t")[3:] for line in path.read_text().splitlines()[1:]]
    assert back.default == params.default
    assert back.per_class == dict(params.per_class)
    # a value whose :g text reads back keeps that text
    for row, p in zip(cells, (params.default, params.per_class["dog"])):
        for cell, value in zip(row, (p.rel_merge, p.abs_merge, p.min_gap)):
            if float(f"{value:g}") == value:
                assert cell == f"{value:g}"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_score_report_refuses_a_non_finite_value_and_names_its_key(tmp_path, bad):
    path = tmp_path / "report.tsv"
    message = f"{path}: key 'tpr.dog' has the non-finite value {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_score_report(path, {"psds": 0.5, "tpr.dog": bad})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("names", [["car", "car"], ["car", "dog", "car"], ("a", "b", "b")])
def test_event_writers_refuse_a_repeated_class_name_and_leave_no_file(tmp_path, names):
    events = table([Event("x", 0, 0.0, 1.0, 0.5)])
    message = f"{tmp_path / 'out.tsv'}: class names repeat a name: {list(names)}"
    for write in (write_events_tsv, write_soft_events_tsv):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write(tmp_path / "out.tsv", events, names)
    assert list(tmp_path.iterdir()) == []


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


def test_every_writer_gives_its_file_the_mode_of_a_plain_open(tmp_path):
    # a file made by open() has mode 0o666 less the umask
    with open(tmp_path / "plain", "w"):
        pass
    want = os.stat(tmp_path / "plain").st_mode & 0o777
    post = Posteriorgram(np.full((3, 1), 0.5), 0.02, "x")
    writes = {
        "events.tsv": lambda p: write_events_tsv(p, events_fixture(), CLASSES),
        "boxes.tsv": lambda p: write_soft_events_tsv(p, table([Event("c", 0, 1.0, 2.0, 0.75)]), ["x"]),
        "durations.tsv": lambda p: write_durations_tsv(p, {"a": 1.0}),
        "x.sedp": lambda p: write_posteriorgram(p, post, ["x"]),
        "x.mel": lambda p: write_features(p, np.zeros((2, 3)), 0.01),
        "params.tsv": lambda p: write_csebb_params(p, CsebbParams()),
        "report.tsv": lambda p: write_score_report(p, {"psds": 0.5}),
        "report.txt": lambda p: write_summary(p, "PSDS report", {"psds": 0.5}),
    }
    for name, write in writes.items():
        write(tmp_path / name)
        assert (name, os.stat(tmp_path / name).st_mode & 0o777) == (name, want)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*writes, "plain"])


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
        write_events_tsv(Path(tmp) / "events.tsv", table(events), CLASSES)
        write_soft_events_tsv(Path(tmp) / "boxes.tsv", table(boxes), CLASSES)
        assert read_events_tsv(Path(tmp) / "events.tsv", CLASSES) == (canonicalize_events(events), CLASSES)
        assert read_events_tsv(Path(tmp) / "boxes.tsv", CLASSES) == (canonicalize_events(boxes), CLASSES)


# a tab and every character at which str.splitlines ends a line
_BREAKS = "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_names = st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from(_BREAKS)), max_size=5)


@settings(max_examples=300, deadline=None)
@given(_names, _names)
def test_a_clip_id_or_class_name_reads_back_or_is_refused(clip_id, class_name):
    names = [class_name]
    events = table([Event(clip_id, 0, 0.5, 1.25, 0.75), Event("x", 0, 0.0, 1.0)])
    cases = [
        (lambda p: write_events_tsv(p, events, names), lambda p: read_events_tsv(p, names),
         ([replace(ev, confidence=None) for ev in canonicalize_events(events)], names)),
        (lambda p: write_soft_events_tsv(p, events, names), lambda p: read_events_tsv(p, names),
         (canonicalize_events(events), names)),
        (lambda p: write_durations_tsv(p, {clip_id: 10.0, "x": 2.5}), read_durations_tsv,
         {clip_id: 10.0, "x": 2.5}),
        (lambda p: write_score_report(p, {class_name: 0.5}), read_score_report, {class_name: 0.5}),
        (lambda p: write_csebb_params(p, CsebbParams(per_class={class_name: ClassSebbParams(window=3)})),
         lambda p: read_csebb_params(p).per_class, {class_name: ClassSebbParams(window=3)}),
    ]
    for write, read, want in cases:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.tsv"
            try:
                write(path)
            except ValueError:
                assert list(Path(tmp).iterdir()) == []
                continue
            assert read(path) == want


def test_text_writers_name_the_field_that_would_not_read_back(tmp_path):
    path = tmp_path / "out.tsv"
    writes = [
        (lambda: write_events_tsv(path, table([Event("a\u2028b", 0, 0.0, 1.0)]), CLASSES), "clip id 'a\\u2028b'"),
        (lambda: write_soft_events_tsv(path, table([Event("a", 0, 0.0, 1.0)]), ["car\tdog"]),
         "class name 'car\\tdog'"),
        (lambda: write_durations_tsv(path, {"a\rb": 1.0}), "clip id 'a\\rb'"),
        (lambda: write_score_report(path, {"psds\x85": 1.0}), "key 'psds\\x85'"),
        (lambda: write_csebb_params(path, CsebbParams(per_class={"dog\x0b": ClassSebbParams()})),
         "class name 'dog\\x0b'"),
    ]
    for write, named in writes:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {named} holds a tab or a line break')}$"):
            write()
    with pytest.raises(ValueError, match=re.escape("class name '*' would read back as the default row")):
        write_csebb_params(path, CsebbParams(per_class={"*": ClassSebbParams()}))
    assert list(tmp_path.iterdir()) == []


def test_the_refused_characters_are_those_that_split_a_field_or_a_line():
    splitting = {c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) > 1}
    assert splitting | {"\t"} == set(_BREAKS)
    assert {c for c in _BREAKS if formats._UNSPLITTABLE.search(c)} == set(_BREAKS)
    assert not formats._UNSPLITTABLE.search("".join(c for c in map(chr, range(0x110000)) if c not in _BREAKS))


_TIMES = (st.integers(0, 600_000).map(lambda ms: ms / 1000)  # on a 1 ms grid
          | st.floats(0.0, 600.0)  # off the grid: six decimals
          | st.sampled_from([0.0, -0.0, 1 / 3, 0.0005, 0.0004999, 2.0000005, 599.9999996]))
_CONFIDENCES = st.none() | st.sampled_from([0.0, -0.0, 1.0, 0.5, 1e-7, 0.9999995]) | st.floats(0.0, 1.0)


@st.composite
def writer_events(draw):
    """Events on few (clip, class) keys, so equal keys with other confidences
    are common; clip ids with non-ASCII letters and separators that sort
    apart from their file names."""
    rows = draw(st.lists(st.tuples(
        st.sampled_from(["a", "a-b", "a.b", "é", "日本", "clip_1", "Z"]),
        st.integers(0, len(CLASSES) - 1),
        _TIMES,
        st.sampled_from([0.001, 0.02, 0.5]) | st.floats(1e-6, 30.0),
        _CONFIDENCES,
    ), max_size=20))
    events = [Event(clip, c, on, on + length, conf) for clip, c, on, length, conf in rows if on + length > on]
    duplicates = draw(st.lists(st.tuples(st.integers(0, 10**6), _CONFIDENCES), max_size=4))
    return events + [replace(events[i % len(events)], confidence=conf) for i, conf in duplicates if events]


@settings(max_examples=300, deadline=None)
@given(writer_events())
def test_event_writers_give_the_bytes_of_the_row_by_row_formatter(events):
    with tempfile.TemporaryDirectory() as tmp:
        for write, soft in ((write_events_tsv, False), (write_soft_events_tsv, True)):
            want = event_tsv_text(events, CLASSES, soft).encode("utf-8")
            write(Path(tmp) / "out.tsv", table(events), CLASSES)
            assert (Path(tmp) / "out.tsv").read_bytes() == want


@pytest.mark.parametrize("bad", [
    Event("b", 0, 1.0, 2.0, float("nan")),
    Event("b", 0, 1.0, 2.0, 1.5),
    Event("b", 0, 2.0, 1.0),
    Event("b", 0, -1.0, float("inf"), -0.5),
    Event("b", -1, 0.0, 1.0),
])
def test_event_writers_reject_invalid_events_as_canonicalize_events_does(tmp_path, bad):
    events = [Event("a", 0, 0.0, 1.0, 0.25), bad, Event("a", 1, 0.0, 1.0, None), bad]
    with pytest.raises(ValueError, match="^invalid events:\n") as expected:
        canonicalize_events(events)
    for write in (write_events_tsv, write_soft_events_tsv):
        with pytest.raises(ValueError) as err:
            write(tmp_path / "out.tsv", table(events), CLASSES)
        assert str(err.value) == str(expected.value)
    assert list(tmp_path.iterdir()) == []


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
    events = table(ev for post in posts for ev in frame_threshold_merge([post], [0.5] * len(CLASSES)))
    boxes = csebb_detect(posts, CsebbParams(), CLASSES)
    printed = table(replace(box, confidence=float(f"{box.confidence:.6f}")) for box in boxes)
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
        values = [psds(roc_from_confidences(dets, [np.arange(len(dets))], refs, hours, PsdsConfig(), len(CLASSES))[0])
                  for dets in (in_memory, read_back)]
        assert values[0] == values[1] or math.isnan(values[0]) and math.isnan(values[1])
