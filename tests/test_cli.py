import contextlib
import hashlib
import io
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsed import cli, evaluation, formats
from hetsed.config import DEFAULTS
from hetsed.core import Event, EventTable, Posteriorgram, default_vocabulary, rasterize
from hetsed.postprocess import ClassSebbParams, CsebbParams
from oracles import event_tsv_text, frozen_command_error, median_threshold_runs, segment_scores_at

table = EventTable.from_events


def run(*argv):
    return cli.main([str(a) for a in argv])


def synth_dir(tmp_path, name="data", **kw):
    classes = tmp_path / "classes.txt"
    classes.write_text("car\ndog\n")
    out = tmp_path / name
    args = dict(seed=7, clips=12, frame_period=0.05, mean_events=2.0)
    args.update(kw)
    assert run(
        "synth", "--seed", args["seed"], "--clips", args["clips"], "--classes", classes,
        "--out", out, "--frame-period", args["frame_period"], "--mean-events", args["mean_events"],
        *args.get("extra", []),
    ) == 0
    return out


def test_synth_outputs_and_determinism(tmp_path):
    a = synth_dir(tmp_path, "a")
    b = synth_dir(tmp_path, "b")
    assert (a / "refs.tsv").exists() and (a / "durations.tsv").exists()
    posts = sorted((a / "posteriors").glob("*.sedp"))
    assert len(posts) == 12
    assert (a / "refs.tsv").read_bytes() == (b / "refs.tsv").read_bytes()
    for pa, pb in zip(posts, sorted((b / "posteriors").glob("*.sedp"))):
        assert pa.read_bytes() == pb.read_bytes()


def test_frame_pipeline_on_noiseless_fixture_reaches_one(tmp_path, capsys):
    data = synth_dir(tmp_path)
    dets = tmp_path / "dets.tsv"
    assert run("postprocess", "--method", "frame", "--in", data / "posteriors", "--out", dets) == 0
    report = tmp_path / "psds.tsv"
    assert run(
        "eval", "psds", "--dets", dets, "--refs", data / "refs.tsv",
        "--durations", data / "durations.tsv", "--out", report,
    ) == 0
    out = capsys.readouterr().out
    assert "psds\t1.000000" in out
    assert formats.read_score_report(report)["psds"] == pytest.approx(1.0, abs=1e-9)


def test_csebb_pipeline_on_noiseless_fixture_reaches_one(tmp_path, capsys):
    data = synth_dir(tmp_path)
    params = tmp_path / "csebb.tsv"
    formats.write_csebb_params(params, CsebbParams(default=ClassSebbParams(window=1, half_width=1)))
    boxes = tmp_path / "boxes.tsv"
    assert run("postprocess", "--method", "csebb", "--params", params,
               "--in", data / "posteriors", "--out", boxes) == 0
    assert run("eval", "psds", "--dets", boxes, "--refs", data / "refs.tsv",
               "--durations", data / "durations.tsv") == 0
    assert "psds\t1.000000" in capsys.readouterr().out


def test_median_pipeline_runs(tmp_path):
    data = synth_dir(tmp_path)
    params = tmp_path / "median.cfg"
    params.write_text("window = 3\nthreshold.default = 0.5\n")
    dets = tmp_path / "dets.tsv"
    assert run("postprocess", "--method", "median", "--params", params,
               "--in", data / "posteriors", "--out", dets) == 0
    events, _ = formats.read_events_tsv(dets)
    assert events


def test_eval_mpauc_noiseless_is_one(tmp_path, capsys):
    data = synth_dir(tmp_path)
    assert run("eval", "mpauc", "--posteriors", data / "posteriors",
               "--refs", data / "refs.tsv", "--out", tmp_path / "mpauc.tsv") == 0
    assert "mpauc\t1.000000" in capsys.readouterr().out


def test_eval_joint_prints_reported_sum(tmp_path, capsys):
    formats.write_score_report(tmp_path / "p.tsv", {"psds": 0.529})
    formats.write_score_report(tmp_path / "m.tsv", {"mpauc": 0.721})
    assert run("eval", "joint", "--psds", tmp_path / "p.tsv", "--mpauc", tmp_path / "m.tsv") == 0
    assert capsys.readouterr().out.strip() == "1.250"


def test_tune_csebb_writes_readable_params(tmp_path):
    data = synth_dir(tmp_path, extra=["--blur", "3", "--noise", "0.05", "--dip-prob", "1.0"])
    grid = tmp_path / "grid.tsv"
    grid.write_text(
        "window\thalf_width\trel_merge\tabs_merge\tmin_gap\n"
        "3\t1\t0.2\t0.15\t0.1\n"
        "7\t3\t0.3\t0.15\t0.1\n"
    )
    out = tmp_path / "tuned.tsv"
    assert run("tune-csebb", "--val-posteriors", data / "posteriors",
               "--val-refs", data / "refs.tsv", "--grid", grid, "--out", out) == 0
    tuned = formats.read_csebb_params(out)
    assert tuned.default.window in (3, 7)


def test_ensemble_averages_files(tmp_path):
    rng = np.random.default_rng(0)
    names = ["car", "dog"]
    paths = []
    for i, x in enumerate((rng.uniform(size=(10, 2)), rng.uniform(size=(10, 2)))):
        p = tmp_path / f"model{i}.sedp"
        formats.write_posteriorgram(p, Posteriorgram(x.astype(np.float32), 0.05, f"model{i}"), names)
        paths.append(p)
    out = tmp_path / "avg.sedp"
    assert run("ensemble", "--in", *paths, "--out", out) == 0
    merged, _ = formats.read_posteriorgram(out)
    a, _ = formats.read_posteriorgram(paths[0], clip_id="avg")
    b, _ = formats.read_posteriorgram(paths[1], clip_id="avg")
    assert np.allclose(merged.scores, (a.scores + b.scores) / 2, atol=1e-7)


def test_features_command_and_determinism(tmp_path):
    from scipy.io import wavfile

    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    rng = np.random.default_rng(1)
    for name in ("one", "two"):
        audio = np.clip(rng.normal(scale=0.1, size=16000), -1, 1).astype(np.float32)
        wavfile.write(wav_dir / f"{name}.wav", 16000, audio)
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    assert run("features", "--input", wav_dir, "--hop", "256", "--out", out1) == 0
    assert run("features", "--input", wav_dir, "--hop", "256", "--out", out2) == 0
    for name in ("one", "two"):
        f1 = (out1 / f"{name}.mel").read_bytes()
        f2 = (out2 / f"{name}.mel").read_bytes()
        assert f1 == f2
        values, fp = formats.read_features(out1 / f"{name}.mel")
        assert values.shape == (618, 128)
        assert fp == pytest.approx(256 / 16000)


def test_features_bytes_do_not_depend_on_jobs(tmp_path):
    from scipy.io import wavfile

    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    rng = np.random.default_rng(2)
    names = [f"clip{i}" for i in range(4)]
    for i, name in enumerate(names):
        audio = np.clip(rng.normal(scale=0.1, size=(8 + 2 * i) * 16000), -1, 1)
        wavfile.write(wav_dir / f"{name}.wav", 16000, (audio * 32767).astype(np.int16))
    for jobs in (1, 2):
        assert run("features", "--input", wav_dir, "--hop", "160", "--out", tmp_path / f"j{jobs}", "--jobs", jobs) == 0
    for name in names:
        assert (tmp_path / "j1" / f"{name}.mel").read_bytes() == (tmp_path / "j2" / f"{name}.mel").read_bytes()


def test_features_holds_at_most_jobs_clips_not_yet_written(tmp_path, monkeypatch):
    from scipy.io import wavfile

    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    for i in range(6):
        wavfile.write(wav_dir / f"clip{i}.wav", 16000, np.zeros(16000, dtype=np.int16))
    lock, held, most = threading.Lock(), [0], [0]
    extract, write = cli.features.extract_log_mel, cli.formats.write_features

    def slow_first_extract(clip, **kwargs):
        if clip.clip_id == "clip0":
            time.sleep(0.3)  # the other clips finish first
        mel = extract(clip, **kwargs)
        with lock:
            held[0] += 1
            most[0] = max(most[0], held[0])
        return mel

    def counted_write(*args):
        write(*args)
        with lock:
            held[0] -= 1

    monkeypatch.setattr(cli.features, "extract_log_mel", slow_first_extract)
    monkeypatch.setattr(cli.formats, "write_features", counted_write)
    assert run("features", "--input", wav_dir, "--hop", "160", "--out", tmp_path / "f", "--jobs", 2) == 0
    assert held[0] == 0
    assert most[0] <= 2
    assert sorted(p.name for p in (tmp_path / "f").iterdir()) == [f"clip{i}.mel" for i in range(6)]


@pytest.mark.parametrize("jobs", [0, -1])
def test_features_rejects_jobs_below_one(tmp_path, capsys, jobs):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    assert run("features", "--input", wav_dir, "--out", tmp_path / "f", "--jobs", jobs) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_features_refuses_two_wavs_of_one_clip_id(tmp_path, capsys):
    from scipy.io import wavfile

    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    for name in ("a.wav", ".wav", ".wav.wav"):  # the last two are both clip ".wav"
        wavfile.write(wav_dir / name, 16000, np.zeros(16000, dtype=np.int16))
    assert run("features", "--input", wav_dir, "--out", tmp_path / "f") == 2
    assert capsys.readouterr() == (
        "", f"error: {wav_dir / '.wav.wav'}: clip id '.wav' already read from {wav_dir / '.wav'}\n")
    assert not (tmp_path / "f").exists()


def _wav_bytes(edit=None) -> bytes:
    """A 100-sample PCM16 16 kHz WAV, with ``edit(header)`` applied to its
    44-byte header: fmt fields at 20 (format tag), 22 (channels), 28 (bytes
    per second), 32 (block align), 34 (bits per sample)."""
    from scipy.io import wavfile

    buf = io.BytesIO()
    wavfile.write(buf, 16000, np.zeros(100, dtype=np.int16))
    data = bytearray(buf.getvalue())
    if edit is not None:
        edit(data)
    return bytes(data)


def _fields(**at):
    """An edit that packs each ``offset=(format, value)`` into the header."""
    def edit(data):
        for offset, (fmt, value) in at.items():
            struct.pack_into(fmt, data, int(offset[1:]), value)
    return edit


# bytes that scipy.io.wavfile fails to parse, each with the exception it
# raises there
MALFORMED_WAVS = {
    "cut at 30 bytes (struct.error)": _wav_bytes()[:30],
    "RIFF, WAVE, then junk (UnboundLocalError)": b"RIFF\x00\x00\x00\x00WAVE" + b"junk" * 10,
    "RIFF then junk (ValueError)": b"RIFF" + bytes(range(40)),
    "zero block align (ZeroDivisionError)": _wav_bytes(_fields(o28=("<I", 0), o32=("<H", 0))),
    "5-byte float samples (TypeError)": _wav_bytes(_fields(o20=("<H", 3), o28=("<I", 80000), o32=("<H", 5),
                                                           o34=("<H", 32))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_WAVS))
def test_features_names_a_wav_that_cannot_be_parsed(tmp_path, capsys, case):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    (wav_dir / "bad.wav").write_bytes(MALFORMED_WAVS[case])
    assert run("features", "--input", wav_dir, "--out", tmp_path / "f") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {wav_dir / 'bad.wav'}: not a readable WAV file: ") and err.count("\n") == 1


def test_loss_command_masks_desed_columns(tmp_path, capsys):
    vocab = default_vocabulary()
    rng = np.random.default_rng(2)
    scores = rng.uniform(0.05, 0.95, size=(40, len(vocab))).astype(np.float32)
    pred_path = tmp_path / "m1.sedp"
    formats.write_posteriorgram(pred_path, Posteriorgram(scores, 0.25, "m1"), list(vocab.classes))

    target_path = tmp_path / "target.tsv"
    events = table([
        Event("m1", vocab.index("people_talking"), 0.0, 5.0, 0.8),
        Event("m1", vocab.index("car"), 2.0, 9.0, 0.6),
    ])
    formats.write_soft_events_tsv(target_path, events, list(vocab.classes))

    assert run("loss", "--pred", pred_path, "--target", target_path,
               "--origin", "maestro", "--mode", "independent") == 0
    first = capsys.readouterr().out

    # perturb a DESED column: independent-mode loss unchanged
    scores2 = scores.copy()
    scores2[:, list(vocab.classes).index("speech")] = 0.123
    formats.write_posteriorgram(pred_path, Posteriorgram(scores2, 0.25, "m1"), list(vocab.classes))
    assert run("loss", "--pred", pred_path, "--target", target_path,
               "--origin", "maestro", "--mode", "independent") == 0
    assert capsys.readouterr().out == first

    # baseline mode sees the cross-mapped speech column
    assert run("loss", "--pred", pred_path, "--target", target_path,
               "--origin", "maestro", "--mode", "baseline") == 0
    baseline_out = capsys.readouterr().out
    assert baseline_out != first
    assert "active_classes\t13" in baseline_out  # 11 MAESTRO + speech + dishes


def test_full_chain_byte_stable_across_runs(tmp_path):
    # synth -> postprocess -> eval, twice with the same seed: identical bytes
    reports = []
    for name in ("r1", "r2"):
        data = synth_dir(tmp_path, name, extra=["--blur", "3", "--noise", "0.05", "--dip-prob", "1.0"])
        dets = tmp_path / f"{name}_dets.tsv"
        assert run("postprocess", "--method", "csebb", "--in", data / "posteriors",
                   "--out", dets) == 0
        report = tmp_path / f"{name}_psds.tsv"
        assert run("eval", "psds", "--dets", dets, "--refs", data / "refs.tsv",
                   "--durations", data / "durations.tsv", "--out", report) == 0
        reports.append((dets.read_bytes(), report.read_bytes()))
    assert reports[0] == reports[1]


def test_readme_walkthrough_tuned_params_and_boxes_are_pinned(tmp_path):
    # the README walkthrough's tune-csebb and csebb outputs, byte for byte
    classes = tmp_path / "classes.txt"
    classes.write_text("car\ndog\nspeech\n")
    data = tmp_path / "data"
    assert run("synth", "--seed", 7, "--clips", 50, "--classes", classes, "--out", data,
               "--frame-period", 0.1, "--blur", 3, "--noise", 0.05, "--dip-prob", 1.0) == 0
    tuned, boxes = tmp_path / "tuned.tsv", tmp_path / "boxes.tsv"
    assert run("tune-csebb", "--val-posteriors", data / "posteriors", "--val-refs", data / "refs.tsv",
               "--out", tuned) == 0
    assert run("postprocess", "--method", "csebb", "--params", tuned, "--in", data / "posteriors",
               "--out", boxes) == 0
    assert hashlib.sha256(tuned.read_bytes()).hexdigest() == (
        "436d6c7c9b3d4c55034142cde60d022702043d8384829158ae5310e05fe57cce")
    assert hashlib.sha256(boxes.read_bytes()).hexdigest() == (
        "cf988f68592aece8468e1a8a7728f9582d47adf98fb4a0ef4bbe5ea1e1cdad55")


def test_tune_csebb_with_grid_and_durations_is_pinned(tmp_path):
    # three candidates scored apart, the winner (window 3) not the first row
    classes = tmp_path / "classes.txt"
    classes.write_text("car\ndog\nspeech\n")
    data = tmp_path / "data"
    assert run("synth", "--seed", 11, "--clips", 30, "--classes", classes, "--out", data,
               "--frame-period", 0.05, "--blur", 3, "--noise", 0.1, "--dip-prob", 1.0) == 0
    grid = tmp_path / "grid.tsv"
    grid.write_text(
        "window\thalf_width\trel_merge\tabs_merge\tmin_gap\n"
        "9\t4\t0.3\t0.05\t0.1\n"
        "3\t1\t0.1\t0.15\t0.1\n"
        "5\t2\t0.2\t0.1\t0.05\n"
    )
    tuned = tmp_path / "tuned.tsv"
    assert run("tune-csebb", "--val-posteriors", data / "posteriors", "--val-refs", data / "refs.tsv",
               "--grid", grid, "--durations", data / "durations.tsv", "--out", tuned) == 0
    assert hashlib.sha256(tuned.read_bytes()).hexdigest() == (
        "ab00bf1f6b1c7aff2991fe62658a3a23a405a3e6b52ec0a17b590d5d9e23bf83")


def test_postprocess_output_independent_of_jobs(tmp_path):
    data = synth_dir(tmp_path, extra=["--blur", "3", "--noise", "0.05", "--dip-prob", "1.0"])
    outs = []
    for jobs in (1, 4):
        out = tmp_path / f"dets_{jobs}.tsv"
        assert run("postprocess", "--method", "csebb", "--in", data / "posteriors",
                   "--out", out, "--jobs", jobs) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_main_gives_fresh_results_when_called_repeatedly_in_one_process(tmp_path, capsys):
    data = synth_dir(tmp_path, extra=["--blur", "3", "--noise", "0.05", "--dip-prob", "1.0"])
    assert run("postprocess", "--method", "frame", "--in", data / "posteriors", "--out", tmp_path / "dets.tsv") == 0

    def psds_argv(out, *flags):
        return ["eval", "psds", "--dets", tmp_path / "dets.tsv", "--refs", data / "refs.tsv",
                "--durations", data / "durations.tsv", "--out", out, *flags]

    assert run(*psds_argv(tmp_path / "first.tsv", "--dtc", "0.1", "--gtc", "0.1", "--alpha-st", "0")) == 0
    with pytest.raises(SystemExit) as err:
        run(*psds_argv(tmp_path / "bad.tsv", "--dtc", "half"))
    assert err.value.code == 2
    capsys.readouterr()
    assert run(*psds_argv(tmp_path / "second.tsv")) == 0
    stdout = capsys.readouterr().out

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    fresh = subprocess.run([sys.executable, "-m", "hetsed.cli", *map(str, psds_argv(tmp_path / "fresh.tsv"))],
                           capture_output=True, text=True, env=env, check=True)
    assert stdout == fresh.stdout
    for suffix in (".tsv", ".txt"):
        second = (tmp_path / "second").with_suffix(suffix).read_bytes()
        assert second == (tmp_path / "fresh").with_suffix(suffix).read_bytes()
    # the first call's flags did not stick
    assert (tmp_path / "second.tsv").read_bytes() != (tmp_path / "first.tsv").read_bytes()

    with pytest.raises(SystemExit) as err:
        cli.main(["--help"])
    assert err.value.code == 0
    assert "{features,synth,postprocess,tune-csebb,ensemble,eval,loss}" in capsys.readouterr().out


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as err:
        cli.main(["synth", "--bogus"])
    assert err.value.code == 2


def test_missing_file_is_validation_error(tmp_path, capsys):
    code = run("eval", "joint", "--psds", tmp_path / "nope.tsv", "--mpauc", tmp_path / "nope.tsv")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_config_twin_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eval.hard_threshold = 0.9\n")
    data = synth_dir(tmp_path)
    # flag overrides the config twin; the config file is still accepted
    assert run("--config", cfg, "eval", "mpauc", "--posteriors", data / "posteriors",
               "--refs", data / "refs.tsv", "--hard-threshold", "0.5") == 0
    assert "mpauc\t1.000000" in capsys.readouterr().out


def test_eval_psds_rejects_clips_missing_from_durations(tmp_path, capsys):
    names = ["car"]
    refs, dets, durations = tmp_path / "refs.tsv", tmp_path / "dets.tsv", tmp_path / "durations.tsv"
    formats.write_events_tsv(refs, table([Event("x", 0, 1.0, 2.0), Event("y", 0, 1.0, 2.0)]), names)
    formats.write_soft_events_tsv(dets, table([Event("z", 0, 1.0, 2.0, 0.95)]), names)
    formats.write_durations_tsv(durations, {"x": 10.0})
    assert run("eval", "psds", "--dets", dets, "--refs", refs, "--durations", durations) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(durations) in captured.err and "['y', 'z']" in captured.err


def test_tune_csebb_rejects_clips_missing_from_durations(tmp_path, capsys):
    data = synth_dir(tmp_path, clips=8)
    durations = tmp_path / "durations.tsv"
    formats.write_durations_tsv(durations, {"clip_0000": 10.0})
    assert run("tune-csebb", "--val-posteriors", data / "posteriors", "--val-refs", data / "refs.tsv",
               "--durations", durations, "--out", tmp_path / "tuned.tsv") == 2
    err = capsys.readouterr().err
    assert str(durations) in err
    assert "['clip_0001', 'clip_0002', 'clip_0003', 'clip_0004', 'clip_0005']" in err
    assert not (tmp_path / "tuned.tsv").exists()


def test_loss_rejects_target_past_the_prediction(tmp_path, capsys):
    vocab = default_vocabulary()
    pred_path = tmp_path / "m1.sedp"
    scores = np.full((4, len(vocab)), 0.5, dtype=np.float32)
    formats.write_posteriorgram(pred_path, Posteriorgram(scores, 0.25, "m1"), list(vocab.classes))
    target_path = tmp_path / "target.tsv"
    formats.write_events_tsv(target_path, table([Event("m1", vocab.index("car"), 2.0, 3.0)]), list(vocab.classes))
    assert run("loss", "--pred", pred_path, "--target", target_path, "--origin", "maestro") == 2
    err = capsys.readouterr().err
    assert str(target_path) in err and "start at or after the end" in err


def test_loss_takes_target_edges_whose_frame_index_overflows(tmp_path, capsys):
    # 1.7e308 / 0.05 s is inf: the row covers the clip to its end, and a row
    # that starts there covers nothing; the rows are of the DESED class dog,
    # which the desed mask keeps, so the frames they cover reach the bce
    vocab = default_vocabulary()
    pred_path = tmp_path / "m1.sedp"
    scores = np.linspace(0.1, 0.9, 40 * len(vocab)).reshape(40, len(vocab)).astype(np.float32)
    formats.write_posteriorgram(pred_path, Posteriorgram(scores, 0.05, "m1"), list(vocab.classes))
    target_path = tmp_path / "target.tsv"
    outputs = []
    for onset, offset in (("0", "2.0"), ("0", "1.7e308"), ("1e308", "1.7e308")):
        target_path.write_text(f"filename\tonset\toffset\tevent_label\nm1\t{onset}\t{offset}\tdog\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow to inf warns nothing
            code = run("loss", "--pred", pred_path, "--target", target_path, "--origin", "desed")
        outputs.append((code, *capsys.readouterr()))
    assert outputs[0][0] == outputs[1][0] == 0 and outputs[1][1] == outputs[0][1]
    assert outputs[0][2] == outputs[1][2] == ""
    code, out, err = outputs[2]
    assert code == 2 and out == ""
    assert err == (f"error: {target_path}: 1 target row(s) start at or after the end of the 2 s prediction,"
                   " e.g. at 1e+308 s\n")


def _loss_run(tmp_path, capsys, rows):
    """``loss`` of a 40-frame "m1" prediction against a target file of
    (clip, onset, offset) rows of the DESED class dog: exit code, stdout,
    stderr."""
    vocab = default_vocabulary()
    pred_path = tmp_path / "m1.sedp"
    scores = np.linspace(0.1, 0.9, 40 * len(vocab)).reshape(40, len(vocab)).astype(np.float32)
    formats.write_posteriorgram(pred_path, Posteriorgram(scores, 0.05, "m1"), list(vocab.classes))
    target_path = tmp_path / "target.tsv"
    formats.write_events_tsv(target_path, table(Event(clip, vocab.index("dog"), on, off) for clip, on, off in rows),
                             list(vocab.classes))
    code = run("loss", "--pred", pred_path, "--target", target_path, "--origin", "desed")
    return (code, *capsys.readouterr())


def test_loss_takes_a_single_clip_target_under_another_clip_id(tmp_path, capsys):
    named = _loss_run(tmp_path, capsys, [("m1", 0.5, 1.0), ("m1", 1.5, 1.75)])
    assert named[0] == 0 and "bce\t" in named[1]
    assert _loss_run(tmp_path, capsys, [("other", 0.5, 1.0), ("other", 1.5, 1.75)]) == named
    assert _loss_run(tmp_path, capsys, [("other", 0.5, 1.0)]) != named


def test_loss_rejects_a_multi_clip_target_without_the_prediction_clip(tmp_path, capsys):
    code, out, err = _loss_run(tmp_path, capsys, [("a", 0.5, 1.0), ("b", 1.5, 1.75)])
    assert code == 2 and out == ""
    assert "target file has no rows for clip 'm1'" in err


def test_loss_reads_only_the_prediction_clip_rows_of_a_multi_clip_target(tmp_path, capsys):
    alone = _loss_run(tmp_path, capsys, [("m1", 0.5, 1.0)])
    # rows of other clips, before and after m1 in clip order, reach no target frame
    mixed = _loss_run(tmp_path, capsys, [("a", 0.0, 2.0), ("m1", 0.5, 1.0), ("z", 1.0, 2.0), ("z", 5.0, 9.0)])
    assert alone[0] == 0 and mixed == alone
    assert _loss_run(tmp_path, capsys, [("m1", 0.0, 2.0)]) != alone


@pytest.mark.parametrize("damage, message", [
    (lambda data: data[:10], "truncated header: 10 bytes, need at least 18"),
    (lambda data: data[:300], "truncated data: 300 bytes"),
    (lambda data: data + b"\x00" * 4, "4 trailing bytes after the data"),
])
def test_postprocess_rejects_a_damaged_posteriorgram(tmp_path, capsys, damage, message):
    data = synth_dir(tmp_path, clips=2)
    path = data / "posteriors" / "clip_0001.sedp"
    path.write_bytes(damage(path.read_bytes()))
    assert run("postprocess", "--method", "frame", "--in", data / "posteriors", "--out", tmp_path / "dets.tsv") == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "dets.tsv").exists()


def _set(data, at, new):
    return data[:at] + new + data[at + len(new):]


# Damage to a synth posteriorgram (classes "car", "dog": the table is bytes
# 18-27, "dog" starts at byte 25) and the message that names it.
_DAMAGE = {
    "truncated table": (lambda data: data[:21], "truncated class table: 21 bytes, need at least 23"),
    "non-UTF-8 name": (lambda data: _set(data, 25, b"\xff"), "class name 1 is not UTF-8"),
    "repeated name": (lambda data: _set(data, 25, b"car"), "class table repeats a name: ['car', 'car']"),
    "truncated data": (lambda data: data[:-1], "truncated data: {n} bytes, need at least {n_plus_1}"),
    "trailing bytes": (lambda data: data + b"\x00", "1 trailing bytes after the data"),
    "zero period": (lambda data: _set(data, 14, bytes(4)), "frame period must be positive, got 0 us"),
    "bad version": (lambda data: _set(data, 4, struct.pack("<H", 2)), "unsupported version 2"),
}


@pytest.mark.parametrize("position", [1, 2])
@pytest.mark.parametrize("damage", sorted(_DAMAGE))
def test_a_damaged_later_file_of_a_directory_is_named(tmp_path, capsys, damage, position):
    # the files before it share its class table, so its table is not decoded
    # afresh unless its bytes differ
    data = synth_dir(tmp_path, clips=3)
    path = data / "posteriors" / f"clip_{position:04d}.sedp"
    damaged, message = _DAMAGE[damage]
    raw = path.read_bytes()
    path.write_bytes(damaged(raw))
    message = message.format(n=len(raw) - 1, n_plus_1=len(raw))
    assert run("postprocess", "--method", "frame", "--in", data / "posteriors", "--out", tmp_path / "dets.tsv") == 2
    assert f"error: {path}: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "dets.tsv").exists()


@pytest.mark.parametrize("spelling, shown", [
    (".", "clip_0001.sedp"),
    ("./posteriors/", "posteriors/clip_0001.sedp"),
    ("posteriors//", "posteriors/clip_0001.sedp"),
])
def test_a_damaged_file_is_named_as_the_directory_glob_names_it(tmp_path, capsys, monkeypatch, spelling, shown):
    data = synth_dir(tmp_path, clips=2)
    path = data / "posteriors" / "clip_0001.sedp"
    path.write_bytes(path.read_bytes() + b"\x00")
    monkeypatch.chdir(data if spelling != "." else data / "posteriors")
    assert run("postprocess", "--method", "frame", "--in", spelling, "--out", tmp_path / "dets.tsv") == 2
    assert f"error: {shown}: 1 trailing bytes after the data\n" in capsys.readouterr().err


@pytest.mark.parametrize("make", [lambda d: d.mkdir(), lambda d: None], ids=["empty", "missing"])
def test_postprocess_needs_a_posteriorgram_file(tmp_path, capsys, make):
    empty = tmp_path / "posteriors"
    make(empty)
    (tmp_path / "clip.SEDP").write_bytes(b"")  # neither in the directory nor matching the suffix
    assert run("postprocess", "--method", "frame", "--in", empty, "--out", tmp_path / "dets.tsv") == 2
    assert f"error: no posteriorgram files under {empty}\n" in capsys.readouterr().err


def test_a_directory_must_share_one_class_table(tmp_path, capsys):
    data = synth_dir(tmp_path, clips=3)
    first, later = data / "posteriors" / "clip_0000.sedp", data / "posteriors" / "clip_0002.sedp"
    post, _ = formats.read_posteriorgram(later)
    formats.write_posteriorgram(later, post, ["car", "cat"])
    assert run("eval", "mpauc", "--posteriors", data / "posteriors", "--refs", data / "refs.tsv",
               "--out", tmp_path / "mpauc.tsv") == 2
    assert f"error: {later}: class table differs from {first}\n" in capsys.readouterr().err


def _repeated_id_directory(root, later=()):
    """Posteriorgrams ``.sedp`` and ``.sedp.sedp`` (both clip ``.sedp``) of
    10 s at 50 ms frames, then ``later`` (file name, class table) pairs, and
    references of the "car" class on clip ``.sedp``."""
    rng = np.random.default_rng(5)
    posteriors = root / "posteriors"
    for name, names in [(".sedp", ["car", "dog"]), (".sedp.sedp", ["car", "dog"]), *later]:
        formats.write_posteriorgram(posteriors / name, Posteriorgram(rng.uniform(size=(200, 2)), 0.05, "c"), names)
    refs = root / "refs.tsv"
    formats.write_events_tsv(refs, table([Event(".sedp", 0, 0.2, 0.8)]), ["car", "dog"])
    return posteriors, refs


def _argv(command, posteriors, refs, out):
    """The arguments of ``command`` ("frame", "median", "csebb", "tune" or
    "mpauc") on a posteriorgram directory."""
    if command == "tune":
        return ["tune-csebb", "--val-posteriors", posteriors, "--val-refs", refs, "--out", out]
    if command == "mpauc":
        return ["eval", "mpauc", "--posteriors", posteriors, "--refs", refs, "--out", out]
    return ["postprocess", "--method", command, "--in", posteriors, "--out", out]


# extra files for the ".sedp" + ".sedp.sedp" directory, and the error each
# gives (None: the read error of the file cut short): ".sedp-a.sedp" comes
# between the two in name order, "clip.sedp" after both
REPEATED_ID_CASES = {
    "alone": ([], "{later}: clip id '.sedp' already read from {first}"),
    "later file cut short": ([("clip.sedp", ["car", "dog"])], None),
    "table differs before": ([(".sedp-a.sedp", ["car", "cat"])],
                             "{posteriors}/.sedp-a.sedp: class table differs from {first}"),
    "table differs after": ([("clip.sedp", ["car", "cat"])], "{later}: clip id '.sedp' already read from {first}"),
}


@pytest.mark.parametrize("command", ["frame", "median", "csebb", "tune", "mpauc"])
@pytest.mark.parametrize("case", sorted(REPEATED_ID_CASES))
def test_a_directory_refuses_two_files_of_one_clip_id(tmp_path, capsys, command, case):
    extra, message = REPEATED_ID_CASES[case]
    posteriors, refs = _repeated_id_directory(tmp_path, extra)
    if message is None:
        cut = posteriors / "clip.sedp"
        cut.write_bytes(cut.read_bytes()[:-6])
        with pytest.raises(ValueError) as read_error:
            formats.read_posteriorgram(cut)
        message = str(read_error.value)
    else:
        message = message.format(posteriors=posteriors, first=posteriors / ".sedp", later=posteriors / ".sedp.sedp")
    assert run(*_argv(command, posteriors, refs, tmp_path / "out.tsv")) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["posteriors", "refs.tsv"]  # no output file


def _fresh_read(path):
    """``read_posteriorgram`` with no class table remembered from another file."""
    formats._last_table = (b"", ())
    return formats.read_posteriorgram(path)


@st.composite
def sedp_directories(draw):
    """Files named ``*.sedp`` (dot-files and several dots included), some
    other files, and one class table per posteriorgram: the first's, the
    first's with one name changed, or the first's followed by more names."""
    names = draw(st.lists(st.text("ab.", max_size=4), min_size=1, max_size=5, unique=True))
    classes = draw(st.lists(st.sampled_from(["car", "dog", "cat", "bird", "é"]), min_size=1, max_size=3, unique=True))
    files = []
    for i, stem in enumerate(names):
        table = draw(st.sampled_from(["same", "renamed", "extended"])) if i else "same"
        if table == "renamed":
            spot = draw(st.integers(0, len(classes) - 1))
            table = classes[:spot] + [classes[spot] + "x"] + classes[spot + 1:]
        elif table == "extended":
            table = classes + ["more", "most"][: draw(st.integers(1, 2))]
        else:
            table = classes
        frames = draw(st.integers(1, 4))
        scores = draw(st.lists(st.floats(0, 1, width=32), min_size=frames * len(table), max_size=frames * len(table)))
        period = draw(st.integers(1, 10**5)) / 1e6
        files.append((stem + ".sedp", np.array(scores, dtype=np.float32).reshape(frames, len(table)), period, table))
    others = draw(st.lists(st.sampled_from(["x.SEDP", "x.sedp.bak", "sedp", "x.txt"]), unique=True))
    remembered = draw(st.sampled_from([None, classes, classes + ["more"]]))
    return files, others, remembered


@settings(max_examples=150, deadline=None)
@given(sedp_directories())
def test_a_directory_load_equals_reading_each_file_in_glob_order(directory):
    files, others, remembered = directory
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, scores, period, table in files:
            formats.write_posteriorgram(tmp / name, Posteriorgram(scores, period, "c"), table)
        for name in others:
            (tmp / name).write_bytes(b"not a posteriorgram")
        paths = sorted(tmp.glob("*.sedp"))
        expected = [_fresh_read(p) for p in paths]

        def remember():  # leave a table from another file, or none, as the last one decoded
            formats._last_table = (b"", ())
            if remembered is not None:
                formats.write_posteriorgram(tmp / "elsewhere", Posteriorgram(np.zeros((1, len(remembered))), 0.1, "c"),
                                            remembered)
                formats.read_posteriorgram(tmp / "elsewhere")

        remember()
        in_order = [formats.read_posteriorgram(p) for p in paths]
        remember()
        differs = [p for p, (_, names) in zip(paths, expected) if names != expected[0][1]]
        if differs:
            message = f"{differs[0]}: class table differs from {paths[0]}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                list(cli._posteriorgrams(tmp))
            posts, tables = [post for post, _ in in_order], [names for _, names in in_order]
        else:
            stream = cli._posteriorgrams(tmp)
            posts = list(stream)
            tables = [stream.class_names] * len(posts)
    assert [post.clip_id for post in posts] == [p.stem for p in paths]
    assert len({id(names) for _, names in in_order}) == len(in_order)  # each read its own list
    for post, names, (want, want_names) in zip(posts, tables, expected, strict=True):
        assert names == want_names
        assert post.clip_id == want.clip_id
        assert post.frame_period == want.frame_period
        assert post.scores.dtype == want.scores.dtype and np.array_equal(post.scores, want.scores)


FAULTS = ("truncated", "out_of_range", "bad_magic", "table")
# per command, the side inputs that can be bad
SIDE_INPUTS = {"frame": ("params",), "median": ("params",), "csebb": ("params",),
               "tune": ("refs", "durations"), "mpauc": ("refs", "segment")}


@st.composite
def faulty_runs(draw):
    """A command on a directory of 2-5 posteriorgram files with 0-3 faults
    (a file cut short, a score above 1, a bad magic, a class table of its
    own), and bad side inputs: none, one, or two where the command has two.
    Each bad side input takes one of two bad forms."""
    command = draw(st.sampled_from(sorted(SIDE_INPUTS)))
    clips = draw(st.integers(2, 5))
    faults = draw(st.lists(st.tuples(st.integers(0, clips - 1), st.sampled_from(FAULTS)), max_size=3))
    forms = [draw(st.sampled_from([None, 0, 1])) for _ in SIDE_INPUTS[command]]
    bad = {name: form for name, form in zip(SIDE_INPUTS[command], forms) if form is not None}
    seed = draw(st.integers(0, 2**16))
    return command, clips, faults, bad, seed


def _faulty_directory(root, clips, faults, seed):
    """Posteriorgrams of 1-2 s at 50 ms frames with ``faults`` applied, and
    references of the "car" class on every clip."""
    rng = np.random.default_rng(seed)
    posteriors = root / "posteriors"
    rows = []
    for i in range(clips):
        t = int(rng.choice([20, 40]))
        scores = np.clip(rng.normal(0.3, 0.3, size=(t, 2)), 0.0, 1.0)
        tables = [fault for at, fault in faults if at == i]
        names = ["car", "cat"] if "table" in tables else ["car", "dog"]
        path = posteriors / f"clip_{i}.sedp"
        formats.write_posteriorgram(path, Posteriorgram(scores, 0.05, f"clip_{i}"), names)
        data = bytearray(path.read_bytes())
        if "out_of_range" in tables:
            data[-4:] = struct.pack("<f", 1.5)
        if "truncated" in tables:
            del data[-6:]
        if "bad_magic" in tables:
            data[:4] = b"SEDX"
        path.write_bytes(bytes(data))
        rows.append(Event(f"clip_{i}", 0, 0.2, 0.8))
    return posteriors, rows


@settings(max_examples=250, deadline=None)
@given(faulty_runs())
def test_errors_keep_the_order_of_reading_every_file_first(case):
    command, clips, faults, bad, seed = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        posteriors, rows = _faulty_directory(root, clips, faults, seed)
        refs, durations, params, segment = root / "refs.tsv", None, None, 1.0
        formats.write_events_tsv(refs, table(rows), ["car", "dog"])
        if "params" in bad:
            params = root / "params.tsv"
            if command == "csebb":
                params.write_text(["class\twindow\n", "class\twindow\thalf_width\trel_merge\tabs_merge\tmin_gap\n"
                                   "*\t4\t1\t0.2\t0.15\t0.1\n"][bad["params"]])
            else:
                params.write_text(["threshold.bird = 0.5\n", "window = 4\n"][bad["params"]])
        if "refs" in bad:  # a label of no class, or a clip without a posteriorgram
            refs.write_text([f"{formats.EVENTS_HEADER}\nclip_0\t0.2\t0.8\tbird\n",
                             f"{formats.EVENTS_HEADER}\nclip_99\t0.2\t0.8\tcar\n"][bad["refs"]])
        if "durations" in bad:  # a negative duration, or a clip left out
            durations = root / "durations.tsv"
            durations.write_text([f"{formats.DURATIONS_HEADER}\nclip_0\t-1\n",
                                  f"{formats.DURATIONS_HEADER}\nclip_0\t1.0\n"][bad["durations"]])
        if "segment" in bad:  # not a length, or longer than every clip
            segment = [0.0, 100.0][bad["segment"]]
        paths = sorted(str(p) for p in posteriors.glob("*.sedp"))
        want = frozen_command_error(command, paths, refs, durations, params, segment)
        if command in ("frame", "median", "csebb"):
            argv = ["postprocess", "--method", command, "--in", posteriors, "--out", root / "out.tsv"]
            argv += ["--params", params] if params is not None else []
        elif command == "tune":
            argv = ["tune-csebb", "--val-posteriors", posteriors, "--val-refs", refs, "--out", root / "out.tsv"]
            argv += ["--durations", durations] if durations is not None else []
        else:
            argv = ["eval", "mpauc", "--posteriors", posteriors, "--refs", refs, "--segment", segment]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            code = run(*argv)
    if want is None:
        assert code == 0, err.getvalue()
    else:
        assert (code, err.getvalue()) == (2, f"error: {want}\n")


@pytest.mark.parametrize("rows, message", [
    ("x\t10.0\nx\t3600.0\n", ":3: clip 'x' already listed on line 2"),
    ("x\t10.0\ny\t-3.0\n", ":3: duration must be a finite number >= 0, got '-3.0'"),
    ("x\t10.0\ny\tinf\n", ":3: duration must be a finite number >= 0, got 'inf'"),
])
def test_eval_psds_rejects_a_bad_durations_file(tmp_path, capsys, rows, message):
    refs, dets, durations = tmp_path / "refs.tsv", tmp_path / "dets.tsv", tmp_path / "durations.tsv"
    formats.write_events_tsv(refs, table([Event("x", 0, 1.0, 2.0)]), ["car"])
    formats.write_soft_events_tsv(dets, table([Event("x", 0, 1.0, 2.0, 0.9)]), ["car"])
    durations.write_text("filename\tduration\n" + rows)
    assert run("eval", "psds", "--dets", dets, "--refs", refs, "--durations", durations) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {durations}{message}" in captured.err


def test_config_line_error_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("psds.dtc 0.5\n")
    data = synth_dir(tmp_path, clips=2)
    assert run("--config", cfg, "eval", "mpauc", "--posteriors", data / "posteriors", "--refs", data / "refs.tsv") == 2
    assert f"error: {cfg}:1: expected 'key = value', got 'psds.dtc 0.5'" in capsys.readouterr().err


def test_postprocess_params_line_error_names_the_file(tmp_path, capsys):
    params = tmp_path / "median.cfg"
    params.write_text("# frame thresholds\nwindow 7\n")
    data = synth_dir(tmp_path, clips=2)
    assert run("postprocess", "--method", "median", "--params", params, "--in", data / "posteriors",
               "--out", tmp_path / "dets.tsv") == 2
    assert f"error: {params}:2: expected 'key = value', got 'window 7'" in capsys.readouterr().err


def test_config_and_params_reject_a_repeated_key(tmp_path, capsys):
    data = synth_dir(tmp_path, clips=2)
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("psds.dtc = 0.5\npsds.dtc = 0.9\n")
    assert run("--config", cfg, "eval", "mpauc", "--posteriors", data / "posteriors", "--refs", data / "refs.tsv") == 2
    assert f"error: {cfg}:2: key 'psds.dtc' already set on line 1" in capsys.readouterr().err
    params = tmp_path / "median.cfg"
    params.write_text("window = 3\nthreshold.car = 0.4\nwindow = 9\n")
    dets = tmp_path / "dets.tsv"
    assert run("postprocess", "--method", "median", "--params", params, "--in", data / "posteriors",
               "--out", dets) == 2
    assert f"error: {params}:3: key 'window' already set on line 1" in capsys.readouterr().err
    assert not dets.exists()


def test_postprocess_gives_a_class_named_with_a_hash_its_own_threshold(tmp_path):
    classes = tmp_path / "classes.txt"
    classes.write_text("# two classes\na#b\nc\n")
    data = tmp_path / "data"
    assert run("synth", "--seed", 7, "--clips", 20, "--classes", classes, "--out", data,
               "--frame-period", 0.02, "--blur", 3, "--noise", 0.3) == 0
    outputs = {}
    for name, text in {
        "hash key": "# per-class thresholds\nthreshold.default = 0.5  # every other class\nthreshold.a#b = 0.3\n",
        "default key": "threshold.default = 0.3\nthreshold.c = 0.5\n",
        "no class key": "threshold.default = 0.5\n",
    }.items():
        params = tmp_path / "frame.cfg"
        params.write_text(text)
        dets = tmp_path / f"{name}.tsv"
        assert run("postprocess", "--method", "frame", "--params", params, "--in", data / "posteriors",
                   "--out", dets) == 0, name
        outputs[name] = dets.read_bytes()
    assert outputs["hash key"] == outputs["default key"] != outputs["no class key"]


@pytest.mark.parametrize("text, message", [
    ("window = -1\n", "window must be an odd integer >= 1, got '-1'"),
    ("window = abc\n", "window must be an odd integer >= 1, got 'abc'"),
    ("window = 0\n", "window must be an odd integer >= 1, got '0'"),
    ("window = 4\n", "window must be an odd integer >= 1, got '4'"),
    ("window = 2.5\n", "window must be an odd integer >= 1, got '2.5'"),
    ("threshold.Bogus = 0.3\n", "threshold.Bogus: no class 'Bogus' in the posteriorgrams' class table"),
    ("threshold.car = abc\n", "threshold.car must be a number in [0, 1], got 'abc'"),
    ("threshold.default = 1.5\n", "threshold.default must be a number in [0, 1], got '1.5'"),
    ("threshold.dog = nan\n", "threshold.dog must be a number in [0, 1], got 'nan'"),
    ("mode = median\n", "unknown key 'mode'"),
])
@pytest.mark.parametrize("method", ["median", "frame"])
def test_postprocess_rejects_bad_params_naming_the_file_and_key(tmp_path, capsys, method, text, message):
    params = tmp_path / "median.cfg"
    params.write_text(text)
    data = synth_dir(tmp_path, clips=2)
    dets = tmp_path / "dets.tsv"
    assert run("postprocess", "--method", method, "--params", params, "--in", data / "posteriors", "--out", dets) == 2
    assert f"error: {params}:1: {message}" in capsys.readouterr().err
    assert not dets.exists()


def test_csebb_params_refuse_a_class_row_of_no_class(tmp_path, capsys):
    data = synth_dir(tmp_path, clips=2)
    capsys.readouterr()
    params, boxes = tmp_path / "params.tsv", tmp_path / "boxes.tsv"
    params.write_text("class\twindow\thalf_width\trel_merge\tabs_merge\tmin_gap\n"
                      "*\t3\t1\t0.2\t0.15\t0.1\n"
                      "car\t5\t2\t0.2\t0.15\t0.1\n"
                      "cra\t5\t2\t0.2\t0.15\t0.1\n")  # "car" misspelled, line 4
    assert run("postprocess", "--method", "csebb", "--params", params, "--in", data / "posteriors",
               "--out", boxes) == 2
    assert capsys.readouterr() == ("", f"error: {params}:4: no class 'cra' in the posteriorgrams' class table\n")
    assert not boxes.exists()


def test_median_frame_and_mpauc_outputs_are_pinned(tmp_path):
    # postprocess median (default window and window 5 with class thresholds),
    # postprocess frame and the eval mpauc report, byte for byte
    classes = tmp_path / "classes.txt"
    classes.write_text("car\ndog\nspeech\n")
    data = tmp_path / "data"
    assert run("synth", "--seed", 7, "--clips", 20, "--classes", classes, "--out", data,
               "--frame-period", 0.02, "--blur", 3, "--noise", 0.3, "--dip-prob", 1.0) == 0
    params = tmp_path / "median.cfg"
    params.write_text("window = 5\nthreshold.default = 0.4\nthreshold.dog = 0.6\n")
    outs = {name: tmp_path / f"{name}.tsv" for name in ("median", "median5", "frame", "mpauc")}
    for name, flags in (("median", ["--method", "median"]),
                        ("median5", ["--method", "median", "--params", params]),
                        ("frame", ["--method", "frame"])):
        assert run("postprocess", *flags, "--in", data / "posteriors", "--out", outs[name]) == 0
    assert run("eval", "mpauc", "--posteriors", data / "posteriors", "--refs", data / "refs.tsv",
               "--out", outs["mpauc"]) == 0
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in outs.items()} == {
        "median": "6ca8b6594f1d087aec74d7827f08a60b37bb7203f13a097e25ff49df5d8ebfa3",
        "median5": "609d3f41f29b94e2de29a8a4012f5c7c989d48e0e767b6e614c9cbfa07131c4a",
        "frame": "dc389bc3df4add875caf0da274eb0f4815e10f9a85b69dd3f9321dcfd131b28b",
        "mpauc": "002c49f69196c74d7625582059718dd2b51c2cbe5529ddafc7b3b8e87be39311",
    }


BULK_CLASSES = ["Alarm_bell_ringing", "Blender", "Cat", "Dishes", "Dog", "Electric_shaver_toothbrush",
                "Frying", "Running_water", "Speech", "Vacuum_cleaner"]


def test_default_csebb_and_median_outputs_on_a_bulk_shaped_fixture_are_pinned(tmp_path):
    # 10 classes at 0.02 s frames with the walkthrough corruption, default
    # parameters: many boxes and events per clip, byte for byte
    classes = tmp_path / "classes.txt"
    classes.write_text("\n".join(BULK_CLASSES) + "\n")
    data = tmp_path / "data"
    assert run("synth", "--seed", 5, "--clips", 30, "--classes", classes, "--out", data,
               "--frame-period", 0.02, "--blur", 3, "--noise", 0.05, "--dip-prob", 1.0) == 0
    outs = {method: tmp_path / f"{method}.tsv" for method in ("csebb", "median")}
    for method, out in outs.items():
        assert run("postprocess", "--method", method, "--in", data / "posteriors", "--out", out) == 0
    assert {method: hashlib.sha256(path.read_bytes()).hexdigest() for method, path in outs.items()} == {
        "csebb": "59d46d6b0bfb3e3c5a42d7fb9d1a79e2c522edc5d42a39af49f40368d77af048",
        "median": "3d020206e947e75646dc6f7d54ef84b826793b62997aa5d4fa8cf18f9fe59d92",
    }


def test_postprocess_median_rows_follow_clip_ids_not_file_names(tmp_path):
    # "a-b.sedp" lists before "a.sedp", but clip "a" sorts before "a-b"
    rng = np.random.default_rng(4)
    posts = [Posteriorgram(rng.uniform(size=(t, 2)).round(1), period, clip_id)
             for clip_id, t, period in (("a-b", 40, 0.02), ("a", 25, 0.05), ("b", 40, 0.064))]
    for post in posts:
        formats.write_posteriorgram(tmp_path / "posts" / f"{post.clip_id}.sedp", post, ["car", "dog"])
    out = tmp_path / "median.tsv"
    assert run("postprocess", "--method", "median", "--in", tmp_path / "posts", "--out", out) == 0
    runs = [Event(*run) for post in posts for run in median_threshold_runs(post, [0.5, 0.5], 7)]
    assert out.read_text(encoding="utf-8") == event_tsv_text(runs, ["car", "dog"], soft=False)
    assert [line.split("\t")[0] for line in out.read_text().splitlines()[1:3]] == ["a", "a"]


@pytest.mark.parametrize("value, message", [
    (np.nan, "scores contain non-finite values"),
    (np.inf, "scores contain non-finite values"),
    (-np.inf, "scores contain non-finite values"),
    (2.0, "scores outside [0, 1]"),
])
def test_postprocess_names_the_file_for_bad_scores(tmp_path, capsys, value, message):
    data = synth_dir(tmp_path, clips=2)
    path = data / "posteriors" / "clip_0001.sedp"
    path.write_bytes(path.read_bytes()[:-4] + np.float32(value).astype("<f4").tobytes())
    assert run("postprocess", "--method", "frame", "--in", data / "posteriors", "--out", tmp_path / "dets.tsv") == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "dets.tsv").exists()


@pytest.mark.parametrize("flag, config, shown", [
    (["--segment", "0"], "", "got 0.0"),
    (["--segment", "-1"], "", "got -1.0"),
    (["--segment", "nan"], "", "got nan"),
    (["--segment", "inf"], "", "got inf"),
    ([], "eval.segment = 0\n", "got 0.0"),
])
def test_eval_mpauc_rejects_a_bad_segment(tmp_path, capsys, flag, config, shown):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    data = synth_dir(tmp_path, clips=2)
    assert run("--config", cfg, "eval", "mpauc", "--posteriors", data / "posteriors",
               "--refs", data / "refs.tsv", *flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: segment must be a finite length > 0 s, {shown}" in captured.err


def test_eval_mpauc_rejects_labels_without_both_polarities(tmp_path, capsys):
    data = synth_dir(tmp_path, clips=2)
    with pytest.warns(UserWarning, match="without both label polarities"):
        code = run("eval", "mpauc", "--posteriors", data / "posteriors", "--refs", data / "refs.tsv",
                   "--hard-threshold", "5", "--out", tmp_path / "mpauc.tsv")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: no class has both positive and negative segments at hard threshold 5" in captured.err
    assert not (tmp_path / "mpauc.tsv").exists()


def test_removed_config_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("mixstyle.enabled_at_eval = false\n")
    assert run("--config", cfg, "eval", "joint", "--psds", tmp_path / "p.tsv", "--mpauc", tmp_path / "m.tsv") == 2
    assert f"error: {cfg}:1: unknown config key 'mixstyle.enabled_at_eval'" in capsys.readouterr().err


# header, a good row, and a bad row per case, for each text reader
TEXT_READERS = {
    "events": ("filename\tonset\toffset\tevent_label\tconfidence", "clip_0000\t1.0\t2.0\tcar\t0.9", {
        "text": "clip_0000\tabc\t2.0\tcar\t0.9", "columns": "clip_0000\t1.0\t2.0\tcar",
        "inf": "clip_0000\t1.0\tinf\tcar\t0.9"}),
    "durations": ("filename\tduration", "clip_0000\t10.0", {
        "text": "clip_0001\tabc", "columns": "clip_0001", "inf": "clip_0001\tinf"}),
    "params": ("class\twindow\thalf_width\trel_merge\tabs_merge\tmin_gap", "*\t3\t1\t0.2\t0.15\t0.1", {
        "text": "car\tthree\t1\t0.2\t0.15\t0.1", "columns": "car\t3\t1\t0.2\t0.15",
        "inf": "car\t3\t1\tinf\t0.15\t0.1"}),
    "grid": ("window\thalf_width\trel_merge\tabs_merge\tmin_gap", "3\t1\t0.2\t0.15\t0.1", {
        "text": "3\t1\t0.2\tabc\t0.1", "columns": "3\t1\t0.2\t0.15\t0.1\t7", "inf": "3\t1\t0.2\t0.15\t-inf"}),
    "report": ("key\tvalue", "hours\t1.0", {"text": "psds\tabc", "columns": "psds", "inf": "psds\tinf"}),
}

TEXT_READER_COMMANDS = {
    "events": lambda data, bad, out: ["eval", "psds", "--dets", bad, "--refs", data / "refs.tsv",
                                      "--durations", data / "durations.tsv"],
    "durations": lambda data, bad, out: ["eval", "psds", "--dets", data / "refs.tsv", "--refs", data / "refs.tsv",
                                         "--durations", bad],
    "params": lambda data, bad, out: ["postprocess", "--method", "csebb", "--params", bad,
                                      "--in", data / "posteriors", "--out", out],
    "grid": lambda data, bad, out: ["tune-csebb", "--val-posteriors", data / "posteriors",
                                    "--val-refs", data / "refs.tsv", "--grid", bad, "--out", out],
    "report": lambda data, bad, out: ["eval", "joint", "--psds", bad, "--mpauc", bad],
}


@pytest.mark.parametrize("case", ["text", "columns", "inf"])
@pytest.mark.parametrize("reader", sorted(TEXT_READERS))
def test_text_readers_name_the_file_and_line(tmp_path, capsys, reader, case):
    data = synth_dir(tmp_path, clips=2)
    capsys.readouterr()
    header, good, bad_rows = TEXT_READERS[reader]
    bad, out = tmp_path / "bad.tsv", tmp_path / "out.tsv"
    bad.write_text(f"{header}\n{good}\n\n{bad_rows[case]}\n")  # the bad row is line 4
    assert run(*TEXT_READER_COMMANDS[reader](data, bad, out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}:4: ")
    assert not out.exists()


@pytest.mark.parametrize("row, shown", [
    ("x\tnan\t2.0\tcar\t0.9", "onset nan"),
    ("x\t1.0\tinf\tcar\t0.9", "offset inf"),
])
def test_eval_psds_rejects_non_finite_detection_times(tmp_path, capsys, row, shown):
    refs, dets, durations = tmp_path / "refs.tsv", tmp_path / "dets.tsv", tmp_path / "durations.tsv"
    formats.write_events_tsv(refs, table([Event("x", 0, 1.0, 2.0)]), ["car"])
    formats.write_durations_tsv(durations, {"x": 10.0})
    dets.write_text(formats.SOFT_HEADER + "\n" + row + "\n")
    assert run("eval", "psds", "--dets", dets, "--refs", refs, "--durations", durations) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {dets}:2: non-finite time: " in captured.err and shown in captured.err


@pytest.mark.parametrize("command", [
    lambda data, refs, out: ["tune-csebb", "--val-posteriors", data / "posteriors", "--val-refs", refs,
                             "--out", out],
    lambda data, refs, out: ["eval", "mpauc", "--posteriors", data / "posteriors", "--refs", refs,
                             "--out", out],
], ids=["tune-csebb", "eval-mpauc"])
def test_refs_for_clips_without_posteriors_are_rejected(tmp_path, capsys, command):
    data = synth_dir(tmp_path, clips=2)
    refs, out = tmp_path / "refs.tsv", tmp_path / "out.tsv"
    formats.write_events_tsv(refs, table([Event("clip_0000", 0, 1.0, 2.0), Event("ghost", 1, 1.0, 2.0)]),
                             ["car", "dog"])
    assert run(*command(data, refs, out)) == 2
    assert f"error: {refs}: references for clips without posteriors: ['ghost']" in capsys.readouterr().err
    assert not out.exists()


def test_synth_rejects_a_repeated_class_name(tmp_path, capsys):
    classes = tmp_path / "classes.txt"
    classes.write_text("car\n# cars again below\ncar\ndog\n")
    assert run("synth", "--seed", 1, "--clips", 2, "--classes", classes, "--out", tmp_path / "data") == 2
    assert f"error: {classes}:3: class 'car' already listed on line 1" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_synth_rejects_a_class_name_with_a_tab(tmp_path, capsys):
    # the tab would split the label column of refs.tsv, which no reader takes back
    classes = tmp_path / "classes.txt"
    classes.write_text("car\tdog\nspeech\n")
    assert run("synth", "--seed", 1, "--clips", 2, "--classes", classes, "--out", tmp_path / "data") == 2
    assert f"error: {classes}:1: class 'car\\tdog' holds a tab" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_eval_joint_names_the_report_without_the_row(tmp_path, capsys):
    formats.write_score_report(tmp_path / "p.tsv", {"hours": 1.0})
    formats.write_score_report(tmp_path / "m.tsv", {"mpauc": 0.721})
    assert run("eval", "joint", "--psds", tmp_path / "p.tsv", "--mpauc", tmp_path / "m.tsv") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {tmp_path / 'p.tsv'}: no 'psds' row" in captured.err


@pytest.mark.parametrize("reader, rows, message", [
    ("params", ["car\t3\t1\t0.2\t0.15\t0.1", "car\t7\t3\t0.3\t0.15\t0.1"], "class 'car' already listed on line 2"),
    ("params", ["*\t3\t1\t0.2\t0.15\t0.1", "*\t7\t3\t0.3\t0.15\t0.1"], "class '*' already listed on line 2"),
    ("report", ["psds\t0.1", "psds\t0.9"], "key 'psds' already listed on line 2"),
])
def test_keyed_readers_reject_a_repeated_row(tmp_path, capsys, reader, rows, message):
    data = synth_dir(tmp_path, clips=2)
    capsys.readouterr()
    header = TEXT_READERS[reader][0]
    bad, out = tmp_path / "bad.tsv", tmp_path / "out.tsv"
    bad.write_text("\n".join([header, *rows]) + "\n")
    assert run(*TEXT_READER_COMMANDS[reader](data, bad, out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}:3: {message}\n"
    assert not out.exists()


REINDEX_CASES = {
    # dets have no 'car', the first of the union's names, so every det index moves
    "dets-lack-a-ref-class": (
        "x\t1.0\t2.0\tcar\nx\t3.0\t5.0\tdog\ny\t0.5\t2.5\tsiren\ny\t4.0\t6.0\tdog\n",
        "x\t3.1\t4.9\tdog\t0.8\ny\t0.4\t2.4\tsiren\t0.6\ny\t4.0\t6.0\tdog\t0.3\ny\t7.0\t8.0\tsiren\t0.9\n",
        "hours\t1.000000000\npsds\t0.193309524\ntpr.car\t0.000000000\ntpr.dog\t1.000000000\n"
        "tpr.siren\t1.000000000\n",
    ),
    # refs have no 'alarm', so every ref index moves
    "refs-lack-a-det-class": (
        "x\t3.0\t5.0\tdog\ny\t0.5\t2.5\tsiren\n",
        "x\t1.0\t2.0\talarm\t0.7\nx\t3.1\t4.9\tdog\t0.8\ny\t0.4\t2.4\tsiren\t0.6\ny\t7.0\t8.0\tdog\t0.9\n",
        "hours\t1.000000000\npsds\t0.990000000\ntpr.dog\t1.000000000\ntpr.siren\t1.000000000\n",
    ),
}


@pytest.mark.parametrize("case", sorted(REINDEX_CASES))
@pytest.mark.filterwarnings("ignore:classes without references")
def test_eval_psds_scores_files_with_different_class_sets(tmp_path, case):
    refs_rows, dets_rows, report_rows = REINDEX_CASES[case]
    refs, dets, durations = tmp_path / "refs.tsv", tmp_path / "dets.tsv", tmp_path / "durations.tsv"
    refs.write_text(formats.EVENTS_HEADER + "\n" + refs_rows)
    dets.write_text(formats.SOFT_HEADER + "\n" + dets_rows)
    formats.write_durations_tsv(durations, {"x": 1800.0, "y": 1800.0})
    report = tmp_path / "psds.tsv"
    assert run("eval", "psds", "--dets", dets, "--refs", refs, "--durations", durations, "--out", report) == 0
    assert report.read_text() == "key\tvalue\n" + report_rows


@pytest.mark.parametrize("flag, value, shown", [
    ("--emax", "nan", "e_max"), ("--emax", "inf", "e_max"),
    ("--alpha-st", "nan", "alpha_st"), ("--alpha-st", "inf", "alpha_st"),
])
def test_eval_psds_rejects_a_non_finite_emax_or_alpha_st(tmp_path, capsys, flag, value, shown):
    data = synth_dir(tmp_path, clips=2)
    assert run("eval", "psds", "--dets", data / "refs.tsv", "--refs", data / "refs.tsv",
               "--durations", data / "durations.tsv", flag, value) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {shown} must be finite" in captured.err


@pytest.mark.parametrize("line", ["psds.emax = nan", "psds.emax = -inf", "psds.alpha_st = inf"])
def test_tune_csebb_rejects_a_non_finite_psds_config_twin(tmp_path, capsys, line):
    data = synth_dir(tmp_path, clips=2)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert run("--config", cfg, "tune-csebb", "--val-posteriors", data / "posteriors",
               "--val-refs", data / "refs.tsv", "--out", tmp_path / "tuned.tsv") == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "tuned.tsv").exists()


@pytest.mark.parametrize("key", sorted(key for key, value in DEFAULTS.items() if type(value) is float))
@pytest.mark.parametrize("value, problem", [("abc", "must be a number"), ("nan", "must be finite"),
                                            ("inf", "must be finite")])
def test_a_config_value_that_is_not_a_finite_number_stops_any_command(tmp_path, capsys, key, value, problem):
    # synth reads no config key, so only the load-time check can refuse it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# tuned\n{key} = {value}\n")
    classes = tmp_path / "classes.txt"
    classes.write_text("car\n")
    out = tmp_path / "data"
    assert run("--config", cfg, "synth", "--seed", 1, "--clips", 2, "--classes", classes, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: {key} {problem}, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("clips", [0, -1])
def test_synth_refuses_fewer_than_one_clip(tmp_path, capsys, clips):
    classes = tmp_path / "classes.txt"
    classes.write_text("car\n")
    out = tmp_path / "data"
    assert run("synth", "--seed", 1, "--clips", clips, "--classes", classes, "--out", out) == 2
    assert capsys.readouterr().err == f"error: n_clips must be >= 1, got {clips}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, shown", [
    (["--noise", "nan"], "noise_sd must be finite and >= 0, got nan"),
    (["--noise", "-1"], "noise_sd must be finite and >= 0, got -1.0"),
    (["--dip-prob", "nan"], "dip_prob must be in [0, 1], got nan"),
    (["--dip-prob", "2"], "dip_prob must be in [0, 1], got 2.0"),
    (["--blur", "-3"], "blur must be >= 0, got -3"),
    (["--mean-events", "nan"], "mean_events_per_clip must be finite and >= 0, got nan"),
    (["--frame-period", "nan"], "snap must be finite and > 0, got nan"),
    (["--frame-period", "nan", "--no-snap"], "frame_period must be finite and > 0, got nan"),
    (["--frame-period=inf", "--no-snap"], "frame_period must be finite and > 0, got inf"),
])
def test_synth_rejects_bad_numbers_naming_the_parameter(tmp_path, capsys, flags, shown):
    classes = tmp_path / "classes.txt"
    classes.write_text("car\n")
    out = tmp_path / "data"
    assert run("synth", "--seed", 1, "--clips", 2, "--classes", classes, "--out", out, *flags) == 2
    assert f"error: {shown}" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------- eval mpauc on columns

def mpauc_directory(root, frames, refs_rows=(), names=("car", "dog")):
    """Posteriorgrams clip_0, clip_1, ... of (frame count, period) each, and a
    reference file of (clip id, class name, onset, offset) rows."""
    rng = np.random.default_rng(3)
    for i, (t, period) in enumerate(frames):
        scores = np.round(rng.uniform(size=(t, len(names))), 2)
        post = Posteriorgram(scores=scores, frame_period=period, clip_id=f"clip_{i}")
        formats.write_posteriorgram(root / "posteriors" / f"clip_{i}.sedp", post, list(names))
    text = "".join(f"{clip}\t{onset}\t{offset}\t{name}\n" for clip, name, onset, offset in refs_rows)
    (root / "refs.tsv").write_text(formats.EVENTS_HEADER + "\n" + text)
    return root


GHOST = ("ghost", "car", 1.0, 2.0)
NO_POSTERIORS = "references for clips without posteriors: ['ghost']\n"
# (frames, refs, flags, stderr): exact texts and precedence of eval mpauc's
# errors when several apply at once
MPAUC_ERRORS = {
    "bad segment before a short clip": (
        [(40, 0.05), (4, 0.05)], [], ["--segment", "0"], "error: segment must be a finite length > 0 s, got 0.0\n"),
    "first short clip in directory order": (
        [(40, 0.05), (10, 0.05), (4, 0.1)], [], [], "error: duration 0.5 shorter than one segment 1.0\n"),
    "short clip with refs that end past it": (
        [(30, 0.1), (7, 0.1)], [("clip_1", "dog", 0.2, 9.0)], [],
        "error: duration 0.7000000000000001 shorter than one segment 1.0\n"),
    "missing posteriors before a bad segment": (
        [(40, 0.05)], [GHOST], ["--segment", "-1"], "error: {refs}: " + NO_POSTERIORS),
    "missing posteriors before a short clip": (
        [(40, 0.05), (4, 0.05)], [GHOST], [], "error: {refs}: " + NO_POSTERIORS),
    "short clip before one-polarity labels": (
        [(40, 0.05), (4, 0.05)], [], ["--hard-threshold", "5"], "error: duration 0.2 shorter than one segment 1.0\n"),
}


@pytest.mark.parametrize("case", sorted(MPAUC_ERRORS))
def test_eval_mpauc_errors_keep_their_text_and_precedence(tmp_path, capsys, case):
    frames, rows, flags, message = MPAUC_ERRORS[case]
    data = mpauc_directory(tmp_path, frames, rows)
    out = tmp_path / "mpauc.tsv"
    assert run("eval", "mpauc", "--posteriors", data / "posteriors", "--refs", data / "refs.tsv",
               "--out", out, *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message.format(refs=data / "refs.tsv")
    assert not out.exists()


@st.composite
def mpauc_cases(draw):
    """A directory of clips with mixed frame counts and frame periods, a
    segment that need not be a whole number of frames, clips with and
    without references, references that end past their clip, and hard or
    confidence-carrying (5-column) references."""
    segment = draw(st.sampled_from([1.0, 0.5, 0.3, 0.25, 0.7, 1.3]))
    seed = draw(st.integers(0, 2**32 - 1))
    clips = []
    for _ in range(draw(st.integers(1, 5))):
        period = draw(st.sampled_from([0.02, 0.05, 0.064, 0.1, 0.03, 0.25]))
        least = math.ceil(segment / period - 1e-9)  # no clip shorter than a segment
        clips.append((draw(st.integers(least, least + 40)), period))
    rows = []
    soft = draw(st.booleans())
    for _ in range(draw(st.integers(0, 12))):
        clip = draw(st.integers(0, len(clips) - 1))
        duration = clips[clip][0] * clips[clip][1]
        # edges on a segment boundary as k * segment rounds it, or anywhere
        onset = round(draw(st.integers(0, 12).map(lambda k: k * segment) | st.floats(0.0, duration + 1.0)), 3)
        offset = round(draw(st.integers(1, 6).map(lambda k: (math.floor(onset / segment) + k) * segment)
                            | st.floats(0.001, 3.0).map(lambda length: onset + length)), 3)
        offset = max(offset, round(onset + 0.001, 3))  # a boundary that rounds onto the onset
        confidence = draw(st.none() | st.sampled_from([0.0, 0.2, 0.5, 0.75, 1.0])) if soft else None
        rows.append(Event(f"clip_{clip}", draw(st.integers(0, 2)), onset, offset, confidence))
    hard_threshold = draw(st.sampled_from([0.5, 0.2, 0.75, 1.0]))
    return segment, seed, clips, rows, soft, hard_threshold


@settings(max_examples=120, deadline=None)
@given(mpauc_cases())
def test_eval_mpauc_equals_the_per_clip_segments(case):
    segment, seed, clips, rows, soft, hard_threshold = case
    names = ["car", "cat", "dog"]
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for i, (t, period) in enumerate(clips):
            # a tie-heavy grid of scores, so pooled maxima repeat
            post = Posteriorgram(np.round(rng.uniform(size=(t, 3)) * 8) / 8, period, f"clip_{i}")
            formats.write_posteriorgram(root / "posteriors" / f"clip_{i}.sedp", post, names)
        refs = root / "refs.tsv"
        (formats.write_soft_events_tsv if soft else formats.write_events_tsv)(refs, table(rows), names)
        stream = cli._posteriorgrams(root / "posteriors")
        posts, class_names = list(stream), stream.class_names
        columns = cli._read_refs(refs, class_names, posts)
        scores = evaluation.segment_scores(posts, segment)
        labels = evaluation.segmentize(columns, posts, segment)

        # per clip: the unbuffered frame max, and the clip's own rasterize
        want_scores = np.concatenate([segment_scores_at(post, segment) for post in posts])
        want_labels = np.concatenate([
            rasterize(table(ev for ev in columns if ev.clip_id == post.clip_id),
                      len(segment_scores_at(post, segment)), segment, 3)
            for post in posts])
        assert scores.dtype == labels.dtype == np.float64
        assert np.array_equal(scores, want_scores) and np.array_equal(labels, want_labels)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            per_class = evaluation.mpauc_per_class(want_scores, want_labels >= hard_threshold)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run("eval", "mpauc", "--posteriors", root / "posteriors", "--refs", refs,
                           "--segment", segment, "--hard-threshold", hard_threshold)
        if np.all(np.isnan(per_class)):
            assert code == 2 and err.getvalue().startswith("error: no class has both")
        else:
            assert code == 0 and out.getvalue() == f"mpauc\t{np.nanmean(per_class):.6f}\n"


# --------------------------------------------------- text that is not UTF-8

def _line_three_not_utf8(path, good_lines):
    """Two good lines, then a line holding a 0xff byte."""
    path.write_bytes("".join(f"{line}\n" for line in good_lines).encode() + b"x\xffy\tz\n")
    return path


# per input kind: the two good lines of the file and the command reading it
UTF8_INPUTS = {
    **{kind: ((header, good), command) for kind, (header, good, _), command in
       ((kind, TEXT_READERS[kind], TEXT_READER_COMMANDS[kind]) for kind in TEXT_READERS)},
    "config": (("eval.segment = 1.0", "# a comment"),
               lambda data, bad, out: ["--config", bad, "eval", "mpauc", "--posteriors", data / "posteriors",
                                       "--refs", data / "refs.tsv"]),
    "classes": (("car", "dog"),
                lambda data, bad, out: ["synth", "--seed", 1, "--clips", 2, "--classes", bad, "--out", out]),
    "thresholds": (("window = 3", "threshold.default = 0.5"),
                   lambda data, bad, out: ["postprocess", "--method", "median", "--params", bad,
                                           "--in", data / "posteriors", "--out", out]),
}


@pytest.mark.parametrize("kind", sorted(UTF8_INPUTS))
def test_text_that_is_not_utf8_names_the_file_and_line(tmp_path, capsys, kind):
    data = synth_dir(tmp_path, clips=2)
    capsys.readouterr()
    good_lines, command = UTF8_INPUTS[kind]
    bad, out = _line_three_not_utf8(tmp_path / "bad.txt", good_lines), tmp_path / "out"
    assert run(*command(data, bad, out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}:3: not valid UTF-8\n"
    assert not out.exists()
