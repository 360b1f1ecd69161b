import hashlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from hetsed import cli, formats
from hetsed.core import Event, Posteriorgram, default_vocabulary
from hetsed.postprocess import ClassSebbParams, CsebbParams


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


def test_loss_command_masks_desed_columns(tmp_path, capsys):
    vocab = default_vocabulary()
    rng = np.random.default_rng(2)
    scores = rng.uniform(0.05, 0.95, size=(40, len(vocab))).astype(np.float32)
    pred_path = tmp_path / "m1.sedp"
    formats.write_posteriorgram(pred_path, Posteriorgram(scores, 0.25, "m1"), list(vocab.classes))

    target_path = tmp_path / "target.tsv"
    events = [
        Event("m1", vocab.index("people_talking"), 0.0, 5.0, 0.8),
        Event("m1", vocab.index("car"), 2.0, 9.0, 0.6),
    ]
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
    formats.write_events_tsv(refs, [Event("x", 0, 1.0, 2.0), Event("y", 0, 1.0, 2.0)], names)
    formats.write_soft_events_tsv(dets, [Event("z", 0, 1.0, 2.0, 0.95)], names)
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
    formats.write_events_tsv(target_path, [Event("m1", vocab.index("car"), 2.0, 3.0)], list(vocab.classes))
    assert run("loss", "--pred", pred_path, "--target", target_path, "--origin", "maestro") == 2
    err = capsys.readouterr().err
    assert str(target_path) in err and "start at or after the end" in err


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


@pytest.mark.parametrize("rows, message", [
    ("x\t10.0\nx\t3600.0\n", ":3: clip 'x' already listed on line 2"),
    ("x\t10.0\ny\t-3.0\n", ":3: duration must be a finite number >= 0, got '-3.0'"),
    ("x\t10.0\ny\tinf\n", ":3: duration must be a finite number >= 0, got 'inf'"),
])
def test_eval_psds_rejects_a_bad_durations_file(tmp_path, capsys, rows, message):
    refs, dets, durations = tmp_path / "refs.tsv", tmp_path / "dets.tsv", tmp_path / "durations.tsv"
    formats.write_events_tsv(refs, [Event("x", 0, 1.0, 2.0)], ["car"])
    formats.write_soft_events_tsv(dets, [Event("x", 0, 1.0, 2.0, 0.9)], ["car"])
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
    assert f"error: {params}: {message}" in capsys.readouterr().err
    assert not dets.exists()


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


@pytest.mark.parametrize("value, message", [
    (np.nan, "scores contain non-finite values"),
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
    formats.write_events_tsv(refs, [Event("x", 0, 1.0, 2.0)], ["car"])
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
    formats.write_events_tsv(refs, [Event("clip_0000", 0, 1.0, 2.0), Event("ghost", 1, 1.0, 2.0)], ["car", "dog"])
    assert run(*command(data, refs, out)) == 2
    assert f"error: {refs}: references for clips without posteriors: ['ghost']" in capsys.readouterr().err
    assert not out.exists()


def test_synth_rejects_a_repeated_class_name(tmp_path, capsys):
    classes = tmp_path / "classes.txt"
    classes.write_text("car\n# cars again below\ncar\ndog\n")
    assert run("synth", "--seed", 1, "--clips", 2, "--classes", classes, "--out", tmp_path / "data") == 2
    assert f"error: {classes}:3: class 'car' already listed on line 1" in capsys.readouterr().err
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
