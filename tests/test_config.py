import re

import pytest

from hetsed.config import DEFAULTS, _entries, load_config
from hetsed.core import MaskMode
from hetsed.evaluation import HARD_LABEL_THRESHOLD, MAX_FPR, SEGMENT_SECONDS, PsdsConfig


def test_parse_basic_syntax():
    entries = _entries("a.b = 1\n# comment\n\nc = hello  # trailing\n", "run.cfg")
    assert list(entries) == [(1, "a.b", "1"), (4, "c", "hello")]


def test_parse_keeps_a_hash_in_the_key_and_cuts_the_value_at_one():
    text = "  # indented comment\nthreshold.a#b = 0.3  # note\nc#=1#2\n#x = 1\n"
    assert list(_entries(text, "params.cfg")) == [(2, "threshold.a#b", "0.3"), (3, "c#", "1")]
    with pytest.raises(ValueError, match=r"^params\.cfg:1: expected 'key = value', got 'a#b 0\.3  # note'$"):
        list(_entries("a#b 0.3  # note", "params.cfg"))


def test_parse_rejects_bad_lines():
    with pytest.raises(ValueError, match=r"^run\.cfg:1: expected 'key = value', got 'not a pair'$"):
        list(_entries("not a pair", "run.cfg"))


def test_defaults_cover_documented_keys():
    assert set(DEFAULTS) == {
        "train.loss_mode",
        "eval.segment",
        "eval.max_fpr",
        "eval.hard_threshold",
        "psds.dtc",
        "psds.gtc",
        "psds.emax",
        "psds.alpha_st",
    }
    assert DEFAULTS["psds.emax"] == 100.0


def test_each_default_is_the_library_default():
    psds = PsdsConfig()
    library = {
        "eval.segment": SEGMENT_SECONDS, "eval.max_fpr": MAX_FPR, "eval.hard_threshold": HARD_LABEL_THRESHOLD,
        "psds.dtc": psds.rho_dtc, "psds.gtc": psds.rho_gtc, "psds.emax": psds.e_max, "psds.alpha_st": psds.alpha_st,
    }
    assert {key: DEFAULTS[key] for key in library} == library
    assert all(type(DEFAULTS[key]) is float for key in library)
    assert MaskMode(DEFAULTS["train.loss_mode"]) is MaskMode.INDEPENDENT
    assert set(DEFAULTS) == {*library, "train.loss_mode"}


def test_load_config_file_overrides_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("psds.dtc = 0.5\neval.segment = 2\n")
    cfg = load_config(path)
    assert cfg == {**DEFAULTS, "psds.dtc": 0.5, "eval.segment": 2.0}


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text("# tuned\npsds.dtc = 0.5\npsds.dtcc = 0.5\n")
    with pytest.raises(ValueError, match=r"typo\.cfg:3: unknown config key 'psds\.dtcc'"):
        load_config(path)


def test_loss_mode_validated(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("train.loss_mode = sideways\n")
    with pytest.raises(ValueError,
                       match=r"bad\.cfg:1: train\.loss_mode must be independent or baseline, got 'sideways'"):
        load_config(path)


@pytest.mark.parametrize("text, message", [
    ("abc", "must be a number, got 'abc'"),
    ("", "must be a number, got ''"),
    ("nan", "must be finite, got 'nan'"),
    ("-inf", "must be finite, got '-inf'"),
    ("1e999", "must be finite, got '1e999'"),
])
def test_load_config_rejects_a_value_that_is_not_a_finite_number(tmp_path, text, message):
    path = tmp_path / "run.cfg"
    path.write_text(f"# tuned\npsds.dtc = 0.25\neval.segment = {text}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: eval.segment {message}')}$"):
        load_config(path)


def test_parse_rejects_a_repeated_key():
    with pytest.raises(ValueError, match=r"^params\.cfg:3: key 'window' already set on line 1$"):
        list(_entries("window = 3\n# again\nwindow = 9\n", "params.cfg"))
    with pytest.raises(ValueError, match=r"^params\.cfg:2: key 'window' already set on line 1$"):
        list(_entries("window = 3\n window=9\n", "params.cfg"))


def test_load_config_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("psds.dtc = 0.5\npsds.gtc = 0.5\n\npsds.dtc = 0.1\n")
    with pytest.raises(ValueError, match=r"twice\.cfg:4: key 'psds\.dtc' already set on line 1"):
        load_config(path)
