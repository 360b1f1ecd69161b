"""Flat key-value configuration files.

Syntax: one ``key = value`` per line, keys dotted by module.  A line whose
first non-blank character is ``#`` is a comment; elsewhere ``#`` starts a
comment only after the ``=``, so a key may hold ``#`` (``threshold.a#b``).
The keys are exactly those of DEFAULTS, each set at most once; any other key,
a key set twice, or a value that is not a finite number (``train.loss_mode``:
not a MaskMode value) is an error naming the file and line.  ``psds.*`` and
``eval.*`` are the twins of the ``eval psds`` and ``eval mpauc`` flags
(``tune-csebb`` scores with ``psds.*`` too), ``train.loss_mode`` is the twin
of ``loss --mode``, and flags win.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterator

from .core import MaskMode
from .evaluation import HARD_LABEL_THRESHOLD, MAX_FPR, SEGMENT_SECONDS, PsdsConfig
from .formats import _read_text

# the library's own defaults; every key but train.loss_mode holds a float
DEFAULTS: dict[str, float | str] = {
    "train.loss_mode": MaskMode.INDEPENDENT.value,
    "eval.segment": SEGMENT_SECONDS,
    "eval.max_fpr": MAX_FPR,
    "eval.hard_threshold": HARD_LABEL_THRESHOLD,
    "psds.dtc": PsdsConfig.rho_dtc,
    "psds.gtc": PsdsConfig.rho_gtc,
    "psds.emax": PsdsConfig.e_max,
    "psds.alpha_st": PsdsConfig.alpha_st,
}


def _entries(text: str, source: Path | str) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) for every non-blank, non-comment line, each
    key once, with the value cut at its first ``#``; errors name ``source``,
    the file the text came from, and the line."""
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        if "=" not in stripped:
            raise ValueError(f"{where}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.split("#", 1)[0].strip()
        if key in first_line:
            raise ValueError(f"{where}: key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        yield lineno, key, value


def load_config(path: Path | str | None) -> dict[str, float | str]:
    """Defaults overlaid with the file's values (if any), each parsed and
    checked where it is read."""
    cfg = dict(DEFAULTS)
    if path is not None:
        for lineno, key, value in _entries(_read_text(path), path):
            if key not in DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            cfg[key] = _value(key, value, f"{path}:{lineno}")
    return cfg


def _value(key: str, text: str, where: str) -> float | str:
    if key == "train.loss_mode":
        if text not in {mode.value for mode in MaskMode}:
            raise ValueError(f"{where}: train.loss_mode must be independent or baseline, got {text!r}")
        return text
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{where}: {key} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}: {key} must be finite, got {text!r}")
    return value
