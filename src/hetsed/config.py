"""Flat key-value configuration files.

Syntax: one ``key = value`` per line, ``#`` comments, keys dotted by module.
The keys are exactly those of DEFAULTS, each set at most once; any other key,
or a key set twice, is an error naming the file and line.  ``psds.*`` and
``eval.*`` are the twins of the ``eval psds`` and ``eval mpauc`` flags
(``tune-csebb`` scores with ``psds.*`` too), ``train.loss_mode`` is the twin
of ``loss --mode``, and flags win.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from .core import MaskMode
from .evaluation import HARD_LABEL_THRESHOLD, MAX_FPR, SEGMENT_SECONDS, PsdsConfig
from .formats import _read_text

# the library's own defaults, as text that get_float reads back to them
DEFAULTS: dict[str, str] = {
    "train.loss_mode": MaskMode.INDEPENDENT.value,
    "eval.segment": repr(SEGMENT_SECONDS),
    "eval.max_fpr": repr(MAX_FPR),
    "eval.hard_threshold": repr(HARD_LABEL_THRESHOLD),
    "psds.dtc": repr(PsdsConfig.rho_dtc),
    "psds.gtc": repr(PsdsConfig.rho_gtc),
    "psds.emax": repr(PsdsConfig.e_max),
    "psds.alpha_st": repr(PsdsConfig.alpha_st),
}


def _entries(text: str, source: Path | str | None = None) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) for every non-blank, non-comment line, each
    key once; errors name ``source`` (the file the text came from) when
    given."""
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        where = f"{source}:{lineno}" if source is not None else f"line {lineno}"
        if "=" not in stripped:
            raise ValueError(f"{where}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in first_line:
            raise ValueError(f"{where}: key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        yield lineno, key, value


def parse_config(text: str, source: Path | str | None = None) -> dict[str, str]:
    return {key: value for _, key, value in _entries(text, source)}


def load_config(path: Path | str | None) -> dict[str, str]:
    """Defaults overlaid with the file (if any), then validated."""
    cfg = dict(DEFAULTS)
    if path is not None:
        for lineno, key, value in _entries(_read_text(path), path):
            if key not in DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            cfg[key] = value
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict[str, str]) -> None:
    mode = cfg.get("train.loss_mode", "independent")
    if mode not in ("independent", "baseline"):
        raise ValueError(f"train.loss_mode must be independent or baseline, got {mode!r}")


def get_float(cfg: dict[str, str], key: str) -> float:
    return float(cfg[key])
