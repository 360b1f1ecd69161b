"""Command-line surface for the pipeline.

Subcommands cover feature extraction, synthetic fixture generation,
posteriorgram post-processing, box-detector tuning, ensembling, metric
evaluation, and masked-loss inspection.  The metric flags and ``loss
--mode`` have config twins (see config.py); flags win.  Exit codes: 0 on
success, 2 on any validation problem.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import evaluation, features, formats, postprocess, synth, training
from .core import (
    ClassOrigin,
    ClipMetadata,
    Event,
    MaskMode,
    Origin,
    Posteriorgram,
    build_vocabulary,
    class_mask,
    default_vocabulary,
    frame_span,
    rasterize,
)

EXIT_OK = 0
EXIT_VALIDATION = 2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_mod.load_config(args.config)
        return args.handler(args, cfg)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs far more than a parse."""
    parser = argparse.ArgumentParser(prog="hetsed", description=__doc__)
    parser.add_argument("--config", type=Path, default=None, help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="WAV directory -> log-mel feature binaries")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--hop", type=int, choices=(160, 256), default=256)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--n-mels", type=int, default=features.DEFAULT_MEL_BINS)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(handler=_cmd_features)

    p = sub.add_parser("synth", help="generate synthetic ground truth + posteriorgrams")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--clips", type=int, required=True)
    p.add_argument("--classes", type=Path, required=True, help="one class name per line")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--frame-period", type=float, default=0.05)
    p.add_argument("--mean-events", type=float, default=2.0)
    p.add_argument("--blur", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--dip-prob", type=float, default=0.0)
    p.add_argument("--no-snap", action="store_true", help="do not align events to the frame grid")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("postprocess", help="posteriorgrams -> events / boxes")
    p.add_argument("--method", choices=("median", "frame", "csebb"), required=True)
    p.add_argument("--params", type=Path, default=None)
    p.add_argument("--in", dest="input", type=Path, required=True, help="posteriorgram file or directory")
    p.add_argument("--out", type=Path, required=True)
    # accepted and ignored: a thread pool over clips gave no speed-up
    p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    p.set_defaults(handler=_cmd_postprocess)

    p = sub.add_parser("tune-csebb", help="grid-search box-detector parameters")
    p.add_argument("--val-posteriors", type=Path, required=True)
    p.add_argument("--val-refs", type=Path, required=True)
    p.add_argument("--grid", type=Path, default=None, help="candidate rows; default grid if omitted")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--durations", type=Path, default=None)
    p.set_defaults(handler=_cmd_tune_csebb)

    p = sub.add_parser("ensemble", help="average aligned posteriorgram files")
    p.add_argument("--in", dest="inputs", type=Path, nargs="+", required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(handler=_cmd_ensemble)

    p_eval = sub.add_parser("eval", help="metrics")
    eval_sub = p_eval.add_subparsers(dest="metric", required=True)

    p = eval_sub.add_parser("psds", help="intersection-based PSDS over timestamped events")
    p.add_argument("--dets", type=Path, required=True)
    p.add_argument("--refs", type=Path, required=True)
    p.add_argument("--durations", type=Path, required=True)
    p.add_argument("--dtc", type=float, default=None)
    p.add_argument("--gtc", type=float, default=None)
    p.add_argument("--emax", type=float, default=None)
    p.add_argument("--alpha-st", type=float, default=None)
    p.add_argument("--out", type=Path, default=None, help="score report TSV")
    p.set_defaults(handler=_cmd_eval_psds)

    p = eval_sub.add_parser("mpauc", help="segment-based macro partial AUC")
    p.add_argument("--posteriors", type=Path, required=True)
    p.add_argument("--refs", type=Path, required=True)
    p.add_argument("--segment", type=float, default=None)
    p.add_argument("--max-fpr", type=float, default=None)
    p.add_argument("--hard-threshold", type=float, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(handler=_cmd_eval_mpauc)

    p = eval_sub.add_parser("joint", help="sum of PSDS and mPAUC reports")
    p.add_argument("--psds", type=Path, required=True)
    p.add_argument("--mpauc", type=Path, required=True)
    p.set_defaults(handler=_cmd_eval_joint)

    p = sub.add_parser("loss", help="dataset-masked BCE for one clip")
    p.add_argument("--pred", type=Path, required=True, help="posteriorgram file")
    p.add_argument("--target", type=Path, required=True, help="event TSV (soft or hard)")
    p.add_argument("--origin", choices=("desed", "maestro"), required=True)
    p.add_argument("--mode", choices=("independent", "baseline"), default=None)
    p.set_defaults(handler=_cmd_loss)

    return parser


def _cmd_features(args, cfg) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    wavs = sorted(args.input.glob("*.wav"))
    if not wavs:
        raise ValueError(f"no .wav files under {args.input}")
    args.out.mkdir(parents=True, exist_ok=True)

    def extract(path: Path):
        clip = features.load_wav(path)
        mel = features.extract_log_mel(clip, hop=args.hop, n_mels=args.n_mels)
        return clip.clip_id, mel

    def write(done: Future) -> None:
        clip_id, mel = done.result()
        formats.write_features(args.out / f"{clip_id}.mel", mel.values, mel.frame_period)

    # clips are written in path order, and at most --jobs of them are
    # extracted and not yet written at any time
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        pending: deque[Future] = deque()
        for path in wavs:
            if len(pending) == args.jobs:
                write(pending.popleft())
            pending.append(pool.submit(extract, path))
        for done in pending:
            write(done)
    print(f"wrote {len(wavs)} feature files to {args.out}", file=sys.stderr)
    return EXIT_OK


def _read_class_list(path: Path) -> list[str]:
    """One class name per line; blank lines and '#' comments are skipped."""
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        name = line.strip()
        if not name or name.startswith("#"):
            continue
        if name in first_line:
            raise ValueError(f"{path}:{lineno}: class {name!r} already listed on line {first_line[name]}")
        first_line[name] = lineno
    if not first_line:
        raise ValueError(f"{path}: no class names")
    return list(first_line)


def _cmd_synth(args, cfg) -> int:
    class_names = _read_class_list(args.classes)
    rng = np.random.default_rng(args.seed)
    snap = None if args.no_snap else args.frame_period
    refs, metas = synth.gen_ground_truth(
        rng, args.clips, len(class_names), args.mean_events, snap=snap
    )
    posts = synth.render_posteriors(
        refs,
        metas,
        len(class_names),
        args.frame_period,
        blur=args.blur,
        noise_sd=args.noise,
        dip_prob=args.dip_prob,
        rng=rng,
    )
    formats.write_events_tsv(args.out / "refs.tsv", refs, class_names)
    formats.write_durations_tsv(args.out / "durations.tsv", {m.clip_id: m.duration for m in metas})
    for post in posts:
        formats.write_posteriorgram(args.out / "posteriors" / f"{post.clip_id}.sedp", post, class_names)
    print(f"wrote {len(posts)} clips to {args.out}", file=sys.stderr)
    return EXIT_OK


def _load_posteriors(path: Path) -> list[tuple[Posteriorgram, list[str]]]:
    paths = [path] if path.is_file() else sorted(path.glob("*.sedp"))
    if not paths:
        raise ValueError(f"no posteriorgram files under {path}")
    return _read_posteriorgrams(paths)


def _read_posteriorgrams(paths: list[Path], clip_id: str | None = None) -> list[tuple[Posteriorgram, list[str]]]:
    """Posteriorgram files that must share one class table."""
    loaded = [formats.read_posteriorgram(p, clip_id) for p in paths]
    for (_, names), p in zip(loaded, paths):
        if names != loaded[0][1]:
            raise ValueError(f"{p}: class table differs from {paths[0]}")
    return loaded


def _class_thresholds(cfg_file: Path | None, class_names: list[str]) -> tuple[np.ndarray, int]:
    """Per-class thresholds plus the median window from a config-style file
    (keys ``window``, ``threshold.default`` and ``threshold.<class>``)."""
    window = 7
    default_thr = 0.5
    per_class: dict[str, float] = {}
    if cfg_file is not None:
        raw = config_mod.parse_config(Path(cfg_file).read_text(encoding="utf-8"), cfg_file)
        for key, value in raw.items():
            if key == "window":
                if not value.isdecimal() or int(value) % 2 == 0:
                    raise ValueError(f"{cfg_file}: window must be an odd integer >= 1, got {value!r}")
                window = int(value)
                continue
            if not key.startswith("threshold."):
                raise ValueError(f"{cfg_file}: unknown key {key!r}")
            name = key.split(".", 1)[1]
            if name != "default" and name not in class_names:
                raise ValueError(f"{cfg_file}: {key}: no class {name!r} in the posteriorgrams' class table")
            try:
                thr = float(value)
            except ValueError:
                thr = math.nan
            if not 0.0 <= thr <= 1.0:
                raise ValueError(f"{cfg_file}: {key} must be a number in [0, 1], got {value!r}")
            if name == "default":
                default_thr = thr
            else:
                per_class[name] = thr
    thresholds = np.array([per_class.get(name, default_thr) for name in class_names])
    return thresholds, window


def _cmd_postprocess(args, cfg) -> int:
    loaded = _load_posteriors(args.input)
    class_names = loaded[0][1]

    if args.method == "csebb":
        params = formats.read_csebb_params(args.params) if args.params else postprocess.CsebbParams()
        boxes = postprocess.csebb_detect([post for post, _ in loaded], params, class_names)
        formats.write_soft_events_tsv(args.out, boxes, class_names)
        print(f"wrote {len(boxes)} boxes to {args.out}", file=sys.stderr)
        return EXIT_OK

    thresholds, window = _class_thresholds(args.params, class_names)
    if args.method == "frame":
        window = 1
    events = [ev for post, _ in loaded for ev in postprocess.frame_threshold_merge(post, thresholds, window)]
    formats.write_events_tsv(args.out, events, class_names)
    print(f"wrote {len(events)} events to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_tune_csebb(args, cfg) -> int:
    loaded = _load_posteriors(args.val_posteriors)
    class_names = loaded[0][1]
    posts = [post for post, _ in loaded]
    refs, _ = formats.read_events_tsv(args.val_refs, class_names)
    _check_ref_clips(args.val_refs, refs, posts)
    if args.durations is not None:
        hours = _read_hours(args.durations, [p.clip_id for p in posts])
    else:
        hours = sum(p.duration for p in posts) / 3600.0
    psds_cfg = _psds_config_from(cfg)

    def metric(box_sets, refs_):
        curves = evaluation.roc_curves(box_sets, refs_, hours, psds_cfg, len(class_names))
        return [evaluation.psds(curve, psds_cfg) for curve in curves]

    grid = formats.read_csebb_grid(args.grid) if args.grid is not None else postprocess.default_grid()
    best = postprocess.tune_csebb(posts, refs, grid, metric, class_names)
    formats.write_csebb_params(args.out, best)
    print(f"wrote tuned parameters to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_ensemble(args, cfg) -> int:
    loaded = _read_posteriorgrams(args.inputs, clip_id=args.out.stem)
    merged = postprocess.ensemble_average([post for post, _ in loaded])
    formats.write_posteriorgram(args.out, merged, loaded[0][1])
    print(f"averaged {len(loaded)} posteriorgrams into {args.out}", file=sys.stderr)
    return EXIT_OK


def _psds_config_from(cfg, dtc=None, gtc=None, emax=None, alpha_st=None) -> evaluation.PsdsConfig:
    return evaluation.PsdsConfig(
        rho_dtc=dtc if dtc is not None else config_mod.get_float(cfg, "psds.dtc"),
        rho_gtc=gtc if gtc is not None else config_mod.get_float(cfg, "psds.gtc"),
        e_max=emax if emax is not None else config_mod.get_float(cfg, "psds.emax"),
        alpha_st=alpha_st if alpha_st is not None else config_mod.get_float(cfg, "psds.alpha_st"),
    )


def _reindex(events: list[Event], names: list[str], class_names: list[str]) -> list[Event]:
    """Move class indices from a file's own sorted names to class_names."""
    if names == class_names:
        return events
    # both name lists are sorted, so the map keeps the canonical event order
    index = [class_names.index(name) for name in names]
    return [Event(ev.clip_id, index[ev.class_idx], ev.onset, ev.offset, ev.confidence) for ev in events]


def _check_ref_clips(path: Path, refs: list[Event], posts: list[Posteriorgram]) -> None:
    """Every clip of the reference file must have a posteriorgram."""
    missing = sorted({ev.clip_id for ev in refs} - {post.clip_id for post in posts})
    if missing:
        raise ValueError(f"{path}: references for clips without posteriors: {missing[:5]}")


def _read_hours(path: Path, clip_ids) -> float:
    """Total hours of a durations file, which must list every clip in clip_ids."""
    durations = formats.read_durations_tsv(path)
    missing = sorted(set(clip_ids) - durations.keys())
    if missing:
        raise ValueError(f"{path}: no duration for {len(missing)} clip(s), e.g. {missing[:5]}")
    return sum(durations.values()) / 3600.0


def _cmd_eval_psds(args, cfg) -> int:
    psds_cfg = _psds_config_from(cfg, args.dtc, args.gtc, args.emax, args.alpha_st)
    refs, ref_names = formats.read_events_tsv(args.refs)
    dets, det_names = formats.read_events_tsv(args.dets)
    class_names = sorted(set(ref_names) | set(det_names))
    refs, dets = _reindex(refs, ref_names, class_names), _reindex(dets, det_names, class_names)
    hours = _read_hours(args.durations, [ev.clip_id for ev in refs + dets])
    curve = evaluation.roc_from_confidences(dets, refs, hours, psds_cfg, len(class_names))
    value = evaluation.psds(curve, psds_cfg)

    entries = {"psds": value, "hours": hours}
    for c, name in enumerate(class_names):
        if curve.included[c]:
            entries[f"tpr.{name}"] = float(curve.tpr[-1, c])
    if args.out is not None:
        formats.write_score_report(args.out, entries)
        formats.write_summary(args.out.with_suffix(".txt"), "PSDS report", entries)
    print(f"psds\t{value:.6f}")
    return EXIT_OK


def _cmd_eval_mpauc(args, cfg) -> int:
    segment = args.segment if args.segment is not None else config_mod.get_float(cfg, "eval.segment")
    max_fpr = args.max_fpr if args.max_fpr is not None else config_mod.get_float(cfg, "eval.max_fpr")
    hard_thr = (
        args.hard_threshold
        if args.hard_threshold is not None
        else config_mod.get_float(cfg, "eval.hard_threshold")
    )
    loaded = _load_posteriors(args.posteriors)
    class_names = loaded[0][1]
    refs, _ = formats.read_events_tsv(args.refs, class_names)
    _check_ref_clips(args.refs, refs, [post for post, _ in loaded])
    by_clip: dict[str, list[Event]] = {}
    for ev in refs:
        by_clip.setdefault(ev.clip_id, []).append(ev)

    score_rows, label_rows = [], []
    for post, _ in loaded:
        score_rows.append(evaluation.segment_scores(post, segment))
        label_rows.append(
            evaluation.segmentize(by_clip.get(post.clip_id, []), post.duration, post.num_classes, segment)
        )
    scores = np.concatenate(score_rows)
    hard = np.concatenate(label_rows) >= hard_thr
    per_class = evaluation.mpauc_per_class(scores, hard, max_fpr)
    if np.all(np.isnan(per_class)):
        raise ValueError(f"no class has both positive and negative segments at hard threshold {hard_thr:g}")
    value = float(np.nanmean(per_class))

    entries = {"mpauc": value}
    for c, name in enumerate(class_names):
        if not np.isnan(per_class[c]):
            entries[f"pauc.{name}"] = float(per_class[c])
    if args.out is not None:
        formats.write_score_report(args.out, entries)
        formats.write_summary(args.out.with_suffix(".txt"), "mPAUC report", entries)
    print(f"mpauc\t{value:.6f}")
    return EXIT_OK


def _cmd_eval_joint(args, cfg) -> int:
    values = []
    for path, key in ((args.psds, "psds"), (args.mpauc, "mpauc")):
        report = formats.read_score_report(path)
        if key not in report:
            raise ValueError(f"{path}: no {key!r} row")
        values.append(report[key])
    print(f"{evaluation.joint_score(*values):.3f}")
    return EXIT_OK


def _vocabulary_for(class_names: list[str]):
    """Vocabulary over the given names, origins taken from the default lists."""
    default = default_vocabulary()
    unknown = [n for n in class_names if n not in default.classes]
    if unknown:
        raise ValueError(f"classes not in the default vocabulary: {unknown}")
    desed = [n for n in class_names if default.origin_of(n) is ClassOrigin.DESED]
    maestro = [n for n in class_names if default.origin_of(n) is ClassOrigin.MAESTRO]
    pairs = [
        (src, dst)
        for src, targets in default.cross_map.items()
        for dst in targets
        if src in desed and dst in maestro
    ]
    return build_vocabulary(desed, maestro, pairs)


def _cmd_loss(args, cfg) -> int:
    mode_name = args.mode if args.mode is not None else cfg["train.loss_mode"]
    mode = MaskMode(mode_name)
    post, class_names = formats.read_posteriorgram(args.pred)
    vocab = _vocabulary_for(class_names)
    # reorder prediction columns into vocabulary order
    order = [class_names.index(name) for name in vocab.classes]
    pred = post.scores[:, order]
    refs, _ = formats.read_events_tsv(args.target, list(vocab.classes))
    matching = [ev for ev in refs if ev.clip_id == post.clip_id]
    if not matching:
        clip_ids = {ev.clip_id for ev in refs}
        if len(clip_ids) == 1:
            matching = refs  # single-clip target file; filename need not match
        else:
            raise ValueError(f"target file has no rows for clip {post.clip_id!r}")
    n, fp = post.num_frames, post.frame_period
    late = [ev.onset for ev in matching if frame_span(ev.onset, ev.offset, fp, n)[0] == n]
    if late:
        raise ValueError(
            f"{args.target}: {len(late)} target row(s) start at or after the end of the"
            f" {post.duration:g} s prediction, e.g. at {late[0]:g} s"
        )
    target = rasterize(matching, n, fp, len(vocab))
    origin = Origin.MAESTRO if args.origin == "maestro" else Origin.DESED_STRONG
    meta = ClipMetadata(clip_id=post.clip_id, origin=origin, duration=post.duration)
    value = training.soft_clip_loss(pred, target, meta, vocab, mode)
    active = int(class_mask(meta, vocab, mode).sum())
    print(f"bce\t{value:.6f}")
    print(f"active_classes\t{active}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
