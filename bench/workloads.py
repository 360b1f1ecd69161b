"""The benchmark workloads and the runner that times and checks their passes.

A pass is one run of a workload's timed steps over its fixture.  Each step
is an operation: one ``hetsed`` CLI call, made in-process through
``hetsed.cli.main``, or one library stage called from here.  An operation
fails on a non-zero exit, an exception, or an output that differs from the
reference pass made during set-up.
"""

from __future__ import annotations

import hashlib
import io
from collections import defaultdict
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from hetsed import augment, cli, core, domain_gen, fdy, formats, training
from hetsed.core import ClipMetadata, MaskMode, Origin

import fixtures
import oracle


def _digest(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data)
    return hashlib.sha256(data).hexdigest()


def _run_cli(argv: list) -> tuple:
    """``hetsed.cli.main`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class Runner:
    """Times the operations of one pass and records what they produced."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.stages: dict[str, float] = defaultdict(float)
        self.outputs: dict[str, str] = {}
        self.problems: dict[str, str] = {}  # failed operation -> first reason
        self._ops: dict[str, str] = {}  # operation -> stage
        self._files: dict[str, list[Path]] = {}

    @property
    def attempted(self) -> int:
        return len(self._ops)

    def ops_in(self, stage: str) -> int:
        return sum(1 for s in self._ops.values() if s == stage)

    @property
    def failed(self) -> int:
        return len(self.problems)

    @property
    def wall(self) -> float:
        return sum(self.stages.values())

    def fail(self, op: str, reason: str) -> None:
        self.problems.setdefault(op, reason)

    def check(self, op: str, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(op, reason)

    @contextmanager
    def op(self, stage: str, op: str):
        """Time one operation under ``stage``; an exception fails it."""
        if op in self._ops:
            raise ValueError(f"operation {op!r} run twice in one pass")
        self._ops[op] = stage
        span = self.tracer.span(f"bench.{stage}") if self.tracer else nullcontext()
        start = perf_counter()
        try:
            with span:
                yield
        except Exception as exc:
            if self.tracer:
                self.tracer.error("bench")
            self.fail(op, f"{type(exc).__name__}: {exc}")
        finally:
            self.stages[stage] += perf_counter() - start

    def cli(self, stage: str, op: str, argv: list, files: tuple = ()) -> str:
        """Run one CLI command; its stdout and ``files`` become outputs."""
        argv = [str(a) for a in argv]
        command = argv[0] if argv[0] != "eval" else f"eval-{argv[1]}"
        code, out, err = None, "", ""
        with self.op(stage, op):
            span = self.tracer.span(f"cli.{command}") if self.tracer else nullcontext()
            with span:
                code, out, err = _run_cli(argv)
        if code != 0:
            if self.tracer:
                self.tracer.error("cli")
            self.fail(op, f"exit {code}: {err.strip()[-300:]}")
        self.outputs[f"{op}:stdout"] = out
        self._files[op] = [Path(f) for f in files]
        return out

    def record(self, op: str, name: str, data) -> None:
        self.outputs[f"{op}:{name}"] = _digest(data)

    def finish(self, reference: dict[str, str] | None) -> None:
        """Hash the output files, then compare every output with the reference."""
        for op, paths in self._files.items():
            for path in paths:
                if path.is_file():
                    self.record(op, path.name, path.read_bytes())
                else:
                    self.fail(op, f"missing output {path.name}")
        if reference is None:
            return
        for key in sorted(set(reference) | set(self.outputs)):
            if reference.get(key) != self.outputs.get(key):
                self.fail(key.rsplit(":", 1)[0], f"{key} differs from the reference pass")


NOISY_CLIPS = 50  # clips in the noisier render that checks mPAUC


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return float("nan")


def _printed(text: str, key: str) -> float:
    """The value of a ``key<TAB>value`` line of CLI output (NaN when absent)."""
    for line in text.splitlines():
        name, _, value = line.partition("\t")
        if name == key:
            return _number(value)
    return float("nan")


def _oracle(r: Runner, op: str, compute):
    """The oracle's value, or None (and a failed ``op``) when it cannot read the files."""
    try:
        return compute()
    except (OSError, ValueError, IndexError) as exc:
        r.fail(op, f"oracle could not read the files: {exc}")
        return None


def _check_printed(r: Runner, op: str, printed: str, key: str, compute) -> None:
    """A printed value (6 decimals) must match the oracle's."""
    value, expected = _printed(printed, key), _oracle(r, op, compute)
    if expected is not None:
        r.check(op, abs(value - expected) <= 1e-6, f"{key} {value} but the oracle gives {expected:.9f}")


def _check_psds(r: Runner, op: str, printed: str, dets: Path, refs: Path, durations: Path) -> None:
    _check_printed(r, op, printed, "psds", lambda: oracle.psds_from_files(dets, refs, durations))


def _check_mpauc(r: Runner, printed: str, root: Path, seed: int, class_names: list[str],
                 frame_period: float) -> None:
    """mPAUC must match the oracle, on the fixture and on a noisier render of it.

    The fixture's segments separate perfectly (mPAUC 1), which would hide
    most errors; at noise sd 0.35 it falls well below 1.  The noisier render is
    scored outside the timed operations.
    """
    data, noisy = root / "data", root / "noisy"
    _check_printed(r, "eval-mpauc", printed, "mpauc",
                   lambda: oracle.mpauc_from_files(data / "posteriors", data / "refs.tsv", class_names))
    fixtures.sed_fixture(noisy, seed, NOISY_CLIPS, class_names, frame_period, noise_sd=0.35)
    code, out, err = _run_cli(["eval", "mpauc", "--posteriors", noisy / "posteriors", "--refs",
                              noisy / "refs.tsv", "--out", noisy / "mpauc.tsv"])
    if code != 0:
        r.fail("eval-mpauc", f"exit {code} on the noisy render: {err.strip()[-300:]}")
        return
    _check_printed(r, "eval-mpauc", out, "mpauc",
                   lambda: oracle.mpauc_from_files(noisy / "posteriors", noisy / "refs.tsv", class_names))


def _check_frame_events(r: Runner, op: str, events: Path, posts: Path, class_names: list[str],
                        median: bool) -> None:
    """Frame (or median-filtered) events must equal the oracle's runs above threshold."""
    expected = _oracle(r, op, lambda: oracle.frame_events_from_files(posts, class_names, median))
    if expected is not None:
        r.check(op, oracle.events_tsv_rows(events) == expected,
                f"{events.name} differs from the oracle's {len(expected)} events")


class Walkthrough:
    """README chain on 20 clips of car/dog/speech at 0.1 s frames."""

    clips = 20
    classes = ["car", "dog", "speech"]
    frame_period = 0.1

    def generate(self, root: Path, seed: int) -> None:
        self.seed = seed
        fixtures.sed_fixture(root / "data", seed, self.clips, self.classes, self.frame_period)

    def run_pass(self, r: Runner, root: Path, reference_pass: bool) -> None:
        data, out = root / "data", root / "out"
        posts, refs, durs = data / "posteriors", data / "refs.tsv", data / "durations.tsv"
        r.cli("postprocess_frame", "postprocess-frame",
              ["postprocess", "--method", "frame", "--in", posts, "--out", out / "frame.tsv", "--jobs", 1],
              [out / "frame.tsv"])
        frame_psds = r.cli("eval_psds", "eval-psds-frame",
                           ["eval", "psds", "--dets", out / "frame.tsv", "--refs", refs,
                            "--durations", durs, "--out", out / "frame_psds.tsv"],
                           [out / "frame_psds.tsv", out / "frame_psds.txt"])
        r.cli("tune_csebb", "tune-csebb",
              ["tune-csebb", "--val-posteriors", posts, "--val-refs", refs, "--out", out / "tuned.tsv"],
              [out / "tuned.tsv"])
        r.cli("postprocess_csebb", "postprocess-csebb",
              ["postprocess", "--method", "csebb", "--params", out / "tuned.tsv", "--in", posts,
               "--out", out / "boxes.tsv", "--jobs", 1],
              [out / "boxes.tsv"])
        box_psds = r.cli("eval_psds", "eval-psds-csebb",
                         ["eval", "psds", "--dets", out / "boxes.tsv", "--refs", refs,
                          "--durations", durs, "--out", out / "csebb_psds.tsv"],
                         [out / "csebb_psds.tsv", out / "csebb_psds.txt"])
        mpauc = r.cli("eval_mpauc", "eval-mpauc",
                      ["eval", "mpauc", "--posteriors", posts, "--refs", refs, "--out", out / "mpauc.tsv"],
                      [out / "mpauc.tsv", out / "mpauc.txt"])
        joint = r.cli("eval_joint", "eval-joint",
                      ["eval", "joint", "--psds", out / "csebb_psds.tsv", "--mpauc", out / "mpauc.tsv"])
        if reference_pass:
            _check_frame_events(r, "postprocess-frame", out / "frame.tsv", posts, self.classes, False)
            _check_psds(r, "eval-psds-frame", frame_psds, out / "frame.tsv", refs, durs)
            _check_psds(r, "eval-psds-csebb", box_psds, out / "boxes.tsv", refs, durs)
            _check_mpauc(r, mpauc, root, self.seed, self.classes, self.frame_period)
            expected = _printed(box_psds, "psds") + _printed(mpauc, "mpauc")
            # joint prints 3 decimals of the 9-decimal reports
            r.check("eval-joint", abs(_number(joint) - expected) <= 5e-4 + 2e-6,
                    f"joint {joint.strip()} != psds + mpauc {expected:.6f}")


class Bulk:
    """Three post-processing methods and the single-point metrics on 250 clips."""

    clips = 250
    classes = ["Alarm_bell_ringing", "Blender", "Cat", "Dishes", "Dog",
               "Electric_shaver_toothbrush", "Frying", "Running_water", "Speech", "Vacuum_cleaner"]
    frame_period = 0.02

    def generate(self, root: Path, seed: int) -> None:
        self.seed = seed
        fixtures.sed_fixture(root / "data", seed, self.clips, self.classes, self.frame_period)

    def run_pass(self, r: Runner, root: Path, reference_pass: bool) -> None:
        data, out = root / "data", root / "out"
        posts, refs, durs = data / "posteriors", data / "refs.tsv", data / "durations.tsv"
        for method, stage in (("frame", "postprocess_frame"), ("median", "postprocess_frame"),
                              ("csebb", "postprocess_csebb")):
            r.cli(stage, f"postprocess-{method}",
                  ["postprocess", "--method", method, "--in", posts, "--out", out / f"{method}.tsv",
                   "--jobs", 1],
                  [out / f"{method}.tsv"])
        psds = r.cli("eval_psds", "eval-psds-frame",
                     ["eval", "psds", "--dets", out / "frame.tsv", "--refs", refs, "--durations", durs,
                      "--out", out / "frame_psds.tsv"],
                     [out / "frame_psds.tsv", out / "frame_psds.txt"])
        mpauc = r.cli("eval_mpauc", "eval-mpauc",
                      ["eval", "mpauc", "--posteriors", posts, "--refs", refs, "--out", out / "mpauc.tsv"],
                      [out / "mpauc.tsv", out / "mpauc.txt"])
        if reference_pass:
            for method in ("frame", "median"):
                _check_frame_events(r, f"postprocess-{method}", out / f"{method}.tsv", posts, self.classes,
                                    median=method == "median")
            _check_psds(r, "eval-psds-frame", psds, out / "frame.tsv", refs, durs)
            _check_mpauc(r, mpauc, root, self.seed, self.classes, self.frame_period)


# Batch pools for the training steps and the origin each pool's clips carry.
_POOLS = {
    "maestro": Origin.MAESTRO,
    "synth": Origin.DESED_SYNTH,
    "synth_strong": Origin.DESED_STRONG,
    "weak": Origin.DESED_WEAK,
    "unlabeled": Origin.DESED_UNLABELED,
}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class Frontend:
    """Log-mel front-end, the FDY stem and block, and a 60-clip training step."""

    clips = 16
    stem_clips = 5
    block_clips = 1
    train_steps = 1
    hop = 160

    def generate(self, root: Path, seed: int) -> None:
        fixtures.wav_fixture(root / "wavs", seed, self.clips)
        rng = np.random.default_rng([seed, 1])
        self.seed = seed
        self.stem = fdy.random_fdy_params(rng, c_in=1, c_out=32)
        self.stem_bn = self._batchnorm(rng, 32)
        self.block = fdy.random_fdy_params(rng, c_in=16, c_out=32)
        self.block_bn = self._batchnorm(rng, 32)
        self.vocab = core.default_vocabulary()

    @staticmethod
    def _batchnorm(rng: np.random.Generator, channels: int) -> tuple[np.ndarray, ...]:
        return (rng.standard_normal(channels), rng.uniform(0.5, 2.0, channels),
                rng.uniform(0.5, 1.5, channels), rng.standard_normal(channels))

    def run_pass(self, r: Runner, root: Path, reference_pass: bool) -> None:
        feats = root / "out" / "feats"
        wavs = sorted((root / "wavs").glob("*.wav"))
        r.cli("features", "features",
              ["features", "--input", root / "wavs", "--hop", self.hop, "--out", feats, "--jobs", 1],
              [feats / f"{w.stem}.mel" for w in wavs])
        mels: dict[str, np.ndarray] = {}
        stems: list[np.ndarray] = []
        for wav in wavs[: self.stem_clips]:
            op = f"stem-{wav.stem}"
            with r.op("stem", op):
                values, _ = formats.read_features(feats / f"{wav.stem}.mel")
                x = values.T[None]
                conv = fdy.fdy_conv(x, self.stem)
                y = fdy.glu(fdy.batchnorm_infer(conv, *self.stem_bn))
            if op in r.problems:
                continue
            r.record(op, "out", y)
            mels[wav.stem] = x[0]
            if len(stems) < self.block_clips:
                stems.append(y)
            if reference_pass and wav == wavs[0]:
                self._check_fdy(r, op, x, conv, self.stem)
        for i, y in enumerate(stems):
            op = f"block-{i}"
            with r.op("block", op):
                c, f, t = y.shape
                pooled = y[:, : f // 2 * 2, : t // 2 * 2].reshape(c, f // 2, 2, t // 2, 2).mean(axis=(2, 4))
                conv = fdy.fdy_conv(pooled, self.block)
                z = fdy.glu(fdy.batchnorm_infer(conv, *self.block_bn))
            if op in r.problems:
                continue
            r.record(op, "out", z)
            if reference_pass and i == 0:
                self._check_fdy(r, op, pooled, conv, self.block)
        if len(mels) != self.stem_clips:
            return
        rng = np.random.default_rng([self.seed, 2])
        names = sorted(mels)
        pools = {pool: names[i::len(_POOLS)] for i, pool in enumerate(_POOLS)}
        student = self.block.basis_kernels
        teacher = student.copy()
        for step in range(self.train_steps):
            op = f"train-step-{step}"
            outputs = {}  # drop the last step's batch-sized arrays before the next step
            with r.op("train_step", op):
                teacher, outputs = self._train_step(rng, mels, pools, student, teacher)
            for name, value in outputs.items():
                r.record(op, name, value)

    def _train_step(self, rng, mels, pools, student, teacher):
        """One batch of the training-side transforms and masked losses."""
        _, ids = training.compose_batch(pools, training.BATCH_SIZE, rng)
        rows = [(clip, _POOLS[pool]) for pool, clips in ids.items() for clip in clips]
        metas = [ClipMetadata(clip_id=clip, origin=origin, duration=fixtures.CLIP_SECONDS)
                 for clip, origin in rows]
        batch = augment.mixup_within_dataset(np.stack([mels[clip] for clip, _ in rows]), metas, rng)
        for i in range(batch.shape[0]):
            batch[i] = augment.time_mask(batch[i], augment.DROPSTEP_RATIO, augment.DROPSTEP_COUNT, rng)
        cfg = domain_gen.MixStyleConfig()
        perm = rng.permutation(batch.shape[0])
        lam = domain_gen.sample_lambda(cfg, rng)
        styled = domain_gen.freq_mixstyle(batch, perm, lam, cfg)
        grad = domain_gen.freq_mixstyle_input_grad(batch, perm, lam, styled, cfg)
        normed = domain_gen.residual_norm(styled, 0.5)
        n = len(self.vocab)
        losses = []
        for i, meta in enumerate(metas):
            mask = core.class_mask(meta, self.vocab, MaskMode.INDEPENDENT)
            frame_logits, attn_logits = normed[i, :n].T, normed[i, n : 2 * n].T
            clip_probs = training.attention_pool(frame_logits, attn_logits, mask)
            strong = _sigmoid(frame_logits)
            target = (normed[i, 2 * n : 3 * n].T > 0).astype(np.float64)
            losses.append(training.masked_bce(strong, target, mask))
            losses.append(training.masked_bce(clip_probs[None], target.max(axis=0)[None], mask))
            losses.append(training.consistency_mse(strong, _sigmoid(batch[i, :n].T), mask))
        teacher = training.ema_update(student, teacher)
        return teacher, {"styled": styled, "grad": grad, "normed": normed,
                         "losses": np.array(losses), "teacher": teacher}

    @staticmethod
    def _check_fdy(r: Runner, op: str, x: np.ndarray, conv: np.ndarray, params) -> None:
        """The fused FDY path must equal the attention-weighted naive convolutions."""
        att = fdy.freq_attention(x, params)
        expected = sum(att[:, k][None, :, None] * fdy.conv2d_naive(x, kernel)
                       for k, kernel in enumerate(params.basis_kernels))
        err = float(np.max(np.abs(conv - expected)))
        r.check(op, err <= 1e-9 * max(1.0, float(np.max(np.abs(expected)))),
                f"fdy_conv differs from the naive oracle by {err:.3g}")


WORKLOADS = {"walkthrough": Walkthrough, "bulk": Bulk, "frontend": Frontend}
