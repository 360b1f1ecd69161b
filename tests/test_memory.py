"""Peak memory of the log-mel front-end, the FDY convolution, the
training-side transforms, the moving average and the commands that read a
posteriorgram directory.

The front-end transforms a clip in blocks of frames, so no whole-clip
spectrum is ever held: its traced peak stays within the [T, n_mels] output
plus one block's frame buffer, power spectrum and complex spectrum at the
samples' dtype and one float64 block for the mel product.  At hop 160 a
whole-clip power spectrum alone would be 7.7 float64 blocks.

Each transform allocates its output and at most two row-sized buffers
besides per-(instance, bin) statistics, so its traced peak stays within the
output's bytes plus two rows plus a small multiple of the [B, F] float64
statistics, for mixup on a transposed batch too.  Batch-sized temporaries, as in whole-family fancy-index
copies or a batch-sized product, would each add a whole output's bytes.

The FDY convolution copies the window columns of a block of frequency bins
at a time into one buffer of about ``fdy.WINDOW_BLOCK_BYTES``, so its traced
peak stays within the output, the float64 input, the padded input, that
buffer and the [F, C_out, J] mixed kernels.  On the bench's block a copy of
every window column of the layer would add 36.4 MB, 4.5 outputs.

The moving average pads float32 scores straight into one float64 array, so
its peak is that array and the output, as for float64 scores; a float64
copy of the scores padded again would add a third.

A command reads a posteriorgram directory file by file and its consumer
holds one pass of consecutive clips at a time, so its traced peak grows
with the clip count only by each clip's frame grid and its share of the
results: from 250 to 1,000 bulk-shaped clips, by a few kB a clip, where one
clip's scores are 20 kB.  A read of the whole directory first would add
those 20 kB a clip, and a float64 copy of the scores twice that.  The same
bound holds on directories whose clips all differ in length, where an open
pass per frame count would hold every clip's scores.
"""

import contextlib
import io
import tracemalloc
import warnings

import numpy as np
import pytest

from hetsed import augment, cli, domain_gen, fdy, features, formats, postprocess
from hetsed.core import ClipMetadata, Origin, Posteriorgram

B, F, T = 24, 64, 300
# float64 [B, F] arrays allowed for the statistics and the buffers of the
# float64 reductions over a float32 batch
STAT_ARRAYS = 16
ORIGINS = [Origin.MAESTRO if i == 5 else (Origin.DESED_WEAK, Origin.DESED_SYNTH)[i % 2] for i in range(B)]


def _inputs(dtype, layout):
    rng = np.random.default_rng(21)
    batch = (rng.normal(scale=2.5, size=(B, F, T)) + rng.normal(-4.0, 3.0, size=(B, F, 1))).astype(dtype)
    if layout == "stacked_transposed":  # [T, F] clips stacked as [F, T], as callers of read_features make
        batch = np.ascontiguousarray(batch.transpose(0, 2, 1)).transpose(0, 2, 1)
    return batch, rng.permutation(B), rng.normal(size=(B, F, T)).astype(dtype)


TRANSFORMS = {
    "mixup_within_dataset": lambda x, perm, up: augment.mixup_within_dataset(
        x, [ClipMetadata(f"c{i}", o, 10.0) for i, o in enumerate(ORIGINS)], np.random.default_rng(3)),
    "freq_mixstyle_input_grad": lambda x, perm, up: domain_gen.freq_mixstyle_input_grad(x, perm, 0.37, up),
    "residual_norm": lambda x, perm, up: domain_gen.residual_norm(x, 0.5),
}


CASES = [(name, "c_order") for name in sorted(TRANSFORMS)] + [("mixup_within_dataset", "stacked_transposed")]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name, layout", CASES)
def test_peak_is_the_output_plus_two_rows_and_statistics(name, layout, dtype):
    args = _inputs(dtype, layout)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = TRANSFORMS[name](*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.shape == (B, F, T) and out.dtype == dtype
    bound = out.nbytes + 2 * out[0].nbytes + STAT_ARRAYS * B * F * 8
    assert peak <= bound, f"{name}: peak {peak} B > bound {bound} B"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_log_mel_peak_is_the_output_plus_a_few_blocks(dtype):
    clip = features.AudioClip(np.random.default_rng(22).normal(scale=0.1, size=160000).astype(dtype), 16000, "c")
    features.extract_log_mel(clip, hop=160)  # builds the cached filterbank
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = features.extract_log_mel(clip, hop=160)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.values.shape == (988, 128)
    rows, bins, item = 128, features.WINDOW_SIZE // 2 + 1, np.dtype(dtype).itemsize
    # frame buffer, power, complex spectrum (scipy's rfft has no out=), the
    # float64 operand of the mel product, and the window
    blocks = rows * features.WINDOW_SIZE * item + rows * bins * 3 * item + rows * bins * 8
    bound = out.values.nbytes + blocks + 2 * features.WINDOW_SIZE * 8
    assert peak <= bound, f"{np.dtype(dtype).name}: peak {peak} B > bound {bound} B"


@pytest.mark.parametrize("layer", ["stem", "block"])
def test_fdy_conv_peak_is_the_output_input_padding_and_one_block(layer):
    # the bench's stem (a transposed float32 [T, F] map) and block shapes
    rng = np.random.default_rng(23)
    if layer == "stem":
        x = rng.normal(size=(988, 128)).astype(np.float32).T[None]
    else:
        x = rng.normal(size=(16, 64, 494))
    c_in, f, t = x.shape
    params = fdy.random_fdy_params(rng, c_in=c_in, c_out=32)
    n_k, c_out, _, k_f, k_t = params.basis_kernels.shape
    fdy.fdy_conv(x, params)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fdy.fdy_conv(x, params)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.shape == (c_out, f, t)
    column = c_in * k_f * k_t * t * 8  # one bin's window columns
    buffer = max(fdy.WINDOW_BLOCK_BYTES, column)
    padded = c_in * (f + k_f - 1) * (t + k_t - 1) * 8
    mixed = f * c_out * c_in * k_f * k_t * 8
    attention = 8 * f * (n_k + params.attn_weight.shape[1]) * 8  # descriptor, logits and softmax rows
    bound = out.nbytes + x.size * 8 + padded + buffer + mixed + attention
    assert peak <= bound, f"{layer}: peak {peak} B > bound {bound} B"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_moving_average_peak_is_the_padded_tracks_and_the_output(dtype):
    # float32 scores are widened as they are padded, with no float64 copy of them first
    scores = np.random.default_rng(25).uniform(size=(500, 2000)).astype(dtype)
    window = 7
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = postprocess.moving_average(scores, window)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    padded = (scores.shape[0] + window - 1) * scores.shape[1] * 8
    bound = padded + out.nbytes + 65536  # and the edge rows and array headers
    assert peak <= bound, f"{np.dtype(dtype).name}: peak {peak} B > bound {bound} B"


BULK_CLASSES = ["Alarm_bell_ringing", "Blender", "Cat", "Dishes", "Dog", "Electric_shaver_toothbrush", "Frying",
                "Running_water", "Speech", "Vacuum_cleaner"]
# Bytes a command may hold per clip of a directory besides one pass: the
# clip's frames, kept by the reader and by its consumer, and its share of
# what the command computes (events or boxes, segment rows, their text).
# 0.9-2.6 kB measured; one clip's scores are 20 kB.
CLIP_BYTES = 4096
# tune-csebb also holds the distinct boxes of every candidate, in 32-bit
# columns with each candidate's range of them, and the PSDS sweep over one
# candidate's boxes, which grow with the clips: 11.2 kB a clip measured on
# the bulk directories (6.2 kB on the length directories).  Keeping every
# segment for one merge once the clips end measured 13.8 kB, and holding
# the directory's scores would add 20 kB a clip.
TUNE_CLIP_BYTES = 12288

COMMANDS = {
    "postprocess-frame": (["postprocess", "--method", "frame", "--in", "{posts}", "--out", "{out}"], CLIP_BYTES),
    "postprocess-median": (["postprocess", "--method", "median", "--in", "{posts}", "--out", "{out}"], CLIP_BYTES),
    "postprocess-csebb": (["postprocess", "--method", "csebb", "--in", "{posts}", "--out", "{out}"], CLIP_BYTES),
    "tune-csebb": (["tune-csebb", "--val-posteriors", "{posts}", "--val-refs", "{refs}", "--out", "{out}"],
                   TUNE_CLIP_BYTES),
    "eval-mpauc": (["eval", "mpauc", "--posteriors", "{posts}", "--refs", "{refs}"], CLIP_BYTES),
}


@pytest.fixture(scope="module")
def bulk_directories(tmp_path_factory):
    """Bulk-shaped synthetic directories of 250 and 1,000 clips: 10 s at
    20 ms frames, 10 classes, blurred, dipped and noisy scores."""
    root = tmp_path_factory.mktemp("bulk")
    (root / "classes.txt").write_text("\n".join(BULK_CLASSES) + "\n")
    for clips in (250, 1000):
        assert _quiet(["synth", "--seed", "5", "--clips", str(clips), "--classes", str(root / "classes.txt"),
                       "--out", str(root / str(clips)), "--frame-period", "0.02", "--blur", "3",
                       "--noise", "0.05", "--dip-prob", "1.0"]) == 0
    return root


def _quiet(argv):
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        return cli.main(argv)


@pytest.fixture(scope="module")
def length_directories(tmp_path_factory):
    """Directories of 250 and 1,000 clips whose frame counts all differ:
    clip i has 500 + i frames of 20 ms and 10 classes, a faint noise floor
    and one event, which the refs list."""
    root = tmp_path_factory.mktemp("lengths")
    rng = np.random.default_rng(6)
    for clips in (250, 1000):
        (root / str(clips) / "posteriors").mkdir(parents=True)
        refs = ["filename\tonset\toffset\tevent_label"]
        for i in range(clips):
            scores = rng.uniform(0.0, 0.05, size=(500 + i, len(BULK_CLASSES))).astype(np.float32)
            onset, name = 100 + i % 50, BULK_CLASSES[i % len(BULK_CLASSES)]
            scores[onset : onset + 100, i % len(BULK_CLASSES)] += 0.8
            post = Posteriorgram(scores, 0.02, f"clip_{i:04d}")
            formats.write_posteriorgram(root / str(clips) / "posteriors" / f"{post.clip_id}.sedp", post,
                                        BULK_CLASSES)
            refs.append(f"{post.clip_id}\t{onset * 0.02:.2f}\t{(onset + 100) * 0.02:.2f}\t{name}")
        (root / str(clips) / "refs.tsv").write_text("\n".join(refs) + "\n")
    return root


def _assert_peak_grows_by_clip_bytes(root, command):
    """Run ``command`` on the 250- and 1,000-clip directories under
    ``root`` and bound its traced peak at 1,000 clips by the peak at 250
    plus the command's bytes per added clip."""
    argv, clip_bytes = COMMANDS[command]
    peaks = {}
    for clips in (250, 1000):
        data = root / str(clips)
        filled = [arg.format(posts=data / "posteriors", refs=data / "refs.tsv", out=data / f"{command}.tsv")
                  for arg in argv]
        if clips == 250:
            assert _quiet(filled) == 0  # warms the parser and the caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert _quiet(filled) == 0
            peaks[clips] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    bound = peaks[250] + clip_bytes * 750
    assert peaks[1000] <= bound, f"{command}: peak {peaks[1000]} B at 1,000 clips > bound {bound} B"


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_command_holds_one_pass_not_the_directory(bulk_directories, command):
    _assert_peak_grows_by_clip_bytes(bulk_directories, command)


@pytest.mark.parametrize("command", ["postprocess-csebb", "postprocess-frame", "postprocess-median", "tune-csebb"])
def test_a_command_holds_one_pass_whatever_its_clips_lengths(length_directories, command):
    _assert_peak_grows_by_clip_bytes(length_directories, command)
