"""Peak memory of the log-mel front-end and the training-side transforms.

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
"""

import tracemalloc

import numpy as np
import pytest

from hetsed import augment, domain_gen, features
from hetsed.core import ClipMetadata, Origin

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
