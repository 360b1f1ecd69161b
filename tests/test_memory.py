"""Peak memory of the log-mel front-end, the FDY convolution and the
training-side transforms.

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
"""

import tracemalloc

import numpy as np
import pytest

from hetsed import augment, domain_gen, fdy, features
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
