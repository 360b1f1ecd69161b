"""Frequency-dynamic convolution forward pass with a naive oracle.

A bank of K basis kernels is combined per frequency bin by input-conditioned
attention weights, so the effective 2D kernel varies along the frequency
axis.  ``conv2d_naive`` is the plain cross-correlation reference the dynamic
path is tested against; ``fdy_conv`` mixes one kernel per frequency bin and
correlates each bin with it in one batched matmul.  GLU and inference-time
batch norm round out the block; each allocates its output once and runs its
elementwise chain one channel at a time, while the channel is still in L2,
with every element taking the same operations, and so the same bits, as the
whole-array chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_NUM_KERNELS = 4
DEFAULT_TEMPERATURE = 31.0


@dataclass(frozen=True, eq=False)
class FdyParams:
    """Basis kernels plus the small attention head that mixes them.

    basis_kernels: [K, C_out, C_in, k_f, k_t], odd spatial dims (same padding).
    attn_weight:   [K, w] 1-D convolution along frequency (w odd).
    attn_bias:     [K].
    """

    basis_kernels: np.ndarray
    attn_weight: np.ndarray
    attn_bias: np.ndarray
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self) -> None:
        kernels = np.asarray(self.basis_kernels, dtype=np.float64)
        object.__setattr__(self, "basis_kernels", kernels)
        object.__setattr__(self, "attn_weight", np.asarray(self.attn_weight, dtype=np.float64))
        object.__setattr__(self, "attn_bias", np.asarray(self.attn_bias, dtype=np.float64))
        if kernels.ndim != 5 or kernels.shape[0] < 1:
            raise ValueError(f"basis_kernels must be [K>=1, C_out, C_in, k_f, k_t], got {kernels.shape}")
        if kernels.shape[3] % 2 == 0 or kernels.shape[4] % 2 == 0:
            raise ValueError(f"kernel dims must be odd for same padding, got {kernels.shape[3:]}")
        k = kernels.shape[0]
        if self.attn_weight.ndim != 2 or self.attn_weight.shape[0] != k:
            raise ValueError(f"attn_weight must be [K={k}, w], got {self.attn_weight.shape}")
        if self.attn_weight.shape[1] % 2 == 0:
            raise ValueError("attention kernel width must be odd")
        if self.attn_bias.shape != (k,):
            raise ValueError(f"attn_bias must be [K={k}], got {self.attn_bias.shape}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")

    @property
    def num_kernels(self) -> int:
        return self.basis_kernels.shape[0]


def _check_input(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected [C_in, F, T] input, got shape {x.shape}")
    return x


def conv2d_naive(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Direct cross-correlation with zero same-padding (reference path).

    Quadruple loop over (c_out, c_in, df, dt); intentionally unfused and
    sequential so it can serve as the oracle for the dynamic convolution.
    """
    x = _check_input(x)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 4:
        raise ValueError(f"expected [C_out, C_in, k_f, k_t] kernel, got shape {kernel.shape}")
    c_out, c_in, k_f, k_t = kernel.shape
    if c_in != x.shape[0]:
        raise ValueError(f"kernel expects {c_in} input channels, input has {x.shape[0]}")
    if k_f % 2 == 0 or k_t % 2 == 0:
        raise ValueError(f"kernel dims must be odd, got ({k_f}, {k_t})")
    _, f, t = x.shape
    pf, pt = k_f // 2, k_t // 2
    padded = np.zeros((c_in, f + 2 * pf, t + 2 * pt))
    padded[:, pf : pf + f, pt : pt + t] = x
    out = np.zeros((c_out, f, t))
    for co in range(c_out):
        for ci in range(c_in):
            for df in range(k_f):
                for dt in range(k_t):
                    out[co] += kernel[co, ci, df, dt] * padded[ci, df : df + f, dt : dt + t]
    return out


def freq_attention(x: np.ndarray, params: FdyParams) -> np.ndarray:
    """Per-frequency attention over the K basis kernels, rows sum to 1.

    The input is average-pooled over channels and time into a per-frequency
    descriptor, run through a 1-D convolution along frequency (zero padding),
    and softmaxed over K after temperature scaling.
    """
    x = _check_input(x)
    descriptor = x.mean(axis=(0, 2))  # [F]
    w = params.attn_weight.shape[1]
    padded = np.pad(descriptor, w // 2)
    windows = np.lib.stride_tricks.sliding_window_view(padded, w)  # [F, w]
    logits = windows @ params.attn_weight.T + params.attn_bias  # [F, K]
    scaled = logits / params.temperature
    scaled -= scaled.max(axis=1, keepdims=True)
    e = np.exp(scaled)
    return e / e.sum(axis=1, keepdims=True)


def fdy_conv(x: np.ndarray, params: FdyParams) -> np.ndarray:
    """Frequency-dynamic convolution: attention-mixed basis kernels per bin.

    Equals sum_k attention[f, k] * conv2d_naive(x, basis_k) restricted to
    frequency f.  The attention depends on frequency only, so each bin's
    kernel is mixed once, [F, C_out, C_in*k_f*k_t], and correlated with that
    bin's same-padded window columns, [F, C_in*k_f*k_t, T], in one batched
    matmul: K times fewer multiply-adds than correlating with every basis
    kernel and mixing afterwards.
    """
    x = _check_input(x)
    kernels = params.basis_kernels
    n_k, c_out, c_in, k_f, k_t = kernels.shape
    if c_in != x.shape[0]:
        raise ValueError(f"kernels expect {c_in} input channels, input has {x.shape[0]}")
    att = freq_attention(x, params)  # [F, K]
    _, f, t = x.shape
    pf, pt = k_f // 2, k_t // 2
    padded = np.zeros((c_in, f + 2 * pf, t + 2 * pt))
    padded[:, pf : pf + f, pt : pt + t] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k_f, k_t), axis=(1, 2))
    cols = windows.transpose(1, 0, 3, 4, 2).reshape(f, c_in * k_f * k_t, t)  # [F, J, T], J = C_in*k_f*k_t
    mixed = np.einsum("fk,koj->foj", att, kernels.reshape(n_k, c_out, -1))  # [F, C_out, J]
    out = np.empty((c_out, f, t))
    np.matmul(mixed, cols, out=out.transpose(1, 0, 2))
    return out


def glu(x: np.ndarray) -> np.ndarray:
    """Gated linear unit over the channel axis: a * sigmoid(b).

    sigmoid(b) is taken as 0.5 * (1 + tanh(b / 2)), which cannot overflow.
    The chain runs one output channel at a time, while it is in L2.
    """
    x = _check_input(x)
    if x.shape[0] % 2 != 0:
        raise ValueError(f"GLU needs an even channel count, got {x.shape[0]}")
    half = x.shape[0] // 2
    out = np.empty((half,) + x.shape[1:])
    for c, o in enumerate(out):
        np.multiply(x[half + c], 0.5, out=o)
        np.tanh(o, out=o)
        o += 1.0
        o *= 0.5
        o *= x[c]
    return out


def batchnorm_infer(
    x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Inference-time batch normalization with per-channel statistics.

    Each channel is scaled and shifted in place in the output, one channel
    at a time.  Every statistic and ``eps`` must be finite, and ``var + eps``
    must be > 0 in every channel.
    """
    x = _check_input(x)
    mean, var = np.asarray(mean, dtype=np.float64), np.asarray(var, dtype=np.float64)
    gamma, beta = np.asarray(gamma, dtype=np.float64), np.asarray(beta, dtype=np.float64)
    c = x.shape[0]
    for name, arr in (("mean", mean), ("var", var), ("gamma", gamma), ("beta", beta)):
        if arr.shape != (c,):
            raise ValueError(f"{name} must have shape ({c},), got {arr.shape}")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ValueError(f"{name} must be finite, got {arr[bad[0]]} in channel {bad[0]}")
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    bad = np.flatnonzero(~(var + eps > 0.0))
    if bad.size:
        raise ValueError(f"var + eps must be > 0, got {var[bad[0]] + eps} in channel {bad[0]}")
    scale = gamma / np.sqrt(var + eps)
    shift = beta - scale * mean
    out = np.empty(x.shape)
    for o, channel, a, b in zip(out, x, scale.tolist(), shift.tolist()):
        np.multiply(channel, a, out=o)
        o += b
    return out


def random_fdy_params(
    rng: np.random.Generator,
    c_in: int,
    c_out: int,
    num_kernels: int = DEFAULT_NUM_KERNELS,
    kernel_shape: tuple[int, int] = (3, 3),
    attn_width: int = 3,
    temperature: float = DEFAULT_TEMPERATURE,
) -> FdyParams:
    """Randomly seeded parameters for tests and demos."""
    k_f, k_t = kernel_shape
    return FdyParams(
        basis_kernels=rng.standard_normal((num_kernels, c_out, c_in, k_f, k_t)),
        attn_weight=rng.standard_normal((num_kernels, attn_width)),
        attn_bias=rng.standard_normal(num_kernels),
        temperature=temperature,
    )
