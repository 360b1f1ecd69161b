import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsed.fdy import (
    FdyParams,
    batchnorm_infer,
    conv2d_naive,
    fdy_conv,
    freq_attention,
    glu,
    random_fdy_params,
)

from oracles import frozen_batchnorm_infer, frozen_glu


def test_conv_naive_delta_kernel_is_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 6, 8))
    kernel = np.zeros((3, 3, 3, 3))
    for c in range(3):
        kernel[c, c, 1, 1] = 1.0
    assert np.allclose(conv2d_naive(x, kernel), x)


def test_conv_naive_box_kernel_on_constant():
    x = np.full((1, 6, 6), 2.0)
    kernel = np.ones((1, 1, 3, 3))
    out = conv2d_naive(x, kernel)
    assert np.allclose(out[0, 1:-1, 1:-1], 18.0)  # 9 cells * 2
    assert np.allclose(out[0, 0, 0], 8.0)  # corner sees 4 cells


def test_conv_naive_linear_in_input():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 5, 7))
    kernel = rng.normal(size=(3, 2, 3, 3))
    assert np.allclose(conv2d_naive(2.5 * x, kernel), 2.5 * conv2d_naive(x, kernel))


def test_conv_naive_rejects_even_kernel():
    with pytest.raises(ValueError):
        conv2d_naive(np.zeros((1, 4, 4)), np.zeros((1, 1, 2, 3)))


def test_freq_attention_rows_are_probabilities():
    rng = np.random.default_rng(2)
    params = random_fdy_params(rng, c_in=2, c_out=3)
    x = rng.normal(size=(2, 10, 12))
    att = freq_attention(x, params)
    assert att.shape == (10, params.num_kernels)
    assert np.allclose(att.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(att >= 0.0)


def test_freq_attention_equal_logits_uniform():
    rng = np.random.default_rng(3)
    params = FdyParams(
        basis_kernels=rng.normal(size=(4, 1, 1, 3, 3)),
        attn_weight=np.zeros((4, 3)),
        attn_bias=np.full(4, 1.7),  # equal logits regardless of input
        temperature=31.0,
    )
    att = freq_attention(rng.normal(size=(1, 8, 5)), params)
    assert np.allclose(att, 0.25)


def test_freq_attention_low_temperature_approaches_one_hot():
    rng = np.random.default_rng(4)
    params = FdyParams(
        basis_kernels=rng.normal(size=(3, 1, 1, 3, 3)),
        attn_weight=np.zeros((3, 3)),
        attn_bias=np.array([0.5, 2.0, -1.0]),
        temperature=1e-4,
    )
    att = freq_attention(rng.normal(size=(1, 6, 5)), params)
    expected = np.zeros(3)
    expected[1] = 1.0
    assert np.allclose(att, expected, atol=1e-12)


def test_fdy_single_basis_equals_plain_convolution():
    rng = np.random.default_rng(5)
    params = random_fdy_params(rng, c_in=2, c_out=3, num_kernels=1)
    x = rng.normal(size=(2, 8, 10))
    assert np.allclose(fdy_conv(x, params), conv2d_naive(x, params.basis_kernels[0]), atol=1e-7)


def test_fdy_one_hot_attention_selects_kernel():
    rng = np.random.default_rng(6)
    k = 3
    params = FdyParams(
        basis_kernels=rng.normal(size=(k, 2, 2, 3, 3)),
        attn_weight=np.zeros((k, 3)),
        attn_bias=np.array([0.0, 50.0, 0.0]),
        temperature=1e-3,  # hard selection of kernel 1 at every bin
    )
    x = rng.normal(size=(2, 6, 7))
    assert np.allclose(fdy_conv(x, params), conv2d_naive(x, params.basis_kernels[1]), atol=1e-9)


def test_fdy_matches_definitional_sum():
    # oracle: sum_k att[f, k] * naive_conv_k, evaluated per frequency row
    rng = np.random.default_rng(7)
    for _ in range(10):
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        params = random_fdy_params(rng, c_in=c_in, c_out=c_out, num_kernels=4)
        x = rng.normal(size=(c_in, int(rng.integers(4, 16)), int(rng.integers(4, 32))))
        att = freq_attention(x, params)
        per_kernel = np.stack([conv2d_naive(x, params.basis_kernels[k]) for k in range(4)])
        expected = np.einsum("fk,koft->oft", att, per_kernel)
        assert np.max(np.abs(fdy_conv(x, params) - expected)) < 1e-6


@settings(max_examples=150, deadline=None)
@given(
    c_in=st.integers(1, 4),
    c_out=st.integers(1, 3),
    num_kernels=st.integers(1, 4),
    kernel_shape=st.sampled_from([(1, 1), (3, 1), (1, 3), (3, 5), (5, 3)]),
    f=st.integers(1, 9),
    t=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_fdy_equals_attention_weighted_naive_convolutions(c_in, c_out, num_kernels, kernel_shape, f, t, seed):
    # F and T run below the kernel size too, where same padding covers whole windows
    rng = np.random.default_rng(seed)
    params = random_fdy_params(rng, c_in=c_in, c_out=c_out, num_kernels=num_kernels, kernel_shape=kernel_shape)
    x = rng.normal(size=(c_in, f, t))
    att = freq_attention(x, params)
    expected = sum(att[:, k][None, :, None] * conv2d_naive(x, kernel) for k, kernel in enumerate(params.basis_kernels))
    got = fdy_conv(x, params)
    assert got.shape == (c_out, f, t)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


def test_fdy_linear_in_input_for_fixed_attention():
    rng = np.random.default_rng(8)
    params = random_fdy_params(rng, c_in=2, c_out=2)
    x = rng.normal(size=(2, 6, 6))
    att = freq_attention(x, params)
    per_kernel = np.stack([conv2d_naive(x, k) for k in params.basis_kernels])
    mixed = np.einsum("fk,koft->oft", att, per_kernel)
    per_kernel2 = np.stack([conv2d_naive(3.0 * x, k) for k in params.basis_kernels])
    mixed2 = np.einsum("fk,koft->oft", att, per_kernel2)
    assert np.allclose(mixed2, 3.0 * mixed)


def test_glu_cases():
    a = np.random.default_rng(9).normal(size=(2, 4, 5))
    zeros = np.zeros_like(a)
    out = glu(np.concatenate([a, zeros]))
    assert np.allclose(out, 0.5 * a)  # sigmoid(0) = 1/2
    big = np.full_like(a, 50.0)
    assert np.allclose(glu(np.concatenate([a, big])), a, atol=1e-12)
    assert np.allclose(glu(np.concatenate([zeros, a])), 0.0)


def test_glu_saturates_without_floating_point_errors():
    a = np.random.default_rng(12).normal(size=(2, 3, 4))
    gate = np.full_like(a, 800.0)
    with np.errstate(all="raise"):
        assert np.array_equal(glu(np.concatenate([a, gate])), a)
        assert np.array_equal(glu(np.concatenate([a, -gate])), np.zeros_like(a))


def test_glu_magnitude_bound_and_odd_channels():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(6, 3, 4))
    out = glu(x)
    assert np.all(np.abs(out) <= np.abs(x[:3]) + 1e-15)
    with pytest.raises(ValueError):
        glu(x[:5])


def test_batchnorm_infer():
    x = np.full((1, 1, 1), 2.0)
    out = batchnorm_infer(x, np.array([1.0]), np.array([1.0]), np.array([2.0]), np.array([1.0]), eps=0.0)
    assert np.allclose(out, 3.0)

    rng = np.random.default_rng(11)
    y = rng.normal(size=(3, 4, 5))
    near_id = batchnorm_infer(y, np.zeros(3), np.ones(3), np.ones(3), np.zeros(3))
    assert np.allclose(near_id, y, atol=1e-4)
    collapsed = batchnorm_infer(y, np.zeros(3), np.ones(3), np.zeros(3), np.full(3, 0.7))
    assert np.allclose(collapsed, 0.7)


def _channel_inputs(layout, dtype):
    # a bench-sized channel (128 x 988), a T off every SIMD width, and a
    # transposed and a strided input; values up to |x| = 60 saturate tanh
    rng = np.random.default_rng(13)
    shape = {"bench": (4, 128, 988), "odd": (6, 5, 37), "transposed": (4, 9, 31), "strided": (4, 9, 62)}[layout]
    x = rng.normal(scale=rng.choice([0.1, 3.0, 60.0], size=shape[:1])[:, None, None], size=shape).astype(dtype)
    if layout == "transposed":
        x = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
    elif layout == "strided":
        x = x[:, :, ::2]
    assert x.flags.c_contiguous == (layout in ("bench", "odd"))
    return x


LAYOUTS = ["bench", "odd", "transposed", "strided"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_glu_gives_the_bytes_of_the_whole_array_chain(layout, dtype):
    x = _channel_inputs(layout, dtype)
    out = glu(x)
    ref = frozen_glu(x)
    assert out.dtype == np.float64 and out.shape == ref.shape and out.flags.c_contiguous
    assert out.tobytes() == np.ascontiguousarray(ref).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_batchnorm_infer_gives_the_bytes_of_the_whole_array_product(layout, dtype):
    x = _channel_inputs(layout, dtype)
    rng = np.random.default_rng(14)
    c = x.shape[0]
    stats = (rng.standard_normal(c), rng.uniform(0.5, 2.0, c), rng.uniform(0.5, 1.5, c), rng.standard_normal(c))
    for eps in (1e-5, 0.0):
        out = batchnorm_infer(x, *stats, eps=eps)
        ref = frozen_batchnorm_infer(x, *stats, eps=eps)
        assert out.dtype == np.float64 and out.shape == ref.shape and out.flags.c_contiguous
        assert out.tobytes() == np.ascontiguousarray(ref).tobytes()


@pytest.mark.parametrize(
    "field, value, eps, name",
    [
        ("var", -1.0, 1e-5, "var"),
        ("var", 0.0, 0.0, "var"),
        ("var", -1e-5, 1e-5, "var"),
        ("var", np.nan, 1e-5, "var"),
        ("var", np.inf, 1e-5, "var"),
        ("mean", np.nan, 1e-5, "mean"),
        ("mean", -np.inf, 1e-5, "mean"),
        ("gamma", np.nan, 1e-5, "gamma"),
        ("beta", np.inf, 1e-5, "beta"),
        ("var", 1.0, np.nan, "eps"),
        ("var", 1.0, np.inf, "eps"),
    ],
)
def test_batchnorm_infer_refuses_statistics_it_cannot_normalize_by(field, value, eps, name):
    x = np.random.default_rng(15).normal(size=(3, 4, 5))
    stats = {"mean": np.zeros(3), "var": np.ones(3), "gamma": np.ones(3), "beta": np.zeros(3)}
    stats[field][1] = value
    with np.errstate(all="raise"), pytest.raises(ValueError, match=name):
        batchnorm_infer(x, **stats, eps=eps)


def test_params_validation():
    with pytest.raises(ValueError):
        FdyParams(np.zeros((2, 1, 1, 2, 3)), np.zeros((2, 3)), np.zeros(2))  # even k_f
    with pytest.raises(ValueError):
        FdyParams(np.zeros((2, 1, 1, 3, 3)), np.zeros((3, 3)), np.zeros(2))  # K mismatch
    with pytest.raises(ValueError):
        FdyParams(np.zeros((2, 1, 1, 3, 3)), np.zeros((2, 3)), np.zeros(2), temperature=0.0)
