import numpy as np
import pytest

from hetsed.domain_gen import (
    MixStyleConfig,
    freq_mixstyle,
    freq_mixstyle_input_grad,
    residual_norm,
    sample_lambda,
)
# the gradient oracle freezes the partner statistics at the unperturbed
# batch: the analytic gradient stop-gradients them, so the finite
# differences must differentiate the same function
from oracles import freq_mean_std, mixstyle_forward
from oracles import mixstyle_numerical_grad as _numerical_grad

CFG = MixStyleConfig()


def test_residual_norm_standardises_with_the_population_std():
    batch = np.array([[[0.0, 2.0]]])  # B=1, F=1, T=2: mean 1, population std 1
    assert residual_norm(batch, 0.0).tolist() == [[[-1.0, 1.0]]]


def test_transforms_clamp_the_std():
    # bin 0 is constant, bin 1 has std 1e-6, under the 1e-5 clamp
    batch = np.array([[[4.2, 4.2], [0.0, 2e-6]], [[0.0, 2.0], [0.0, 2.0]]])
    normed = residual_norm(batch, 0.0)
    assert normed[0, 0].tolist() == [0.0, 0.0]
    assert np.allclose(normed[0, 1], [-0.1, 0.1], rtol=1e-12, atol=0.0)
    styled = freq_mixstyle(batch, np.array([1, 0]), 0.5)
    sig_mix = 0.5 * 1e-5 + 0.5 * 1.0  # the partner's std blended with the clamp
    assert np.allclose(styled[0, 0], [0.5 * (4.2 + 1.0)] * 2, rtol=1e-12, atol=0.0)
    assert np.allclose(styled[0, 1], 0.5 * (1e-6 + 1.0) + np.array([-1e-6, 1e-6]) * sig_mix / 1e-5,
                       rtol=1e-9, atol=0.0)
    assert np.allclose(styled[1, 0], 0.5 * (1.0 + 4.2) + np.array([-1.0, 1.0]) * sig_mix, rtol=1e-12, atol=0.0)


def test_transforms_commute_with_a_time_permutation():
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(2, 4, 16))
    order = rng.permutation(16)
    perm = np.array([1, 0])
    assert np.allclose(freq_mixstyle(batch[:, :, order], perm, 0.3), freq_mixstyle(batch, perm, 0.3)[:, :, order])
    assert np.allclose(residual_norm(batch[:, :, order], 0.4), residual_norm(batch, 0.4)[:, :, order])


def test_transforms_require_two_time_steps():
    batch = np.zeros((1, 2, 1))
    for transform in (lambda b: freq_mixstyle(b, [0], 0.5), lambda b: freq_mixstyle_input_grad(b, [0], 0.5, b),
                      lambda b: residual_norm(b, 0.5)):
        with pytest.raises(ValueError, match=r"need T >= 2 time steps, got 1"):
            transform(batch)


def test_sample_lambda_deterministic_given_seed():
    a = sample_lambda(CFG, np.random.default_rng(11))
    b = sample_lambda(CFG, np.random.default_rng(11))
    assert a == b
    assert 0.0 <= a <= 1.0


def test_sample_lambda_beta_symmetry_monte_carlo():
    # Beta(alpha, alpha) has mean 1/2 for any alpha
    rng = np.random.default_rng(1)
    draws = [sample_lambda(CFG, rng) for _ in range(100_000)]
    assert abs(np.mean(draws) - 0.5) < 0.01


def test_sample_lambda_concentrates_for_large_alpha():
    rng = np.random.default_rng(2)
    cfg = MixStyleConfig(alpha=1e4)
    draws = [sample_lambda(cfg, rng) for _ in range(100_000)]
    assert abs(np.mean(draws) - 0.5) < 0.01
    assert np.std(draws) < 0.01


def test_freq_mixstyle_lambda_one_is_bitwise_identity():
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(4, 5, 7))
    out = freq_mixstyle(batch, rng.permutation(4), 1.0)
    assert out.tobytes() == batch.tobytes()


def test_freq_mixstyle_hand_case():
    batch = np.array([[[0.0, 2.0]], [[4.0, 6.0]]])  # two instances, F=1, T=2
    out = freq_mixstyle(batch, np.array([1, 0]), 0.5)
    # mu_mix = 3, sig_mix = 1 for instance 0
    assert np.allclose(out[0, 0], [2.0, 4.0])
    assert np.allclose(out[1, 0], [2.0, 4.0])


def test_freq_mixstyle_identity_permutation_fixed_point():
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(3, 4, 9))
    for lam in (0.0, 0.3, 0.8):
        out = freq_mixstyle(batch, np.arange(3), lam)
        assert np.allclose(out, batch, atol=1e-12)


def test_freq_mixstyle_output_statistics_match_mixture():
    rng = np.random.default_rng(5)
    batch = rng.normal(loc=2.0, scale=3.0, size=(6, 8, 32))
    perm = rng.permutation(6)
    lam = 0.37
    out = freq_mixstyle(batch, perm, lam)
    mean, std = freq_mean_std(batch)
    mu_mix = lam * mean + (1 - lam) * mean[perm]
    sig_mix = lam * std + (1 - lam) * std[perm]
    out_mean, out_std = freq_mean_std(out)
    assert np.all(np.abs(out_mean - mu_mix) <= 1e-5 * (1 + np.abs(mu_mix)))
    assert np.all(np.abs(out_std - sig_mix) <= 1e-5 * (1 + np.abs(sig_mix)))


def test_freq_mixstyle_lambda_zero_carries_partner_statistics():
    rng = np.random.default_rng(6)
    batch = rng.normal(size=(4, 3, 20))
    perm = np.array([1, 0, 3, 2])
    out = freq_mixstyle(batch, perm, 0.0)
    mean, std = freq_mean_std(batch)
    out_mean, out_std = freq_mean_std(out)
    assert np.allclose(out_mean, mean[perm], atol=1e-9)
    assert np.allclose(out_std, std[perm], atol=1e-9)


def test_freq_mixstyle_continuous_in_lambda():
    rng = np.random.default_rng(7)
    batch = rng.normal(size=(2, 3, 5))
    perm = np.array([1, 0])
    lams = np.linspace(0, 1, 21)
    outs = np.stack([freq_mixstyle(batch, perm, float(l)) for l in lams])
    steps = np.abs(np.diff(outs, axis=0)).max()
    assert steps < 1.0  # no jumps between adjacent lambda steps


def test_freq_mixstyle_rejects_bad_perm():
    with pytest.raises(ValueError, match="permutation"):
        freq_mixstyle(np.zeros((2, 2, 4)), np.array([0, 0]), 0.5)


def test_oracle_forward_equals_freq_mixstyle_at_the_base_point():
    # the gradient oracle differentiates its own forward; at the unperturbed
    # batch, whose statistics it freezes, that forward is freq_mixstyle's
    rng = np.random.default_rng(20)
    for shape in ((3, 4, 6), (2, 3, 5), (5, 2, 40)):
        batch = rng.normal(size=shape) * rng.uniform(0.1, 5.0, size=shape[:2] + (1,))
        batch[0, 1] = 4.2  # a constant bin, whose std sits on the clamp
        perm = rng.permutation(shape[0])
        mean, std = freq_mean_std(batch)
        std = np.maximum(std, CFG.epsilon)
        for lam in (0.0, 0.3, 0.95):
            want = freq_mixstyle(batch, perm, lam)
            got = mixstyle_forward(batch, perm, lam, mean, std)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_gradient_lambda_one_is_upstream_bitwise():
    rng = np.random.default_rng(8)
    batch = rng.normal(size=(2, 3, 5))
    upstream = rng.normal(size=(2, 3, 5))
    grad = freq_mixstyle_input_grad(batch, np.array([1, 0]), 1.0, upstream)
    assert grad.tobytes() == upstream.tobytes()


def test_gradient_zero_upstream_is_zero():
    rng = np.random.default_rng(9)
    batch = rng.normal(size=(2, 3, 5))
    grad = freq_mixstyle_input_grad(batch, np.array([1, 0]), 0.4, np.zeros_like(batch))
    assert np.all(grad == 0.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(20):
        batch = rng.normal(size=(2, 3, 5))
        upstream = rng.normal(size=(2, 3, 5))
        perm = rng.permutation(2)
        lam = float(rng.uniform(0, 0.95))
        analytic = freq_mixstyle_input_grad(batch, perm, lam, upstream)
        numeric = _numerical_grad(batch, perm, lam, upstream)
        rel = np.max(np.abs(numeric - analytic)) / max(np.max(np.abs(analytic)), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-4, f"worst relative error {worst}"


def test_residual_norm_pure_normalization():
    rng = np.random.default_rng(11)
    batch = rng.normal(loc=5.0, scale=2.0, size=(3, 4, 64))
    out = residual_norm(batch, 0.0)
    mean, std = freq_mean_std(out)
    assert np.all(np.abs(mean) < 1e-9)
    assert np.all(np.abs(std - 1.0) < 1e-5)


def test_residual_norm_standardized_fixed_point():
    rng = np.random.default_rng(12)
    raw = rng.normal(size=(2, 3, 50))
    x = residual_norm(raw, 0.0)  # now standardized
    out = residual_norm(x, 0.7)
    assert np.allclose(out, 1.7 * x, atol=1e-6)


def test_residual_norm_hand_case():
    batch = np.array([[[0.0, 2.0]]])
    out = residual_norm(batch, 0.1)
    assert np.allclose(out[0, 0], [-1.0, 1.2])


def test_mixstyle_config_validation():
    with pytest.raises(ValueError):
        MixStyleConfig(alpha=0.0)
