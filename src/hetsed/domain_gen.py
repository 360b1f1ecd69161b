"""Domain-generalization transforms: frequency-wise MixStyle and residual norm.

Frequency bins carry most of the domain signature in audio spectrograms, so
the statistics being mixed here are per-instance, per-frequency mean and
standard deviation taken over the time axis.  MixStyle re-styles instance i
with a convex blend of its own stats and a batch partner's; residual
normalization adds a scaled identity path around plain per-frequency
standardization.  Both are train-time only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPSILON = 1e-5


@dataclass(frozen=True)
class MixStyleConfig:
    alpha: float = 0.3  # Beta(alpha, alpha) shape for the convex weight
    apply_prob: float = 0.5
    epsilon: float = EPSILON

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not 0.0 <= self.apply_prob <= 1.0:
            raise ValueError(f"apply_prob must be in [0, 1], got {self.apply_prob}")


@dataclass(frozen=True, eq=False)
class FreqStats:
    mean: np.ndarray  # [B, F]
    std: np.ndarray  # [B, F], clamped to >= epsilon


def _check_batch(batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3:
        raise ValueError(f"expected [B, F, T] tensor, got shape {batch.shape}")
    if batch.shape[2] < 2:
        raise ValueError(f"need T >= 2 time steps, got {batch.shape[2]}")
    return batch


def _centred(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batch minus its per-frequency mean over time, as a new array, with
    that mean [B, F] and the unclamped population std [B, F] taken from it."""
    mean = batch.mean(axis=2)
    centred = batch - mean[:, :, None]
    return centred, mean, np.sqrt(np.einsum("bft,bft->bf", centred, centred) / batch.shape[2])


def freq_stats(batch: np.ndarray, epsilon: float = EPSILON) -> FreqStats:
    """Per-instance, per-frequency mean and population std over time."""
    _, mean, std = _centred(_check_batch(batch))
    return FreqStats(mean=mean, std=np.maximum(std, epsilon))


def sample_lambda(cfg: MixStyleConfig, rng: np.random.Generator) -> float:
    """Draw the convex mixing weight from Beta(alpha, alpha)."""
    return float(rng.beta(cfg.alpha, cfg.alpha))


def _check_perm(perm: np.ndarray, b: int) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.intp)
    if perm.shape != (b,) or not np.array_equal(np.sort(perm), np.arange(b)):
        raise ValueError(f"perm is not a permutation of range({b})")
    return perm


def freq_mixstyle(
    batch: np.ndarray,
    perm: np.ndarray,
    lam: float,
    cfg: MixStyleConfig = MixStyleConfig(),
    partner_stats: FreqStats | None = None,
) -> np.ndarray:
    """Mix per-frequency statistics of each instance with its partner's.

    Instance i is standardized per frequency bin over time, then re-scaled and
    re-centered with sigma_mix = lam*sigma_i + (1-lam)*sigma_j and
    mu_mix = lam*mu_i + (1-lam)*mu_j where j = perm[i].

    ``partner_stats`` optionally supplies the statistics the partners are
    looked up in (still indexed by perm); by default they come from ``batch``
    itself.  Passing frozen statistics realizes the stop-gradient convention
    of the gradient op exactly, which the finite-difference checks rely on.
    """
    batch = _check_batch(batch)
    perm = _check_perm(perm, batch.shape[0])
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    if lam == 1.0:
        # exact identity; re-normalizing would not be bit-exact
        return batch.copy()
    out, mu, sig = _centred(batch)
    sig = np.maximum(sig, cfg.epsilon)
    partners = FreqStats(mean=mu, std=sig) if partner_stats is None else partner_stats
    mu_mix = lam * mu + (1.0 - lam) * partners.mean[perm]
    sig_mix = lam * sig + (1.0 - lam) * partners.std[perm]
    out *= sig_mix[:, :, None]
    out /= sig[:, :, None]
    out += mu_mix[:, :, None]
    return out


def freq_mixstyle_input_grad(
    batch: np.ndarray,
    perm: np.ndarray,
    lam: float,
    upstream: np.ndarray,
    cfg: MixStyleConfig = MixStyleConfig(),
) -> np.ndarray:
    """Gradient of <upstream, freq_mixstyle(batch)> with respect to batch.

    Partner statistics (mu_j, sigma_j) are treated as stop-gradient constants,
    the standard MixStyle convention.  Where the raw std sits below the clamp
    the std contribution vanishes (the clamp is locally constant).
    """
    batch = _check_batch(batch)
    perm = _check_perm(perm, batch.shape[0])
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != batch.shape:
        raise ValueError(f"upstream shape {upstream.shape} != batch shape {batch.shape}")
    if lam == 1.0:
        return upstream.copy()

    t = batch.shape[2]
    xhat, _, raw_std = _centred(batch)
    sig = np.maximum(raw_std, cfg.epsilon)
    xhat /= sig[:, :, None]
    ratio = (lam * sig + (1.0 - lam) * sig[perm]) / sig  # sigma_mix / sigma

    # d<g, out>/dx = ratio*(g - sum_t g/T) + lam*sum_t g/T
    #               + (lam - ratio) * proj * dsig/dx,  dsig/dx = xhat/T,
    # where proj = sum_t g*xhat; the std term vanishes where the clamp holds
    g_sum = upstream.sum(axis=2)
    proj = np.einsum("bft,bft->bf", upstream, xhat)
    coef = np.where(raw_std >= cfg.epsilon, (lam - ratio) * proj / t, 0.0)
    xhat *= coef[:, :, None]
    xhat += ratio[:, :, None] * upstream
    xhat += ((lam - ratio) * g_sum / t)[:, :, None]
    return xhat


def residual_norm(batch: np.ndarray, lambda_rn: float, epsilon: float = EPSILON) -> np.ndarray:
    """Scaled identity plus per-frequency standardization over time."""
    if lambda_rn < 0:
        raise ValueError(f"lambda_rn must be >= 0, got {lambda_rn}")
    batch = _check_batch(batch)
    out, _, std = _centred(batch)
    out /= np.maximum(std, epsilon)[:, :, None]
    for normed, instance in zip(out, batch):  # no batch-sized temporary
        normed += lambda_rn * instance
    return out


def apply_mixstyle(
    batch: np.ndarray,
    cfg: MixStyleConfig,
    rng: np.random.Generator,
    training: bool = True,
) -> np.ndarray:
    """Batch-level MixStyle step: identity at eval time, else applied with
    probability cfg.apply_prob using a random partner permutation."""
    batch = _check_batch(batch)
    if not training or rng.random() > cfg.apply_prob:
        return batch.copy()
    perm = rng.permutation(batch.shape[0])
    return freq_mixstyle(batch, perm, sample_lambda(cfg, rng), cfg)
