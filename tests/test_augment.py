import numpy as np
import pytest

from hetsed.augment import MIXUP_ALPHA, mixup_within_dataset, time_mask
from hetsed.core import ClassOrigin, ClipMetadata, Origin, float_array


def metas_for(origins):
    return [ClipMetadata(f"c{i}", o, 10.0) for i, o in enumerate(origins)]


def test_within_dataset_singletons_unchanged():
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(2, 3, 4))
    out = mixup_within_dataset(batch, metas_for([Origin.DESED_WEAK, Origin.MAESTRO]), rng)
    assert out.tobytes() == batch.tobytes()


def test_within_dataset_single_family_mixes_everything():
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(6, 2, 3))
    out = mixup_within_dataset(batch, metas_for([Origin.DESED_WEAK] * 6), np.random.default_rng(5))
    # at least some rows differ (mixing happened), all rows are convex combos
    assert not np.allclose(out, batch)
    lo = batch.min(axis=0) - 1e-12
    hi = batch.max(axis=0) + 1e-12
    assert np.all(out >= lo) and np.all(out <= hi)


MIXED_ORIGINS = [Origin.DESED_WEAK, Origin.MAESTRO, Origin.DESED_STRONG, Origin.MAESTRO, Origin.DESED_SYNTH,
                 Origin.DESED_UNLABELED, Origin.MAESTRO]


def test_within_dataset_families_of_one_repeated_clip_are_fixed_points():
    clips = np.random.default_rng(1).normal(size=(2, 3, 5))
    batch = np.stack([clips[int(o.family is ClassOrigin.MAESTRO)] for o in MIXED_ORIGINS])
    for seed in range(5):
        for alpha in (0.2, MIXUP_ALPHA, 2.0):
            out = mixup_within_dataset(batch, metas_for(MIXED_ORIGINS), np.random.default_rng(seed), alpha)
            assert np.allclose(out, batch)


def test_within_dataset_rows_stay_between_each_row_and_its_partner():
    batch = np.random.default_rng(2).normal(size=(len(MIXED_ORIGINS), 4, 4))
    families = {}
    for i, origin in enumerate(MIXED_ORIGINS):
        families.setdefault(origin.family, []).append(i)
    for seed in range(10):
        out = mixup_within_dataset(batch, metas_for(MIXED_ORIGINS), np.random.default_rng(seed))
        # replay the draws: per family in order of appearance, the partners, then the weight
        draws = np.random.default_rng(seed)
        for rows in families.values():
            partners = np.array(rows)[draws.permutation(len(rows))]
            draws.beta(MIXUP_ALPHA, MIXUP_ALPHA)
            for i, p in zip(rows, partners.tolist()):
                assert np.all(out[i] >= np.minimum(batch[i], batch[p]) - 1e-12)
                assert np.all(out[i] <= np.maximum(batch[i], batch[p]) + 1e-12)


def test_within_dataset_no_cross_family_dependence():
    # perturbing a MAESTRO input must never change any DESED output
    origins = [Origin.DESED_WEAK, Origin.MAESTRO, Origin.DESED_STRONG, Origin.MAESTRO,
               Origin.DESED_UNLABELED, Origin.MAESTRO]
    rng = np.random.default_rng(6)
    batch = rng.normal(size=(6, 3, 5))
    desed_rows = [0, 2, 4]
    out1 = mixup_within_dataset(batch, metas_for(origins), np.random.default_rng(42))
    perturbed = batch.copy()
    perturbed[1] += 100.0
    perturbed[3] -= 50.0
    out2 = mixup_within_dataset(perturbed, metas_for(origins), np.random.default_rng(42))
    assert np.array_equal(out1[desed_rows], out2[desed_rows])
    # and the reverse direction
    perturbed2 = batch.copy()
    perturbed2[0] += 9.0
    out3 = mixup_within_dataset(perturbed2, metas_for(origins), np.random.default_rng(42))
    assert np.array_equal(out1[[1, 3, 5]], out3[[1, 3, 5]])


def test_within_dataset_family_sets_preserved_under_reordering():
    origins = [Origin.DESED_WEAK, Origin.MAESTRO, Origin.DESED_WEAK, Origin.MAESTRO]
    metas = metas_for(origins)
    rng = np.random.default_rng(7)
    batch = rng.normal(size=(4, 2, 3))
    order = [2, 0, 3, 1]
    out_a = mixup_within_dataset(batch, metas, np.random.default_rng(1))
    out_b = mixup_within_dataset(batch[order], [metas[i] for i in order], np.random.default_rng(2))
    # distribution-level check: outputs stay in the span of same-family inputs,
    # under both orderings
    for out, inputs, meta_list in ((out_a, batch, metas), (out_b, batch[order], [metas[i] for i in order])):
        for fam in ("DESED", "MAESTRO"):
            rows = [i for i, m in enumerate(meta_list) if m.origin.family.value == fam]
            span = inputs[rows]
            assert np.all(out[rows] >= span.min(axis=0) - 1e-12)
            assert np.all(out[rows] <= span.max(axis=0) + 1e-12)


def fancy_index_mixup(batch, metas, rng, alpha=MIXUP_ALPHA):
    """mixup_within_dataset as it was before it mixed row by row into its
    output: whole-family fancy-index copies, kept as the bit-exact reference."""
    batch = float_array(batch)
    out = np.empty(batch.shape, batch.dtype)
    families = {}
    for i, meta in enumerate(metas):
        families.setdefault(meta.origin.family.value, []).append(i)
    for indices in families.values():
        idx = np.array(indices)
        mixed = batch[idx]
        if len(idx) > 1:
            partners = idx[rng.permutation(len(idx))]
            lam = float(rng.beta(alpha, alpha))
            mixed *= lam
            mixed += (1.0 - lam) * batch[partners]
        out[idx] = mixed
    return out


def assert_same_as_fancy_index(batch, metas, seed, alpha=MIXUP_ALPHA):
    """Same bytes, dtype and C order as the reference, and the same draws."""
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    out = mixup_within_dataset(batch, metas, rng_new, alpha)
    ref = fancy_index_mixup(batch, metas, rng_ref, alpha)
    assert out.dtype == ref.dtype and out.flags.c_contiguous
    assert out.tobytes() == ref.tobytes()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(5))
def test_within_dataset_matches_the_fancy_index_reference(dtype, seed):
    rng = np.random.default_rng(100 + seed)
    origins = list(rng.choice(list(Origin), size=9))
    batch = rng.normal(-4.0, 2.5, size=(9, 6, 20)).astype(dtype)
    assert_same_as_fancy_index(batch, metas_for(origins), seed, alpha=float(rng.uniform(0.1, 2.0)))


def _c_order(rng, dtype, t):
    return rng.normal(-4.0, 2.5, size=(9, 6, t)).astype(dtype)


def _stacked_transposed(rng, dtype, t):
    # clips read as [T, M] and stacked as [M, T], as callers of read_features do
    return np.stack([rng.normal(-4.0, 2.5, size=(t, 6)).astype(dtype).T for _ in range(9)])


def _strided_slice(rng, dtype, t):
    return rng.normal(-4.0, 2.5, size=(9, 12, 3 * t)).astype(dtype)[:, ::2, ::3]


LAYOUTS = {"c_order": _c_order, "stacked_transposed": _stacked_transposed, "strided_slice": _strided_slice}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("t", [1, 63, 64, 130, 200])
def test_within_dataset_matches_the_fancy_index_reference_on_every_layout(layout, t, dtype):
    # T runs below, at and across the copy's tile of frames, and off its multiples
    rng = np.random.default_rng(t)
    batch = LAYOUTS[layout](rng, dtype, t)
    assert batch.shape == (9, 6, t)
    assert batch.flags.c_contiguous == (layout == "c_order") or t == 1
    origins = list(rng.choice(list(Origin), size=9))
    for seed in range(3):
        assert_same_as_fancy_index(batch, metas_for(origins), seed)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 0.0, -0.5])
def test_within_dataset_refuses_an_alpha_that_is_not_finite_and_positive(alpha):
    batch = np.random.default_rng(16).normal(size=(4, 2, 3))
    # singletons only, where no weight is drawn, and a family of three
    for origins in ([Origin.DESED_WEAK, Origin.MAESTRO] * 2, [Origin.DESED_WEAK] * 3 + [Origin.MAESTRO]):
        rng = np.random.default_rng(17)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="alpha"):
            mixup_within_dataset(batch[: len(origins)], metas_for(origins), rng, alpha)
        assert rng.bit_generator.state == state


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_within_dataset_transposed_batch_gives_a_c_ordered_output(dtype):
    rng = np.random.default_rng(11)
    batch = rng.normal(size=(20, 6, 7)).astype(dtype).transpose(2, 1, 0)  # [7, 6, 20], not C-contiguous
    assert not batch.flags.c_contiguous
    origins = [Origin.DESED_WEAK, Origin.MAESTRO, Origin.DESED_SYNTH, Origin.MAESTRO, Origin.DESED_STRONG,
               Origin.DESED_WEAK, Origin.MAESTRO]
    out = assert_same_as_fancy_index(batch, metas_for(origins), 12)
    assert out.tobytes() == fancy_index_mixup(np.ascontiguousarray(batch), metas_for(origins),
                                              np.random.default_rng(12)).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_within_dataset_singleton_family_row_is_unchanged(dtype):
    rng = np.random.default_rng(13)
    batch = rng.normal(size=(5, 3, 8)).astype(dtype)
    origins = [Origin.DESED_WEAK, Origin.DESED_SYNTH, Origin.MAESTRO, Origin.DESED_STRONG, Origin.DESED_WEAK]
    out = assert_same_as_fancy_index(batch, metas_for(origins), 14)
    assert out[2].tobytes() == batch[2].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_within_dataset_permutation_fixed_point_matches_the_old_formula(dtype):
    n = 6
    # one family, so the first draw is the partner permutation
    seed = next(s for s in range(1000) if np.any(np.random.default_rng(s).permutation(n) == np.arange(n)))
    rng = np.random.default_rng(15)
    batch = rng.normal(-4.0, 2.5, size=(n, 4, 9)).astype(dtype)
    out = assert_same_as_fancy_index(batch, metas_for([Origin.DESED_WEAK] * n), seed)
    draws = np.random.default_rng(seed)
    perm = draws.permutation(n)
    lam = float(draws.beta(MIXUP_ALPHA, MIXUP_ALPHA))
    i = int(np.flatnonzero(perm == np.arange(n))[0])
    mixed = batch[i] * lam
    mixed += (1.0 - lam) * batch[i]
    assert out[i].tobytes() == mixed.tobytes()


def test_time_mask_zero_ratio_identity():
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(5, 40))
    out = time_mask(feats, 0.0, 3, np.random.default_rng(0))
    assert out.tobytes() == feats.tobytes()


def test_time_mask_full_width_possible():
    feats = np.ones((2, 10))
    # search a seed whose single draw is full width
    for seed in range(200):
        rng = np.random.default_rng(seed)
        out = time_mask(feats, 1.0, 1, rng)
        if np.all(out == 0.0):
            return
    pytest.fail("no seed produced a full-width mask")


def test_time_mask_column_counts_match_draws():
    feats = np.ones((3, 50))
    seed = 123
    out = time_mask(feats, 0.3, 1, np.random.default_rng(seed))
    # replay the draw
    rng = np.random.default_rng(seed)
    width = int(rng.integers(0, int(0.3 * 50) + 1))
    masked_cols = int(np.sum(np.all(out == 0.0, axis=0)))
    assert masked_cols == width


def test_time_mask_untouched_columns_bitwise_equal():
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(4, 60))
    out = time_mask(feats, 0.25, 2, np.random.default_rng(77))
    changed = np.any(out != feats, axis=0)
    # every changed column is fully zeroed; all others identical at byte level
    assert np.all(out[:, changed] == 0.0)
    assert out[:, ~changed].tobytes() == feats[:, ~changed].tobytes()


def test_time_mask_deterministic():
    feats = np.ones((2, 30))
    a = time_mask(feats, 0.5, 2, np.random.default_rng(5))
    b = time_mask(feats, 0.5, 2, np.random.default_rng(5))
    assert a.tobytes() == b.tobytes()
