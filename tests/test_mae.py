import gc
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from psgmae import evalreport, mae, numcore as nc, pipeline, trainer
from psgmae.mae import (
    MaeConfig,
    WrongLength,
    cosine_loss,
    decode,
    encode,
    forward_loss,
    init_params,
    mask_plans,
    patchify,
    sinusoidal_table,
    token_indices,
    unpatchify,
)
from psgmae.numcore import Tensor

from conftest import (TINY_CONFIG_KWARGS, assert_close, chunk_size, one_record, ones_sum,
                      philox, synth_records)


def tiny_params(seed=0, dtype=np.float64, **overrides):
    config = MaeConfig(**{**TINY_CONFIG_KWARGS, **overrides})
    return config, init_params(config, seed=seed, dtype=dtype)


def planned_loss(inputs, targets, params, rng):
    """forward_loss with one mask per example drawn from ``rng``."""
    return forward_loss(inputs, targets, params, mask_plans(params.config, len(inputs), rng))


def reference_mask(seq_len, mask_ratio, rng):
    """The earlier one-example draw that ``mask_plans`` batches: ascending
    (visible, masked) token tuples from one ``rng.permutation(seq_len)``,
    its first round(mask_ratio * seq_len) entries masked."""
    n_masked = int(round(mask_ratio * seq_len))
    perm = rng.permutation(seq_len).tolist()
    return tuple(sorted(perm[n_masked:])), tuple(sorted(perm[:n_masked]))


def mask_config(seq_len, mask_ratio):
    return MaeConfig(patch_size=1, seq_len=seq_len, embed_dim=2, num_heads=1,
                     mask_ratio=mask_ratio, target_channels=("t",))


def one_mask(config, rng):
    """(visible, masked) token indices of one mask drawn from ``rng``."""
    masks = mask_plans(config, 1, rng)
    return token_indices(~masks)[0], token_indices(masks)[0]


def make_batch(config, rng, n=1):
    """n random float32 epochs of the config's (possibly non-3000) length:
    inputs (n, epoch_len) and targets (n, num_targets, epoch_len), drawn
    one epoch at a time, input first."""
    draws = [[rng.normal(0, 1, config.epoch_len)
              for _ in range(1 + len(config.target_channels))] for _ in range(n)]
    epochs = np.array(draws, dtype=np.float32)
    return epochs[:, 0], epochs[:, 1:]


class TestPatchify:
    def test_slicing(self):
        config = MaeConfig(target_channels=("t",))
        tokens = patchify(np.arange(3000.0), config)
        assert tokens.shape == (30, 100)
        assert np.array_equal(tokens[0], np.arange(100.0))
        assert np.array_equal(tokens[29], np.arange(2900.0, 3000.0))

    def test_inverse(self):
        config = MaeConfig(target_channels=("t",))
        x = np.random.default_rng(0).normal(0, 1, 3000)
        assert np.array_equal(unpatchify(patchify(x, config)), x)

    def test_constant_tokens_identical(self):
        config = MaeConfig(target_channels=("t",))
        tokens = patchify(np.full(3000, 2.5), config)
        assert np.all(tokens == tokens[0])

    def test_wrong_length(self):
        config = MaeConfig(target_channels=("t",))
        with pytest.raises(WrongLength):
            patchify(np.zeros(2999), config)


class TestMask:
    def test_zero_ratio(self):
        masks = mask_plans(mask_config(30, 0.0), 2, philox(0))
        assert masks.shape == (2, 30) and masks.dtype == bool and not masks.any()
        assert token_indices(~masks).tolist() == [list(range(30))] * 2
        assert token_indices(masks).shape == (2, 0)

    def test_half_of_thirty(self):
        masks = mask_plans(mask_config(30, 0.5), 3, philox(1))
        assert masks.sum(axis=1).tolist() == [15, 15, 15]
        assert token_indices(masks).shape == token_indices(~masks).shape == (3, 15)

    def test_equal_seeds_equal_plans(self):
        config = mask_config(30, 0.5)
        assert np.array_equal(mask_plans(config, 4, philox(7)), mask_plans(config, 4, philox(7)))

    @given(st.integers(1, 40), st.floats(0.0, 0.9),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_plan_invariants(self, seq_len, ratio, seed):
        assume(round(ratio * seq_len) < seq_len)
        masks = mask_plans(mask_config(seq_len, ratio), 3, philox(seed))
        assert masks.shape == (3, seq_len) and masks.dtype == bool
        assert (masks.sum(axis=1) == round(ratio * seq_len)).all()
        for visible, masked in zip(token_indices(~masks), token_indices(masks)):
            assert sorted([*visible, *masked]) == list(range(seq_len))
            assert list(visible) == sorted(visible) and list(masked) == sorted(masked)

    @given(st.integers(1, 40), st.floats(0.0, 0.95), st.integers(0, 2**32 - 1),
           st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_same_sets_and_generator_state_as_the_reference(self, seq_len, ratio, seed, count):
        """One batch of masks holds, row by row, the visible and masked sets
        that ``count`` one-example reference draws give, and leaves the
        generator where they leave it."""
        assume(round(ratio * seq_len) < seq_len)
        batched, single = philox(seed), philox(seed)
        masks = mask_plans(mask_config(seq_len, ratio), count, batched)
        reference = [reference_mask(seq_len, ratio, single) for _ in range(count)]
        assert token_indices(~masks).tolist() == [list(v) for v, _ in reference]
        assert token_indices(masks).tolist() == [list(m) for _, m in reference]
        assert trainer._philox_state(batched) == trainer._philox_state(single)

    # counts that round half to even: 2.5 -> 2, 3.5 -> 4, 1.5 -> 2, 0.5 -> 0
    @pytest.mark.parametrize("seq_len, ratio, n_masked",
                             [(5, 0.5, 2), (7, 0.5, 4), (6, 0.25, 2), (10, 0.25, 2),
                              (1, 0.5, 0), (3, 0.5, 2)])
    def test_half_counts_round_to_even(self, seq_len, ratio, n_masked):
        batched, single = philox(seq_len), philox(seq_len)
        masks = mask_plans(mask_config(seq_len, ratio), 4, batched)
        assert masks.sum(axis=1).tolist() == [n_masked] * 4
        for row in masks:
            assert tuple(np.flatnonzero(row)) == reference_mask(seq_len, ratio, single)[1]
        assert trainer._philox_state(batched) == trainer._philox_state(single)

    # round(1.5) is 2: Python rounds halves to even, as mask_plans does
    @pytest.mark.parametrize("seq_len, ratio", [(30, 0.99), (1, 0.6), (2, 0.75), (4, 0.9)])
    def test_config_masking_every_token_rejected(self, seq_len, ratio):
        with pytest.raises(ValueError, match=rf"mask_ratio {ratio} masks all seq_len {seq_len} "):
            tiny_params(seq_len=seq_len, mask_ratio=ratio)

    @pytest.mark.parametrize("seq_len, ratio", [(30, 0.98), (1, 0.4), (2, 0.5), (4, 0.85)])
    def test_config_leaving_one_token_visible_trains(self, seq_len, ratio):
        config, params = tiny_params(seq_len=seq_len, mask_ratio=ratio)
        assert (~mask_plans(config, 1, philox(3))).sum() == 1
        inputs, targets = make_batch(config, philox(4), 2)
        loss, _ = planned_loss(inputs, targets, params, philox(5))
        assert np.isfinite(loss.item())


class TestPositionalTable:
    def test_formula(self):
        table = sinusoidal_table(5, 8)
        for t in range(5):
            for i in range(4):
                angle = t / 10000 ** (2 * i / 8)
                assert table[t, 2 * i] == pytest.approx(np.sin(angle), abs=1e-12)
                assert table[t, 2 * i + 1] == pytest.approx(np.cos(angle), abs=1e-12)


class TestEncode:
    def test_full_visibility_shape(self):
        config, params = tiny_params()
        tokens = philox(0).normal(0, 1, (4, 10))
        latents = encode(tokens, np.arange(4), params)
        assert latents.shape == (4, 8)

    def test_masked_tokens_never_read(self):
        config, params = tiny_params()
        rng = philox(1)
        tokens = rng.normal(0, 1, (4, 10))
        visible, masked = one_mask(config, rng)
        reference = encode(tokens, visible, params).data
        scrambled = tokens.copy()
        scrambled[masked] = rng.normal(100, 50, (2, 10))
        assert np.array_equal(encode(scrambled, visible, params).data, reference)

    def test_zero_weights_residual_identity(self):
        config, params = tiny_params()
        for name, tensor in params.tensors.items():
            if ".attn." in name or ".mlp." in name:
                tensor.data[:] = 0.0
        tokens = philox(2).normal(0, 1, (4, 10))
        latents = encode(tokens, np.arange(4), params)
        embedded = (tokens @ params.tensors["patch_embed.w"].data
                    + params.tensors["patch_embed.b"].data
                    + params.pos_encoding)
        assert np.array_equal(latents.data, embedded)

    def test_permutation_equivariance(self):
        config, params = tiny_params()
        rng = philox(3)
        tokens = rng.normal(0, 1, (4, 10))
        every = np.arange(4)
        base = encode(tokens, every, params).data

        perm = np.array([2, 0, 3, 1])
        permuted = mae.MaeParams(
            config=config,
            pos_encoding=params.pos_encoding[perm],
            tensors=params.tensors,
        )
        shuffled = encode(tokens[perm], every, permuted).data
        assert np.allclose(shuffled, base[perm], atol=1e-12)


class TestDecode:
    def test_output_shape_default_config(self):
        config = MaeConfig(target_channels=("a", "b", "c"))
        params = init_params(config, seed=0, dtype=np.float32)
        rng = philox(4)
        tokens = rng.normal(0, 1, (30, 100))
        visible, _ = one_mask(config, rng)
        recon = decode(encode(tokens, visible, params), visible, params)
        assert recon.shape == (3, 30, 100)

    def test_three_targets_exclude_input(self):
        records = synth_records(seed=0, minutes=1.0)
        config = MaeConfig(target_channels=records[0].target_channels)
        params = init_params(config, seed=0)
        recon = dict(zip(config.target_channels,
                         mae.reconstruct(params, records.signals[:1, 0])[0]))
        assert set(recon) == set(records[0].target_channels)
        assert records[0].input_channel not in recon
        assert all(len(v) == 3000 for v in recon.values())

    def test_zero_decoder_and_heads_give_zero(self):
        config, params = tiny_params()
        for name, tensor in params.tensors.items():
            if name.startswith(("dec.", "head.")) or name == "mask_token":
                tensor.data[:] = 0.0
        rng = philox(5)
        tokens = rng.normal(0, 1, (4, 10))
        visible, _ = one_mask(config, rng)
        recon = decode(encode(tokens, visible, params), visible, params)
        assert np.all(recon.data == 0.0)

    def test_latent_count_checked(self):
        config, params = tiny_params()
        visible, _ = one_mask(config, philox(6))
        bad_latents = Tensor(np.zeros((3, 8)), dtype=np.float64)
        with pytest.raises(nc.ShapeMismatch):
            decode(bad_latents, visible, params)


def ref_cosine_loss(pred, target, g, eps=1e-8):
    """float64 reference of cosine_loss: (loss, (d pred, d target)) for the
    upstream gradient g."""
    p, t = (np.asarray(a, np.float64).reshape(-1, pred.shape[-1]) for a in (pred, target))
    norm_p, norm_t = np.linalg.norm(p, axis=1), np.linalg.norm(t, axis=1)
    denom = np.maximum(norm_p, eps) * np.maximum(norm_t, eps)
    cos = (p * t).sum(axis=1) / denom
    dcos = -float(g) / len(cos)
    dp = dcos * (t / denom[:, None]
                 - (cos * (norm_p >= eps) / np.maximum(norm_p, eps) ** 2)[:, None] * p)
    dt = dcos * (p / denom[:, None]
                 - (cos * (norm_t >= eps) / np.maximum(norm_t, eps) ** 2)[:, None] * t)
    return np.mean(1.0 - cos), (dp.reshape(pred.shape), dt.reshape(target.shape))


class TestCosineLoss:
    def test_identical_orthogonal_negated(self):
        rng = philox(7)
        a = Tensor(rng.normal(0, 1, (5, 8)), dtype=np.float64)
        orthogonal = np.zeros((5, 8))
        orthogonal[:, ::2] = 1.0
        partner = np.zeros((5, 8))
        partner[:, 1::2] = 1.0
        assert cosine_loss(a, a).item() == pytest.approx(0.0, abs=1e-6)
        assert cosine_loss(
            Tensor(orthogonal, dtype=np.float64), Tensor(partner, dtype=np.float64)
        ).item() == pytest.approx(1.0, abs=1e-6)
        assert cosine_loss(
            a, Tensor(-a.data, dtype=np.float64)
        ).item() == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("factor", [1e-3, 1.0, 1e3])
    def test_scale_invariance(self, factor):
        rng = philox(8)
        pred = rng.normal(0, 1, (6, 10))
        target = rng.normal(0, 1, (6, 10))
        base = cosine_loss(Tensor(pred, dtype=np.float64),
                           Tensor(target, dtype=np.float64)).item()
        scaled = cosine_loss(Tensor(pred * factor, dtype=np.float64),
                             Tensor(target, dtype=np.float64)).item()
        assert scaled == pytest.approx(base, abs=1e-6)

    def test_zero_patch_scores_one(self):
        zero = Tensor(np.zeros((2, 4)), dtype=np.float64)
        target = Tensor(np.ones((2, 4)), dtype=np.float64)
        assert cosine_loss(zero, target).item() == pytest.approx(1.0, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(nc.ShapeMismatch):
            cosine_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))

    @given(arrays(np.float64, (4, 6), elements=st.floats(-1e6, 1e6, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_finite_on_finite_inputs(self, data):
        """Zero and tiny rows included: the clamped norms keep the loss and
        both partials finite."""
        tensors = [Tensor(a, requires_grad=True) for a in (data, data[::-1].copy())]
        out, partials = one_record(cosine_loss, tensors, np.array(1.0))
        assert np.isfinite(out.data).all()
        assert all(np.isfinite(partial).all() for partial in partials)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(6, 10), (2, 3, 4, 10)])
    def test_output_and_partials(self, dtype, shape):
        """Both inputs require grad. Rows 0 and 1 hold a zero-norm patch in
        pred and in target: each scores loss 1 with finite partials. Row 2's
        pred has a norm below eps, so its norm is clamped and passes no gradient."""
        rng = philox([len(shape), 41])
        pred, target = (rng.normal(0, 1, shape) for _ in range(2))
        pred.reshape(-1, shape[-1])[0] = 0.0
        target.reshape(-1, shape[-1])[1] = 0.0
        pred.reshape(-1, shape[-1])[2] *= 1e-10
        pred, target, g = (a.astype(dtype) for a in (pred, target, np.array(0.75)))
        for a in (pred, target, g):
            a.setflags(write=False)  # neither pass may write into what it is given
        out, partials = one_record(cosine_loss, [Tensor(a, requires_grad=True)
                                                 for a in (pred, target)], g)
        expected_out, expected_partials = ref_cosine_loss(pred, target, g)
        assert out.data.size == 1
        assert_close(out.data.reshape(()), expected_out, dtype)
        for partial, expected in zip(partials, expected_partials):
            assert np.isfinite(partial).all()
            assert_close(partial, expected, dtype)

    @pytest.mark.parametrize("tracked", [(True, False), (False, True)])
    def test_partial_for_each_tracked_input(self, tracked):
        rng = philox(42)
        tensors = [Tensor(rng.normal(0, 1, (5, 8)), requires_grad=r, dtype=np.float64)
                   for r in tracked]
        _, partials = one_record(cosine_loss, tensors, np.array(1.0))
        expected = ref_cosine_loss(*(t.data for t in tensors), 1.0)[1]
        for requires_grad, partial, reference in zip(tracked, partials, expected):
            if requires_grad:
                assert_close(partial, reference, np.float64)
            else:
                assert partial is None

    def test_matches_fd(self):
        rng = philox(44)
        params = {name: Tensor(rng.normal(0, 1, (3, 4, 6)), requires_grad=True, dtype=np.float64)
                  for name in ("pred", "target")}

        def fn(p):
            return cosine_loss(p["pred"], p["target"])

        assert nc.grad_check(fn, params, fd_step=1e-5) < 1e-6


class TestForwardLoss:
    def test_perfect_targets_give_zero_loss(self):
        config, params = tiny_params(mask_ratio=0.5)
        inputs, targets = make_batch(config, philox(9))
        # run once to capture the reconstruction, then feed it back as target
        _, recons = planned_loss(inputs, targets, params, philox(42))
        loss, _ = planned_loss(inputs, recons.astype(np.float32), params, philox(42))
        assert loss.item() < 1e-5

    def test_loss_in_range_for_random_params(self):
        config, params = tiny_params(seed=123)
        rng = philox(10)
        inputs, targets = make_batch(config, rng, 3)
        loss, recons = planned_loss(inputs, targets, params, rng)
        assert 0.0 <= loss.item() <= 2.0
        assert np.isfinite(loss.item())
        assert len(recons) == 3
        assert recons[0].shape == (2, config.epoch_len)

    def test_masked_scope_restricts_tokens(self):
        config, params = tiny_params(loss_scope="masked")
        all_config, all_params = tiny_params(loss_scope="all")
        inputs, targets = make_batch(config, philox(12))

        masked_loss, _ = planned_loss(inputs, targets, params, philox(5))
        all_loss, _ = planned_loss(inputs, targets, all_params, philox(5))

        # manual recomputation of the masked-scope value, on the reference draw
        visible, rows = reference_mask(config.seq_len, config.mask_ratio, philox(5))
        latents = encode(patchify(inputs[0], config), visible, params)
        recon = decode(latents, visible, params).data
        per_token = []
        for i in range(len(config.target_channels)):
            target = patchify(targets[0, i], config)
            for row in rows:
                p, t = recon[i, row], target[row]
                cos = (p @ t) / (max(np.linalg.norm(p), 1e-8)
                                 * max(np.linalg.norm(t), 1e-8))
                per_token.append(1.0 - cos)
        assert masked_loss.item() == pytest.approx(np.mean(per_token), abs=1e-6)
        assert masked_loss.item() != pytest.approx(all_loss.item(), abs=1e-9)

    def test_masked_scope_loss_is_one_record_over_masked_rows(self, monkeypatch):
        """The fused loss's record reads exactly the masked tokens of each
        reconstruction and target, and its value and partial for the
        reconstruction rows match the float64 reference."""
        config, params = tiny_params(loss_scope="masked", dtype=np.float32)
        inputs, targets = make_batch(config, philox(15), 3)
        arguments = []

        def capturing(pred, target):
            arguments.append((pred, target))
            return cosine_loss(pred, target)

        monkeypatch.setattr(mae, "cosine_loss", capturing)
        with nc.Tape() as tape:
            loss, recons = planned_loss(inputs, targets, params, philox(16))
        (pred, target), = arguments
        backward, sources = tape._records[-1]
        stream = philox(16)
        masked = np.array([reference_mask(config.seq_len, config.mask_ratio, stream)[1]
                           for _ in range(3)])[:, None, :, None]
        assert loss.node == (tape._serial, len(tape._records) - 1)
        # the record's inputs: pred, made on this tape, and target, which needs no gradient
        assert pred.node == (tape._serial, sources[0]) and sources[1] is None
        assert pred.requires_grad and not target.requires_grad
        for tensor, full in ((pred, recons), (target, targets)):
            expected = np.take_along_axis(patchify(full, config), masked, axis=-2)
            assert tensor.shape == (3, 2, 2, 10)  # (B, targets, masked tokens, patch)
            assert tensor.data.tobytes() == expected.astype(np.float32).tobytes()
        g = np.array(1.0, dtype=np.float32)
        partial, none = backward(g)
        expected_loss, (expected_partial, _) = ref_cosine_loss(pred.data, target.data, g)
        assert none is None
        assert loss.item() == pytest.approx(expected_loss, abs=1e-6)
        assert np.abs(partial - expected_partial).max() <= 1e-5 * np.abs(expected_partial).max()


    @pytest.mark.parametrize("bad", ["rows", "width", "dtype", "counts", "flat"])
    def test_masks_unlike_the_batch_rejected(self, bad):
        config, params = tiny_params()
        inputs, targets = make_batch(config, philox(17), 3)
        masks = mask_plans(config, 3, philox(18))
        uneven = masks.copy()
        uneven[0] = [True, True, True, False]  # three masked tokens, the others two
        masks = {"rows": masks[:2], "width": np.concatenate([masks, masks[:, :1]], axis=1),
                 "dtype": masks.astype(np.int64), "counts": uneven,
                 "flat": masks.reshape(-1)}[bad]
        with pytest.raises(nc.ShapeMismatch, match="masks"):
            forward_loss(inputs, targets, params, masks)

    def test_masked_scope_without_masked_tokens_scores_every_token(self):
        config, params = tiny_params(loss_scope="masked", mask_ratio=0.0)
        _, all_params = tiny_params(loss_scope="all", mask_ratio=0.0)
        inputs, targets = make_batch(config, philox(19), 2)
        masks = mask_plans(config, 2, philox(20))
        assert not masks.any()
        masked, _ = forward_loss(inputs, targets, params, masks)
        every, _ = forward_loss(inputs, targets, all_params, masks)
        assert masked.item() == every.item()


class TestGradients:
    def test_tiny_config_matches_finite_differences(self):
        config, params = tiny_params(seed=1)
        rng = philox(13)
        tokens = rng.normal(0, 1, (4, 10))
        targets = np.stack([rng.normal(0, 1, (4, 10)) for _ in range(2)])
        visible, _ = one_mask(config, rng)

        def fn(tensors):
            view = mae.MaeParams(config=config, pos_encoding=params.pos_encoding,
                                 tensors=tensors)
            recon = decode(encode(tokens, visible, view), visible, view)
            return cosine_loss(recon, Tensor(targets, dtype=view.dtype))

        assert nc.grad_check(fn, params.tensors, fd_step=5e-5) < 1e-5

    def test_two_block_encoder_matches_finite_differences(self):
        config = MaeConfig(**{**TINY_CONFIG_KWARGS, "encoder_layers": 2})
        rng = philox(3)
        tokens = rng.normal(0, 1, (4, 10))
        visible, _ = one_mask(config, rng)

        def make_fn(pos):
            def fn(tensors):
                view = mae.MaeParams(config=config, pos_encoding=pos,
                                     tensors=tensors)
                out = encode(tokens, visible, view)
                return ones_sum(nc.gelu(out))
            return fn

        params64 = init_params(config, seed=0, dtype=np.float64)
        used64 = {n: t for n, t in params64.tensors.items()
                  if n.startswith(("enc.", "patch_embed"))}
        assert nc.grad_check(make_fn(params64.pos_encoding), used64,
                             fd_step=5e-5) < 1e-5

        params32 = init_params(config, seed=0, dtype=np.float32)
        used32 = {n: t for n, t in params32.tensors.items()
                  if n.startswith(("enc.", "patch_embed"))}
        assert nc.grad_check(make_fn(params32.pos_encoding), used32,
                             fd_step=5e-5) < 1e-3

    def test_no_dead_parameters(self):
        config, params = tiny_params(seed=2, dtype=np.float32)
        rng = philox(14)
        inputs, targets = make_batch(config, rng, 2)
        with nc.Tape() as tape:
            loss, _ = planned_loss(inputs, targets, params, rng)
        grads = tape.backward(loss)
        for name, tensor in params.tensors.items():
            assert tensor in grads, name
            assert np.any(grads[tensor] != 0.0), name


def owner(arr):
    """The array that owns arr's memory: arr, or the base its views lead to."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def rule_captures(records):
    """Everything the backward rules of tape records capture, lists and tuples opened."""
    found, stack = [], [cell.cell_contents for backward, _ in records
                        for cell in backward.__closure__ or ()]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        else:
            found.append(item)
    return found


def default_config():
    return MaeConfig(target_channels=("EOG horizontal", "EMG submental", "EEG Pz-Oz"))


class TestTapeMemory:
    """A tape record holds no op output and its rule only the arrays it reads,
    so a default-model shard frees the activations no backward rule needs."""

    def test_forward_frees_what_no_rule_reads(self, monkeypatch):
        config = default_config()
        params = init_params(config, seed=0)
        inputs, targets = make_batch(config, philox(40), 2)
        weights = {params.tensors[f"{prefix}.attn.wo"]
                   for prefix in ("enc.0", "enc.1", "dec.0")}
        seen = {"add": [], "projection": [], "head product": [], "pre-activation": [],
                "tanh": []}
        rebuilt = []  # what the MLP rules recompute: c * c and the hidden layer
        add, linear, split_heads, mlp = nc.add, nc.linear, nc.split_heads, nc.mlp

        def adding(a, b):
            out = add(a, b)
            seen["add"].append(weakref.ref(owner(out.data)))
            return out

        def projecting(x, w, b=None):
            out = linear(x, w, b)
            if w in weights:
                seen["projection"].append(weakref.ref(owner(out.data)))
            return out

        def splitting(a, heads):
            seen["head product"].append(weakref.ref(owner(a.data)))
            return split_heads(a, heads)

        def perceptron(x, w1, b1, w2, b2):
            out = mlp(x, w1, b1, w2, b2)
            pre = x.data.reshape(-1, w1.shape[0]) @ w1.data + b1.data
            c = np.clip(pre, -10.0, 10.0)
            tanh = np.tanh((c * nc._GELU_K) * (c * c * nc._GELU_C + 1.0))
            held = [x for x in rule_captures(tape._records[-1:]) if isinstance(x, np.ndarray)]
            seen["pre-activation"] += [weakref.ref(x) for x in held if np.array_equal(x, pre)]
            seen["tanh"] += [weakref.ref(x) for x in held if np.array_equal(x, tanh)]
            rebuilt.extend([c * c, (0.5 * pre) * (tanh + 1.0)])
            return out

        for name, wrapper in (("add", adding), ("linear", projecting),
                              ("split_heads", splitting), ("mlp", perceptron)):
            monkeypatch.setattr(nc, name, wrapper)
        with nc.Tape() as tape:
            loss, _ = planned_loss(inputs, targets, params, philox(41))
        gc.collect()

        def alive(refs):
            return [ref() is not None for ref in refs]

        # 2 positional adds, 2 residual adds per block; the heads' product reads only the last
        assert alive(seen["add"]) == [False] * 7 + [True]
        assert alive(seen["projection"]) == [False] * 3
        assert alive(seen["head product"]) == [False]
        assert alive(seen["pre-activation"]) == alive(seen["tanh"]) == [True] * 3
        captured = rule_captures(tape._records)
        assert not any(isinstance(x, np.ndarray) and np.array_equal(x, array)
                       for x in captured for array in rebuilt)
        assert not any(isinstance(x, Tensor) for x in captured)
        assert tape.backward(loss)  # the tape still runs backward

    def test_key_projection_and_positional_add_rules_capture_no_tensor(self, monkeypatch):
        """The bias-less key projection's rule keeps a flag, not the absent bias, and
        returns no bias partial; the positional table's add returns None for the
        table, which needs no gradient. Neither rule captures a Tensor."""
        config = default_config()
        params = init_params(config, seed=0)
        inputs, targets = make_batch(config, philox(46), 2)
        found = {"key projection": [], "positional add": []}  # (record index, output shape)
        add, linear = nc.add, nc.linear

        def adding(a, b):
            out = add(a, b)
            if not b.requires_grad:
                found["positional add"].append((out.node[1], out.shape))
            return out

        def projecting(x, w, b=None):
            out = linear(x, w, b)
            if b is None:
                found["key projection"].append((out.node[1], out.shape))
            return out

        monkeypatch.setattr(nc, "add", adding)
        monkeypatch.setattr(nc, "linear", projecting)
        with nc.Tape() as tape:
            loss, _ = planned_loss(inputs, targets, params, philox(47))
        assert [len(found[kind]) for kind in found] == [3, 2]  # a key per block, two tables
        for kind, records in found.items():
            for index, shape in records:
                backward, sources = tape._records[index]
                assert not any(isinstance(x, Tensor) for x in rule_captures([(backward, sources)]))
                partials = backward(np.ones(shape, np.float32))
                if kind == "key projection":
                    assert len(partials) == len(sources) == 2
                else:
                    assert sources[1] is None and partials[1] is None and partials[0].shape == shape
        assert tape.backward(loss)  # the tape still runs backward

    def test_shard_memory_budget(self):
        """Traced bytes of one 32-example float32 shard of the default model:
        at most 10.5 MB held after forward, at most 13 MB at backward's peak.
        The shard's inputs (32, 3000) and targets are contiguous arrays, so
        no Tensor copies them; as in trainer.batch_gradients, only the loss
        is kept through backward, not the reconstruction."""
        config = default_config()
        params = init_params(config, seed=0)
        inputs, targets = map(np.ascontiguousarray, make_batch(config, philox(42), 32))
        masks = mask_plans(config, 32, philox(43))
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with nc.Tape() as tape:
                loss = forward_loss(inputs, targets, params, masks)[0]
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert held <= 10.5e6 and peak <= 13e6, (held, peak)


class TestBatching:
    CONFIG = dict(patch_size=10, seq_len=12, embed_dim=16, num_heads=2,
                  encoder_layers=1, decoder_layers=1, mask_ratio=0.5,
                  target_channels=("t0", "t1"))

    @pytest.mark.parametrize("scope", ["all", "masked"])
    def test_batch_matches_single_examples(self, scope):
        config = MaeConfig(**{**self.CONFIG, "loss_scope": scope})
        params = init_params(config, seed=4, dtype=np.float32)
        inputs, targets = make_batch(config, philox(20), 5)

        loss, recons = planned_loss(inputs, targets, params, philox(21))
        stream = philox(21)  # the same mask stream, drawn one example at a time
        singles = [planned_loss(inputs[i:i + 1], targets[i:i + 1], params, stream)
                   for i in range(len(inputs))]

        mean_single = np.mean([single.item() for single, _ in singles])
        assert loss.item() == pytest.approx(mean_single, rel=1e-6)
        for recon, (_, single) in zip(recons, singles):
            assert np.abs(recon - single[0]).max() < 1e-5

    def test_predict_matches_single_records(self):
        config = MaeConfig(**self.CONFIG)
        params = init_params(config, seed=5, dtype=np.float32)
        rng = philox(22)
        inputs = rng.normal(0, 1, (evalreport.CHUNK + 3, config.epoch_len))
        inputs = inputs.astype(np.float32)
        batched = mae.reconstruct(params, inputs)
        assert batched.shape == (len(inputs), 2, config.epoch_len)
        for row, x in zip(batched, inputs):
            assert np.abs(row - mae.reconstruct(params, x[None])[0]).max() < 1e-5

    @pytest.mark.parametrize("scope", ["all", "masked"])
    def test_float32_stays_float32(self, scope):
        config = MaeConfig(**{**self.CONFIG, "loss_scope": scope})
        params = init_params(config, seed=6, dtype=np.float32)
        rng = philox(23)
        inputs, targets = make_batch(config, rng, 3)
        with nc.Tape() as tape:
            loss, recons = planned_loss(inputs, targets, params, rng)
        grads = tape.backward(loss)
        assert loss.dtype == np.float32
        assert recons.dtype == np.float32
        for name, tensor in params.tensors.items():
            assert grads[tensor].dtype == np.float32, name
        assert mae.reconstruct(params, inputs).dtype == np.float32


class TestParallelPredict:
    """stream_scores' chunks over an EpochSet, on a pool forced to more threads
    than this machine has cores so that they run wherever the tests do."""

    CONFIG = {**TestBatching.CONFIG, "patch_size": 250}  # 12 tokens of a 3000-sample epoch

    @staticmethod
    def epochs(n, seed):
        """n random epochs of an input channel and the targets t0 and t1."""
        return pipeline.EpochSet(
            ("in", "t0", "t1"), ("S0",), subject=np.zeros(n), epoch_index=np.arange(n),
            stage=np.zeros(n), norm=np.ones((n, 3, 2)),
            signals=philox(seed).normal(0, 1, (n, 3, 3000)))

    @staticmethod
    def stream(params, epochs, rows):
        """stream_scores' reconstructions of ``rows`` and its score calls as
        (span, thread, orig) in call order."""
        out, calls = np.empty((len(rows), 2, 3000), params.dtype), []

        def score(span, recon, orig):
            out[span] = recon
            calls.append((span, threading.current_thread(), orig.copy()))

        evalreport.stream_scores(params, epochs, rows, score)
        return out, calls

    @pytest.fixture
    def workers(self, monkeypatch):
        workers = nc.cores() + 2
        monkeypatch.setattr(nc, "cores", lambda: workers)
        return workers

    @staticmethod
    def setup(n_chunks):
        config = MaeConfig(**TestParallelPredict.CONFIG)
        params = init_params(config, seed=7, dtype=np.float32)
        n = evalreport.CHUNK * max(n_chunks, 2)  # whole chunks of CHUNK, threaded
        return params, chunk_size(n), TestParallelPredict.epochs(n, seed=30)

    def test_stress_bit_equal_to_serial_chunks(self, workers):
        params, chunk, epochs = self.setup(4 * workers + 1)
        epochs = epochs[:len(epochs) - 3]  # a short last chunk
        assert chunk == chunk_size(len(epochs)) == evalreport.CHUNK
        # reference: the same chunks one reconstruct call at a time
        reference = np.concatenate([mae.reconstruct(params, epochs.signals[lo: lo + chunk, 0])
                                    for lo in range(0, len(epochs), chunk)])
        assert len(epochs) > 2 * chunk * workers
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: results.append(
                self.stream(params, epochs, np.arange(len(epochs)))), daemon=True)
            runner.start()
            runner.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(results) == 1
        out, _ = results[0]
        assert out.dtype == reference.dtype
        assert out.tobytes() == reference.tobytes()

    def test_main_thread_tape_records_nothing_from_workers(self, workers):
        params, _, epochs = self.setup(1)
        with nc.Tape() as tape:
            self.stream(params, epochs, np.arange(2 * evalreport.CHUNK))
        assert tape._records == []
        with nc.Tape() as tape:  # one chunk runs on this thread
            self.stream(params, epochs, np.arange(1))
        assert tape._records

    def test_wrong_length_in_late_chunk_raises(self, workers, monkeypatch):
        """A source whose last chunk reads short epochs: reconstruct raises on
        that chunk's thread, and stream_scores re-raises it."""
        params, chunk, epochs = self.setup(1)
        read, last = epochs.read, (len(epochs) - 1) // chunk * chunk

        def reading(wanted):
            rows = read(wanted)
            return rows[..., :-1] if wanted[0] == last else rows

        monkeypatch.setattr(epochs, "read", reading)
        with pytest.raises(WrongLength):
            self.stream(params, epochs, np.arange(len(epochs)))

    def test_in_flight_bounded_on_more_cores_than_chunk(self, monkeypatch, fresh_pool):
        """On more cores than CHUNK, at most CHUNK epochs per core are between
        the start of encode and the end of decode at any moment, and chunks run
        at once on several cores."""
        cores = 3 * evalreport.CHUNK
        monkeypatch.setattr(nc, "cores", lambda: cores)
        lock, in_flight, peak, total = threading.Lock(), {}, {}, [0]
        encode, decode = mae.encode, mae.decode

        def counting_encode(tokens, visible, params):
            thread = threading.current_thread()
            with lock:
                in_flight[thread] = in_flight.get(thread, 0) + len(tokens)
                peak[thread] = max(peak.get(thread, 0), in_flight[thread])
                total[0] = max(total[0], sum(in_flight.values()))
            time.sleep(0.05)  # lets the other threads start their chunks
            return encode(tokens, visible, params)

        def counting_decode(latents, visible, params):
            recon = decode(latents, visible, params)
            with lock:
                in_flight[threading.current_thread()] -= recon.shape[0]
            return recon

        monkeypatch.setattr(mae, "encode", counting_encode)
        monkeypatch.setattr(mae, "decode", counting_decode)
        config = MaeConfig(**{**TINY_CONFIG_KWARGS, "patch_size": 750})
        params = init_params(config, seed=7, dtype=np.float32)
        n = 4 * evalreport.CHUNK
        out, calls = self.stream(params, self.epochs(n, seed=31), np.arange(n))
        assert out.shape == (n, 2, 3000) and sum(span.stop - span.start for span, *_ in calls) == n
        assert not any(in_flight.values())
        assert max(peak.values()) <= evalreport.CHUNK
        assert evalreport.CHUNK < total[0] <= cores * evalreport.CHUNK

    @pytest.fixture(scope="class")
    def one_at_a_time(self):
        """130 epochs and their reconstructions, one reconstruct call per epoch."""
        config = MaeConfig(**TestParallelPredict.CONFIG)
        params = init_params(config, seed=8, dtype=np.float32)
        epochs = self.epochs(130, seed=32)
        singles = [mae.reconstruct(params, epochs.signals[i:i + 1, 0]) for i in range(130)]
        return params, epochs, np.concatenate(singles)

    @pytest.mark.parametrize("cores", [1, 2, 7])
    @pytest.mark.parametrize("n", [0, 1, 7, 12, 84, 127, 128, 130])
    def test_any_size_bit_equal_to_one_epoch_at_a_time(self, one_at_a_time, monkeypatch,
                                                       fresh_pool, cores, n):
        """Two epochs or more make two chunks or more, so small inputs use the
        pool too on two cores; chunks hold chunk_size(n) epochs, the last one
        fewer, whatever the core count, and min(cores, chunks) pool threads
        run them."""
        params, epochs, reference = one_at_a_time
        monkeypatch.setattr(nc, "cores", lambda: cores)  # fresh_pool: `cores` pool threads
        chunk = chunk_size(n)
        lanes = min(cores, -(-n // chunk))
        chunks, threads = [], set()
        # each thread's first chunk waits for `lanes` threads to start, so that
        # `lanes` threads must run encode
        lanes_started = threading.Barrier(max(1, lanes), timeout=60)
        encode = mae.encode

        def counting_encode(tokens, visible, params):
            chunks.append(len(tokens))
            thread = threading.current_thread()
            if thread not in threads:
                threads.add(thread)
                lanes_started.wait()
            return encode(tokens, visible, params)

        monkeypatch.setattr(mae, "encode", counting_encode)
        out, _ = self.stream(params, epochs, np.arange(n))
        assert out.shape == reference[:n].shape and out.dtype == np.float32
        assert out.tobytes() == reference[:n].tobytes()
        assert sorted(chunks, reverse=True) == [min(chunk, n - lo) for lo in range(0, n, chunk)]
        assert chunk <= evalreport.CHUNK
        if cores >= 2 and n >= 2:
            assert len(threads) == lanes == min(cores, len(chunks)) >= 2
            assert threading.current_thread() not in threads
        else:
            assert threads == ({threading.current_thread()} if n else set())

    @pytest.mark.parametrize("cores", [1, 2, 7])
    def test_sink_takes_each_chunk_on_the_lane_that_sliced_it(self, one_at_a_time, monkeypatch,
                                                             fresh_pool, cores):
        """score, the sink, takes each span of ``rows`` once, on the thread that
        read its rows, with those rows' targets and reconstructions bit-equal
        to one reconstruct call per epoch."""
        params, epochs, reference = one_at_a_time
        monkeypatch.setattr(nc, "cores", lambda: cores)
        rows = np.flatnonzero(np.arange(len(epochs)) % 3 != 1)  # runs with gaps between
        readers, read = {}, epochs.read

        def reading(wanted):
            readers[int(wanted[0])] = threading.current_thread()
            return read(wanted)

        monkeypatch.setattr(epochs, "read", reading)
        out, calls = self.stream(params, epochs, rows)
        spans = sorted((span.start, span.stop) for span, _, _ in calls)
        assert [lo for lo, _ in spans] == [0, *(hi for _, hi in spans[:-1])]
        assert spans[-1][1] == len(rows) and len(readers) == len(calls)
        for span, thread, orig in calls:
            assert readers[int(rows[span.start])] is thread
            assert orig.tobytes() == epochs.signals[rows[span]][:, 1:].tobytes()
        assert out.tobytes() == reference[rows].tobytes()


def test_init_ignores_ln_in_channel_names():
    """A head draws its values by its place, whatever its channel's name holds."""
    def init(channels):
        return init_params(MaeConfig(**{**TINY_CONFIG_KWARGS, "target_channels": channels}),
                           seed=3)
    plain, odd = init(("a", "b")), init(("x.ln", "y.ln1.g"))
    for (name, tensor), odd_tensor in zip(plain.tensors.items(), odd.tensors.values(),
                                          strict=True):
        assert np.array_equal(tensor.data, odd_tensor.data), name
