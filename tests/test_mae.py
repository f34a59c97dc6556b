import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from psgmae import mae, numcore as nc
from psgmae.mae import (
    MaeConfig,
    MaskPlan,
    WrongLength,
    cosine_loss,
    decode,
    encode,
    forward_loss,
    full_visibility,
    init_params,
    make_mask,
    patchify,
    sinusoidal_table,
    unpatchify,
)
from psgmae.numcore import Tensor

from conftest import TINY_CONFIG_KWARGS, assert_close, one_record, philox, synth_records


def tiny_params(seed=0, dtype=np.float64, **overrides):
    config = MaeConfig(**{**TINY_CONFIG_KWARGS, **overrides})
    return config, init_params(config, seed=seed, dtype=dtype)


def planned_loss(inputs, targets, params, rng):
    """forward_loss with one mask plan per example drawn from ``rng``."""
    return forward_loss(inputs, targets, params, mae.mask_plans(params.config, len(inputs), rng))


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
        plan = make_mask(30, 0.0, philox(0))
        assert plan.masked_indices == ()
        assert plan.visible_indices == tuple(range(30))

    def test_half_of_thirty(self):
        plan = make_mask(30, 0.5, philox(1))
        assert len(plan.masked_indices) == 15
        assert len(plan.visible_indices) == 15

    def test_equal_seeds_equal_plans(self):
        assert make_mask(30, 0.5, philox(7)) == make_mask(30, 0.5, philox(7))

    @given(st.integers(1, 40), st.floats(0.0, 0.9),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_plan_invariants(self, seq_len, ratio, seed):
        plan = make_mask(seq_len, ratio, philox(seed))
        visible = set(plan.visible_indices)
        masked = set(plan.masked_indices)
        assert visible | masked == set(range(seq_len))
        assert not visible & masked
        assert len(masked) == round(ratio * seq_len)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            MaskPlan(visible_indices=(0, 1), masked_indices=(1, 2))


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
        latents = encode(tokens, full_visibility(4), params)
        assert latents.shape == (4, 8)

    def test_masked_tokens_never_read(self):
        config, params = tiny_params()
        rng = philox(1)
        tokens = rng.normal(0, 1, (4, 10))
        plan = make_mask(4, 0.5, rng)
        reference = encode(tokens, plan, params).data
        scrambled = tokens.copy()
        scrambled[list(plan.masked_indices)] = rng.normal(100, 50, (2, 10))
        assert np.array_equal(encode(scrambled, plan, params).data, reference)

    def test_zero_weights_residual_identity(self):
        config, params = tiny_params()
        for name, tensor in params.tensors.items():
            if ".attn." in name or ".mlp." in name:
                tensor.data[:] = 0.0
        tokens = philox(2).normal(0, 1, (4, 10))
        plan = full_visibility(4)
        latents = encode(tokens, plan, params)
        embedded = (tokens @ params.tensors["patch_embed.w"].data
                    + params.tensors["patch_embed.b"].data
                    + params.pos_encoding)
        assert np.array_equal(latents.data, embedded)

    def test_permutation_equivariance(self):
        config, params = tiny_params()
        rng = philox(3)
        tokens = rng.normal(0, 1, (4, 10))
        plan = full_visibility(4)
        base = encode(tokens, plan, params).data

        perm = np.array([2, 0, 3, 1])
        permuted = mae.MaeParams(
            config=config,
            pos_encoding=params.pos_encoding[perm],
            tensors=params.tensors,
        )
        shuffled = encode(tokens[perm], plan, permuted).data
        assert np.allclose(shuffled, base[perm], atol=1e-12)


class TestDecode:
    def test_output_shape_default_config(self):
        config = MaeConfig(target_channels=("a", "b", "c"))
        params = init_params(config, seed=0, dtype=np.float32)
        rng = philox(4)
        tokens = rng.normal(0, 1, (30, 100))
        plan = make_mask(30, 0.5, rng)
        recon = decode(encode(tokens, plan, params), plan, params)
        assert recon.shape == (3, 30, 100)

    def test_three_targets_exclude_input(self):
        records = synth_records(seed=0, minutes=1.0)
        config = MaeConfig(target_channels=records[0].target_channels)
        params = init_params(config, seed=0)
        recon = mae.reconstruct_epoch(params, records[0])
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
        plan = make_mask(4, 0.5, rng)
        recon = decode(encode(tokens, plan, params), plan, params)
        assert np.all(recon.data == 0.0)

    def test_latent_count_checked(self):
        config, params = tiny_params()
        plan = make_mask(4, 0.5, philox(6))
        bad_latents = Tensor(np.zeros((3, 8)), dtype=np.float64)
        with pytest.raises(nc.ShapeMismatch):
            decode(bad_latents, plan, params)


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

        # manual recomputation of the masked-scope value
        plan = make_mask(config.seq_len, config.mask_ratio, philox(5))
        latents = encode(patchify(inputs[0], config), plan, params)
        recon = decode(latents, plan, params).data
        rows = list(plan.masked_indices)
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

    def test_masked_scope_loss_is_one_record_over_masked_rows(self):
        """The fused loss's record reads exactly the masked tokens of each
        reconstruction and target, and its value and partial for the
        reconstruction rows match the float64 reference."""
        config, params = tiny_params(loss_scope="masked", dtype=np.float32)
        inputs, targets = make_batch(config, philox(15), 3)
        with nc.Tape() as tape:
            loss, recons = planned_loss(inputs, targets, params, philox(16))
        out, (pred, target), backward = tape._records[-1]
        masked = np.array([plan.masked_indices for plan in
                           mae.mask_plans(config, 3, philox(16))])[:, None, :, None]
        assert out is loss and pred.requires_grad and not target.requires_grad
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


class TestGradients:
    def test_tiny_config_matches_finite_differences(self):
        config, params = tiny_params(seed=1)
        rng = philox(13)
        tokens = rng.normal(0, 1, (4, 10))
        targets = np.stack([rng.normal(0, 1, (4, 10)) for _ in range(2)])
        plan = make_mask(4, 0.5, rng)

        def fn(tensors):
            view = mae.MaeParams(config=config, pos_encoding=params.pos_encoding,
                                 tensors=tensors)
            recon = decode(encode(tokens, plan, view), plan, view)
            return cosine_loss(recon, Tensor(targets, dtype=view.dtype))

        assert nc.grad_check(fn, params.tensors, fd_step=5e-5) < 1e-5

    def test_two_block_encoder_matches_finite_differences(self):
        config = MaeConfig(**{**TINY_CONFIG_KWARGS, "encoder_layers": 2})
        rng = philox(3)
        tokens = rng.normal(0, 1, (4, 10))
        plan = make_mask(4, 0.5, rng)

        def make_fn(pos):
            def fn(tensors):
                view = mae.MaeParams(config=config, pos_encoding=pos,
                                     tensors=tensors)
                out = encode(tokens, plan, view)
                return nc.sum(nc.mul(out, out))
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
        inputs = rng.normal(0, 1, (mae.PREDICT_CHUNK + 3, config.epoch_len))
        inputs = inputs.astype(np.float32)
        batched = mae.predict(params, inputs)
        assert batched.shape == (len(inputs), 2, config.epoch_len)
        for row, x in zip(batched, inputs):
            assert np.abs(row - mae.predict(params, [x])[0]).max() < 1e-5

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
        assert mae.predict(params, inputs).dtype == np.float32


class TestParallelPredict:
    """predict's worker pool, forced to more workers than this machine has
    cores so that it runs wherever the tests do."""

    CONFIG = TestBatching.CONFIG

    @pytest.fixture
    def workers(self, monkeypatch):
        workers = nc.cores() + 2
        monkeypatch.setattr(nc, "cores", lambda: workers)
        return workers

    @staticmethod
    def setup(workers, n_chunks):
        config = MaeConfig(**TestParallelPredict.CONFIG)
        params = init_params(config, seed=7, dtype=np.float32)
        chunk = max(1, mae.PREDICT_CHUNK // workers)
        n = chunk * max(n_chunks, -(-2 * mae.PREDICT_CHUNK // chunk))  # whole chunks, threaded
        inputs = philox(30).normal(0, 1, (n, config.epoch_len)).astype(np.float32)
        return params, chunk, inputs

    def test_stress_bit_equal_to_serial_chunks(self, workers):
        params, chunk, inputs = self.setup(workers, 4 * workers + 1)
        inputs = inputs[:len(inputs) - 3]  # a short last chunk
        # reference: the same chunks one predict call at a time
        reference = np.concatenate([mae.predict(params, inputs[lo: lo + chunk])
                                    for lo in range(0, len(inputs), chunk)])
        assert len(inputs) > 2 * chunk * workers
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: results.append(mae.predict(params, inputs)),
                                      daemon=True)
            runner.start()
            runner.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(results) == 1
        assert results[0].dtype == reference.dtype
        assert results[0].tobytes() == reference.tobytes()

    def test_main_thread_tape_records_nothing_from_workers(self, workers):
        params, _, inputs = self.setup(workers, 1)
        with nc.Tape() as tape:
            mae.predict(params, inputs[:2 * mae.PREDICT_CHUNK])
        assert tape._records == []
        with nc.Tape() as tape:  # one chunk runs on this thread
            mae.predict(params, inputs[:1])
        assert tape._records

    def test_wrong_length_in_late_chunk_raises(self, workers):
        params, chunk, inputs = self.setup(workers, 1)
        # every chunk but the last is well formed; the last holds one short epoch
        epochs = [*inputs, inputs[0][:-1]]
        assert len(epochs) % chunk == 1
        with pytest.raises(WrongLength):
            mae.predict(params, epochs)
        # a small input on the pool: the short epoch cannot stack with its chunk
        with pytest.raises(ValueError):
            mae.predict(params, [*inputs[:83], inputs[83][:-1]])

    def test_in_flight_bounded_on_more_cores_than_chunk(self, monkeypatch, fresh_pool):
        """On more cores than PREDICT_CHUNK, at most PREDICT_CHUNK epochs are
        between the start of encode and the end of decode at any moment."""
        monkeypatch.setattr(nc, "cores", lambda: 3 * mae.PREDICT_CHUNK)
        lock, in_flight, peak = threading.Lock(), [0], [0]
        encode, decode = mae.encode, mae.decode

        def counting_encode(tokens, plan, params):
            with lock:
                in_flight[0] += len(tokens)
                peak[0] = max(peak[0], in_flight[0])
            time.sleep(0.05)  # lets the other workers start their chunks
            return encode(tokens, plan, params)

        def counting_decode(latents, plan, params):
            recon = decode(latents, plan, params)
            with lock:
                in_flight[0] -= recon.shape[0]
            return recon

        monkeypatch.setattr(mae, "encode", counting_encode)
        monkeypatch.setattr(mae, "decode", counting_decode)
        config = MaeConfig(**TINY_CONFIG_KWARGS)
        params = init_params(config, seed=7, dtype=np.float32)
        inputs = philox(31).normal(0, 1, (4 * mae.PREDICT_CHUNK, config.epoch_len))
        assert mae.predict(params, inputs.astype(np.float32)).shape == (len(inputs), 2, 40)
        assert in_flight[0] == 0
        assert 1 < peak[0] <= mae.PREDICT_CHUNK

    @pytest.fixture(scope="class")
    def one_at_a_time(self):
        """130 epochs and their reconstructions, one predict call per epoch."""
        config = MaeConfig(**TestParallelPredict.CONFIG)
        params = init_params(config, seed=8, dtype=np.float32)
        inputs = philox(32).normal(0, 1, (130, config.epoch_len)).astype(np.float32)
        singles = [mae.predict(params, inputs[i:i + 1]) for i in range(len(inputs))]
        return params, inputs, np.concatenate(singles)

    @pytest.mark.parametrize("cores", [1, 2, 7])
    @pytest.mark.parametrize("n", [0, 1, 7, 12, 84, 127, 128, 130])
    def test_any_size_bit_equal_to_one_epoch_at_a_time(self, one_at_a_time, monkeypatch,
                                                       fresh_pool, cores, n):
        """Small inputs use the pool too, when they make two chunks on two
        cores; chunks hold 1 to PREDICT_CHUNK // workers epochs, and each of
        the min(workers, chunks) lanes runs on its own pool thread."""
        params, inputs, reference = one_at_a_time
        monkeypatch.setattr(nc, "cores", lambda: cores)  # fresh_pool: `cores` pool threads
        workers = min(cores, mae.PREDICT_CHUNK)
        chunk = max(1, min(mae.PREDICT_CHUNK // workers, -(-n // workers)))
        lanes = min(workers, -(-n // chunk))
        chunks, threads = [], set()
        # each lane's first chunk waits for every lane to start, so that
        # `lanes` threads must run encode, whichever lane pulls which chunk
        lanes_started = threading.Barrier(max(1, lanes), timeout=60)
        encode = mae.encode

        def counting_encode(tokens, plan, params):
            chunks.append(len(tokens))
            thread = threading.current_thread()
            if thread not in threads:
                threads.add(thread)
                lanes_started.wait()
            return encode(tokens, plan, params)

        monkeypatch.setattr(mae, "encode", counting_encode)
        out = mae.predict(params, inputs[:n])
        assert out.shape == reference[:n].shape and out.dtype == np.float32
        assert out.tobytes() == reference[:n].tobytes()
        assert sum(chunks) == n
        assert all(1 <= size <= mae.PREDICT_CHUNK // workers for size in chunks)
        if cores >= 2 and n >= 2:
            assert len(threads) == lanes == min(workers, len(chunks)) >= 2
            assert threading.current_thread() not in threads
        else:
            assert threads == ({threading.current_thread()} if n else set())


def test_init_ignores_ln_in_channel_names():
    """A head draws its values by its place, whatever its channel's name holds."""
    def init(channels):
        return init_params(MaeConfig(**{**TINY_CONFIG_KWARGS, "target_channels": channels}),
                           seed=3)
    plain, odd = init(("a", "b")), init(("x.ln", "y.ln1.g"))
    for (name, tensor), odd_tensor in zip(plain.tensors.items(), odd.tensors.values(),
                                          strict=True):
        assert np.array_equal(tensor.data, odd_tensor.data), name
