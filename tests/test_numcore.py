import math
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from psgmae import numcore as nc
from psgmae.numcore import (
    AdamState,
    DetachedTensor,
    LossNotScalar,
    NonFiniteValue,
    ShapeMismatch,
    Tape,
    Tensor,
    adam_step,
    grad_check,
)

from conftest import POOL_EXIT_WAIT_S, assert_close, one_record, ones_sum, philox


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestForward:
    def test_matmul_hand_computed(self):  # linear is numcore's matrix product
        a = t64([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        b = t64([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        out = nc.linear(a, b, t64([0.5, -1.0]))
        assert np.array_equal(out.data, [[4.5, 4.0], [10.5, 10.0]])

    def test_reductions_over_all_axes_are_zero_dimensional(self):
        from psgmae import mae
        x = t64(philox(1).normal(0, 1, (2, 3, 4)), requires_grad=True)
        with Tape() as tape:
            loss = mae.cosine_loss(x, t64(np.ones((2, 3, 4))))
        assert loss.shape == ()
        assert tape.backward(loss)[x].shape == x.shape

    def test_matmul_shape_error_mentions_shapes(self):
        with pytest.raises(ShapeMismatch) as err:
            nc.linear(t64(np.ones((2, 3))), t64(np.ones((2, 3))))
        assert "(2, 3)" in str(err.value)

    def test_add_broadcast_error_mentions_shapes(self):
        with pytest.raises(ShapeMismatch, match=r"\(2, 3\) \+ \(2,\)"):
            nc.add(t64(np.ones((2, 3))), t64(np.ones(2)))

    def test_softmax_uniform(self):
        """Equal keys give every key the same attention weight, so each
        query's output is the mean of the values."""
        rng = philox(0)
        q, v = (t64(rng.normal(0, 1, (2, 5, 6))) for _ in range(2))
        k = t64(np.broadcast_to(rng.normal(0, 1, 6), (2, 5, 6)))
        out = nc.attention(q, k, v, 3)
        means = np.broadcast_to(v.data.mean(axis=-2, keepdims=True), v.shape)
        assert np.abs(out.data - means).max() < 1e-12

    def test_softmax_rows_sum_to_one(self):
        """Each query's attention weights sum to one, so unit values give unit outputs."""
        rng = philox(0)
        q, k = (Tensor(rng.normal(0, 10, (5, 7, 4)), dtype=np.float64) for _ in range(2))
        out = nc.attention(q, k, t64(np.ones((5, 7, 4))), 2)
        assert np.abs(out.data - 1.0).max() < 1e-6

    def test_attention_shape_error_mentions_shapes(self):
        with pytest.raises(ShapeMismatch, match=r"\(2, 3, 4\)"):
            nc.attention(*(t64(np.ones((2, 3, 4))) for _ in range(2)), t64(np.ones((2, 4, 4))), 2)
        with pytest.raises(ShapeMismatch, match="3 heads"):
            nc.attention(*(t64(np.ones((2, 3, 4))) for _ in range(3)), 3)

    def test_layer_norm_statistics(self):
        gain = t64(np.ones(3))
        bias = t64(np.zeros(3))
        out = nc.layer_norm(t64([1.0, 2.0, 3.0]), gain, bias)
        assert abs(out.data.mean()) < 1e-6
        assert abs(out.data.std() - 1.0) < 1e-5

    def test_gather_rows(self):
        x = t64(np.arange(12.0).reshape(4, 3))
        out = nc.gather_rows(x, [2, 0, 2])
        assert np.array_equal(out.data, x.data[[2, 0, 2]])

    def test_concat_axis1(self):
        a = t64(np.ones((2, 2)))
        b = t64(np.zeros((2, 3)))
        assert nc.concat([a, b], axis=1).shape == (2, 5)

    def test_gelu_values(self):
        out = nc.gelu(t64([0.0, 100.0, -100.0]))
        assert out.data[0] == 0.0
        assert out.data[1] == pytest.approx(100.0)
        assert out.data[2] == pytest.approx(0.0, abs=1e-12)


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = t64([[1.0, -2.0], [3.0, 0.5]], requires_grad=True)
        with Tape() as tape:
            loss = ones_sum(nc.linear(x, x))  # the matrix square x @ x
        ones = np.ones((2, 2))
        assert np.array_equal(tape.backward(loss)[x], ones @ x.data.T + x.data.T @ ones)

    def test_broadcast_add_sums_over_axes(self):
        a = t64(np.ones((2, 3)), requires_grad=True)
        b = t64(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = ones_sum(nc.add(a, b))
        grads = tape.backward(loss)
        assert np.array_equal(grads[a], np.ones((2, 3)))
        assert np.array_equal(grads[b], np.full(3, 2.0))

    def test_gradient_accumulates_across_uses(self):
        x = t64([[2.0]], requires_grad=True)
        with Tape() as tape:
            loss = ones_sum(nc.add(nc.linear(x, x), x))  # x^2 + x
        assert np.array_equal(tape.backward(loss)[x], [[5.0]])

    def test_loss_not_scalar(self):
        x = t64([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        with Tape() as tape:
            y = nc.linear(x, x)
        with pytest.raises(LossNotScalar):
            tape.backward(y)

    def test_detached_loss(self):
        x = t64([1.0], requires_grad=True)
        with Tape():
            pass
        tape = Tape()
        with pytest.raises(DetachedTensor):
            tape.backward(x)

    def test_no_recording_without_tape(self):
        x = t64([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        out = nc.linear(x, x)
        assert out.requires_grad is False

    def test_backward_returns_each_leaf_gradient_once(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2)))
        w = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True, dtype=np.float32)
        b = Tensor(rng.normal(0, 1, 4), requires_grad=True, dtype=np.float32)
        b_linear, b_add = (Tensor(b.data.copy(), requires_grad=True) for _ in range(2))
        x = Tensor(rng.normal(0, 1, (5, 3)), dtype=np.float32)

        def tape_and_loss(linear_bias, add_bias):
            with Tape() as tape:
                h = nc.gelu(nc.linear(x, w, linear_bias))
                loss = ones_sum(nc.gelu(nc.add(h, add_bias)), 1 / 20)  # the mean
            return tape, loss

        tape, loss = tape_and_loss(b, b)  # b reaches the loss twice
        grads = tape.backward(loss)
        assert grads.keys() == {w, b}  # leaves only: not x, not the intermediates
        assert all(g.dtype == np.float32 for g in grads.values())
        again = tape.backward(loss)  # nothing carried over from the first call
        assert again is not grads and all(
            again[t].tobytes() == grads[t].tobytes() for t in (w, b))
        # b's gradient is the sum of its two uses, each seen as its own leaf
        tape, loss = tape_and_loss(b_linear, b_add)
        split = tape.backward(loss)
        assert split.keys() == {w, b_linear, b_add}
        assert grads[w].tobytes() == split[w].tobytes()
        assert grads[b].tobytes() == (split[b_add] + split[b_linear]).tobytes()
        assert not (grads[b] == split[b_linear]).all()

    def test_composite_ops_match_fd(self):
        # concat/gather/scatter/split_heads/attention/gelu/layer_norm path; split_heads
        # leaves three axes, which no linear folds, so the training loss reduces them
        from psgmae import mae
        rng = philox(1)
        params = {name: Tensor(rng.normal(0, 1, shape), requires_grad=True, dtype=np.float64)
                  for name, shape in (("a", (3, 4)), ("b", (5, 4)), ("fill", (4,)))}
        ones, zeros = t64(np.ones(4)), t64(np.zeros(4))
        target = t64(rng.normal(0, 1, (2, 7, 2)))

        def fn(p):
            stacked = nc.concat([p["a"], p["b"]], axis=0)  # (8, 4)
            picked = nc.gather_rows(stacked, [0, 3, 3, 7, 5])
            mixed = nc.attention(picked, nc.gelu(picked), picked, 2)
            spread = nc.scatter_rows(mixed, [4, 0, 2, 6, 1], 7, p["fill"])
            normed = nc.layer_norm(spread, ones, zeros)
            heads = nc.gelu(nc.add(nc.split_heads(normed, 2), nc.split_heads(spread, 2)))
            return mae.cosine_loss(heads, target)

        assert grad_check(fn, params, fd_step=1e-5) < 1e-6


def zero_state(params, **hyperparameters) -> AdamState:
    """Step 0 of Adam over ``params``: zero moments shaped like each parameter."""
    return AdamState(**hyperparameters, m={n: np.zeros_like(p.data) for n, p in params.items()},
                     v={n: np.zeros_like(p.data) for n, p in params.items()})


class TestAdam:
    def test_first_step_closed_form(self):
        lr, eps = 1e-3, 1e-8
        w = t64([1.0, -2.0, 0.5], requires_grad=True)
        g = np.array([0.3, -0.7, 0.001])
        state = zero_state({"w": w}, lr=lr, epsilon=eps)
        adam_step({"w": w}, state, {"w": g.copy()})
        # m_hat = g, v_hat = g^2  =>  delta = -lr * g / (|g| + eps)
        expected = np.array([1.0, -2.0, 0.5]) - lr * g / (np.abs(g) + eps)
        assert np.allclose(w.data, expected, rtol=0, atol=1e-15)
        assert state.step == 1

    def test_zero_gradient_fixed_point(self):
        w = t64([1.0, 2.0], requires_grad=True)
        state = zero_state({"w": w})
        for _ in range(5):
            adam_step({"w": w}, state, {"w": np.zeros(2)})
        assert np.array_equal(w.data, [1.0, 2.0])
        assert np.all(state.m["w"] == 0.0)

    def test_absent_gradient_counts_as_zero(self):
        w, v = t64([1.0, 2.0], requires_grad=True), t64([3.0], requires_grad=True)
        state = zero_state({"w": w, "v": v})
        for _ in range(3):
            adam_step({"w": w, "v": v}, state, {"v": np.array([0.5])})
        assert np.array_equal(w.data, [1.0, 2.0])
        assert np.all(state.m["w"] == 0.0) and np.all(state.v["w"] == 0.0)
        assert v.data[0] < 3.0 and state.step == 3

    def test_moments_decay_after_zero_grads(self):
        w = t64([0.0], requires_grad=True)
        state = zero_state({"w": w}, lr=0.0)
        adam_step({"w": w}, state, {"w": np.array([1.0])})
        m_before = state.m["w"].copy()
        adam_step({"w": w}, state, {"w": np.array([0.0])})
        assert abs(state.m["w"][0]) < abs(m_before[0])

    def test_scalar_quadratic_converges(self):
        # oracle run: 200 steps on (w-3)^2 from 0; lr 0.1 (the default 1e-3
        # cannot cover the distance in 200 near-unit steps)
        w = t64([0.0], requires_grad=True)
        state = zero_state({"w": w}, lr=0.1)
        for _ in range(200):
            adam_step({"w": w}, state, {"w": 2.0 * (w.data - 3.0)})
        assert abs(w.data[0] - 3.0) < 0.01

    def test_shape_mismatch(self):
        w = t64([1.0, 2.0], requires_grad=True)
        state = zero_state({"w": w})
        with pytest.raises(ShapeMismatch):
            adam_step({"w": w}, state, {"w": np.zeros(3)})


class TestParallelMap:
    """numcore's one worker pool, made afresh in each test for the core count given."""

    @pytest.fixture
    def pool_of(self, monkeypatch, fresh_pool):
        return lambda cores: monkeypatch.setattr(nc, "cores", lambda: cores)

    def test_results_come_back_in_item_order(self, pool_of):
        pool_of(4)

        def square(i):
            time.sleep(0.005 * (8 - i))  # later items finish first
            return i * i

        assert nc._parallel_map(square, range(8)) == [i * i for i in range(8)]

    @pytest.mark.parametrize("failing", [3, 0])
    def test_error_reraises_after_every_item_ends(self, pool_of, failing):
        pool_of(2)
        done = []

        def item(i):
            if i == failing:
                raise KeyError(i)
            time.sleep(0.02)
            done.append(i)

        with pytest.raises(KeyError):
            nc._parallel_map(item, range(4))
        assert sorted(done) == sorted({0, 1, 2, 3} - {failing})

    def test_call_from_a_pool_thread_runs_serially(self, pool_of):
        """Both pool threads busy with outer items: a nested call that waited
        on the pool would never return."""
        pool_of(2)
        seen = {}

        def outer(i):
            inner = nc._parallel_map(lambda _: threading.current_thread(), range(3))
            seen[i] = (threading.current_thread(), inner)

        runner = threading.Thread(target=nc._parallel_map, args=(outer, range(2)), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert sorted(seen) == [0, 1]
        for thread, inner in seen.values():
            assert thread is not runner and inner == [thread] * 3

    def test_second_call_reuses_the_first_calls_threads(self, pool_of):
        pool_of(2)
        barrier = threading.Barrier(2, timeout=30)

        def meet(_):
            barrier.wait()  # both items at once, so on two threads
            return threading.current_thread()

        first = nc._parallel_map(meet, range(2))
        assert len(set(first)) == 2 and threading.current_thread() not in first
        assert set(nc._parallel_map(meet, range(2))) == set(first)

    @pytest.mark.parametrize("cores, count", [(4, 0), (4, 1), (1, 5)])
    def test_one_item_or_one_core_runs_on_the_calling_thread(self, pool_of, cores, count):
        pool_of(cores)
        here = threading.current_thread()
        assert nc._parallel_map(lambda _: threading.current_thread(), range(count)) == [here] * count
        assert nc._POOL is None


class TestOrderedMap:
    """numcore's ordered map: results in item order, computed ahead of the consumer."""

    @pytest.fixture
    def pool_of(self, monkeypatch, fresh_pool):
        return lambda cores: monkeypatch.setattr(nc, "cores", lambda: cores)

    def test_results_arrive_in_item_order(self, pool_of):
        pool_of(4)

        def square(i):
            time.sleep(0.005 * (8 - i))  # later items finish first
            return i * i

        assert list(nc._ordered_map(square, range(8))) == [i * i for i in range(8)]

    def test_items_run_ahead_of_the_consumer(self, pool_of):
        pool_of(2)
        last_ended = threading.Event()

        def item(i):
            if i == 3:
                last_ended.set()
            return i

        results = nc._ordered_map(item, range(4))
        assert next(results) == 0
        assert last_ended.wait(timeout=30)  # while the consumer still holds item 0
        assert list(results) == [1, 2, 3]

    def test_each_result_arrives_while_later_items_still_run(self, pool_of):
        pool_of(2)
        first_taken = threading.Event()

        def item(i):
            if i == 3:  # a map that waited for every item first would time out here
                assert first_taken.wait(timeout=30), "item 0 never reached the consumer"
            return i

        results = nc._ordered_map(item, range(4))
        assert next(results) == 0
        first_taken.set()
        assert list(results) == [1, 2, 3]

    @pytest.mark.parametrize("failing", [0, 2, 4])
    def test_an_items_error_reraises_after_every_item_ends(self, pool_of, failing):
        pool_of(2)
        done, got = [], []

        def item(i):
            if i == failing:
                raise KeyError(i)
            time.sleep(0.02)
            done.append(i)
            return i

        with pytest.raises(KeyError):
            for result in nc._ordered_map(item, range(5)):
                got.append(result)
        assert got == list(range(failing))  # the results before the failed item
        assert sorted(done) == sorted(set(range(5)) - {failing})

    def test_a_consumer_error_cancels_unstarted_items_after_the_started_ones_end(
            self, pool_of):
        """The consumer raises holding item 0 while items 1 and 2 hold both pool
        threads: items 3-5 never start, and 1 and 2 end before the error re-raises."""
        pool_of(2)
        started, ended, busy, gate = [], [], threading.Semaphore(0), threading.Event()

        def item(i):
            started.append(i)
            if i:
                busy.release()
                gate.wait(timeout=30)
            ended.append(i)
            return i

        class Stop(Exception):
            pass

        with pytest.raises(Stop):
            for result in nc._ordered_map(item, range(6)):
                assert result == 0
                assert all(busy.acquire(timeout=30) for _ in range(2))
                threading.Timer(0.2, gate.set).start()  # items 1 and 2 end 0.2 s on
                raise Stop
        assert gate.is_set() and sorted(ended) == [0, 1, 2]
        assert sorted(started) == [0, 1, 2]
        time.sleep(0.05)
        assert sorted(started) == [0, 1, 2]  # the cancelled items stay cancelled
        # the pool still works afterwards, on its own threads
        threads = nc._parallel_map(lambda _: threading.current_thread(), range(4))
        assert threading.current_thread() not in threads

    def test_pool_works_after_an_items_error(self, pool_of):
        pool_of(2)

        def item(i):
            if i == 1:
                raise KeyError(i)
            return i

        with pytest.raises(KeyError):
            list(nc._ordered_map(item, range(3)))
        assert nc._parallel_map(lambda i: i * 2, range(5)) == [0, 2, 4, 6, 8]

    @pytest.mark.parametrize("cores, count", [(4, 0), (4, 1), (1, 5)])
    def test_one_item_or_one_core_runs_serially_on_the_calling_thread(self, pool_of, cores,
                                                                      count):
        pool_of(cores)
        calls = []

        def item(i):
            calls.append((i, threading.current_thread()))
            return i

        here, results = threading.current_thread(), nc._ordered_map(item, range(count))
        for i in range(count):
            assert next(results) == i
            assert calls == [(j, here) for j in range(i + 1)]  # none ahead of the consumer
        assert list(results) == []
        assert nc._POOL is None

    def test_call_from_a_pool_thread_runs_serially_on_it(self, pool_of):
        pool_of(2)
        seen = {}

        def outer(i):
            inner = list(nc._ordered_map(lambda _: threading.current_thread(), range(3)))
            seen[i] = (threading.current_thread(), inner)

        runner = threading.Thread(target=nc._parallel_map, args=(outer, range(2)), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert sorted(seen) == [0, 1]
        for thread, inner in seen.values():
            assert thread is not runner and inner == [thread] * 3


def test_deadlocked_pool_thread_ends_the_session_with_a_failing_status(tmp_path):
    """A test run whose pool threads never return exits non-zero, with their
    stacks on stderr, instead of hanging when the interpreter joins them."""
    (tmp_path / "test_deadlock.py").write_text(textwrap.dedent("""\
        import threading

        from psgmae import numcore as nc


        def test_leaves_two_pool_threads_waiting_forever(monkeypatch):
            monkeypatch.setattr(nc, "cores", lambda: 2)
            started, never = threading.Semaphore(0), threading.Event()

            def wait_forever(_):
                started.release()
                never.wait()

            threading.Thread(target=nc._parallel_map, args=(wait_forever, range(2)),
                             daemon=True).start()
            assert all(started.acquire(timeout=30) for _ in range(2))
        """))
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here), str(here.parent / "src")])}
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "conftest",
                           "-p", "no:cacheprovider", "test_deadlock.py"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=POOL_EXIT_WAIT_S + 60)
    assert time.monotonic() - started < POOL_EXIT_WAIT_S + 60
    assert proc.returncode != 0
    assert "1 passed" in proc.stdout
    assert "numcore pool threads ['numcore_0', 'numcore_1'] still running" in proc.stderr
    assert "wait_forever" in proc.stderr  # the stuck threads' stacks


class TestGradCheck:
    def test_constant_function(self):
        params = {"x": t64([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)}

        def fn(p):
            return ones_sum(nc.linear(nc.linear(p["x"], p["x"]), t64(np.zeros((2, 2)))))

        assert grad_check(fn, params, fd_step=1e-4) < 1e-9

    def test_sum_of_squares(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2)))
        params = {"x": Tensor(rng.normal(0, 1, (4, 4)), requires_grad=True,
                              dtype=np.float64)}

        def fn(p):
            return ones_sum(nc.linear(p["x"], p["x"]))  # the matrix square

        assert grad_check(fn, params, fd_step=1e-4) < 1e-6

    def test_non_finite(self):
        params = {"x": t64([1.0], requires_grad=True)}

        def fn(p):
            return ones_sum(nc.add(p["x"], t64(np.nan)))

        with pytest.raises(NonFiniteValue):
            grad_check(fn, params)


class TestNumericalSafety:
    @given(arrays(np.float64, (4, 6),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_no_nan_on_finite_inputs(self, data):
        x = Tensor(data, dtype=np.float64)
        gain = t64(np.ones(6))
        bias = t64(np.zeros(6))
        assert np.isfinite(nc.attention(x, x, x, 2).data).all()
        assert np.isfinite(nc.layer_norm(x, gain, bias).data).all()
        assert np.isfinite(nc.gelu(x).data).all()

    @given(st.one_of(
        arrays(np.float32, 8, elements=st.floats(width=32, allow_nan=False,
                                                 allow_infinity=False)),
        arrays(np.float64, 8, elements=st.floats(allow_nan=False,
                                                 allow_infinity=False)),
    ))
    @example(np.array([3.4028235e38, -3.4028235e38, 1e20, -1e20, 7e12, 0.0],
                      dtype=np.float32))
    @example(np.array([1.7976931348623157e308, -1.7976931348623157e308, 1e160,
                       -1e160, 0.0], dtype=np.float64))
    @settings(max_examples=100, deadline=None)
    def test_gelu_finite_forward_and_backward(self, data):
        x = Tensor(data, requires_grad=True)
        with Tape() as tape, np.errstate(over="ignore"):  # only the sum may overflow
            out = nc.gelu(x)
            loss = ones_sum(out)
        grad = tape.backward(loss)[x]
        assert np.isfinite(out.data).all()
        assert np.isfinite(grad).all()
        assert out.dtype == grad.dtype == data.dtype

    @pytest.mark.parametrize("x", [-8.0, -5.0, -3.0, -2.0, -1.5, -1.0, -0.5,
                                   -0.1, 0.0, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0])
    def test_gelu_close_to_erf_form(self, x):
        reference = 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))
        for dtype in (np.float32, np.float64):
            out = nc.gelu(Tensor(np.array([x], dtype=dtype))).data[0]
            assert abs(float(out) - reference) < 5e-4

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(9)))
            x = Tensor(rng.normal(0, 1, (8, 8)), requires_grad=True,
                       dtype=np.float32)
            w = Tensor(rng.normal(0, 1, (8, 8)), requires_grad=True,
                       dtype=np.float32)
            with Tape() as tape:
                loss = ones_sum(nc.gelu(nc.linear(x, w)), 1 / 64)  # the mean
            grads = tape.backward(loss)
            return loss.data.copy(), grads[x], grads[w]

        first = run()
        second = run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


# The kernels' earlier expressions, one fresh array per sub-expression, kept as
# the byte reference: each returns (output, partials for every input) for the
# upstream gradient g. The kernels must perform the same floating-point
# operations on the same operands in the same grouping, so every byte agrees.
def _reduce_ref(grad, shape):
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    return grad


def ref_linear(x, w, b, g):
    flat_x = x.reshape(-1, w.shape[0])
    out = (flat_x @ w + b).reshape(x.shape[:-1] + w.shape[1:])
    rows = g.reshape(-1, w.shape[1])
    return out, ((rows @ w.T).reshape(x.shape), flat_x.T @ rows, rows.sum(axis=0))


def ref_gelu(x, g):
    k, c = math.sqrt(2.0 / math.pi), 0.044715
    clipped = np.clip(x, -10.0, 10.0)
    square = clipped * clipped
    t = np.tanh(k * clipped * (1.0 + c * square))
    out = 0.5 * x * (1.0 + t)
    dt = (1.0 - t * t) * (k * (1.0 + 3.0 * c * square))
    return out, (g * (0.5 * (1.0 + t) + 0.5 * x * dt),)


def ref_layer_norm(x, gain, bias, g, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gain + bias
    h = g * gain
    dx = inv * (h - h.mean(axis=-1, keepdims=True)
                - xhat * (h * xhat).mean(axis=-1, keepdims=True))
    return out, (dx, _reduce_ref(g * xhat, gain.shape), _reduce_ref(g, bias.shape))


KERNELS = {"linear": (nc.linear, ref_linear), "gelu": (nc.gelu, ref_gelu),
           "layer_norm": (nc.layer_norm, ref_layer_norm)}


def _read_only(arr):
    arr = np.array(arr)
    arr.setflags(write=False)
    return arr


def kernel_inputs(name, dtype, scale, shape=(3, 5, 12)):
    """Read-only inputs of kernel ``name``: a scaled normal x whose first
    entries are exactly +0, -0, +10 and -10 (the GELU clip edge), plus the
    weight and bias arguments; and a read-only upstream gradient."""
    rng = philox([len(name), int(math.log2(scale))])
    x = rng.normal(0, 1, shape) * scale
    x.reshape(-1)[:4] = [0.0, -0.0, 10.0, -10.0]
    width = shape[-1]
    extra = {"linear": [rng.normal(0, 1, (width, 7)), rng.normal(0, 1, 7)],
             "layer_norm": [rng.normal(1, 0.5, width), rng.normal(0, 1, width)]}.get(name, [])
    inputs = [_read_only(np.asarray(a, dtype=dtype)) for a in (x, *extra)]
    out_shape = shape[:-1] + (7,) if name == "linear" else shape
    g = rng.normal(0, 1, out_shape)
    g.reshape(-1)[:2] = [0.0, -0.0]
    return inputs, _read_only(g.astype(dtype))


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


class TestKernelBytes:
    """linear, gelu and layer_norm write into arrays they allocate,
    and give the same bytes as their one-array-per-sub-expression references."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scale", [1.0, 8.0, 1e3, 1e20])
    def test_output_and_partials_match_reference(self, name, dtype, scale):
        kernel, reference = KERNELS[name]
        inputs, g = kernel_inputs(name, dtype, scale)
        tensors = [Tensor(a, requires_grad=True) for a in inputs]
        assert not any(t.data.flags.writeable for t in tensors)  # writing into one raises
        with Tape() as tape, np.errstate(all="ignore"):
            out = kernel(*tensors)
        (record_out, record_inputs, backward), = tape._records
        assert record_out is out and list(record_inputs) == tensors
        with np.errstate(all="ignore"):
            partials = backward(g)  # read-only g: writing into it raises
            expected_out, expected_partials = reference(*inputs, g)
        assert_same_bits(out.data, expected_out)
        assert len(partials) == len(expected_partials) == len(inputs)
        for partial, expected in zip(partials, expected_partials):
            assert_same_bits(np.asarray(partial), expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shared_upstream_through_add(self, dtype):
        """add hands one gradient array to both inputs; each kernel's branch
        must see it unchanged, so x's gradient is the references' sum."""
        (x, gain, bias), _ = kernel_inputs("layer_norm", dtype, 1.0, shape=(24, 12))
        rng = philox(5)
        w = rng.normal(0, 1, (12, 12)).astype(dtype)  # square: every branch keeps x's shape
        b, weights = rng.normal(0, 1, 12).astype(dtype), rng.normal(0, 1, (12, 1)).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            total = nc.add(nc.add(nc.gelu(xt), nc.layer_norm(xt, Tensor(gain), Tensor(bias))),
                           nc.linear(xt, Tensor(w), Tensor(b)))
            loss = ones_sum(nc.linear(total, Tensor(weights)))
        grads = tape.backward(loss)
        # d loss / d total: each row is the weight column, exactly, as 1 x w
        g = np.ascontiguousarray(np.broadcast_to(weights[:, 0], x.shape))
        # partials reach x in reverse record order: linear, layer_norm, gelu
        expected = np.zeros_like(x)
        for partial in (ref_linear(x, w, b, g)[1][0], ref_layer_norm(x, gain, bias, g)[1][0],
                        ref_gelu(x, g)[1][0]):
            expected += partial
        assert_same_bits(grads[xt], expected)


# float64 reference of the fused attention kernel, in the plain (queries, keys)
# layout with one expression per step: (output, partials) for the upstream
# gradient g. The kernel groups its sums differently, so it is held to a
# tolerance set by the dtype (assert_close), not to the reference's bytes.
def ref_attention(q, k, v, g, heads):
    *lead, n, width = q.shape
    d = width // heads
    qh, kh, vh, gh = (np.asarray(a, np.float64).reshape(*lead, n, heads, d) for a in (q, k, v, g))
    scores = np.einsum("...qhd,...khd->...hqk", qh, kh) / math.sqrt(d)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    dp = np.einsum("...qhd,...khd->...hqk", gh, vh)
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) / math.sqrt(d)
    out = np.einsum("...hqk,...khd->...qhd", p, vh)
    partials = (np.einsum("...hqk,...khd->...qhd", ds, kh),
                np.einsum("...hqk,...qhd->...khd", ds, qh),
                np.einsum("...hqk,...qhd->...khd", p, gh))
    return out.reshape(q.shape), tuple(a.reshape(q.shape) for a in partials)


class TestAttentionKernel:
    """One tape record, held to the float64 reference; read-only inputs and
    upstream gradient show that neither pass writes into what it is given."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("heads, shape", [(1, (3, 5, 4)), (2, (2, 3, 7, 8)), (4, (4, 6, 16))])
    @pytest.mark.parametrize("scale", [1.0, 8.0])
    def test_output_and_partials(self, dtype, heads, shape, scale):
        rng = philox([heads, len(shape), int(scale)])
        q, k, v, g = (_read_only((rng.normal(0, 1, shape) * s).astype(dtype))
                      for s in (scale, scale, 1.0, 1.0))
        out, partials = one_record(nc.attention, [Tensor(a, requires_grad=True) for a in (q, k, v)],
                                   g, heads)
        expected_out, expected_partials = ref_attention(q, k, v, g, heads)
        assert_close(out.data, expected_out, dtype)
        assert len(partials) == 3
        for partial, expected in zip(partials, expected_partials):
            assert_close(partial, expected, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sequences_do_not_share_bits(self, dtype):
        """Each sequence's output and partials are byte-equal to its own call:
        no reduction in the kernel depends on the batch size."""
        rng = philox(40)
        q, k, v, g = (rng.normal(0, 1, (9, 7, 16)).astype(dtype) for _ in range(4))
        batch = one_record(nc.attention, [Tensor(a, requires_grad=True) for a in (q, k, v)], g, 4)
        for i in (0, 4, 8):
            alone = one_record(nc.attention, [Tensor(a[i:i + 1], requires_grad=True)
                                              for a in (q, k, v)], g[i:i + 1], 4)
            assert alone[0].data.tobytes() == batch[0].data[i:i + 1].tobytes()
            for single, batched in zip(alone[1], batch[1]):
                assert single.tobytes() == batched[i:i + 1].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 15, 30])
    def test_running_max_bytes_equal_max_down_columns(self, monkeypatch, dtype, n):
        """The softmax's running maximum over key rows gives the output and
        partials of p.max(axis=-2) byte for byte, ties included."""
        rng = philox([n, 44])
        q, k, v, g = (rng.normal(0, 4, (32, n, 16)).astype(dtype) for _ in range(4))
        k[:, n // 2] = k[:, 0]  # tied maxima
        q[0] = 0.0  # all-zero weights, so every key ties at 0
        running = one_record(nc.attention, [Tensor(a, requires_grad=True) for a in (q, k, v)],
                             g, 4)
        monkeypatch.setattr(nc, "_key_max", lambda p: p.max(axis=-2, keepdims=True))
        down = one_record(nc.attention, [Tensor(a, requires_grad=True) for a in (q, k, v)], g, 4)
        assert running[0].data.tobytes() == down[0].data.tobytes()
        for ours, theirs in zip(running[1], down[1]):
            assert ours.tobytes() == theirs.tobytes()
        with pytest.raises(ValueError):  # no keys at all, as p.max raises
            nc._key_max(np.empty((2, 0, n), dtype))

    def test_matches_fd(self):
        rng = philox(43)
        params = {name: Tensor(rng.normal(0, 1, (10, 6)), requires_grad=True, dtype=np.float64)
                  for name in "qkv"}
        weights = t64(rng.normal(0, 1, (6, 4)))

        def fn(p):
            return ones_sum(nc.linear(nc.gelu(nc.attention(p["q"], p["k"], p["v"], 3)), weights))

        assert grad_check(fn, params, fd_step=1e-5) < 1e-6
