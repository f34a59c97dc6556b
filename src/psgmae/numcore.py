"""Dense-tensor numerical core: reverse-mode autodiff on an explicit tape,
Adam, and finite-difference gradient verification.

Tensors wrap contiguous row-major numpy arrays (float32 for training,
float64 for gradient checks). Ops executed while a Tape is active record a
backward rule; ``Tape.backward`` walks the records in reverse, which is a
valid reverse-topological order because records are appended in execution
order. It returns each requires_grad leaf's gradient, keyed by the leaf.
A record holds no op output, its rule only the arrays it reads, and backward
drops each record once its rule has run.
``_ordered_map`` runs every parallel loop of the package on one shared pool.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np


def cores() -> int:
    """CPUs this process may run on: the thread count of the shared pool."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_POOL_LOCK = threading.Lock()
_POOL = None


def _ordered_map(fn, items):
    """fn(item) per item in order, each once it and all before it end, run ahead on the pool of
    cores() threads (made on first use); serial as asked for one item, one core or a pool
    thread's call. Submitted items end before an error re-raises; a consumer's cancels the rest."""
    global _POOL
    if len(items) < 2 or cores() < 2 or threading.current_thread().name.startswith("numcore"):
        return (yield from map(fn, items))
    from concurrent.futures import ThreadPoolExecutor, wait  # here, so CLI start-up skips it
    with _POOL_LOCK:
        _POOL = _POOL or ThreadPoolExecutor(cores(), "numcore")
    futures = [_POOL.submit(fn, item) for item in items]
    try:
        yield from (future.result() for future in futures)
    except GeneratorExit:  # the consumer stopped
        for future in futures:
            future.cancel()
        raise
    finally:
        wait(futures)


def _parallel_map(fn, items) -> list:
    return list(_ordered_map(fn, items))


class NumcoreError(Exception):
    pass


class ShapeMismatch(NumcoreError):
    pass


class LossNotScalar(NumcoreError):
    pass


class DetachedTensor(NumcoreError):
    pass


class NonFiniteValue(NumcoreError):
    pass


class Tensor:
    """Dense n-dimensional float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        # ascontiguousarray would give a 0-d array (a scalar loss) shape (1,)
        self.data = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        self.requires_grad = requires_grad
        self.node = None  # (tape serial, record index) of the op that made it

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise LossNotScalar(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


# per thread: an op records only onto a tape entered on its own thread
class _TapeStack(threading.local):
    def __init__(self):
        self.tapes: list[Tape] = []


_TAPE_STACK = _TapeStack()
_TAPE_SERIALS = itertools.count()


class Tape:
    """Ordered record of operations; context manager activates recording."""

    def __init__(self):
        self._serial = next(_TAPE_SERIALS)
        # (backward, per input: its record index here, the leaf, or None if it needs no gradient)
        self._records: list[tuple[object, tuple[int | Tensor | None, ...]]] | None = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.tapes.pop()
        assert popped is self

    def record(self, output: Tensor, inputs: tuple[Tensor, ...], backward) -> None:
        sources = tuple(t.node[1] if t.node and t.node[0] == self._serial
                        else t if t.requires_grad else None for t in inputs)
        output.node = (self._serial, len(self._records))
        self._records.append((backward, sources))

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """d(loss)/d(leaf) of each requires_grad leaf the loss reaches, keyed by the
        leaf; nothing is written onto tensors, so tapes on many threads share leaves.
        Each record is dropped once its rule has run, so a tape runs backward once."""
        if loss.data.size != 1:
            raise LossNotScalar(f"loss has shape {loss.shape}, expected a scalar")
        if loss.node is None or loss.node[0] != self._serial:
            raise DetachedTensor("loss was not produced by an op on this tape")

        records, self._records = self._records, None
        if records is None:
            raise NumcoreError("this tape has run backward already; a tape runs backward once")
        grads: dict[int, np.ndarray] = {loss.node[1]: np.ones_like(loss.data)}
        leaves: dict[Tensor, np.ndarray] = {}
        while records:
            backward_fn, sources = records.pop()  # freed, with all its rule holds, by the next pop
            upstream = grads.pop(len(records), None)
            if upstream is None:
                continue
            for source, partial in zip(sources, backward_fn(upstream)):
                if partial is None or source is None:
                    continue
                if isinstance(source, int):
                    held = grads.get(source)
                    grads[source] = partial if held is None else held + partial
                elif source in leaves:
                    leaves[source] += partial
                else:  # 0.0 + partial, so a -0.0 partial gives +0.0 as a sum into zeros would
                    leaves[source] = np.add(0.0, partial, out=np.empty_like(source.data))
        return leaves


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], backward) -> Tensor:
    tape = _TAPE_STACK.tapes[-1] if _TAPE_STACK.tapes else None
    tracked = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=tracked)
    if tracked:
        tape.record(out, inputs, backward)
    return out


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _swap(arr: np.ndarray) -> np.ndarray:
    return np.swapaxes(arr, -1, -2)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) for a 2-d weight as one tape record; the leading axes of x
    are batch axes."""
    if w.data.ndim != 2 or x.shape[-1:] != w.shape[:1] or (
            b is not None and b.shape != w.shape[1:]):
        raise ShapeMismatch(f"linear cannot apply {w.shape} weight to {x.shape}")
    # one 2-d product: np.matmul would call BLAS once per example
    flat_x, weight = x.data.reshape(-1, w.shape[0]), w.data
    x_shape, x_grad, biased = x.shape, x.requires_grad, b is not None
    out = flat_x @ weight
    if biased:
        out += b.data

    def backward(g):
        rows = g.reshape(-1, weight.shape[1])
        dx = (rows @ weight.T).reshape(x_shape) if x_grad else None
        return (dx, flat_x.T @ rows, rows.sum(axis=0)) if biased else (dx, flat_x.T @ rows)

    return _make(out.reshape(x.shape[:-1] + w.shape[1:]),
                 (x, w) if b is None else (x, w, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b, broadcast; an operand that needs no gradient gets no partial."""
    a_shape, b_shape = (t.shape if t.requires_grad else None for t in (a, b))
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise ShapeMismatch(f"add cannot broadcast {a.shape} + {b.shape}") from exc

    def backward(g):
        return (None if a_shape is None else _reduce_to(g, a_shape),
                None if b_shape is None else _reduce_to(g, b_shape))

    return _make(out, (a, b), backward)


def _heads(arr: np.ndarray, heads: int) -> np.ndarray:
    """(..., n, heads * d) -> (..., heads, n, d), as a view of arr."""
    *lead, n, width = arr.shape
    return np.swapaxes(arr.reshape(*lead, n, heads, width // heads), -2, -3)


def split_heads(a: Tensor, heads: int) -> Tensor:
    """(..., n, heads * d) -> (..., heads, n, d)."""
    shape = a.shape
    return _make(_heads(a.data, heads), (a,), lambda g: (np.swapaxes(g, -2, -3).reshape(shape),))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one tape record: projections
    q, k and v (..., n, heads * d) give the heads' outputs, merged as
    (..., n, heads * d); each head is a view of its d columns.

    The weights are held transposed, (..., heads, keys, queries), so the
    softmax's max and sum run across rows (axis -2). A query's weights then
    do not depend on how many sequences share the call, as they would with
    BLAS products by a ones vector, and no reduction runs along short rows."""
    if not q.shape == k.shape == v.shape or q.data.ndim < 2 or q.shape[-1] % heads:
        raise ShapeMismatch(f"attention of {heads} heads over q {q.shape}, k {k.shape}, "
                            f"v {v.shape}")
    qh, kh, vh = (_heads(t.data, heads) for t in (q, k, v))
    scale = 1.0 / math.sqrt(qh.shape[-1])
    p = np.matmul(kh, _swap(qh))
    p *= scale
    p -= p.max(axis=-2, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-2, keepdims=True)
    out = np.empty_like(q.data)
    np.matmul(_swap(p), vh, out=_heads(out, heads))
    shape, dtype = q.shape, q.dtype

    def backward(g):
        gh = _heads(g, heads)
        ds = np.matmul(vh, _swap(gh))  # d loss / d p, then through the softmax and scale
        ds -= np.multiply(ds, p).sum(axis=-2, keepdims=True)
        ds *= p
        ds *= scale
        dq, dk, dv = (np.empty(shape, dtype) for _ in range(3))
        np.matmul(_swap(ds), kh, out=_heads(dq, heads))
        np.matmul(ds, qh, out=_heads(dk, heads))
        np.matmul(p, gh, out=_heads(dv, heads))
        return dq, dk, dv

    return _make(out, (q, k, v), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeMismatch("concat of an empty list")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeMismatch(f"concat axis {axis} of shapes {[t.shape for t in tensors]}") from exc
    bounds = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _make(out, tuple(tensors), backward)


def _token_rows(shape: tuple[int, ...], indices) -> np.ndarray:
    """Flat row numbers, in a (..., n, d) array viewed as (-1, d), of token
    indices (..., k) broadcast against its leading axes."""
    idx = np.asarray(indices, dtype=np.intp)
    if len(shape) < 2 or idx.ndim < 1 or (
            idx.size and not 0 <= idx.min() <= idx.max() < shape[-2]):
        raise ShapeMismatch(f"token indices {idx.shape} out of range for shape {shape}")
    lead, n = shape[:-2], shape[-2]
    try:
        idx = np.broadcast_to(idx, lead + idx.shape[-1:])
    except ValueError as exc:
        raise ShapeMismatch(f"token indices {idx.shape} for shape {shape}") from exc
    starts = np.arange(0, math.prod(lead) * n, n, dtype=np.intp).reshape(lead + (1,))
    return (starts + idx).reshape(-1)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Rows along the token axis (-2) at per-row indices (..., k) broadcast
    against a's leading axes; a repeated index accumulates its gradient."""
    rows = _token_rows(a.shape, indices)
    shape, dtype, width = a.shape, a.dtype, a.shape[-1]

    def backward(g):
        full = np.zeros(shape, dtype)
        np.add.at(full.reshape(-1, width), rows, g.reshape(-1, width))
        return (full,)

    out = a.data.reshape(-1, width)[rows]
    return _make(out.reshape(a.shape[:-2] + (-1, width)), (a,), backward)


def scatter_rows(rows: Tensor, indices, length: int, fill: Tensor) -> Tensor:
    """Length-``length`` token sequences holding ``rows`` at per-row indices
    (..., k), which must not repeat within a row, and the row ``fill`` at
    every other position; inverse of gather_rows."""
    rows_shape, width = rows.shape, rows.shape[-1]
    shape = rows_shape[:-2] + (length, width)
    at = _token_rows(shape, indices)
    if at.size != rows.data.size // width or fill.shape != (width,):
        raise ShapeMismatch(f"cannot scatter {rows.shape} rows and fill {fill.shape} "
                            f"to token indices {np.shape(indices)}")
    out = np.empty(shape, dtype=rows.dtype)
    out[...] = fill.data
    out.reshape(-1, width)[at] = rows.data.reshape(-1, width)

    def backward(g):
        rest = g.reshape(-1, width).copy()
        picked = rest[at]
        rest[at] = 0.0
        return picked.reshape(rows_shape), rest.sum(axis=0)

    return _make(out, (rows, fill), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeMismatch(f"layer_norm gain/bias {gain.shape}/{bias.shape} vs input {x.shape}")
    n = x.shape[-1]  # each mean is numpy's own two steps, without its Python wrapper
    xhat = x.data - np.add.reduce(x.data, -1, keepdims=True) / n
    out = xhat * xhat
    inv = 1.0 / np.sqrt(np.add.reduce(out, -1, keepdims=True) / n + eps)
    xhat *= inv
    scale = gain.data  # gain and bias share its shape
    np.multiply(xhat, scale, out=out)
    out += bias.data

    def backward(g):  # inv * ((h - mean(h)) - xhat * mean(h * xhat)), h = g * gain
        dx = g * scale
        scratch = dx * xhat
        projection = np.add.reduce(scratch, -1, keepdims=True) / n
        dx -= np.add.reduce(dx, -1, keepdims=True) / n
        dx -= np.multiply(xhat, projection, out=scratch)
        dx *= inv
        dgain = _reduce_to(np.multiply(g, xhat, out=scratch), scale.shape)
        return dx, dgain, _reduce_to(g, scale.shape)

    return _make(out, (x, gain, bias), backward)


_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715
# beyond this |x| the tanh below is exactly +-1 in float32 and float64, so
# clipping the cubic there changes no value and keeps x**2 and x**3 finite
_GELU_SATURATION = 10.0


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU of x and its t = tanh((k * c) * (1 + C * (c * c))), c = clip(x), in this grouping."""
    t = np.clip(x, -_GELU_SATURATION, _GELU_SATURATION)
    scratch = np.multiply(t, t)
    scratch *= _GELU_C
    scratch += 1.0
    t *= _GELU_K
    t *= scratch
    np.tanh(t, out=t)
    return _gelu_from(x, t, scratch), t


def _gelu_from(x: np.ndarray, t: np.ndarray, scratch=None) -> np.ndarray:
    """(0.5 * x) * (1 + t), the GELU of x from its t; 1 + t goes into ``scratch`` if given."""
    out = np.multiply(x, 0.5)
    out *= np.add(t, 1.0, out=scratch)
    return out


def _gelu_grad(g: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """g * (0.5 * (1 + t) + (0.5 * x) * ((1 - t * t) * (k * (1 + 3C * c * c)))), from GELU's
    input x and its t; c * c is re-derived as the forward made it."""
    slope = t * t
    np.subtract(1.0, slope, out=slope)
    scratch = np.clip(x, -_GELU_SATURATION, _GELU_SATURATION)
    scratch *= scratch
    scratch *= 3.0 * _GELU_C
    scratch += 1.0
    scratch *= _GELU_K
    slope *= scratch  # d tanh / dx
    np.multiply(x, 0.5, out=scratch)
    scratch *= slope
    dx = np.add(t, 1.0, out=slope)
    dx *= 0.5
    dx += scratch
    dx *= g
    return dx


def gelu(a: Tensor) -> Tensor:
    """GELU in its tanh form (Hendrycks & Gimpel, arXiv 1606.08415), within
    4.7e-4 of the erf form, with its exact derivative."""
    x = a.data
    out, t = _gelu(x)
    return _make(out, (a,), lambda g: (_gelu_grad(g, x, t),))


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """linear(gelu(linear(x, w1, b1)), w2, b2) as one tape record, with the same bytes. It keeps
    x, the pre-activation and GELU's t; its backward rebuilds the hidden layer from the last two."""
    if w1.data.ndim != 2 or w2.data.ndim != 2 or x.shape[-1:] != w1.shape[:1] or (
            b1.shape != w1.shape[1:] or w2.shape[:1] != w1.shape[1:] or b2.shape != w2.shape[1:]):
        raise ShapeMismatch(f"mlp cannot apply {w1.shape} and {w2.shape} weights to {x.shape}")
    flat_x, first, second = x.data.reshape(-1, w1.shape[0]), w1.data, w2.data
    x_shape, x_grad = x.shape, x.requires_grad
    pre = flat_x @ first
    pre += b1.data
    hidden, t = _gelu(pre)
    out = hidden @ second
    out += b2.data

    def backward(g):
        rows = g.reshape(-1, second.shape[1])
        dw2 = _gelu_from(pre, t).T @ rows  # the hidden layer, rebuilt as the forward made it
        dpre = _gelu_grad(rows @ second.T, pre, t)
        dx = (dpre @ first.T).reshape(x_shape) if x_grad else None
        return dx, flat_x.T @ dpre, dpre.sum(axis=0), dw2, rows.sum(axis=0)

    return _make(out.reshape(x_shape[:-1] + w2.shape[1:]), (x, w1, b1, w2, b2), backward)


@dataclass
class AdamState:
    """Adam hyperparameters and moments; m and v are laid out as the flat parameter buffer."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))


def adam_step(params: np.ndarray, state: AdamState, grad: np.ndarray) -> None:
    """One in-place Adam update, with bias correction, of a flat parameter buffer from its
    gradient laid out alike (zero where none reached), in whole-buffer ops: each element
    gets m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, p -= lr (m / c1) / (sqrt(v / c2) + eps)."""
    for name, arr in (("grad", grad), ("first moment", state.m), ("second moment", state.v)):
        if arr.shape != params.shape:
            raise ShapeMismatch(f"{name} shape {arr.shape} != parameter shape {params.shape}")
    state.step += 1
    correction1 = 1.0 - state.beta1 ** state.step
    correction2 = 1.0 - state.beta2 ** state.step
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grad
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * grad * grad
    params -= state.lr * (state.m / correction1) / (np.sqrt(state.v / correction2) + state.epsilon)


def grad_check(function, params: dict[str, Tensor], fd_step: float = 1e-3) -> float:
    """Max relative error between tape gradients and central finite differences.

    The finite-difference side is always evaluated in float64 (the analytic
    side runs in the parameters' own dtype), with the step scaled per
    coordinate as fd_step * max(1, |theta|). Relative error per coordinate is
    |analytic - fd| / max(|analytic|, |fd|, 1e-8).
    """
    with Tape() as tape:
        loss = function(params)
    if not np.isfinite(loss.data).all():
        raise NonFiniteValue("loss is not finite at the expansion point")
    grads = tape.backward(loss)
    analytic = {}
    for name, p in params.items():
        g = grads[p] if p in grads else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NonFiniteValue(f"non-finite analytic gradient for {name!r}")
        analytic[name] = g.astype(np.float64)

    probe = {name: Tensor(p.data.astype(np.float64)) for name, p in params.items()}

    def evaluate() -> float:
        value = function(probe).item()
        if not math.isfinite(value):
            raise NonFiniteValue("non-finite loss during finite differencing")
        return value

    max_rel = 0.0
    for name, p in probe.items():
        flat = p.data.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            theta = flat[i]
            h = fd_step * max(1.0, abs(theta))
            flat[i] = theta + h
            up = evaluate()
            flat[i] = theta - h
            down = evaluate()
            flat[i] = theta
            fd = (up - down) / (2.0 * h)
            a = grad_flat[i]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
            if rel > max_rel:
                max_rel = rel
    return max_rel
