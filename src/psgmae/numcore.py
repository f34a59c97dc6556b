"""Dense-tensor numerical core: reverse-mode autodiff on an explicit tape,
Adam, and finite-difference gradient verification.

Tensors wrap contiguous row-major numpy arrays (float32 for training,
float64 for gradient checks). Ops executed while a Tape is active record a
backward rule; ``Tape.backward`` walks the records in reverse, which is a
valid reverse-topological order because records are appended in execution
order. It returns each requires_grad leaf's gradient, keyed by the leaf.
``_ordered_map`` runs every parallel loop of the package on one shared pool.
"""

from __future__ import annotations

import functools
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

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        # ascontiguousarray would give a 0-d array (a scalar loss) shape (1,)
        self.data = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        self.requires_grad = requires_grad

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


class Tape:
    """Ordered record of operations; context manager activates recording."""

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self._output_ids: set[int] = set()

    def __enter__(self) -> "Tape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.tapes.pop()
        assert popped is self

    def record(self, output: Tensor, inputs: tuple[Tensor, ...], backward) -> None:
        self._records.append((output, inputs, backward))
        self._output_ids.add(id(output))

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """d(loss)/d(leaf) of each requires_grad leaf the loss reaches, keyed by the
        leaf; nothing is written onto tensors, so tapes on many threads share leaves."""
        if loss.data.size != 1:
            raise LossNotScalar(f"loss has shape {loss.shape}, expected a scalar")
        if id(loss) not in self._output_ids:
            raise DetachedTensor("loss was not produced by an op on this tape")

        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        leaves: dict[Tensor, np.ndarray] = {}
        for output, inputs, backward_fn in reversed(self._records):
            upstream = grads.pop(id(output), None)
            if upstream is None:
                continue
            partials = backward_fn(upstream)
            for tensor, partial in zip(inputs, partials):
                if partial is None or not tensor.requires_grad:
                    continue
                if id(tensor) in self._output_ids:
                    held = grads.get(id(tensor))
                    grads[id(tensor)] = partial if held is None else held + partial
                else:
                    if tensor not in leaves:
                        leaves[tensor] = np.zeros_like(tensor.data)
                    leaves[tensor] += partial
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
    flat_x = x.data.reshape(-1, w.shape[0])
    out = flat_x @ w.data
    if b is not None:
        out += b.data

    def backward(g):
        rows = g.reshape(-1, w.shape[1])
        dx = (rows @ w.data.T).reshape(x.shape) if x.requires_grad else None
        return dx, flat_x.T @ rows, rows.sum(axis=0)

    return _make(out.reshape(x.shape[:-1] + w.shape[1:]),
                 (x, w) if b is None else (x, w, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise ShapeMismatch(f"add cannot broadcast {a.shape} + {b.shape}") from exc

    def backward(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return _make(out, (a, b), backward)


def _heads(arr: np.ndarray, heads: int) -> np.ndarray:
    """(..., n, heads * d) -> (..., heads, n, d), as a view of arr."""
    *lead, n, width = arr.shape
    return np.swapaxes(arr.reshape(*lead, n, heads, width // heads), -2, -3)


def split_heads(a: Tensor, heads: int) -> Tensor:
    """(..., n, heads * d) -> (..., heads, n, d)."""
    return _make(_heads(a.data, heads), (a,),
                 lambda g: (np.swapaxes(g, -2, -3).reshape(a.shape),))


def _key_max(p: np.ndarray) -> np.ndarray:
    """p.max(axis=-2, keepdims=True), the same bytes, as a faster running max over key rows."""
    first = p[..., :1, :].max(axis=-2, keepdims=True)  # raises on no keys, as p.max does
    return functools.reduce(np.maximum, (p[..., i: i + 1, :] for i in range(1, p.shape[-2])), first)


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
    p -= _key_max(p)
    np.exp(p, out=p)
    p /= p.sum(axis=-2, keepdims=True)
    out = np.empty_like(q.data)
    np.matmul(_swap(p), vh, out=_heads(out, heads))

    def backward(g):
        gh = _heads(g, heads)
        ds = np.matmul(vh, _swap(gh))  # d loss / d p, then through the softmax and scale
        ds -= np.multiply(ds, p).sum(axis=-2, keepdims=True)
        ds *= p
        ds *= scale
        dq, dk, dv = (np.empty_like(q.data) for _ in range(3))
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
    width = a.shape[-1]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full.reshape(-1, width), rows, g.reshape(-1, width))
        return (full,)

    out = a.data.reshape(-1, width)[rows]
    return _make(out.reshape(a.shape[:-2] + (-1, width)), (a,), backward)


def scatter_rows(rows: Tensor, indices, length: int, fill: Tensor) -> Tensor:
    """Length-``length`` token sequences holding ``rows`` at per-row indices
    (..., k), which must not repeat within a row, and the row ``fill`` at
    every other position; inverse of gather_rows."""
    width = rows.shape[-1]
    shape = rows.shape[:-2] + (length, width)
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
        return picked.reshape(rows.shape), rest.sum(axis=0)

    return _make(out, (rows, fill), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeMismatch(f"layer_norm gain/bias {gain.shape}/{bias.shape} vs input {x.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    out = xhat * xhat
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def backward(g):  # inv * ((h - mean(h)) - xhat * mean(h * xhat)), h = g * gain
        dx = g * gain.data
        scratch = dx * xhat
        projection = scratch.mean(axis=-1, keepdims=True)
        dx -= dx.mean(axis=-1, keepdims=True)
        dx -= np.multiply(xhat, projection, out=scratch)
        dx *= inv
        dgain = _reduce_to(np.multiply(g, xhat, out=scratch), gain.shape)
        return dx, dgain, _reduce_to(g, bias.shape)

    return _make(out, (x, gain, bias), backward)


_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715
# beyond this |x| the tanh below is exactly +-1 in float32 and float64, so
# clipping the cubic there changes no value and keeps x**2 and x**3 finite
_GELU_SATURATION = 10.0


def gelu(a: Tensor) -> Tensor:
    """GELU in its tanh form (Hendrycks & Gimpel, arXiv 1606.08415), within
    4.7e-4 of the erf form, with its exact derivative."""
    # (0.5 * x) * (1 + tanh((k * c) * (1 + C * (c * c)))), c = clip(x), in this grouping
    x = a.data
    t = np.clip(x, -_GELU_SATURATION, _GELU_SATURATION)
    square = t * t
    scratch = np.multiply(square, _GELU_C)
    scratch += 1.0
    t *= _GELU_K
    t *= scratch
    np.tanh(t, out=t)
    out = np.multiply(x, 0.5)
    out *= np.add(t, 1.0, out=scratch)

    def backward(g):  # g * (0.5 * (1 + t) + (0.5 * x) * ((1 - t * t) * (k * (1 + 3C * c * c))))
        slope = t * t
        np.subtract(1.0, slope, out=slope)
        scratch = np.multiply(square, 3.0 * _GELU_C)
        scratch += 1.0
        scratch *= _GELU_K
        slope *= scratch  # d tanh / dx
        np.multiply(x, 0.5, out=scratch)
        scratch *= slope
        dx = np.add(t, 1.0, out=slope)
        dx *= 0.5
        dx += scratch
        dx *= g
        return (dx,)

    return _make(out, (a,), backward)


@dataclass
class AdamState:
    """Adam moments and hyperparameters for a named parameter set."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], state: AdamState, grads: dict[str, np.ndarray]) -> None:
    """One in-place Adam update from gradients by name (absent: zero), with bias correction."""
    state.step += 1
    correction1 = 1.0 - state.beta1 ** state.step
    correction2 = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        g = grads[name] if name in grads else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeMismatch(f"grad shape {g.shape} != param shape {p.data.shape} for {name!r}")
        m = state.m[name]
        v = state.v[name]
        if m.shape != p.data.shape:
            raise ShapeMismatch(
                f"moment shape {m.shape} != param shape {p.data.shape} for {name!r}"
            )
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / correction1
        v_hat = v / correction2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)


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
