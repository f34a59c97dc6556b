"""Span tracing of psgmae from outside the package.

``Tracer.install`` replaces the public functions of each psgmae module (and
``numcore.Tape.backward``) with wrappers that record one span per call:
name, start, end, parent span and, for some calls, a size taken from the
arguments or result (bytes, flops, batch size). ``numcore.Tape.record`` is
only counted, because it runs once per op and a span would cost more than
the call. ``uninstall`` puts the originals back. Nothing under ``src/`` is
edited; a function imported by name into another psgmae module is replaced
there as well, so calls through either binding are seen.

``layer_metrics`` turns the spans of a traced run into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import statistics
import sys
import time
from collections import defaultdict

from psgmae import cli, edf_io, evalreport, mae, numcore, pipeline, synthgen, trainer

LAYERS = ("edf_io", "pipeline", "numcore", "mae", "trainer", "evalreport", "synthgen", "cli")

# numcore functions that are not tensor ops
_NUMCORE_NON_OPS = {"zero_grad", "adam_step", "grad_check"}

# forward-time op groups reported as numcore.forward_s.<group>; any op not
# named here (including ops added later) counts as "other"
OP_GROUPS = {
    "matmul": "matmul",
    "add": "add",
    "gelu": "gelu",
    "softmax": "softmax",
    "layer_norm": "layer_norm",
    "transpose": "shape",
    "reshape": "shape",
    "concat": "shape",
    "gather_rows": "shape",
}
FORWARD_GROUPS = ("matmul", "add", "gelu", "softmax", "layer_norm", "shape", "other")


def _matmul_flops(args, kwargs, result):
    # one multiply and one add per output element per inner-dimension step
    return 2 * math.prod(result.shape) * args[0].shape[-1]


def _labelled_epochs(args, kwargs, result):
    annotations = args[1] if len(args) > 1 else kwargs["annotations"]
    labelled = sum(
        int(a.duration_s // pipeline.EPOCH_S) for a in annotations
        if pipeline.map_stage_label(a.label) is not None
    )
    return (len(result), labelled)


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


# (module, function name) -> info function(args, kwargs, result); every other
# public function of the module is wrapped without info
_INFO = {
    (edf_io, "parse_edf"): lambda args, kwargs, result: len(args[0]),
    (pipeline, "segment_epochs"): _labelled_epochs,
    (pipeline, "write_epoch_cache"): _file_size,
    (pipeline, "read_epoch_cache"): _file_size,
    (numcore, "matmul"): _matmul_flops,
    (mae, "forward_loss"): lambda args, kwargs, result: len(args[0]),
    (trainer, "evaluate_split"): lambda args, kwargs, result: result[0],
    (trainer, "save_checkpoint"): lambda args, kwargs, result: len(result),
    (trainer, "load_checkpoint"): lambda args, kwargs, result: len(args[0]),
}

_MODULES = {
    "edf_io": edf_io, "pipeline": pipeline, "numcore": numcore, "mae": mae,
    "trainer": trainer, "evalreport": evalreport, "synthgen": synthgen, "cli": cli,
}


def _public_functions(module) -> list[str]:
    """Public functions defined in ``module`` itself (not imported into it)."""
    return sorted(
        name for name, value in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(value)
        and value.__module__ == module.__name__
    )


class Tracer:
    """Records spans while installed; holds them in memory until read."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, info]
        self.spans: list[list] = []
        self.tape_records = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return wrapper

    def _count_record(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.tape_records += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sys.modules.items() if n == "psgmae" or n.startswith("psgmae.")]
        for layer, module in _MODULES.items():
            for fname in _public_functions(module):
                original = getattr(module, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original, _INFO.get((module, fname)))
                # rebind wherever psgmae imported the function by name
                for holder in loaded:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr, wrapped)
        self._patch(numcore.Tape, "backward",
                    self._wrap("numcore.Tape.backward", numcore.Tape.backward))
        self._patch(numcore.Tape, "record", self._count_record(numcore.Tape.record))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _is_op(name: str) -> bool:
    layer, _, fname = name.partition(".")
    return layer == "numcore" and "." not in fname and fname not in _NUMCORE_NON_OPS


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least ten
    samples above it, or the maximum when there are ten samples or fewer."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    index = n - 11 if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


class _Spans:
    """Durations, self times and lookups over one tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        n = len(self.spans)
        self.duration = [s[2] - s[1] for s in self.spans]
        child = [0.0] * n
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += self.duration[i]
        self.self_time = [d - c for d, c in zip(self.duration, child)]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            self.by_name[span[0]].append(i)

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.duration[i] for i in self.by_name.get(name, ()))

    def self_total(self, name: str) -> float:
        return sum(self.self_time[i] for i in self.by_name.get(name, ()))

    def durations(self, name: str) -> list[float]:
        return [self.duration[i] for i in self.by_name.get(name, ())]

    def infos(self, name: str) -> list:
        return [self.spans[i][4] for i in self.by_name.get(name, ())]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _step_ms_per_example(s: _Spans) -> list[float]:
    """One value per optimizer step: forward_loss start to adam_step end,
    divided by the batch size."""
    out = []
    start = batch = None
    for span in s.spans:
        if span[0] == "mae.forward_loss":
            start, batch = span[1], span[4]
        elif span[0] == "numcore.adam_step" and start is not None:
            out.append(1000.0 * (span[2] - start) / batch)
            start = None
    return out


def _epoch_seconds(s: _Spans) -> list[float]:
    """Epoch lengths inside each trainer.train span: from the first batch
    (or the previous epoch's validation end) to the end of validation."""
    out = []
    for t in s.by_name.get("trainer.train", ()):
        begin = None
        for i in range(t + 1, len(s.spans)):
            span = s.spans[i]
            if span[1] > s.spans[t][2]:
                break
            if span[0] == "mae.forward_loss" and begin is None:
                begin = span[1]
            elif span[0] == "trainer.evaluate_split" and span[3] == t and begin is not None:
                out.append(span[2] - begin)
                begin = span[2]
    return out


def layer_metrics(setup: Tracer, measured: Tracer, reps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced set-up and ``reps`` traced
    repetitions of the workload's command: ``*_s`` are seconds per
    repetition (per set-up for synthgen and EDF writing); counts are exact;
    rates divide a total size by a total time."""
    s, su = _Spans(measured), _Spans(setup)
    per_rep = 1.0 / reps
    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    parse_bytes = sum(s.infos("edf_io.parse_edf"))
    parse_s = s.total("edf_io.parse_edf")
    put("edf_io.parse_s", parse_s * per_rep, "s")
    put("edf_io.parse_mb_per_s", _ratio(parse_bytes / 1e6, parse_s), "MB/s")
    put("edf_io.write_s", su.total("edf_io.write_edf"), "s")

    segments = s.infos("pipeline.segment_epochs")
    kept = sum(k for k, _ in segments)
    labelled = sum(n for _, n in segments)
    read_sizes = s.infos("pipeline.read_epoch_cache")
    read_s = s.total("pipeline.read_epoch_cache")
    put("pipeline.segment_s", s.self_total("pipeline.segment_epochs") * per_rep, "s")
    put("pipeline.resample_s", s.total("pipeline.resample_linear") * per_rep, "s")
    put("pipeline.artifact_s", s.total("pipeline.reject_artifact") * per_rep, "s")
    put("pipeline.normalize_s", s.total("pipeline.normalize_epoch") * per_rep, "s")
    put("pipeline.epochs_kept_ratio", _ratio(kept, labelled), "ratio")
    put("pipeline.epochs_labelled", labelled * per_rep, "count")
    put("pipeline.cache_write_s", s.total("pipeline.write_epoch_cache") * per_rep, "s")
    put("pipeline.cache_read_s", read_s * per_rep, "s")
    put("pipeline.cache_read_mb_per_s", _ratio(sum(read_sizes) / 1e6, read_s), "MB/s")
    put("pipeline.cache_bytes",
        max(s.infos("pipeline.write_epoch_cache") + read_sizes, default=0), "count")

    examples = s.count("mae.encode")
    train_examples = sum(s.infos("mae.forward_loss"))
    op_names = [n for n in s.by_name if _is_op(n)]
    forward = dict.fromkeys(FORWARD_GROUPS, 0.0)
    for name in op_names:
        forward[OP_GROUPS.get(name.split(".", 1)[1], "other")] += s.total(name)
    flops = sum(s.infos("numcore.matmul"))
    put("numcore.tape_records_per_example", _ratio(measured.tape_records, train_examples), "count")
    put("numcore.op_calls_per_example", _ratio(sum(s.count(n) for n in op_names), examples), "count")
    for group in FORWARD_GROUPS:
        put(f"numcore.forward_s.{group}", forward[group] * per_rep, "s")
    put("numcore.backward_s", s.total("numcore.Tape.backward") * per_rep, "s")
    put("numcore.adam_s", s.total("numcore.adam_step") * per_rep, "s")
    put("numcore.matmul_flops_per_example", _ratio(flops, examples), "count")
    put("numcore.matmul_gflops", _ratio(flops / 1e9, s.total("numcore.matmul")), "GFLOP/s")

    recon_ms = [1000.0 * d for d in s.durations("mae.reconstruct_epoch")]
    value, pct, n = tail(recon_ms)
    put("mae.forward_loss_ms_per_example",
        _ratio(1000.0 * s.total("mae.forward_loss"), train_examples), "ms")
    for fname, metric in (("encode", "encode_s"), ("decode", "decode_s"),
                          ("cosine_loss", "cosine_loss_s"), ("make_mask", "make_mask_s")):
        put(f"mae.{metric}", s.total(f"mae.{fname}") * per_rep, "s")
    put("mae.reconstruct_ms_p50", statistics.median(recon_ms) if recon_ms else 0.0, "ms")
    put("mae.reconstruct_ms_tail", value, "ms")
    put("mae.reconstruct_ms_tail_pct", pct, "%")
    put("mae.reconstruct_ms_samples", n, "count")

    steps = _step_ms_per_example(s)
    value, pct, n = tail(steps)
    epochs = _epoch_seconds(s)
    put("trainer.step_ms_per_example_p50", statistics.median(steps) if steps else 0.0, "ms")
    put("trainer.step_ms_per_example_tail", value, "ms")
    put("trainer.step_ms_per_example_tail_pct", pct, "%")
    put("trainer.step_ms_per_example_samples", n, "count")
    put("trainer.epoch_s_p50", statistics.median(epochs) if epochs else 0.0, "s")
    put("trainer.evaluate_split_s", s.total("trainer.evaluate_split") * per_rep, "s")
    # validation cosine loss after the last traced epoch: deterministic per seed
    put("trainer.final_val_loss", (s.infos("trainer.evaluate_split") or [0.0])[-1], "loss")
    put("trainer.calibrate_s", s.total("trainer.calibrate_head_scale") * per_rep, "s")
    put("trainer.checkpoint_save_s", s.total("trainer.save_checkpoint") * per_rep, "s")
    put("trainer.checkpoint_load_s", s.total("trainer.load_checkpoint") * per_rep, "s")
    put("trainer.checkpoint_bytes",
        max(s.infos("trainer.save_checkpoint") + s.infos("trainer.load_checkpoint"), default=0),
        "count")

    put("evalreport.evaluate_records_s", s.self_total("evalreport.evaluate_records") * per_rep, "s")
    put("evalreport.aggregate_s", s.total("evalreport.aggregate_by_stage") * per_rep, "s")
    put("evalreport.baseline_s", s.total("evalreport.baseline_table") * per_rep, "s")
    put("evalreport.render_s", s.total("evalreport.render_table") * per_rep, "s")
    put("evalreport.export_s", s.total("evalreport.export_reconstruction") * per_rep, "s")

    put("synthgen.generate_s", su.total("synthgen.generate"), "s")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, span in enumerate(s.spans):
        layer_self[span[0].split(".", 1)[0]] += s.self_time[i]
    for layer in LAYERS:
        if layer != "synthgen":
            put(f"{layer}.self_s", layer_self[layer] * per_rep, "s")
    put("trace.spans_per_rep", len(s.spans) * per_rep, "count")
    return m
