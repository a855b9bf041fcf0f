"""Span tracing of the fourierdg layers, installed from outside the package.

While a :class:`Tracer` is recording, every traced public function of the
package is replaced, in every ``fourierdg`` module namespace that holds it,
by a wrapper that records a span (name, start, end, parent span, op id).
Backward closures that primitives record on a ``GradTape`` are wrapped as
well, under the recording span's name plus ``.bwd``, so forward and
backward time of each primitive are kept apart.  Spans stay in memory
until :meth:`Tracer.write` dumps them; :func:`layer_metrics` derives the
per-layer figures from them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  Modules are fourierdg submodule names.
FUNCTIONS = [
    ("tensor_core", "affine", "tensor_core.affine"),
    ("tensor_core", "relu", "tensor_core.relu"),
    ("tensor_core", "sigmoid", "tensor_core.sigmoid"),
    ("tensor_core", "batchnorm", "tensor_core.batchnorm"),
    ("tensor_core", "dropout", "tensor_core.dropout"),
    ("fourier", "build_basis", "fourier.build_basis"),
    ("fourier", "project", "fourier.project"),
    ("losses", "asymmetric_loss", "losses.asymmetric"),
    ("losses", "domain_adversarial_loss", "losses.adversarial"),
    ("losses", "classification_loss", "losses.classification"),
    ("model", "init_params", "model.init_params"),
    ("model", "forward_full", "model.forward_full"),
    ("model", "encode", "model.encode"),
    ("model", "checkpoint_to_json", "model.checkpoint_to_json"),
    ("model", "checkpoint_from_dict", "model.checkpoint_from_dict"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("train", "fit", "train.fit"),
    ("train", "predict", "train.predict"),
    ("train", "make_batches", "train.make_batches"),
    ("train", "_score", "train.score"),
    ("data", "load_expression", "data.load_expression"),
    ("data", "write_expression", "data.write_expression"),
    ("data", "align_genes", "data.align_genes"),
    ("data", "zscore_fit_apply", "data.zscore_fit_apply"),
    ("data", "select_hvg", "data.select_hvg"),
    ("data", "subset_samples", "data.subset_samples"),
    ("evaluate", "lodo_run", "evaluate.lodo_run"),
    ("evaluate", "run_fold", "evaluate.run_fold"),
    ("evaluate", "auroc", "evaluate.auroc"),
    ("evaluate", "roc_points", "evaluate.roc_points"),
    ("synth", "generate", "synth.generate"),
]

# (module, class, method, span name)
METHODS = [
    ("tensor_core", "GradTape", "backward", "train.backward"),
    ("tensor_core", "Param", "zero_grad", "train.zero_grad"),
    ("tensor_core", "RngState", "_next", "tensor_core.rng_draw"),
    ("train", "Adam", "step", "train.adam_step"),
]

PRIMITIVES = ("tensor_core.affine", "tensor_core.relu", "tensor_core.sigmoid",
              "tensor_core.batchnorm", "tensor_core.dropout")

MODULES = ("tensor_core", "fourier", "losses", "model", "train", "data",
           "evaluate", "synth")

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records spans of fourierdg calls made inside :meth:`recording`."""

    def __init__(self, workload: str, package):
        self.workload = workload
        self.package = package
        self.op = "setup"
        self.spans: list[list] = []
        self.flops = 0           # 2*rows*in*out summed over affine forwards
        self.asym_calls = 0
        self.asym_degenerate = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- span recording --------------------------------------------------

    def _traced(self, name, fn, label=None, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name if label is None else label(args, kwargs),
                   clock(), 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def _count_affine(self, args, _result):
        x, w = args[0], args[1]
        self.flops += 2 * x.shape[0] * w.value.shape[0] * w.value.shape[1]

    def _count_asym(self, _args, result):
        self.asym_calls += 1
        self.asym_degenerate += bool(result[2])

    def _label_encode(self, args, kwargs):
        return "model.encode." + (kwargs["mode"] if "mode" in kwargs else args[2])

    def _label_score(self, _args, _kwargs):
        inside_fit = self._stack and self.spans[self._stack[-1]][NAME] == "train.fit"
        return "train.epoch_eval" if inside_fit else "train.score"

    # -- installation ----------------------------------------------------

    @contextmanager
    def recording(self, op: str):
        """Trace the calls made inside the block, labelled with ``op``."""
        self.op = op
        self._install()
        try:
            yield
        finally:
            self._uninstall()

    def _install(self):
        package = self.package
        mods = {n: getattr(package, n) for n in MODULES}
        holders = [m for name, m in sys.modules.items()
                   if name == package.__name__
                   or name.startswith(package.__name__ + ".")]
        for mod, attr, name in FUNCTIONS:
            orig = getattr(mods[mod], attr)
            label = note = None
            if attr == "affine":
                note = self._count_affine
            elif attr == "asymmetric_loss":
                note = self._count_asym
            elif attr == "encode":
                label = self._label_encode
            elif attr == "_score":
                label = self._label_score
            wrapped = self._traced(name, orig, label, note)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, orig))
        for mod, cls_name, meth, name in METHODS:
            cls = getattr(mods[mod], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._traced(name, orig))
            self._undo.append((cls, meth, orig))
        tape_cls = mods["tensor_core"].GradTape
        orig_record = tape_cls.__dict__["record"]
        spans, stack = self.spans, self._stack

        def record(tape, backward_fn):
            owner = spans[stack[-1]][NAME] if stack else "untraced"
            return orig_record(tape, self._traced(owner + ".bwd", backward_fn))

        tape_cls.record = record
        self._undo.append((tape_cls, "record", orig_record))

    def _uninstall(self):
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def write(self, path):
        """Dump every span as CSV, one row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,workload,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{self.workload},{op}\n")


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer figures from the recorded spans.

    Returns ``(metrics, profile)``.  ``metrics`` maps a metric name to
    ``(value, unit)``; times are mean inclusive milliseconds per call over
    every traced span (set-up included).  A metric is present only when
    its layer ran.  ``profile`` maps each module to its self time per op,
    in ms, over the traced ops only.
    """
    spans = tracer.spans
    n = len(spans)
    dur = [(s[END] - s[START]) / 1e6 for s in spans]
    child = [0.0] * n
    in_fit = [False] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += dur[i]
        in_fit[i] = s[NAME] == "train.fit" or (p >= 0 and in_fit[p])

    total = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        total[s[NAME]] += dur[i]
        calls[s[NAME]] += 1

    out: dict = {}

    def put(metric, span_name):
        if calls[span_name]:
            out[metric] = (total[span_name] / calls[span_name], "ms")

    for prim in PRIMITIVES:
        put(prim + ".fwd_ms", prim)
        put(prim + ".bwd_ms", prim + ".bwd")
    if total["tensor_core.affine"] > 0:
        out["tensor_core.affine.gflops"] = (
            tracer.flops / (total["tensor_core.affine"] / 1e3) / 1e9, "GFLOP/s")
    fits = calls["train.fit"]
    if fits:
        fit_calls = sum(1 for i, s in enumerate(spans)
                        if in_fit[i] and s[NAME] in PRIMITIVES)
        draws = sum(1 for i, s in enumerate(spans)
                    if in_fit[i] and s[NAME] == "tensor_core.rng_draw")
        out["tensor_core.calls_per_fit"] = (fit_calls / fits, "count")
        out["tensor_core.rng_draws_per_fit"] = (draws / fits, "count")
        adam = sum(dur[i] for i, s in enumerate(spans)
                   if in_fit[i] and s[NAME] == "train.adam_step")
        out["train.adam_share"] = (adam / total["train.fit"], "ratio")

    put("fourier.project.fwd_ms", "fourier.project")
    put("fourier.project.bwd_ms", "fourier.project.bwd")
    ops = {s[OP] for s in spans} - {"setup"}
    if ops and calls["fourier.build_basis"]:
        op_calls = sum(1 for s in spans
                       if s[NAME] == "fourier.build_basis" and s[OP] != "setup")
        out["fourier.build_basis.calls"] = (op_calls / len(ops), "count")
    put("fourier.build_basis.ms", "fourier.build_basis")

    for loss in ("asymmetric", "adversarial", "classification"):
        put(f"losses.{loss}.ms", f"losses.{loss}")
    if tracer.asym_calls:
        useful = tracer.asym_calls - tracer.asym_degenerate
        out["losses.asymmetric.useful_ratio"] = (useful / tracer.asym_calls, "ratio")

    put("model.forward_full.ms", "model.forward_full")
    put("model.encode.eval_ms", "model.encode.eval")
    put("model.checkpoint_to_json.ms", "model.checkpoint_to_json")
    put("model.checkpoint_from_dict.ms", "model.checkpoint_from_dict")

    for name in ("adam_step", "zero_grad", "backward", "epoch_eval", "make_batches"):
        put(f"train.{name}.ms", f"train.{name}")

    for name in ("load_expression", "write_expression", "align_genes",
                 "zscore_fit_apply", "select_hvg", "subset_samples"):
        put(f"data.{name}.ms", f"data.{name}")

    put("evaluate.run_fold.ms", "evaluate.run_fold")
    put("evaluate.auroc.ms", "evaluate.auroc")
    put("evaluate.roc_points.ms", "evaluate.roc_points")
    if calls["evaluate.run_fold"]:
        fit_in_fold = sum(dur[i] for i, s in enumerate(spans)
                          if s[NAME] == "train.fit" and s[PARENT] >= 0
                          and spans[s[PARENT]][NAME] == "evaluate.run_fold")
        out["evaluate.fit_share"] = (fit_in_fold / total["evaluate.run_fold"], "ratio")

    put("synth.generate.ms", "synth.generate")

    profile = defaultdict(float)
    for i, s in enumerate(spans):
        if s[OP] != "setup":
            profile[s[NAME].split(".", 1)[0]] += dur[i] - child[i]
    if ops:
        profile = {k: v / len(ops) for k, v in profile.items()}
    return out, dict(profile)
