"""In-memory span tracing by wrapping the package's public functions.

A `Tracer` replaces each function at the name a module binds it under
(for example `dwdropin.vit.matmul`, which is what `vit` code calls) with a
wrapper that records one span per call: its name, start and end in
nanoseconds, the index of the enclosing span, the benchmark op that caused
it, and an optional amount of work computed from the operand shapes
(FLOPs or bytes). `uninstall` puts every original object back.

Spans are kept in column lists while the run lasts and are written out
once, at the end (`save`). Nothing here changes what a wrapped function
computes: the wrapper passes its arguments through and returns the result
untouched.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

from dwdropin import archive, cli, cost, dropin, select, vit

NO_PARENT = -1


def _file_mb(path) -> float:
    return os.path.getsize(path) / 2**20


def wrap_targets(cfg):
    """(module, attribute, span name, work meter) for every traced binding.

    A meter maps (args, result) to the work of one call: FLOPs for compute
    sublayers, computed bytes for the depthwise conv, file MiB for archive
    I/O. For `model_forward` it records the identity of the input array
    instead, so capture passes over the same sample can be told apart from
    passes over new ones. FLOPs follow the package's convention (2 per
    multiply-accumulate), so they sum to `cost.flops_params` per block; see
    `check_sublayer_flops`.
    """
    ffn_flops = cost.ffn_flops_params(cfg)[0]

    def mm(args, out):
        a, b = args[0], args[1]
        return 2 * a.shape[0] * a.shape[1] * b.shape[1]

    def conv(args, out):
        x, w = args[0], args[1]
        return 2 * x.shape[0] * x.shape[1] * w.shape[0] * w.shape[1] * w.shape[2] * w.shape[3]

    def dw_bytes(args, out):
        return 4 * (args[0].size + args[1].size + out.size)

    def qkv(args, out):
        x, block = args[0], args[1]
        return 3 * 2 * x.shape[0] * x.shape[1] * block.d_h

    def energy(args, out):
        q, k = args[0], args[1]
        return 2 * q.shape[0] * k.shape[0] * q.shape[1]

    def ev(args, out):
        n, d_h = out.shape
        return 2 * n * n * d_h

    def proj(args, out):
        return 2 * out.shape[0] * args[1].w_o.shape[0] * args[1].w_o.shape[1]

    def ffn(args, out):
        return ffn_flops

    def load_mb(args, out):
        return _file_mb(args[0])

    def save_mb(args, out):
        return _file_mb(args[0])

    def input_key(args, out):
        return float(id(args[0]))

    return [
        (vit, "model_forward", "vit.model_forward", input_key),
        (vit, "layer_norm", "vit.layer_norm", None),
        (vit, "qkv_project", "vit.qkv_project", qkv),
        (vit, "head_energy", "vit.head_energy", energy),
        (vit, "head_attention", "vit.head_attention", ev),
        (vit, "project_heads", "vit.project_heads", proj),
        (vit, "ffn_forward", "vit.ffn_forward", ffn),
        (vit, "matmul", "tensor.matmul", mm),
        (vit, "softmax_rows", "tensor.softmax_rows", None),
        (dropin, "matmul", "tensor.matmul", mm),
        (dropin, "conv2d", "tensor.conv2d", conv),
        (dropin, "dwconv2d", "tensor.dwconv2d", dw_bytes),
        (cli, "dwconv2d", "tensor.dwconv2d", dw_bytes),
        (dropin, "attn_dw", "dropin.attn_dw", None),
        (dropin, "attn_conv_full", "dropin.attn_conv_full", None),
        (dropin, "fold_full_kernel", "dropin.fold_full_kernel", None),
        (dropin, "ensemble_weights", "dropin.ensemble_weights", None),
        (dropin, "mhsa_dw_ensembled", "dropin.mhsa_dw_ensembled", None),
        (dropin, "mhsa_convfull_ensembled", "dropin.mhsa_convfull_ensembled", None),
        (dropin, "attention_inputs", "dropin.attention_inputs", None),
        (dropin, "fit_depthwise_kernel", "dropin.fit_depthwise_kernel", None),
        (dropin, "fit_loss_and_grad", "dropin.fit_loss_and_grad", None),
        (select, "score_model", "select.score_model", None),
        (select, "welford_update", "select.welford_update", None),
        (archive, "load_archive", "archive.load_archive", load_mb),
        (archive, "save_archive", "archive.save_archive", save_mb),
        (cli, "load_archive", "archive.load_archive", load_mb),
        (cli, "save_archive", "archive.save_archive", save_mb),
        (cli, "synthetic_samples", "cli.synthetic_samples", None),
    ]


def check_sublayer_flops(cfg) -> bool:
    """The per-call FLOP meters of one exact block sum to cost.flops_params."""
    n, d, d_h, n_h = cfg.n, cfg.d, cfg.d_h, cfg.n_h
    per_head = 3 * 2 * n * d * d_h + 2 * n * n * d_h + 2 * n * n * d_h
    return n_h * per_head + 2 * n * d * d == cost.flops_params("mhsa", cfg)[0]


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ops: list[str] = []
        self._op_ids: dict[str, int] = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.work = []
        self._stack = [NO_PARENT]
        self._op = self._op_id("setup")
        self._saved = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _op_id(self, op: str) -> int:
        if op not in self._op_ids:
            self._op_ids[op] = len(self.ops)
            self.ops.append(op)
        return self._op_ids[op]

    def set_op(self, op: str) -> None:
        self._op = self._op_id(op)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.start.append(0)
        self.end.append(0)
        self.work.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: int, t1: int) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def begin(self, name: str) -> tuple:
        """Open a span around a block of benchmark code; pass the result to `finish`."""
        return self._open(self._name_id(name)), time.perf_counter_ns()

    def finish(self, token: tuple) -> None:
        idx, t0 = token
        self._close(idx, t0, time.perf_counter_ns())

    def wrap(self, fn, name: str, meter=None):
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx, t0, clock())
            if meter is not None:
                tracer.work[idx] = meter(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, meter in wrap_targets(self.cfg):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, meter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def save(self, path) -> None:
        """Write the spans as JSON lines: a header with the name and op
        tables, then one [name, start_ns, end_ns, parent, op, work] row per
        span, with names and ops as indices into the tables."""
        with open(path, "w") as f:
            f.write(json.dumps({"names": self.names, "ops": self.ops,
                                "columns": ["name", "start_ns", "end_ns", "parent", "op", "work"]}))
            f.write("\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.op, self.work):
                f.write(json.dumps(row))
                f.write("\n")

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Per-name totals derived from the recorded spans in one linear pass.

    Spans are stored in the order they open, so a parent always precedes
    its children and ancestor facts propagate forward in index order.
    """

    def __init__(self, tr: Tracer):
        names = tr.names
        ids = {n: i for i, n in enumerate(names)}
        score_id = ids.get("select.score_model", -2)
        ha_id = ids.get("vit.head_attention", -2)
        ai_id = ids.get("dropin.attention_inputs", -2)
        mf_id = ids.get("vit.model_forward", -2)
        mm_id = ids.get("tensor.matmul", -2)
        qk_ids = (ids.get("vit.qkv_project", -2), ids.get("vit.head_energy", -2))
        count = len(tr.start)
        self.calls = defaultdict(int)
        self.ns = defaultdict(int)
        self.work = defaultdict(float)
        self.op_calls = defaultdict(int)     # (name, op) -> calls
        self.ev_ns = 0                       # head_attention outside qkv/energy
        self.ev_work = 0.0
        self.recompute_ns = 0                # scoring's qkv/energy outside head_attention
        self.recompute_matmuls = 0
        self.score_matmuls = 0
        self.scored_samples = 0
        self.capture_forwards = 0
        captured = set()                     # (root span, input key) of capture forwards
        under_score = [False] * count
        under_ha = [False] * count
        under_recompute = [False] * count
        root = [0] * count
        ha_child_ns = defaultdict(int)
        for i in range(count):
            n = tr.name[i]
            p = tr.parent[i]
            d = tr.end[i] - tr.start[i]
            name = names[n]
            self.calls[name] += 1
            self.ns[name] += d
            self.op_calls[(name, tr.ops[tr.op[i]])] += 1
            if n != mf_id:
                self.work[name] += tr.work[i]
            if p == NO_PARENT:
                root[i] = i
                continue
            pn = tr.name[p]
            root[i] = root[p]
            under_score[i] = under_score[p] or pn == score_id
            under_ha[i] = under_ha[p] or pn == ha_id
            under_recompute[i] = under_recompute[p]
            if n in qk_ids:
                if pn == ha_id:
                    ha_child_ns[p] += d
                elif under_score[i] and not under_ha[i] and not under_recompute[i]:
                    under_recompute[i] = True
                    self.recompute_ns += d
            elif n == mm_id:
                self.score_matmuls += under_score[i]
                self.recompute_matmuls += under_recompute[i]
            elif n == mf_id:
                if pn == score_id:
                    self.scored_samples += 1
                elif pn == ai_id:
                    self.capture_forwards += 1
                    captured.add((root[i], tr.work[i]))
            elif n == ha_id:
                self.ev_work += tr.work[i]
        for i, child_ns in ha_child_ns.items():
            self.ev_ns += tr.end[i] - tr.start[i] - child_ns
        for i in range(count):
            if tr.name[i] == ha_id and i not in ha_child_ns:
                self.ev_ns += tr.end[i] - tr.start[i]
        self.distinct_captures = len(captured)
