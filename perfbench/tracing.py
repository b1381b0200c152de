"""Span tracing of lgseg from outside the package, and the per-layer metrics.

Tracer.install() replaces every binding through which a caller reaches a
traced function -- tree.nearest_sqdist is a binding separate from
evaluation.nearest_sqdist, cli.load_checkpoint from engine.load_checkpoint --
and the LgSegModel methods, with a wrapper that records a span.
uninstall() puts every original back.  Spans stay in memory as
[name, start, end, parent index, run id, tag] until the run writes them out.

Engine calls are attributed to one of the 19 ops of the default specs: conv
and dense calls by the identity of the weight tensor (falling back to its
shape where that is unique), pooling calls by input and output shape.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from lgseg import network

# (home module, attribute, tagger).  The span name is "<home>.<attribute>"
# (for methods "<home>.<method>") unless BINDING_SPANS names the binding.
TARGETS = (
    ("engine", "conv2d_forward", "conv_fwd"),
    ("engine", "conv2d_backward", "conv_bwd"),
    ("engine", "maxpool2d", "pool_fwd"),
    ("engine", "maxpool2d_backward", "pool_bwd"),
    ("engine", "dense_forward", "dense_fwd"),
    ("engine", "dense_backward", "dense_bwd"),
    ("engine", "relu", None),
    ("engine", "relu_backward", None),
    ("engine", "sigmoid", None),
    ("engine", "sigmoid_backward", None),
    ("engine", "sgd_momentum_step", None),
    ("engine", "save_checkpoint", None),
    ("engine", "load_checkpoint", None),
    ("network", "LgSegModel.forward", "model"),
    ("network", "LgSegModel.forward_with_caches", "model"),
    ("network", "LgSegModel.backward", "model"),
    ("network", "build_model", None),
    ("network", "patch_loss", None),
    ("network", "train", None),
    ("sampling", "image_window", None),
    ("sampling", "make_triplet", None),
    ("sampling", "stitch", "stitch"),
    ("sampling", "residential_label", None),
    ("raster", "read_raster", None),
    ("raster", "read_label", None),
    ("raster", "read_prob_sidecar", None),
    ("raster", "write_raster", None),
    ("raster", "write_label", None),
    ("raster", "write_prob_sidecar", None),
    ("synth", "synth_scene", None),
    ("evaluation", "nearest_sqdist", None),
    ("evaluation", "pr_curve", None),
    ("evaluation", "set_curve", None),
    ("tree", "fit_thresholds", "fit"),
    ("counting", "count_pipeline", None),
    ("counting", "components", None),
    ("counting", "match_boxes", None),
    ("cli", "main", None),
)
BINDING_SPANS = {("tree", "nearest_sqdist"): "tree.nearest_sqdist"}

SELF_TIME_SPANS = {
    "engine.conv2d_forward.self_s": ("engine.conv2d_forward",),
    "engine.conv2d_backward.self_s": ("engine.conv2d_backward",),
    "engine.maxpool2d.self_s": ("engine.maxpool2d",),
    "engine.maxpool2d_backward.self_s": ("engine.maxpool2d_backward",),
    "engine.dense.self_s": ("engine.dense_forward", "engine.dense_backward"),
    "engine.activation.self_s": ("engine.relu", "engine.relu_backward",
                                 "engine.sigmoid", "engine.sigmoid_backward"),
    "engine.sgd_momentum_step.self_s": ("engine.sgd_momentum_step",),
    "network.patch_loss.self_s": ("network.patch_loss",),
    "network.train.self_s": ("network.train",),
    "sampling.image_window.self_s": ("sampling.image_window",),
    "sampling.stitch.self_s": ("sampling.stitch",),
    "sampling.make_triplet.self_s": ("sampling.make_triplet",),
    "sampling.residential_label.self_s": ("sampling.residential_label",),
    "evaluation.nearest_sqdist.self_s": ("evaluation.nearest_sqdist",),
    "evaluation.pr_curve.self_s": ("evaluation.pr_curve",),
    "evaluation.set_curve.self_s": ("evaluation.set_curve",),
    "tree.fit_thresholds.self_s": ("tree.fit_thresholds",),
    "counting.count_pipeline.self_s": ("counting.count_pipeline",),
    "counting.components.self_s": ("counting.components",),
    "counting.match_boxes.self_s": ("counting.match_boxes",),
    "raster.read.self_s": ("raster.read_raster", "raster.read_label", "raster.read_prob_sidecar"),
    "raster.write.self_s": ("raster.write_raster", "raster.write_label",
                            "raster.write_prob_sidecar"),
    "engine.checkpoint_io.self_s": ("engine.save_checkpoint", "engine.load_checkpoint"),
    "synth.synth_scene.self_s": ("synth.synth_scene",),
    "cli.main.self_s": ("cli.main",),
}
CALL_COUNTS = {
    "network.forward.calls": "network.forward",
    "sampling.residential_label.calls": "sampling.residential_label",
    "evaluation.nearest_sqdist.calls": "evaluation.nearest_sqdist",
    "tree.nearest_sqdist.calls": "tree.nearest_sqdist",
}
# the pathway-input gradient of these convs is computed and then dropped
FIRST_CONVS = ("local.conv0", "global.conv0")


def _default_ops():
    """Op names of the default specs, keyed by parameter name, by weight shape
    (shapes two ops share are left out), and by pooling (input, output) shape."""
    by_param, by_shape, by_pool, names = {}, {}, {}, []
    shared = set()

    def weight(param, op, shape):
        by_param[param] = op
        if shape in by_shape:
            shared.add(shape)
        by_shape[shape] = op
        names.append(op)

    for prefix, spec in (("local", network.LOCAL_PATHWAY), ("global", network.GLOBAL_PATHWAY)):
        trace = spec.shape_trace()
        convs = pools = 0
        for layer, shape_in, shape_out in zip(spec.layers, trace, trace[1:]):
            if isinstance(layer, network.ConvSpec):
                weight(f"{prefix}.{convs}.weight", f"{prefix}.conv{convs}",
                       (layer.out_channels, shape_in[0], layer.kernel, layer.kernel))
                convs += 1
            elif isinstance(layer, network.PoolSpec):
                by_pool[(shape_in, shape_out)] = f"{prefix}.pool{pools}"
                names.append(f"{prefix}.pool{pools}")
                pools += 1
        weight(f"{prefix}.fc.weight", f"{prefix}.fc", (spec.embed_width, spec.flat_size()))
    dims = [network.LOCAL_PATHWAY.embed_width + network.GLOBAL_PATHWAY.embed_width,
            *network.FUSION_HIDDEN, network.OUTPUT_PIXELS]
    for i in range(len(dims) - 1):
        weight(f"fusion.{i}.weight", f"fusion.dense{i}", (dims[i + 1], dims[i]))
    for shape in shared:
        del by_shape[shape]
    return by_param, by_shape, by_pool, tuple(names)


OPS_BY_PARAM, OPS_BY_SHAPE, OPS_BY_POOL, OPS = _default_ops()


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list = []
        self.run = None  # spans are recorded only while a run id is set
        self._stack: list = []
        self._replaced: list = []  # (owner, attribute, original)
        self._weight_ops: dict = {}

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._replaced:
            raise RuntimeError("tracer already installed")
        modules = lgseg_modules()
        for home, attr, tagger in TARGETS:
            module = modules[f"lgseg.{home}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                self._replace(getattr(module, cls_name), method, f"{home}.{method}", tagger)
                continue
            original = getattr(module, attr)
            for mod_name, owner in modules.items():
                for name, value in list(vars(owner).items()):
                    if value is original:
                        short = mod_name.rpartition(".")[2]
                        span = BINDING_SPANS.get((short, name), f"{home}.{attr}")
                        self._replace(owner, name, span, tagger)

    def uninstall(self) -> None:
        while self._replaced:
            owner, name, original = self._replaced.pop()
            setattr(owner, name, original)

    def _replace(self, owner, name, span, tagger) -> None:
        original = vars(owner)[name]
        self._replaced.append((owner, name, original))
        setattr(owner, name, self._wrap(original, span, tagger))

    def _wrap(self, fn, span, tagger):
        tracer = self
        tag = _TAGGERS.get(tagger)
        binds_model = tagger == "model"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.run is None:
                return fn(*args, **kwargs)
            if binds_model:
                tracer.bind_model(args[0])
            stack = tracer._stack
            rec = [span, 0.0, 0.0, stack[-1] if stack else -1, tracer.run, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if tag is not None:
                rec[5] = tag(tracer, args, kwargs, out)
            return out

        traced.perfbench_span = span
        return traced

    # -- op attribution --------------------------------------------------

    def bind_model(self, model) -> None:
        self._weight_ops = {id(arr): OPS_BY_PARAM[name]
                            for name, arr in model.params.items() if name in OPS_BY_PARAM}

    def weight_op(self, weight) -> str:
        op = self._weight_ops.get(id(weight))
        if op is None:
            op = OPS_BY_SHAPE.get(tuple(weight.shape), "unattributed")
        return op


def lgseg_modules() -> dict:
    return {name: mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "lgseg" or name.startswith("lgseg."))}


def installed_wrappers() -> list:
    """Every traced wrapper still reachable from an lgseg module or class."""
    found = []
    for mod_name, module in lgseg_modules().items():
        for name, value in vars(module).items():
            owners = [(f"{mod_name}.{name}", value)]
            if isinstance(value, type) and value.__module__ == mod_name:
                owners += [(f"{mod_name}.{name}.{k}", v) for k, v in vars(value).items()]
            found += [label for label, v in owners if hasattr(v, "perfbench_span")]
    return found


# ---------------------------------------------------------------------------
# taggers: computed after the span closes, from arguments and result


def _conv_geometry(args, kwargs, out_shape):
    weight = _arg(args, kwargs, 1, "weight")
    k = weight.shape[1] * weight.shape[2] * weight.shape[3]
    n = out_shape[1] * out_shape[2]
    return weight, weight.shape[0], k, n


def _tag_conv_fwd(tracer, args, kwargs, out):
    weight, o, k, n = _conv_geometry(args, kwargs, out.shape)
    return ["fwd", tracer.weight_op(weight), 2 * o * k * n, 8 * k * n, 0]


def _tag_conv_bwd(tracer, args, kwargs, out):
    grad_out = _arg(args, kwargs, 2, "grad_out")
    weight, o, k, n = _conv_geometry(args, kwargs, grad_out.shape)
    op = tracer.weight_op(weight)
    # weight gradient and input gradient are one GEMM each; im2col is redone
    return ["bwd", op, 4 * o * k * n, 8 * k * n, 2 * o * k * n if op in FIRST_CONVS else 0]


def _tag_dense(direction):
    def tag(tracer, args, kwargs, out):
        return [direction, tracer.weight_op(_arg(args, kwargs, 1, "weight"))]
    return tag


def _tag_pool_fwd(tracer, args, kwargs, out):
    key = (tuple(_arg(args, kwargs, 0, "x").shape), tuple(out[0].shape))
    return ["fwd", OPS_BY_POOL.get(key, "unattributed")]


def _tag_pool_bwd(tracer, args, kwargs, out):
    indices = _arg(args, kwargs, 0, "indices")
    key = (tuple(indices.input_shape), tuple(indices.flat_argmax.shape))
    return ["bwd", OPS_BY_POOL.get(key, "unattributed")]


def _tag_stitch(tracer, args, kwargs, out):
    """[tiles, shifted tiles, pixels written more than once, pixels written]."""
    centers = _arg(args, kwargs, 0, "centers")
    width = network.TARGET_WIDTH
    half = width // 2
    shifted = sum(1 for r, c in centers if (r - half) % width or (c - half) % width)
    cover = np.zeros(out.shape, dtype=bool)
    for r, c in centers:
        cover[r - half:r + half, c - half:c + half] = True
    written = len(centers) * width * width
    return ["stitch", len(centers), shifted, written - int(cover.sum()), written]


def _tag_fit(tracer, args, kwargs, out):
    trace = out.trace
    return ["fit", sum(1 for a, b in zip(trace, trace[1:]) if b > a), len(trace) - 1]


_TAGGERS = {
    "conv_fwd": _tag_conv_fwd,
    "conv_bwd": _tag_conv_bwd,
    "dense_fwd": _tag_dense("fwd"),
    "dense_bwd": _tag_dense("bwd"),
    "pool_fwd": _tag_pool_fwd,
    "pool_bwd": _tag_pool_bwd,
    "stitch": _tag_stitch,
    "fit": _tag_fit,
}


# ---------------------------------------------------------------------------
# per-layer metrics


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _median(values):
    return statistics.median(values) if values else 0.0


def _child_seconds(spans) -> list:
    """Per span, the summed duration of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


def layer_metrics(spans, setup_run, stage_runs, traced_walls, untraced_walls) -> dict:
    """Per-layer metrics for one set-up plus one stage iteration.

    Times and counts inside the stage are taken per traced iteration and the
    median across iterations is reported; set-up spans are added once.
    Durations of engine ops and network calls pool every traced iteration.
    """
    child = _child_seconds(spans)
    self_s = defaultdict(lambda: defaultdict(float))  # run -> span -> seconds
    calls = defaultdict(lambda: defaultdict(int))
    durations = defaultdict(list)  # span or (direction, op) -> [seconds]
    per_run = defaultdict(lambda: defaultdict(float))  # run -> quantity -> total
    for i, (name, start, end, parent, run, tag) in enumerate(spans):
        dur = end - start
        self_s[run][name] += dur - child[i]
        calls[run][name] += 1
        if run == setup_run:
            continue
        durations[name].append(dur)
        if name == "network.forward":
            per_run[run]["forward_s"] += dur
        if tag is None:
            continue
        kind = tag[0]
        if kind in ("fwd", "bwd"):
            durations[(kind, tag[1])].append(dur)
            if name.startswith("engine.conv2d_"):
                per_run[run]["conv_flop"] += tag[2]
                per_run[run]["conv_s"] += dur
                per_run[run]["im2col_bytes"] += tag[3]
                if kind == "bwd":
                    per_run[run]["bwd_flop"] += tag[2]
                    per_run[run]["unused_flop"] += tag[4]
            if kind == "fwd" and tag[1].startswith("global.") and parent >= 0 \
                    and _inside(spans, parent, "network.forward"):
                per_run[run]["global_fwd_s"] += dur
        elif kind == "stitch":
            for key, value in zip(("tiles", "shifted", "overwritten", "written"), tag[1:]):
                per_run[run][key] += value
        elif kind == "fit":
            per_run[run]["improving"] += tag[1]
            per_run[run]["steps"] += tag[2]

    def stage(fn):
        return _median([fn(run) for run in stage_runs])

    def share(num, den):
        return stage(lambda run: per_run[run][num] / per_run[run][den]
                     if per_run[run][den] else 0.0)

    out = {}
    for op in OPS:
        out[f"engine.{op}.fwd_ms"] = 1e3 * _median(durations[("fwd", op)])
        out[f"engine.{op}.bwd_ms"] = 1e3 * _median(durations[("bwd", op)])
    for metric, names in SELF_TIME_SPANS.items():
        out[metric] = sum(self_s[setup_run][n] for n in names) + \
            stage(lambda run: sum(self_s[run][n] for n in names))
    out["engine.conv.gflop"] = stage(lambda run: per_run[run]["conv_flop"] / 1e9)
    out["engine.conv.gflop_per_s"] = stage(
        lambda run: per_run[run]["conv_flop"] / 1e9 / per_run[run]["conv_s"]
        if per_run[run]["conv_s"] else 0.0)
    out["engine.im2col_mb"] = stage(lambda run: per_run[run]["im2col_bytes"] / 1e6)
    out["engine.conv2d_backward.unused_input_grad_flop_share"] = share("unused_flop", "bwd_flop")
    for metric, name in CALL_COUNTS.items():
        out[metric] = stage(lambda run: calls[run][name])
    out["network.forward_ms_p50"] = 1e3 * _median(durations["network.forward"])
    out["network.forward_ms_p99"] = 1e3 * _percentile(durations["network.forward"], 0.99)
    out["network.global_share"] = share("global_fwd_s", "forward_s")
    out["network.forward_with_caches_ms_p50"] = \
        1e3 * _median(durations["network.forward_with_caches"])
    out["network.backward_ms_p50"] = 1e3 * _median(durations["network.backward"])
    out["sampling.shifted_tile_share"] = share("shifted", "tiles")
    out["sampling.stitch.overwritten_px_share"] = share("overwritten", "written")
    out["tree.improving_step_share"] = share("improving", "steps")
    untraced = _median(untraced_walls)
    out["trace_overhead_share"] = _median(traced_walls) / untraced - 1.0 if untraced else 0.0
    return out


def _inside(spans, index, name) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def self_time_share(spans, runs, prefixes) -> float:
    """Share of the wall time of the given runs' root spans covered by the self
    time of spans whose name starts with one of the prefixes."""
    runs = set(runs)
    child = _child_seconds(spans)
    covered = wall = 0.0
    for i, (name, start, end, parent, run, _) in enumerate(spans):
        if run not in runs:
            continue
        if parent < 0:
            wall += end - start
        if name.startswith(prefixes):
            covered += end - start - child[i]
    return covered / wall if wall else 0.0
