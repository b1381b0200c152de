"""Dual local-global patch segmentation network.

Two convolutional pathways look at the same map location through windows of
different size: a deep, narrow one over a 64x64 patch for fine shape, and a
shallow, wide one over a 256x256 patch for scene-level context.  Their
embeddings are concatenated and pushed through three fully-connected layers
ending in 256 sigmoid units, reshaped to the 16x16 per-pixel probability
patch centred at the same location.  Either pathway may be omitted to get the
local-only or global-only variant.

A model's pathways are a {prefix: PathwaySpec} dict whose keys are "local",
"global" or both in that order (the embedding concatenation and checkpoint
tensor order); the one thing that differs between them at the input is the
window width, INPUT_WIDTHS[prefix].  forward and forward_with_caches take the
matching {prefix: window} dict of (3, width, width) arrays, one per pathway,
and are `head` over the pathways' `embed` outputs, which a caller may reuse.

The default stacks are written once, in the layer DSL that configs use
(`parse_layers`): LOCAL_LAYERS and GLOBAL_LAYERS parse to LOCAL_PATHWAY and
GLOBAL_PATHWAY.

The model describes each pathway, and the fusion head, as one flat list of
ops: (kind, parameter name or None, spec) entries such as
("conv", "local.0", ConvSpec), ("pool", None, PoolSpec), ("relu", None, None),
("flatten", None, None), ("dense", "local.fc", output width) and
("sigmoid", None, None).  param_specs walks these lists for build_model and
load_params; one loop runs any of them forward, appending what each op needs
for its gradient to a tape, and one loop runs them backward, popping the tape.
The tape holds each relu's output, not its input: a relu over a conv's or
dense's output writes over it, so no pre-activation copy is kept.  backward
consumes the tape it is given, popping the caller's own list, so each
activation is freed once its step back has used it; a caller that needs the
tape twice passes backward a copy (list(tape)).

The per-patch loss is the summed binary cross entropy over the 256 output
pixels; training is plain SGD with momentum and L2 weight decay, mini-batch
gradients summed (or averaged, by configuration) over the batch.  Each dense
weight's batch gradient is an engine.OuterSum of the samples' (upstream
gradient, input) pairs, which the SGD step forms chunk by chunk as it applies
it; the other gradients are summed into arrays.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .rng import SplitMix64

TARGET_WIDTH = 16
LOCAL_WIDTH = 64
GLOBAL_WIDTH = 256
OUTPUT_PIXELS = TARGET_WIDTH * TARGET_WIDTH
# the window width of each pathway; this order is the embedding concatenation order
INPUT_WIDTHS = {"local": LOCAL_WIDTH, "global": GLOBAL_WIDTH}


# ---------------------------------------------------------------------------
# architecture specs


@dataclass(frozen=True)
class ConvSpec:
    out_channels: int
    kernel: int
    stride: int = 1
    pad: int | None = None  # None -> kernel // 2 ("same" for stride 1)

    def padding(self) -> int:
        return self.kernel // 2 if self.pad is None else self.pad


@dataclass(frozen=True)
class PoolSpec:
    k: int
    stride: int | None = None  # None -> k


@dataclass(frozen=True)
class ReluSpec:
    pass


@dataclass(frozen=True)
class PathwaySpec:
    """Conv/pool/relu stack over a 3-channel input, followed by a flatten and
    a Dense->ReLU embedding."""

    layers: tuple
    embed_width: int = 256
    input_width: int = LOCAL_WIDTH

    def shape_trace(self) -> list:
        """(C, H, W) after each layer; raises ValueError on a layer that cannot run."""
        c, h, w = 3, self.input_width, self.input_width
        trace = [(c, h, w)]
        for spec in self.layers:
            if isinstance(spec, ConvSpec):
                if spec.out_channels < 1:
                    raise ValueError(f"conv needs an output channel, got {spec.out_channels}")
                h, w = engine.out_extent(h, w, spec.kernel, spec.kernel, spec.stride,
                                         spec.padding(), "conv window")
                c = spec.out_channels
            elif isinstance(spec, PoolSpec):
                stride = spec.k if spec.stride is None else spec.stride
                h, w = engine.out_extent(h, w, spec.k, spec.k, stride, 0, "pool window")
            elif not isinstance(spec, ReluSpec):
                raise ValueError(f"unknown layer spec {spec!r}")
            trace.append((c, h, w))
        return trace

    def flat_size(self) -> int:
        c, h, w = self.shape_trace()[-1]
        if self.embed_width <= 0:
            raise ValueError("pathway embed width must be positive")
        return c * h * w


_CONV_RE = re.compile(r"^conv(\d+)x(\d+)(?:s(\d+))?(?:p(\d+))?$")
_POOL_RE = re.compile(r"^pool(\d+)(?:s(\d+))?$")


def parse_layers(text: str) -> tuple:
    """Layer DSL -> specs: convKxN[sS][pP] (S defaults to 1, P to K//2), poolK[sS]
    (S defaults to K), relu.  Valid: conv K, N, S >= 1 and P >= 0; pool K, S >= 1.
    PathwaySpec.shape_trace rejects the rest."""
    layers = []
    for token in (t.strip().lower() for t in text.split(",")):
        if not token:
            continue
        if token == "relu":
            layers.append(ReluSpec())
            continue
        m = _CONV_RE.match(token)
        if m:
            k, n, s, p = m.groups()
            layers.append(ConvSpec(int(n), int(k), int(s) if s else 1,
                                   int(p) if p is not None else None))
            continue
        m = _POOL_RE.match(token)
        if m:
            k, s = m.groups()
            layers.append(PoolSpec(int(k), int(s) if s else None))
            continue
        raise ValueError(f"unrecognised layer token '{token}'")
    if not layers:
        raise ValueError("layer list is empty")
    return tuple(layers)


# Default desk-scale pathways.  The local stack is deeper and narrower with
# small filters; the global one is shallower and wider with large filters and
# an early stride, mirroring the intended contrast between the two views.
LOCAL_LAYERS = ("conv3x16, relu, conv3x16, relu, pool2, "
                "conv3x32, relu, conv3x32, relu, pool2, "
                "conv3x64, relu, pool2")
GLOBAL_LAYERS = "conv7x16s2, relu, pool2, conv5x32, relu, pool2, conv3x32, relu, pool4"
LOCAL_PATHWAY = PathwaySpec(parse_layers(LOCAL_LAYERS), input_width=LOCAL_WIDTH)
GLOBAL_PATHWAY = PathwaySpec(parse_layers(GLOBAL_LAYERS), input_width=GLOBAL_WIDTH)
DUAL_PATHWAYS = {"local": LOCAL_PATHWAY, "global": GLOBAL_PATHWAY}
FUSION_HIDDEN = (512, 512)


# ---------------------------------------------------------------------------
# model


def _pathway_ops(prefix: str, spec: PathwaySpec) -> list:
    """A pathway's layers as ops, then its flatten -> dense -> relu embedding."""
    ops, convs = [], 0
    for layer in spec.layers:
        if isinstance(layer, ConvSpec):
            ops.append(("conv", f"{prefix}.{convs}", layer))
            convs += 1
        elif isinstance(layer, PoolSpec):
            ops.append(("pool", None, layer))
        else:
            ops.append(("relu", None, None))
    return ops + [("flatten", None, None), ("dense", f"{prefix}.fc", spec.embed_width),
                  ("relu", None, None)]


def _fusion_ops(hidden: tuple) -> list:
    """Dense -> relu per hidden width, then dense -> sigmoid onto the output pixels."""
    ops = []
    for i, width in enumerate(hidden):
        ops += [("dense", f"fusion.{i}", width), ("relu", None, None)]
    return ops + [("dense", f"fusion.{len(hidden)}", OUTPUT_PIXELS), ("sigmoid", None, None)]


class LgSegModel:
    """Parameters plus topology; build_model() draws them, load_params() fills them."""

    def __init__(self, pathways: dict, fusion_hidden: tuple, params: dict):
        prefixes = list(pathways)
        if not prefixes or prefixes != [p for p in INPUT_WIDTHS if p in pathways]:
            raise ValueError(f"pathways must be one or both of {list(INPUT_WIDTHS)} in that "
                             f"order, got {prefixes}")
        for prefix, spec in pathways.items():
            if spec.input_width != INPUT_WIDTHS[prefix]:
                raise ValueError(f"{prefix} pathway input width must be {INPUT_WIDTHS[prefix]}")
        self.pathways = dict(pathways)  # in embedding-concatenation order
        self.fusion_hidden = tuple(fusion_hidden)
        self.params = params
        self.ops = {prefix: _pathway_ops(prefix, spec) for prefix, spec in self.pathways.items()}
        self.ops["fusion"] = _fusion_ops(self.fusion_hidden)

    # -- structure ---------------------------------------------------------

    @property
    def fusion_input_width(self) -> int:
        return sum(spec.embed_width for spec in self.pathways.values())

    def param_specs(self):
        """Yield (name, shape, fan_in, fan_out) per tensor in checkpoint order."""
        # (op list, input channels, flattened input width) of each op list
        inputs = [(prefix, 3, spec.flat_size()) for prefix, spec in self.pathways.items()]
        inputs.append(("fusion", None, self.fusion_input_width))
        for ops, channels, width in inputs:
            for kind, name, spec in self.ops[ops]:
                if kind == "conv":
                    shape = (spec.out_channels, channels, spec.kernel, spec.kernel)
                    fan_in = channels * spec.kernel * spec.kernel
                    fan_out = spec.out_channels * spec.kernel * spec.kernel
                    channels = spec.out_channels
                elif kind == "dense":
                    shape, fan_in, fan_out = (spec, width), width, spec
                    width = spec
                else:
                    continue
                yield f"{name}.weight", shape, fan_in, fan_out
                yield f"{name}.bias", shape[:1], fan_in, fan_out

    def load_params(self, tensors: dict) -> None:
        """Replace parameters from a checkpoint; names and shapes must match."""
        shapes = {name: shape for name, shape, *_ in self.param_specs()}
        if list(tensors) != list(shapes):
            raise ValueError("checkpoint parameter names do not match model architecture")
        for name, arr in tensors.items():
            if arr.shape != shapes[name]:
                raise ValueError(f"checkpoint shape mismatch for {name}")
            self.params[name] = np.ascontiguousarray(arr, dtype=np.float64)

    # -- forward / backward --------------------------------------------------

    def _run(self, ops, x, tape: list | None):
        """Forward pass through an op list; with a tape, append per op what
        _unrun needs to take the step back.  A relu tapes its output.  Over a
        conv's or dense's fresh output it writes in place, so no pre-relu copy
        is kept; over a pool's output (held by its PoolIndices), a flatten (a
        view of one), another relu's output or the input, it writes a copy."""
        fresh = False  # x is a conv's or dense's output, which no one else holds
        for kind, name, spec in ops:
            saved = x
            if kind == "conv":
                x = engine.conv2d_forward(x, self.params[f"{name}.weight"],
                                          self.params[f"{name}.bias"], spec.stride, spec.padding())
            elif kind == "pool":
                x, saved = engine.maxpool2d(x, spec.k, spec.stride)
            elif kind == "relu":
                x = saved = engine.relu(x, out=x if fresh else None)
            elif kind == "flatten":
                saved = x.shape
                x = x.reshape(-1)
            elif kind == "dense":
                x = engine.dense_forward(x, self.params[f"{name}.weight"],
                                         self.params[f"{name}.bias"])
            else:  # sigmoid
                x = saved = engine.sigmoid(x)
            if tape is not None:
                tape.append(saved)
            fresh = kind in ("conv", "dense")
        return x

    def _unrun(self, ops, tape: list, grad, grads: dict, input_grad: bool = True):
        """Backward pass through an op list, popping its entries off the end
        of the tape; parameter gradients are added into grads (a dense
        weight's pair recorded in its OuterSum) and the input gradient is
        returned.  With input_grad False, None is returned: the
        first op with parameters skips its input gradient where the engine
        allows (a conv), and the ops below it only pop their tape entries."""
        stop = -1 if input_grad else next(
            (i for i, (_, name, _) in enumerate(ops) if name is not None), len(ops))
        for i in reversed(range(len(ops))):
            kind, name, spec = ops[i]
            saved = tape.pop()
            if i < stop:
                continue
            if kind == "conv":
                grad, gw, gb = engine.conv2d_backward(saved, self.params[f"{name}.weight"], grad,
                                                      spec.stride, spec.padding(),
                                                      input_grad=i != stop)
                grads[f"{name}.weight"] += gw
                grads[f"{name}.bias"] += gb
            elif kind == "pool":
                grad = engine.maxpool2d_backward(saved, grad)
            elif kind == "relu":
                grad = engine.relu_backward(saved, grad)
            elif kind == "flatten":
                grad = grad.reshape(saved)
            elif kind == "dense":
                grad = engine.dense_backward(saved, self.params[f"{name}.weight"], grad,
                                             grads[f"{name}.weight"], grads[f"{name}.bias"])
            else:  # sigmoid
                grad = engine.sigmoid_backward(saved, grad)
        return grad if input_grad else None

    def embed(self, prefix: str, window, tape: list | None = None) -> np.ndarray:
        """The prefix pathway's embedding of its (3, width, width) window."""
        x, width = np.asarray(window, dtype=np.float64), self.pathways[prefix].input_width
        if x.shape != (3, width, width):
            raise ValueError(f"{prefix} input must have shape (3, {width}, {width}), got {x.shape}")
        return self._run(self.ops[prefix], x, tape)

    def head(self, embeds: list, tape: list | None = None) -> np.ndarray:
        """The fusion layers' 16x16 patch over the pathways' embeddings, in order."""
        probs = self._run(self.ops["fusion"], np.concatenate(embeds), tape)
        return probs.reshape(TARGET_WIDTH, TARGET_WIDTH)

    def _forward(self, windows: dict, tape: list | None):
        if windows.keys() != self.pathways.keys():
            raise ValueError(f"windows {list(windows)} do not match the model's pathways "
                             f"{list(self.pathways)}")
        return self.head([self.embed(p, windows[p], tape) for p in self.pathways], tape)

    def forward(self, windows: dict) -> np.ndarray:
        """16x16 patch of probabilities in (0, 1) for {prefix: window} inputs
        scaled to [0, 1], one window per pathway."""
        return self._forward(windows, None)

    def forward_with_caches(self, windows: dict):
        """Probabilities plus the tape that backward() consumes."""
        tape: list = []
        probs = self._forward(windows, tape)
        return probs, tape

    def backward(self, caches: list, grad_probs, out: dict | None = None) -> dict:
        """Parameter gradients of a scalar loss given d(loss)/d(probs).

        With `out` given (a zero_grads() dict), they are accumulated into it
        in place, for mini-batch summation: each dense weight's OuterSum
        records the sample's pair.  Without it they come back as arrays.  The
        gradient with respect to the input windows is never computed:
        training does not read it.

        The tape `caches` (from forward_with_caches) is consumed: backward
        pops the caller's own list, so each activation is freed once its step
        back has used it, and the list is empty on return.  To run backward
        twice on one tape, pass it a copy, list(caches).
        """
        grads = self.zero_grads() if out is None else out
        grad = self._unrun(self.ops["fusion"], caches, np.asarray(grad_probs).reshape(-1), grads)
        for prefix in reversed(self.pathways):  # the tape is last in, first out
            width = self.pathways[prefix].embed_width
            grad, embed_grad = grad[:-width], grad[-width:]
            self._unrun(self.ops[prefix], caches, embed_grad, grads, input_grad=False)
        if out is None:
            return {name: g.toarray() if isinstance(g, engine.OuterSum) else g
                    for name, g in grads.items()}
        return grads

    def zero_grads(self) -> dict:
        """Empty gradient sums: an engine.OuterSum per dense weight, zeros
        for every other tensor."""
        dense = {f"{name}.weight" for ops in self.ops.values() for kind, name, _ in ops
                 if kind == "dense"}
        return {name: engine.OuterSum(arr.shape) if name in dense else np.zeros_like(arr)
                for name, arr in self.params.items()}


def build_model(pathways: dict = DUAL_PATHWAYS, fusion_hidden: tuple = FUSION_HIDDEN,
                seed: int = 0) -> LgSegModel:
    """Xavier-initialise all parameters from the seed (one RNG split per tensor,
    in op-list order, so the same seed always gives the same checkpoint)."""
    model = LgSegModel(pathways, fusion_hidden, {})
    rng = SplitMix64(seed)
    for name, shape, fan_in, fan_out in model.param_specs():
        model.params[name] = engine.xavier_init(shape, fan_in, fan_out, rng.split())
    return model


# ---------------------------------------------------------------------------
# loss


def patch_loss(pred, gt, eps: float = 1e-7):
    """Summed binary cross entropy over the 16x16 patch and its gradient.

    gt must be exactly 0/1; pred is clamped to [eps, 1-eps] before the logs,
    and the gradient is zero where the clamp was active.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError("prediction and ground truth shapes differ")
    if not np.all((gt == 0.0) | (gt == 1.0)):
        raise ValueError("ground truth must be binary")
    if not (0.0 < eps < 1e-3):
        raise ValueError("clamp eps must lie in (0, 1e-3)")
    clamped = np.clip(pred, eps, 1.0 - eps)
    loss = -float(np.sum(gt * np.log(clamped) + (1.0 - gt) * np.log1p(-clamped)))
    grad = (clamped - gt) / (clamped * (1.0 - clamped))
    grad[(pred < eps) | (pred > 1.0 - eps)] = 0.0
    return loss, grad


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    batch_size: int = 10
    learning_rate: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 5e-4
    epochs: int = 1
    seed: int = 0
    clamp_eps: float = 1e-7
    reduction: str = "sum"  # mini-batch loss: "sum" (default) or "mean"
    stop_loss: float = 0.0  # stop once epoch mean per-pixel loss dips below (0: never)

    def __post_init__(self):
        engine.check_hyperparameters(learning_rate=self.learning_rate, momentum=self.momentum,
                                     weight_decay=self.weight_decay)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0.0 < self.clamp_eps < 1e-3):
            raise ValueError("clamp_eps must lie in (0, 1e-3)")
        if self.reduction not in ("sum", "mean"):
            raise ValueError("reduction must be 'sum' or 'mean'")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (isinstance(self.stop_loss, (int, float)) and self.stop_loss >= 0):
            raise ValueError(f"stop_loss must be a number >= 0, got {self.stop_loss}")


@dataclass
class TrainReport:
    """Per-epoch mean per-pixel loss.

    Wall-clock timings are informational and excluded from equality so that
    two identically-seeded runs compare equal.
    """

    epoch_losses: list
    wall_clock: list = field(default_factory=list, compare=False)


def train(model: LgSegModel, triplets, config: TrainConfig) -> TrainReport:
    """SGD over shuffled mini-batches of patch triplets.

    Every triplet needs a .target and a .windows(pathways) method that returns
    the {prefix: window} input for the given pathways, here model.pathways.
    Gradients within a batch are summed (or averaged per config.reduction)
    and applied in one optimiser step, from a fresh gradient dict
    (zero_grads) that each batch draws.  A non-finite
    batch loss, or a step that leaves a parameter non-finite, raises
    ValueError naming the epoch and batch.
    """
    items = list(triplets)
    if not items:
        raise ValueError("training requires a nonempty dataset")
    state = engine.SgdState(config.learning_rate, config.momentum, config.weight_decay)
    rng = SplitMix64(config.seed)
    losses: list = []
    walls: list = []

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = list(range(len(items)))
        rng.shuffle(order)
        total = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            grads = model.zero_grads()
            batch_loss = 0.0
            for i in batch:
                t = items[i]
                probs, caches = model.forward_with_caches(t.windows(model.pathways))
                loss, dprobs = patch_loss(probs, t.target, config.clamp_eps)
                batch_loss += loss
                model.backward(caches, dprobs, out=grads)
            where = f"in epoch {epoch + 1}, batch {start // config.batch_size + 1}"
            if not np.isfinite(batch_loss):
                raise ValueError(f"non-finite loss {where}")
            if config.reduction == "mean":
                scale = 1.0 / len(batch)
                for name in grads:
                    grads[name] *= scale
            try:
                engine.sgd_momentum_step(model.params, grads, state)
            except ValueError as exc:  # a step that left a parameter non-finite
                raise ValueError(f"{exc} {where}") from None
            total += batch_loss
        epoch_loss = total / (len(items) * OUTPUT_PIXELS)
        losses.append(epoch_loss)
        walls.append(time.perf_counter() - t0)
        if epoch_loss < config.stop_loss:
            break
    return TrainReport(epoch_losses=losses, wall_clock=walls)
