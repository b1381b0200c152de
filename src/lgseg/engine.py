"""Deterministic float64 layer engine with exact analytic gradients.

Everything is a plain C-contiguous float64 ndarray; layers are free functions
(forward/backward pairs) so they stay re-entrant, and parameters live in
ordered ``{name: array}`` dicts owned by the caller.  out_extent is the one
output-extent rule of conv and pool windows, for the network too.  Convolution
uses im2col + GEMM, reading the input one band of output rows at a time from
a zero-padded slab of just the rows the band reads.  The forward runs one GEMM
per cache-sized band, bit-equal to one GEMM, and adds the bias once to the
whole output.  The backward holds one column matrix: it forms the weight
gradient from it, then writes the input-gradient GEMM over it and adds each
tap's part inside the input into the input gradient, or skips the input
gradient when nothing reads it.
Max-pool takes a running maximum over its window taps.  Its backward sends
each window's gradient to the first tap in scan order that holds the output
(the first NaN, if any): tap by tap into strided views of the input gradient
when windows do not overlap, and by a scatter over flat argmax positions when
they do.  Dense backward adds its bias gradient into the caller's array,
records its (upstream gradient, input) pair in the weight's OuterSum and
returns the input gradient; the weight gradient, a batch's sum of outer
products, is never stored.  relu can write over its input, and its backward,
written over its upstream gradient, takes relu's input or output alike.  The
classical momentum SGD step (weight decay on weights only, never biases)
streams each tensor in fixed chunks through one scratch buffer, forms each
chunk of an OuterSum afresh just before it applies it, and rejects a step that
leaves a parameter non-finite.  Checkpoints serialise named tensors
bit-exactly, written from and read into the tensors' own buffers.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .rng import SplitMix64

CHECKPOINT_MAGIC = b"LGSEG1"
_SGD_CHUNK = 1 << 13  # elements per tensor chunk of sgd_momentum_step


def _as_f64(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# initialisation


def xavier_init(shape, fan_in: int, fan_out: int, rng: SplitMix64) -> np.ndarray:
    """Uniform Xavier draw on [-a, a] with a = sqrt(6 / (fan_in + fan_out))."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError(f"fan_in/fan_out must be positive, got {fan_in}/{fan_out}")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, tuple(shape))


# ---------------------------------------------------------------------------
# convolution


def out_extent(h: int, w: int, kh: int, kw: int, stride: int, pad: int,
               kind: str = "window") -> tuple:
    """(Ho, Wo) of a kh x kw window at step `stride` over an h x w map padded by
    `pad`; ValueError unless kh, kw, stride >= 1, pad >= 0 and the window fits.
    `kind` ("conv window", "pool window") opens the message."""
    size = kh if kh == kw else f"{kh}x{kw}"
    if min(kh, kw, stride) < 1 or pad < 0:
        raise ValueError(f"{kind} {size} needs kernel and stride >= 1 and pad >= 0, "
                         f"got stride {stride}, pad {pad}")
    if h + 2 * pad < kh or w + 2 * pad < kw:
        raise ValueError(f"{kind} {size} does not fit input {h}x{w} padded by {pad}")
    return (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1


def _conv_geometry(x, weight, stride, pad):
    c, h, w = x.shape
    out_ch, in_ch, kh, kw = weight.shape
    if in_ch != c:
        raise ValueError(f"conv channel mismatch: input has {c}, kernel expects {in_ch}")
    return out_extent(h, w, kh, kw, stride, pad, "conv window")


def _bands(x: np.ndarray, kh: int, kw: int, stride: int, pad: int,
           ho: int, wo: int, rows: int):
    # per band of `rows` output rows, the read-only view [c, i, j, y, x] =
    # slab[c, y*stride + i, x*stride + j] over a zero-padded slab of the input
    # rows from `top` on.  Rows below the input are cleared again per band;
    # rows above it and the pad columns stay zero (bands only descend)
    c, h, w = x.shape
    span = (rows - 1) * stride + kh
    slab = np.zeros((c, span, w + 2 * pad))
    sc, sh, sw = slab.strides
    view = as_strided(slab, (c, kh, kw, rows, wo), (sc, sh, sw, stride * sh, stride * sw),
                      writeable=False)
    for top in range(-pad, ho * stride - pad, rows * stride):
        lo, hi = max(top, 0), min(top + span, h)  # the input rows the band reads
        if lo < hi:
            slab[:, lo - top:hi - top, pad:pad + w] = x[:, lo:hi]
        slab[:, max(hi - top, 0):] = 0.0
        yield view


def _clipped_taps(k: int, stride: int, pad: int, n_out: int, n_in: int):
    # per tap t along one axis, the slices of the outputs whose tap t reads
    # inside the input and of the input pixels they read
    for t in range(k):
        lo = max(0, -(-(pad - t) // stride))
        n = max(min(n_out, (n_in - 1 + pad - t) // stride + 1) - lo, 0)
        yield slice(lo, lo + n), slice(lo * stride + t - pad, (lo + n) * stride + t - pad, stride)


def _band_rows(out_ch: int, k: int, ho: int, wo: int) -> int:
    return next((r for r in range(1, ho) if ho % r == 0 and r * wo % 8 == 0
                 and out_ch * k * r * wo >= 2 ** 20), ho)


def conv2d_forward(x, weight, bias, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlation of a (C,H,W) input with an (O,C,kh,kw) kernel bank.

    Zero padding; out[o,y,x] = b[o] + sum_{c,i,j} w[o,c,i,j] * in[c, y*s+i-pad, x*s+j-pad].
    The GEMM runs per band of r output rows whose columns stay in cache: r is
    the smallest divisor of Ho with r*Wo % 8 == 0 and O*C*kh*kw*r*Wo >= 2**20
    multiply-adds, else Ho.  So OpenBLAS gives one GEMM's bits: there is no
    short tail band and no remainder of columns, which it computes with other
    kernels, and no band small enough for its small-matrix path.  The bias is
    added once, to the whole output, after the last band.
    """
    x = _as_f64(x)
    weight = _as_f64(weight)
    bias = _as_f64(bias)
    ho, wo = _conv_geometry(x, weight, stride, pad)
    out_ch, in_ch, kh, kw = weight.shape
    rows = _band_rows(out_ch, in_ch * kh * kw, ho, wo)
    cols = np.empty((in_ch, kh, kw, rows, wo))
    y = np.empty((out_ch, ho // rows, rows * wo))
    for i, win in enumerate(_bands(x, kh, kw, stride, pad, ho, wo, rows)):
        cols[...] = win
        np.matmul(weight.reshape(out_ch, -1), cols.reshape(-1, rows * wo), out=y[:, i])
    y += bias[:, None, None]
    return y.reshape(out_ch, ho, wo)


def conv2d_backward(x, weight, grad_out, stride: int = 1, pad: int = 0,
                    input_grad: bool = True):
    """Gradients of conv2d_forward w.r.t. input, weights, and bias.

    With input_grad False the input gradient is not computed and None is
    returned in its place.  One column matrix is held: the weight gradient
    is formed from it, then the input-gradient GEMM writes over it.  Its taps
    are added in (i, j) order into a zero input gradient, each where it reads
    inside the input: a padded gradient's interior sums, in the same order.
    """
    x = _as_f64(x)
    weight = _as_f64(weight)
    grad_out = _as_f64(grad_out)
    ho, wo = _conv_geometry(x, weight, stride, pad)
    out_ch, in_ch, kh, kw = weight.shape
    if grad_out.shape != (out_ch, ho, wo):
        raise ValueError(f"upstream gradient shape {grad_out.shape} != {(out_ch, ho, wo)}")

    # one full column matrix, filled band by band: banding the GEMM would
    # reorder grad_weight's column sum
    cols = np.empty((in_ch * kh * kw, ho * wo))
    rows = _band_rows(out_ch, in_ch * kh * kw, ho, wo)
    for i, win in enumerate(_bands(x, kh, kw, stride, pad, ho, wo, rows)):
        cols.reshape(in_ch, kh, kw, ho, wo)[..., i * rows:(i + 1) * rows, :] = win
    g = grad_out.reshape(out_ch, -1)

    grad_bias = g.sum(axis=1)
    grad_weight = (g @ cols.T).reshape(weight.shape)
    if not input_grad:
        return None, grad_weight, grad_bias

    # the columns are dead once grad_weight is formed: the input-gradient
    # GEMM writes over them, the same BLAS call as W.T @ g into a new array
    grad_cols = np.matmul(weight.reshape(out_ch, -1).T, g, out=cols).reshape(
        in_ch, kh, kw, ho, wo)
    grad_x = np.zeros(x.shape)
    taps_x = list(_clipped_taps(kw, stride, pad, wo, x.shape[2]))
    for i, (out_y, in_y) in enumerate(_clipped_taps(kh, stride, pad, ho, x.shape[1])):
        for j, (out_x, in_x) in enumerate(taps_x):
            grad_x[:, in_y, in_x] += grad_cols[:, i, j, out_y, out_x]
    return grad_x, grad_weight, grad_bias


# ---------------------------------------------------------------------------
# max pooling


def _pool_taps(x: np.ndarray, k: int, stride: int, ho: int, wo: int) -> list:
    """The k*k strided views x[:, i::stride, j::stride] cut to (ho, wo), in
    tap order p = i*k + j."""
    return [x[:, i:i + stride * (ho - 1) + 1:stride, j:j + stride * (wo - 1) + 1:stride]
            for i in range(k) for j in range(k)]


class PoolIndices:
    """What a forward max-pool keeps to route gradients back: its input,
    output, window size and stride.  Neither array may be modified in place
    while the indices are in use.

    routes() states the tie rule once, as one mask of windows per tap.
    flat_argmax serves overlapping pools (stride < k) only.  It is worked out
    on first read and cached: per window, the flat H*W index of the tap that
    routes() picks.
    """

    def __init__(self, x: np.ndarray, out: np.ndarray, k: int, stride: int):
        self.input_shape = x.shape
        self.x, self.out, self.k, self.stride = x, out, k, stride

    def routes(self):
        """Per tap in scan order, the mask of windows whose gradient goes to
        that tap: the lowest tap whose value equals the output, or the first
        NaN where the window holds one."""
        out = self.out
        nan = bool(np.isnan(out).any())
        free = None  # windows that no earlier tap has claimed
        for tap in _pool_taps(self.x, self.k, self.stride, out.shape[1], out.shape[2]):
            hit = tap == out
            if nan:
                hit |= np.isnan(tap)
            if free is None:
                free = ~hit
            else:
                hit &= free
                free ^= hit  # hit lies inside free, so this clears it there
            yield hit

    @cached_property
    def flat_argmax(self) -> np.ndarray:  # (C, Ho, Wo) flat indices into H*W
        k, stride = self.k, self.stride
        ho, wo = self.out.shape[1:]
        local = np.zeros(self.out.shape, dtype=np.int64)
        for p, hit in enumerate(self.routes()):
            local[hit] = p
        rows = np.arange(ho)[:, None] * stride + local // k
        cols = np.arange(wo) * stride + local % k
        return rows * self.input_shape[2] + cols


def maxpool2d(x, k: int, stride: int | None = None):
    """Per-window max over full (non-partial) windows; ties go to the first
    position in row-major scan order."""
    stride = k if stride is None else stride
    x = _as_f64(x)
    _, h, w = x.shape
    taps = _pool_taps(x, k, stride, *out_extent(h, w, k, k, stride, 0, "pool window"))
    out = taps[0].copy()
    for tap in taps[1:]:
        # np.maximum returns its second argument on a tie, so the earlier
        # tap's value is kept, down to the sign of a zero; NaN propagates
        np.maximum(tap, out, out=out)
    return out, PoolIndices(x, out, k, stride)


def maxpool2d_backward(indices: PoolIndices, grad_out) -> np.ndarray:
    """Each window's upstream gradient goes to the first tap in scan order
    that holds the window's output (its first NaN, if it holds one)."""
    grad_out = _as_f64(grad_out)
    x, out, k, stride = indices.x, indices.out, indices.k, indices.stride
    if grad_out.shape != out.shape:
        raise ValueError("upstream gradient shape does not match pool output")
    if stride < k:
        # a pixel may lie in several windows; the scatter fixes its sum's order
        c, h, w = x.shape
        grad_x = np.zeros((c, h * w))
        ch = np.repeat(np.arange(c), grad_out[0].size)
        np.add.at(grad_x, (ch, indices.flat_argmax.reshape(c, -1).ravel()), grad_out.reshape(c, -1).ravel())
        return grad_x.reshape(c, h, w)
    # each pixel lies in at most one window, so one write per tap routes it.
    # Multiplying g's bit patterns by a tap's 0/1 routing mask gives g or
    # +0.0 exactly, NaN payloads and signs included; + 0.0 first turns -0.0
    # into +0.0, as adding it to a zero gradient would
    gbits = (grad_out + 0.0).view(np.uint64)
    grad_x = np.zeros(x.shape)
    gviews = _pool_taps(grad_x.view(np.uint64), k, stride, out.shape[1], out.shape[2])
    for gview, hit in zip(gviews, indices.routes()):
        np.multiply(gbits, hit, out=gview)
    return grad_x


# ---------------------------------------------------------------------------
# dense / activations


def dense_forward(x, weight, bias) -> np.ndarray:
    """out = W @ x + b for a flat input of length in_units."""
    x = _as_f64(x)
    weight = _as_f64(weight)
    if x.ndim != 1 or x.size != weight.shape[1]:
        raise ValueError(f"dense input length {x.size} != in_units {weight.shape[1]}")
    return weight @ x + _as_f64(bias)


class OuterSum:
    """The batch sum of outer(grad_out, x) over the (grad_out, x) pairs that
    dense_backward records for one (out_units, in_units) weight, and the
    factors it is then scaled by (``*=``).  The sum is never stored: form()
    computes any flat run of its entries, and sgd_momentum_step forms each
    chunk just before it updates the weight there.  The pairs are kept by
    reference for the OuterSum's life, one batch in training, so neither
    array may be modified in place meanwhile.
    """

    def __init__(self, shape):
        self.shape = tuple(shape)
        self.pairs: list = []
        self.factors: list = []

    def __imul__(self, factor):
        self.factors.append(factor)
        return self

    def form(self, lo: int, hi: int) -> np.ndarray:
        """Flat entries lo:hi of the sum, as a new array.  Each entry starts
        from 0.0, adds every pair's product in recording order and then takes
        each factor: the rounded operations of a zero-filled array that
        np.outer followed by += adds into, then scaled with *=.  A run that
        _chunk_bounds cuts also keeps the payload that NumPy's add picks for
        NaN + NaN there."""
        n = self.shape[1]
        r0, r1 = lo // n, -(-hi // n)
        prods = np.empty((r1 - r0, n))  # the products of the rows lo:hi touches
        part = prods.reshape(-1)[lo - r0 * n:hi - r0 * n]
        acc = np.zeros(hi - lo)
        for grad_out, x in self.pairs:
            np.multiply(grad_out[r0:r1, None], x, out=prods)
            acc += part
        for factor in self.factors:
            acc *= factor
        return acc


def dense_backward(x, weight, grad_out, grad_weight: OuterSum, grad_bias) -> np.ndarray:
    """Record the pair (grad_out, x) in grad_weight, add grad_out into
    grad_bias in place, and return the input gradient W.T @ grad_out."""
    x = _as_f64(x)
    weight = _as_f64(weight)
    grad_out = _as_f64(grad_out)
    if grad_out.shape != weight.shape[:1]:
        raise ValueError("upstream gradient length != out_units")
    if x.shape != weight.shape[1:]:
        raise ValueError(f"dense input length {x.size} != in_units {weight.shape[1]}")
    if not isinstance(grad_weight, OuterSum) or grad_weight.shape != weight.shape:
        raise ValueError(f"dense weight gradient must be an OuterSum of shape {weight.shape}")
    if grad_bias.shape != weight.shape[:1] or grad_bias.dtype != np.float64:
        raise ValueError(f"dense bias gradient must be float64 of shape {weight.shape[:1]}")
    grad_weight.pairs.append((grad_out, x))
    grad_bias += grad_out
    return weight.T @ grad_out


def relu(x, out=None) -> np.ndarray:
    """max(x, 0), NaN kept; written into `out` when given, which may be x."""
    return np.maximum(_as_f64(x), 0.0, out=out)


def relu_backward(x, grad_out) -> np.ndarray:
    """Gradient through relu given its input or its output x: y > 0 exactly
    where the input is, NaN, signed zeros and infinities included.  It is
    written over grad_out when that is a C-contiguous float64 array, which
    the caller gives up."""
    grad = _as_f64(grad_out)
    return np.multiply(grad, _as_f64(x) > 0.0, out=grad)


_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def sigmoid(x) -> np.ndarray:
    x = _as_f64(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    # keep the output strictly inside (0, 1) even where exp saturates
    return np.clip(out, _SIGMOID_LO, _SIGMOID_HI)


def sigmoid_backward(y, grad_out) -> np.ndarray:
    """Gradient through sigmoid given its forward output y."""
    y = _as_f64(y)
    return _as_f64(grad_out) * y * (1.0 - y)


# ---------------------------------------------------------------------------
# optimiser


def check_hyperparameters(**values) -> None:
    """ValueError unless every named value is a finite number >= 0."""
    for name, value in values.items():
        if not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be a finite number >= 0, got {value}")


@dataclass
class SgdState:
    """Classical momentum state: v <- m*v - lr*(g + wd*w); w <- w + v."""

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocity: dict = field(default_factory=dict)

    def __post_init__(self):
        check_hyperparameters(learning_rate=self.learning_rate, momentum=self.momentum,
                              weight_decay=self.weight_decay)


def _chunk_bounds(size: int):
    """(lo, hi) of each chunk of the SGD step: _SGD_CHUNK entries, and the
    last one takes up a remainder of 8 or fewer.  NumPy's add keeps the
    first operand's NaN payload for NaN + NaN except in the last n % 8
    entries of a loop of n > 8 entries, or for n == 1.  So every chunk but
    the last is a multiple of 8 long, and the last is longer than 8 or the
    whole tensor: each entry meets the same rule as in one whole-tensor add."""
    lo = 0
    while lo < size:
        hi = size if size - lo <= _SGD_CHUNK + 8 else lo + _SGD_CHUNK
        yield lo, hi
        lo = hi


def _chunks(arr: np.ndarray, what: str, name: str) -> np.ndarray:
    # a flat view that in-place chunk updates write through to arr
    if arr.dtype != np.float64 or not arr.flags.c_contiguous:
        raise ValueError(f"{what} {name} must be a C-contiguous float64 array")
    return arr.reshape(-1)


def sgd_momentum_step(params: dict, grads: dict, state: SgdState) -> None:
    """One in-place update of every parameter.  Weight decay is applied to
    tensors whose name ends in '.weight' only, never to biases.

    Each tensor streams through one scratch chunk (_chunk_bounds); an
    OuterSum gradient's chunk is formed (OuterSum.form) just before it is
    used.  Then t = wd*w; t += g; t *= lr; v *= m; v -= t; w += v, the IEEE
    operations of v = m*v - lr*(g + wd*w) reordered only by commutation, so
    every value is the same (the payload that NaN + NaN keeps is not: NumPy
    picks it by operand order).  Every updated chunk is checked while it is
    in cache; after the whole step, ValueError names the first tensor that
    holds a non-finite value.
    """
    lr, m, wd = state.learning_rate, state.momentum, state.weight_decay
    size = _SGD_CHUNK + 8  # the longest chunk
    scratch = np.empty(size)
    finite = np.empty(size, dtype=bool)
    bad = None
    with np.errstate(over="ignore", invalid="ignore"):
        for name, w in params.items():
            g = grads[name]
            v = state.velocity.get(name)
            if v is None:
                v = state.velocity[name] = np.zeros_like(w)
            for arr, what in ((g, "gradient"), (v, "velocity")):
                if arr.shape != w.shape:
                    raise ValueError(f"{what} shape mismatch for {name}")
            decay = name.endswith(".weight")
            w, v = _chunks(w, "parameter", name), _chunks(v, "velocity", name)
            if not isinstance(g, OuterSum):
                g = _as_f64(g).reshape(-1)
            for lo, hi in _chunk_bounds(w.size):
                wc, vc = w[lo:hi], v[lo:hi]
                gc = g.form(lo, hi) if isinstance(g, OuterSum) else g[lo:hi]
                t = scratch[:wc.size]
                if decay:
                    np.multiply(wd, wc, out=t)
                    t += gc
                    np.multiply(lr, t, out=t)
                else:
                    np.multiply(lr, gc, out=t)
                vc *= m
                vc -= t
                wc += vc
                if bad is None and not np.isfinite(wc, out=finite[:wc.size]).all():
                    bad = name
    if bad is not None:
        raise ValueError(f"SGD step left non-finite values in {bad}")


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, tensors: dict) -> None:
    """Write named float64 tensors: magic, then per tensor
    u32 name length, name bytes, u32 rank, u32 extents, little-endian payload.
    A C-contiguous float64 tensor is written from its own buffer."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype="<f8")
            raw = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(raw)}sI{arr.ndim}I", len(raw), raw, arr.ndim,
                                 *arr.shape))
            fh.write(arr.data)


def load_checkpoint(path) -> dict:
    """The named tensors of a save_checkpoint file.  The bytes left in the
    file are checked against each piece before it is read, and a tensor's
    payload is read straight into its own array."""
    out: dict = {}
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size
        if left < len(CHECKPOINT_MAGIC) or fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic)")
        left -= len(CHECKPOINT_MAGIC)

        def read(n, shape=None):
            """n bytes, or with a shape, the float64 tensor they hold, read in
            place; n is checked against the bytes left before anything is
            allocated or read."""
            nonlocal left
            if n > left:
                raise ValueError(f"{path}: truncated checkpoint")
            left -= n
            if shape is None:
                piece = fh.read(n)
                got = len(piece)
            else:
                piece = np.empty(shape, dtype="<f8")
                got = fh.readinto(piece.reshape(-1).view(np.uint8))
            if got != n:  # a file that shrank while it was read
                raise ValueError(f"{path}: truncated checkpoint")
            return piece

        while left:
            (name_len,) = struct.unpack("<I", read(4))
            try:
                name = read(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: tensor name is not UTF-8: {exc}") from None
            if name in out:
                raise ValueError(f"{path}: tensor {name} appears more than once")
            (rank,) = struct.unpack("<I", read(4))
            shape = struct.unpack(f"<{rank}I", read(4 * rank))
            # exact Python ints: an int64 product of u32 extents can wrap
            data = read(8 * math.prod(shape), shape)
            if not np.isfinite(data).all():
                raise ValueError(f"{path}: tensor {name} holds non-finite values")
            out[name] = data
    return out
