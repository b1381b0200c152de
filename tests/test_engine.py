"""Layer engine tests: hand oracles, finite differences, optimiser recursion,
and checkpoint round-trips."""

import math
import os
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from numpy.lib.stride_tricks import sliding_window_view

from gradcheck import grad_check
from lgseg import engine, network
from lgseg import rng as rng_module
from lgseg.rng import SplitMix64


def conv2d_reference(x, w, b, stride=1, pad=0):
    """Independent nested-loop convolution oracle (zero padding)."""
    c, h, wid = x.shape
    oc, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wid + 2 * pad - kw) // stride + 1
    out = np.zeros((oc, ho, wo))
    for o in range(oc):
        for y in range(ho):
            for xx in range(wo):
                acc = b[o]
                for ci in range(c):
                    for i in range(kh):
                        for j in range(kw):
                            yy = y * stride + i - pad
                            xj = xx * stride + j - pad
                            if 0 <= yy < h and 0 <= xj < wid:
                                acc += w[o, ci, i, j] * x[ci, yy, xj]
                out[o, y, xx] = acc
    return out


def im2col_reference(x, kh, kw, stride, pad):
    """(columns, ho, wo): every output pixel's window of the np.pad-padded
    input, cut by sliding_window_view, as one (C*kh*kw, ho*wo) matrix."""
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad))) if pad else x
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    c, ho, wo = win.shape[:3]
    return win.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, ho * wo), ho, wo


def conv2d_forward_reference(x, weight, bias, stride=1, pad=0):
    """The one-GEMM forward: every output pixel's im2col column in one
    matrix, one GEMM, then the bias.  Banded forwards must match its bytes."""
    out_ch, _, kh, kw = weight.shape
    cols, ho, wo = im2col_reference(x, kh, kw, stride, pad)
    y = weight.reshape(out_ch, -1) @ cols + bias[:, None]
    return y.reshape(out_ch, ho, wo)


def conv2d_backward_reference(x, weight, grad_out, stride=1, pad=0, input_grad=True):
    """The backward on np.pad padding: weight and bias gradients from the
    reference columns, and the input gradient added tap by tap into a padded
    buffer whose interior is then copied out.  conv2d_backward must match
    its bytes."""
    out_ch, in_ch, kh, kw = weight.shape
    cols, ho, wo = im2col_reference(x, kh, kw, stride, pad)
    g = grad_out.reshape(out_ch, -1)
    grad_bias = g.sum(axis=1)
    grad_weight = (g @ cols.T).reshape(weight.shape)
    if not input_grad:
        return None, grad_weight, grad_bias
    grad_cols = (weight.reshape(out_ch, -1).T @ g).reshape(in_ch, kh, kw, ho, wo)
    _, h, w = x.shape
    grad_xp = np.zeros((in_ch, h + 2 * pad, w + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            grad_xp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += grad_cols[:, i, j]
    return np.ascontiguousarray(grad_xp[:, pad:pad + h, pad:pad + w]), grad_weight, grad_bias


def band_sweep_shapes(count=60, seed=12):
    """Seeded conv shapes weighted toward banded GEMMs: (out_ch, in_ch,
    kernel, stride, pad, ho, wo) with C*k*k above 384 and heights that have
    odd divisors."""
    rng = SplitMix64(seed)

    def pick(options):
        return options[int(rng.next_u64() % len(options))]

    shapes = []
    for _ in range(count):
        k = pick((3, 5, 7))
        in_ch = -(-385 // (k * k)) + pick(range(9))
        shapes.append((pick((1, 8, 16, 32, 64)), in_ch, k, pick((1, 2)), pick(range(k)),
                       pick((9, 15, 18, 21, 24, 27, 30, 45)),
                       pick((8, 12, 16, 20, 24, 30, 32, 40, 56, 64, 120))))
    return shapes


# output rows per band of each default conv layer (one band is all ho rows).
# Pinning them makes a silent fall-back to one GEMM fail, which would keep
# the bytes and lose the cache blocking
DEFAULT_BAND_ROWS = {"local.0": 64, "local.1": 8, "local.2": 8, "local.3": 4, "local.4": 4,
                     "global.0": 4, "global.1": 2, "global.2": 4}


def default_conv_layers():
    """(name, input shape, ConvSpec) of every conv of the default model."""
    layers = []
    for prefix, spec in network.DUAL_PATHWAYS.items():
        convs = [(shape, layer) for shape, layer in zip(spec.shape_trace(), spec.layers)
                 if isinstance(layer, network.ConvSpec)]
        layers += [(f"{prefix}.{i}", shape, layer) for i, (shape, layer) in enumerate(convs)]
    return layers


over_default_conv_layers = pytest.mark.parametrize(
    "name,shape,layer", default_conv_layers(), ids=[name for name, _, _ in default_conv_layers()])


class TestRng:
    def test_deterministic_streams(self):
        a = SplitMix64(42).uniform(0.0, 1.0, 100)
        b = SplitMix64(42).uniform(0.0, 1.0, 100)
        assert np.array_equal(a, b)

    def test_block_matches_scalar_path(self):
        r1, r2 = SplitMix64(7), SplitMix64(7)
        block = r1._block(5)
        singles = [r2.next_u64() for _ in range(5)]
        assert block.tolist() == singles

    def test_split_children_differ(self):
        parent = SplitMix64(0)
        a, b = parent.split(), parent.split()
        assert not np.array_equal(a.uniform(0.0, 1.0, 10), b.uniform(0.0, 1.0, 10))

    def test_floats_in_unit_interval(self):
        u = SplitMix64(3).uniform(0.0, 1.0, 10000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_shuffle_is_permutation(self):
        items = list(range(50))
        SplitMix64(9).shuffle(items)
        assert sorted(items) == list(range(50))
        assert items != list(range(50))

    @pytest.mark.parametrize("seed", [0, 12345, 2 ** 64 - 1])
    def test_blocks_match_the_reference_generator_bitwise(self, seed):
        chunk = rng_module._CHUNK
        for n in [0] + around_blocks(chunk):
            got, want = SplitMix64(seed), SplitMix64Reference(seed)
            assert got.next_u64() == want.next_u64()
            assert got._block(n).tobytes() == want.u64_block(n).tobytes(), n
            assert got.uniform(0.0, 1.0, n).tobytes() == want.floats(n).tobytes(), n
            for low, high in [(-1, 1), (0, 256), (0.0, 1.0), (-0.0, 1.0), (2.0, 2.0),
                              (-3.5, 1e300), (np.float64(-0.25), np.float64(0.75))]:
                a, b = got.uniform(low, high, n), want.uniform(low, high, n)
                assert a.tobytes() == b.tobytes() and a.dtype == b.dtype, (n, low, high)
            a, b = got.uniform(-1, 1, (n, 2)), want.uniform(-1, 1, (n, 2))
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), n
            assert got.next_u64() == want.next_u64(), n

    def test_xavier_draws_of_the_default_model_match_the_reference(self, monkeypatch):
        got = network.build_model(seed=4).params
        monkeypatch.setattr(network, "SplitMix64", SplitMix64Reference)
        monkeypatch.setattr(SplitMix64, "split",
                            lambda self: SplitMix64Reference(self.next_u64()))
        want = network.build_model(seed=4).params
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name


class TestXavierInit:
    def test_bound_for_equal_fans(self):
        # fan_in = fan_out = 3 -> a = sqrt(6/6) = 1
        t = engine.xavier_init((3, 3), 3, 3, SplitMix64(0))
        assert np.all(t >= -1.0) and np.all(t <= 1.0)
        assert np.abs(t).max() > 0.5  # actually spans the range

    def test_variance_matches_theory(self):
        # Var(U(-a,a)) = a^2/3 = 2/(fan_in+fan_out)
        t = engine.xavier_init((10000,), 100, 100, SplitMix64(1))
        assert t.var() == pytest.approx(0.01, rel=0.2)

    def test_deterministic_for_seed(self):
        a = engine.xavier_init((4, 5), 5, 4, SplitMix64(77))
        b = engine.xavier_init((4, 5), 5, 4, SplitMix64(77))
        assert np.array_equal(a, b)

    def test_zero_fan_rejected(self):
        with pytest.raises(ValueError):
            engine.xavier_init((2, 2), 0, 4, SplitMix64(0))


class TestConv2d:
    def test_identity_kernel(self):
        x = SplitMix64(0).uniform(-1, 1, (3, 5, 5))
        w = np.zeros((3, 3, 1, 1))
        for i in range(3):
            w[i, i, 0, 0] = 1.0
        y = engine.conv2d_forward(x, w, np.zeros(3))
        assert np.array_equal(y, x)

    def test_hand_window_sums(self):
        x = np.arange(1.0, 10.0).reshape(1, 3, 3)
        w = np.ones((1, 1, 2, 2))
        y = engine.conv2d_forward(x, w, np.zeros(1))
        assert np.array_equal(y[0], [[12, 16], [24, 28]])

    def test_zero_weights_give_bias(self):
        x = SplitMix64(1).uniform(-1, 1, (2, 4, 4))
        y = engine.conv2d_forward(x, np.zeros((3, 2, 3, 3)), np.array([1.5, -2.0, 0.25]), pad=1)
        for o, b in enumerate([1.5, -2.0, 0.25]):
            assert np.all(y[o] == b)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 3)])
    def test_matches_reference(self, stride, pad):
        rng = SplitMix64(stride * 10 + pad)
        x = rng.uniform(-1, 1, (2, 7, 6))
        w = rng.uniform(-1, 1, (3, 2, 3, 3))
        b = rng.uniform(-1, 1, (3,))
        got = engine.conv2d_forward(x, w, b, stride, pad)
        want = conv2d_reference(x, w, b, stride, pad)
        assert np.allclose(got, want, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            engine.conv2d_forward(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_nonpositive_output_rejected(self):
        with pytest.raises(ValueError):
            engine.conv2d_forward(np.zeros((1, 2, 2)), np.zeros((1, 1, 3, 3)), np.zeros(1))

    def test_out_extent_counts_whole_windows(self):
        # as many as a stride-s sliding view of the padded map holds, kernels non-square too
        for h, w, kh, kw, stride, pad in [(7, 6, 3, 2, 1, 0), (7, 6, 3, 2, 2, 1),
                                          (5, 9, 5, 1, 3, 2), (1, 1, 3, 3, 1, 1)]:
            padded = np.zeros((h + 2 * pad, w + 2 * pad))
            view = sliding_window_view(padded, (kh, kw))[::stride, ::stride]
            assert engine.out_extent(h, w, kh, kw, stride, pad) == view.shape[:2]
        for bad in [(4, 4, 0, 3, 1, 0), (4, 4, 3, 0, 1, 0), (4, 4, 3, 3, 0, 1),
                    (4, 4, 3, 3, 1, -1), (2, 4, 3, 3, 1, 0), (4, 1, 3, 4, 1, 1)]:
            with pytest.raises(ValueError):
                engine.out_extent(*bad)

    def test_zero_upstream_zero_grads(self):
        rng = SplitMix64(5)
        x = rng.uniform(-1, 1, (2, 4, 4))
        w = rng.uniform(-1, 1, (2, 2, 3, 3))
        gx, gw, gb = engine.conv2d_backward(x, w, np.zeros((2, 2, 2)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_identity_kernel_backward(self):
        w = np.ones((1, 1, 1, 1))
        up = SplitMix64(2).uniform(-1, 1, (1, 4, 4))
        gx, _, _ = engine.conv2d_backward(np.zeros((1, 4, 4)), w, up)
        assert np.array_equal(gx, up)

    def test_boundedness(self):
        # sum|out| <= sum|w| * sum|in| + H*W*sum|b| for stride 1, pad 0
        rng = SplitMix64(8)
        x = rng.uniform(-2, 2, (2, 6, 6))
        w = rng.uniform(-1, 1, (3, 2, 3, 3))
        b = rng.uniform(-1, 1, (3,))
        y = engine.conv2d_forward(x, w, b)
        bound = np.abs(w).sum() * np.abs(x).sum() + 6 * 6 * np.abs(b).sum()
        assert np.abs(y).sum() <= bound

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 3)])
    def test_weight_and_bias_only_backward(self, stride, pad):
        rng = SplitMix64(13)
        x = rng.uniform(-1, 1, (3, 9, 9))
        w = rng.uniform(-1, 1, (4, 3, 3, 3))
        up = rng.uniform(-1, 1, engine.conv2d_forward(x, w, np.zeros(4), stride, pad).shape)
        _, gw, gb = engine.conv2d_backward(x, w, up, stride, pad)
        gx, gw2, gb2 = engine.conv2d_backward(x, w, up, stride, pad, input_grad=False)
        assert gx is None
        assert np.array_equal(gw, gw2) and np.array_equal(gb, gb2)

    def test_forward_is_pure(self):
        rng = SplitMix64(11)
        x = rng.uniform(-1, 1, (2, 5, 5))
        w = rng.uniform(-1, 1, (2, 2, 3, 3))
        b = rng.uniform(-1, 1, (2,))
        up = rng.uniform(-1, 1, (2, 5, 5))
        inputs = [a.tobytes() for a in (x, w, b, up)]
        y1 = engine.conv2d_forward(x, w, b, pad=1)
        y2 = engine.conv2d_forward(x, w, b, pad=1)
        assert np.array_equal(y1, y2)
        engine.conv2d_backward(x, w, up, pad=1)
        # the zero padding is a buffer of the engine's own: x is never written
        assert [a.tobytes() for a in (x, w, b, up)] == inputs


class TestConvBands:
    """The banded forward against the one-GEMM reference, compared by bytes."""

    @pytest.mark.parametrize("o,c,k,stride,pad,ho,wo", band_sweep_shapes())
    def test_sweep_matches_one_gemm_bytes(self, o, c, k, stride, pad, ho, wo):
        rng = SplitMix64(o * 1000 + c * 10 + k)
        h, w = (ho - 1) * stride + k - 2 * pad, (wo - 1) * stride + k - 2 * pad
        x = rng.uniform(-1, 1, (c, h, w))
        weight = rng.uniform(-1, 1, (o, c, k, k))
        bias = rng.uniform(-1, 1, (o,))
        got = engine.conv2d_forward(x, weight, bias, stride, pad)
        assert got.shape == (o, ho, wo)
        assert got.tobytes() == conv2d_forward_reference(x, weight, bias, stride, pad).tobytes()

    def test_sweep_is_mostly_banded(self):
        banded = [engine._band_rows(o, c * k * k, ho, wo) < ho
                  for o, c, k, _, _, ho, wo in band_sweep_shapes()]
        assert sum(banded) >= len(banded) // 2

    @over_default_conv_layers
    def test_default_layers_match_one_gemm_bytes_in_pinned_bands(self, name, shape, layer,
                                                                  monkeypatch):
        rng = SplitMix64(len(name) + shape[1])
        c = shape[0]
        x = rng.uniform(0, 1, shape)
        weight = rng.uniform(-0.1, 0.1, (layer.out_channels, c, layer.kernel, layer.kernel))
        bias = rng.uniform(-0.1, 0.1, (layer.out_channels,))
        widths, matmul = [], np.matmul

        def spy(a, b, out):
            widths.append(out.shape[1])
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        got = engine.conv2d_forward(x, weight, bias, layer.stride, layer.padding())
        monkeypatch.undo()
        ho, wo = got.shape[1:]
        rows = DEFAULT_BAND_ROWS[name]
        assert widths == [rows * wo] * (ho // rows)
        want = conv2d_forward_reference(x, weight, bias, layer.stride, layer.padding())
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("tensor", ["x", "weight", "bias"])
    @over_default_conv_layers
    def test_default_layers_match_one_gemm_bytes_on_non_finite_input(self, name, shape, layer,
                                                                      tensor, value):
        rng = SplitMix64(len(name) + shape[1])
        k = layer.kernel
        args = {"x": rng.uniform(0, 1, shape),
                "weight": rng.uniform(-0.1, 0.1, (layer.out_channels, shape[0], k, k)),
                "bias": rng.uniform(-0.1, 0.1, (layer.out_channels,))}
        args[tensor].flat[int(rng.next_u64() % args[tensor].size)] = value
        # inf times a zero of the padding is NaN, and matmul warns on it
        with np.errstate(invalid="ignore"):
            got = engine.conv2d_forward(**args, stride=layer.stride, pad=layer.padding())
            want = conv2d_forward_reference(**args, stride=layer.stride, pad=layer.padding())
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("o,k,ho,wo,rows", [
        (16, 147, 128, 128, 4),   # global.0: 512 columns
        (1, 27, 64, 64, 64),      # too small for any band: one GEMM
        (64, 1024, 10, 10, 10),   # 10, 20 or 50 columns: none a multiple of 8
        (64, 1024, 16, 12, 2),    # 24 columns, 1.6M multiply-adds
        (8, 4096, 35, 35, 35),    # 35 is odd: no band width is a multiple of 8
    ])
    def test_band_rows_rule(self, o, k, ho, wo, rows):
        assert engine._band_rows(o, k, ho, wo) == rows


def backward_bytes(grads):
    return [None if g is None else g.tobytes() for g in grads]


class TestConvBackwardBytes:
    """conv2d_backward against the np.pad reference, compared by bytes."""

    @pytest.mark.parametrize("input_grad", [True, False])
    @pytest.mark.parametrize("o,c,k,stride,pad,ho,wo", band_sweep_shapes())
    def test_sweep_matches_reference_bytes(self, o, c, k, stride, pad, ho, wo, input_grad):
        rng = SplitMix64(o * 1000 + c * 10 + k)
        h, w = (ho - 1) * stride + k - 2 * pad, (wo - 1) * stride + k - 2 * pad
        x = rng.uniform(-1, 1, (c, h, w))
        weight = rng.uniform(-1, 1, (o, c, k, k))
        up = rng.uniform(-1, 1, (o, ho, wo))
        got = engine.conv2d_backward(x, weight, up, stride, pad, input_grad)
        want = conv2d_backward_reference(x, weight, up, stride, pad, input_grad)
        assert backward_bytes(got) == backward_bytes(want)

    @pytest.mark.parametrize("input_grad", [True, False])
    @over_default_conv_layers
    def test_default_layers_match_reference_bytes(self, name, shape, layer, input_grad):
        rng = SplitMix64(len(name) + shape[1])
        k, stride, pad = layer.kernel, layer.stride, layer.padding()
        x = rng.uniform(0, 1, shape)
        weight = rng.uniform(-0.1, 0.1, (layer.out_channels, shape[0], k, k))
        ho, wo = engine.out_extent(shape[1], shape[2], k, k, stride, pad)
        up = rng.uniform(-1, 1, (layer.out_channels, ho, wo))
        got = engine.conv2d_backward(x, weight, up, stride, pad, input_grad)
        want = conv2d_backward_reference(x, weight, up, stride, pad, input_grad)
        assert backward_bytes(got) == backward_bytes(want)

    @pytest.mark.parametrize("input_grad", [True, False])
    @pytest.mark.parametrize("specials", ["none", "x", "weight", "up"])
    @pytest.mark.parametrize("k,stride,pad", [(1, 1, 0), (1, 2, 0), (1, 1, 1), (3, 1, 1),
                                              (5, 2, 2)])
    def test_1x1_and_non_finite_cases_match_reference_bytes(self, k, stride, pad, specials,
                                                            input_grad):
        # the input-gradient GEMM writes over the column matrix, never over
        # x, down to a 1x1 stride-1 unpadded conv whose columns are x's own
        # values; NaN, +-inf and signed zeros go into one operand at a time
        rng = SplitMix64(100 * k + 10 * stride + pad)
        ho, wo = engine.out_extent(11, 10, k, k, stride, pad)
        shapes = {"x": (4, 11, 10), "weight": (3, 4, k, k), "up": (3, ho, wo)}
        args = {name: with_specials(rng, shape, every=11, start=2) if name == specials
                else rng.uniform(-1, 1, shape) for name, shape in shapes.items()}
        kept = {name: a.tobytes() for name, a in args.items()}
        with np.errstate(invalid="ignore", over="ignore"):
            got = engine.conv2d_backward(args["x"], args["weight"], args["up"], stride, pad,
                                         input_grad)
            want = conv2d_backward_reference(args["x"], args["weight"], args["up"], stride,
                                             pad, input_grad)
        assert backward_bytes(got) == backward_bytes(want)
        assert {name: a.tobytes() for name, a in args.items()} == kept

    def test_global_1_backward_holds_one_column_matrix(self):
        # global.1's columns are 400 x 4096 doubles (12.5 MiB), and the input
        # gradient is written over them.  The rest of the traced peak is the
        # input gradient (0.5 MiB), one band's padded slab (51 KiB), the
        # small weight and bias gradients and NumPy's buffers for the tap
        # sums, inside a 1 MiB margin; a padded input gradient would add
        # 0.6 MiB, and a second column matrix 12.5 MiB
        name, shape, layer = next(c for c in default_conv_layers() if c[0] == "global.1")
        rng = SplitMix64(7)
        k, stride, pad = layer.kernel, layer.stride, layer.padding()
        ho, wo = engine.out_extent(shape[1], shape[2], k, k, stride, pad)
        x = rng.uniform(0, 1, shape)
        weight = rng.uniform(-0.1, 0.1, (layer.out_channels, shape[0], k, k))
        up = rng.uniform(-1, 1, (layer.out_channels, ho, wo))
        cols = 8 * (shape[0] * k * k) * (ho * wo)
        assert cols == 8 * 400 * 4096
        tracemalloc.start()
        try:
            grad_x, _, _ = engine.conv2d_backward(x, weight, up, stride, pad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grad_x.shape == shape
        assert peak < cols + (1 << 20), (peak, cols)


# (out_ch, in_ch, h, w, kh, kw, stride, pad) whose bands meet the input's
# edges in every way the band slab must handle.  The rows per band and the
# bands that read padding only are pinned, so a change of _band_rows cannot
# quietly drop a case
BAND_EDGE_CASES = {
    "pad_over_kernel": ((64, 64, 3, 59, 2, 2, 1, 3), 1, [0, 1, 6, 7]),
    # the last band starts below the input, one band after a band that read it
    "pad_far_over_kernel": ((64, 64, 3, 15, 2, 2, 1, 5), 3, [0, 3]),
    "1x1_pad_over_kernel": ((64, 64, 8, 64, 1, 1, 1, 4), 4, [0, 3]),
    "stride_over_kernel": ((64, 64, 33, 45, 2, 2, 3, 1), 4, []),
    "last_band_past_input": ((32, 32, 20, 24, 3, 3, 1, 1), 5, []),
    "non_square_kernel": ((32, 16, 16, 24, 3, 5, 1, 2), 6, []),
    "one_band": ((4, 3, 9, 9, 3, 3, 1, 1), 9, []),
    "one_band_pad_over_kernel": ((32, 32, 30, 16, 3, 3, 2, 3), 17, []),
    "one_band_stride_over_kernel": ((64, 32, 7, 30, 2, 2, 3, 2), 4, []),
}

over_band_edge_cases = pytest.mark.parametrize("case", list(BAND_EDGE_CASES))


def band_edge_args(case, specials):
    """x, weight, bias and upstream gradient of a BAND_EDGE_CASES case; with
    specials, NaN, +-inf and -0.0 lie in x's first and last rows and columns."""
    (o, c, h, w, kh, kw, stride, pad), _, _ = BAND_EDGE_CASES[case]
    rng = SplitMix64(h * 100 + w)
    x = rng.uniform(-1, 1, (c, h, w))
    if specials:
        values = np.array([np.nan, 0.5, np.inf, -0.0, -np.inf, -0.25, -0.0])
        for k, edge in enumerate((x[:, 0], x[:, -1], x[:, :, 0], x[:, :, -1])):
            edge[...] = np.resize(np.roll(values, k), edge.shape)
    ho, wo = engine.out_extent(h, w, kh, kw, stride, pad)
    return (x, rng.uniform(-1, 1, (o, c, kh, kw)), rng.uniform(-1, 1, (o,)),
            rng.uniform(-1, 1, (o, ho, wo)), stride, pad)


class TestConvBandEdges:
    """The band slab at the input's edges, against the np.pad references by
    bytes: a slab row left from the previous band, or one read where the
    padding should be, changes a column and fails."""

    @over_band_edge_cases
    def test_cases_band_as_pinned(self, case):
        (o, c, h, w, kh, kw, stride, pad), rows, padding_only = BAND_EDGE_CASES[case]
        ho, wo = engine.out_extent(h, w, kh, kw, stride, pad)
        assert engine._band_rows(o, c * kh * kw, ho, wo) == rows
        span = (rows - 1) * stride + kh
        tops = [b * rows * stride - pad for b in range(ho // rows)]
        assert [b for b, top in enumerate(tops) if top + span <= 0 or top >= h] == padding_only
        if pad:  # the last band's slab reaches below the input
            assert tops[-1] + span > h

    @pytest.mark.parametrize("specials", [False, True], ids=["finite", "specials"])
    @over_band_edge_cases
    def test_bands_hold_the_reference_columns_for_every_band_height(self, case, specials):
        x, weight, _, up, stride, pad = band_edge_args(case, specials)
        c, kh, kw = weight.shape[1:]
        ho, wo = up.shape[1:]
        want = im2col_reference(x, kh, kw, stride, pad)[0]
        for rows in [r for r in range(1, ho + 1) if ho % r == 0]:
            got = np.concatenate([win.copy() for win in
                                  engine._bands(x, kh, kw, stride, pad, ho, wo, rows)], axis=3)
            assert got.tobytes() == want.tobytes(), rows

    @pytest.mark.parametrize("specials", [False, True], ids=["finite", "specials"])
    @over_band_edge_cases
    def test_forward_matches_reference_bytes(self, case, specials):
        x, weight, bias, _, stride, pad = band_edge_args(case, specials)
        kept = [a.tobytes() for a in (x, weight, bias)]
        with np.errstate(invalid="ignore"):
            got = engine.conv2d_forward(x, weight, bias, stride, pad)
            want = conv2d_forward_reference(x, weight, bias, stride, pad)
        assert got.tobytes() == want.tobytes()
        assert [a.tobytes() for a in (x, weight, bias)] == kept

    @pytest.mark.parametrize("input_grad", [True, False])
    @pytest.mark.parametrize("specials", [False, True], ids=["finite", "specials"])
    @over_band_edge_cases
    def test_backward_matches_reference_bytes_for_every_band_height(self, case, specials,
                                                                    input_grad, monkeypatch):
        # the backward's bytes do not depend on the band height, so every
        # divisor of Ho is tried, down to one output row per band
        x, weight, _, up, stride, pad = band_edge_args(case, specials)
        kept = [a.tobytes() for a in (x, weight, up)]
        ho = up.shape[1]
        with np.errstate(invalid="ignore", over="ignore"):
            want = conv2d_backward_reference(x, weight, up, stride, pad, input_grad)
            for rows in [r for r in range(1, ho + 1) if ho % r == 0]:
                monkeypatch.setattr(engine, "_band_rows", lambda *_, rows=rows: rows)
                got = engine.conv2d_backward(x, weight, up, stride, pad, input_grad)
                assert backward_bytes(got) == backward_bytes(want), rows
        assert [a.tobytes() for a in (x, weight, up)] == kept

    def global_0(self):
        name, shape, layer = next(c for c in default_conv_layers() if c[0] == "global.0")
        rng = SplitMix64(9)
        k, stride, pad = layer.kernel, layer.stride, layer.padding()
        ho, wo = engine.out_extent(shape[1], shape[2], k, k, stride, pad)
        x = rng.uniform(0, 1, shape)
        weight = rng.uniform(-0.1, 0.1, (layer.out_channels, shape[0], k, k))
        bias = rng.uniform(-0.1, 0.1, (layer.out_channels,))
        up = rng.uniform(-1, 1, (layer.out_channels, ho, wo))
        assert x.shape == (3, 256, 256) and up.shape == (16, 128, 128) and (k, pad) == (7, 3)
        return x, weight, bias, up, stride, pad

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_global_0_forward_holds_one_band(self):
        # the output is 16 x 128 x 128 doubles (2 MiB) and the band buffer
        # 147 x 4 x 128 (0.57 MiB); one band's padded slab is 3 x 13 x 262
        # (80 KiB), inside a 0.5 MiB margin.  A zero-padded copy of the whole
        # 3 x 262 x 262 input would add 1.57 MiB
        x, weight, bias, up, stride, pad = self.global_0()
        band = 8 * 147 * DEFAULT_BAND_ROWS["global.0"] * 128
        peak = self.traced_peak(engine.conv2d_forward, x, weight, bias, stride, pad)
        assert peak < up.nbytes + band + (1 << 19), (peak, up.nbytes + band)

    def test_global_0_weight_backward_holds_one_column_matrix(self):
        # the columns are 147 x 16384 doubles (18.4 MiB); one band's slab and
        # the weight and bias gradients lie inside a 0.5 MiB margin, which a
        # padded copy of the whole input (1.57 MiB) would overrun
        x, weight, _, up, stride, pad = self.global_0()
        cols = 8 * 147 * 128 * 128
        peak = self.traced_peak(engine.conv2d_backward, x, weight, up, stride, pad, False)
        assert peak < cols + (1 << 19), (peak, cols)


def maxpool_reference(x, k, stride):
    """Per-window loop: the first position in row-major scan order holding the
    window's first NaN or, without one, its maximum."""
    c, h, w = x.shape
    ho, wo = (h - k) // stride + 1, (w - k) // stride + 1
    out = np.empty((c, ho, wo))
    flat = np.empty((c, ho, wo), dtype=np.int64)
    for ch in range(c):
        for oy in range(ho):
            for ox in range(wo):
                cells = [(oy * stride + i, ox * stride + j) for i in range(k) for j in range(k)]
                values = [x[ch, r, q] for r, q in cells]
                nans = [v != v for v in values]
                best = nans.index(True) if any(nans) else values.index(max(values))
                r, q = cells[best]
                out[ch, oy, ox] = x[ch, r, q]
                flat[ch, oy, ox] = r * w + q
    return out, flat


def maxpool_backward_reference(indices, grad_out):
    """Scatter oracle with maxpool2d_backward's signature: np.add.at of the
    upstream gradient at maxpool_reference's flat argmax, so it does not lean
    on the engine's own routing."""
    c, h, w = indices.x.shape
    _, flat = maxpool_reference(indices.x, indices.k, indices.stride)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != flat.shape:
        raise ValueError("upstream gradient shape does not match pool output")
    grad_x = np.zeros((c, h * w))
    ch = np.repeat(np.arange(c), flat[0].size)
    np.add.at(grad_x, (ch, flat.reshape(c, -1).ravel()), grad_out.reshape(c, -1).ravel())
    return grad_x.reshape(c, h, w)


def signed_ties(rng, shape):
    """Small integers, so many values tie, with zeros of both signs."""
    v = np.floor(rng.uniform(-2, 2, shape))
    v[v == 0] = np.where(rng.uniform(0, 1, shape) < 0.5, -0.0, 0.0)[v == 0]
    return v


class TestMaxPool:
    @pytest.mark.parametrize("k,stride", [(2, 2), (2, 1), (3, 3), (3, 1), (3, 2),
                                          (4, 4), (4, 2), (4, 3)])
    def test_matches_window_loop_on_ties(self, k, stride):
        # small integers give many tied maxima; zeros come in both signs
        rng = SplitMix64(k * 10 + stride)
        x = np.floor(rng.uniform(-2, 2, (3, 11, 10)))
        x[x == 0] = np.where(rng.uniform(0, 1, x.shape) < 0.5, -0.0, 0.0)[x == 0]
        assert np.signbit(x[x == 0]).any() and not np.signbit(x[x == 0]).all()
        y, idx = engine.maxpool2d(x, k, stride)
        want, want_flat = maxpool_reference(x, k, stride)
        assert np.array_equal(y, want) and np.array_equal(np.signbit(y), np.signbit(want))
        assert np.array_equal(idx.flat_argmax, want_flat)
        assert idx.input_shape == x.shape

    def test_nan_window_takes_first_nan(self):
        x = np.array([[[1.0, np.nan, 5.0], [np.nan, 2.0, 0.0], [3.0, 4.0, np.nan]]])
        y, idx = engine.maxpool2d(x, 2, 1)
        want, want_flat = maxpool_reference(x, 2, 1)
        assert np.array_equal(y, want, equal_nan=True)
        assert np.array_equal(idx.flat_argmax, want_flat)

    def test_hand_example(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        y, idx = engine.maxpool2d(x, 2, 2)
        assert np.array_equal(y, [[[4.0]]])
        gx = engine.maxpool2d_backward(idx, np.array([[[1.0]]]))
        assert np.array_equal(gx, [[[0, 0], [0, 1]]])

    def test_constant_input_ties_to_first_cell(self):
        x = np.ones((1, 4, 4))
        y, idx = engine.maxpool2d(x, 2, 2)
        assert np.all(y == 1.0)
        gx = engine.maxpool2d_backward(idx, np.full((1, 2, 2), 5.0))
        want = np.zeros((1, 4, 4))
        want[0, ::2, ::2] = 5.0
        assert np.array_equal(gx, want)

    def test_output_values_are_window_members(self):
        rng = SplitMix64(4)
        x = rng.uniform(-3, 3, (2, 7, 7))
        y, _ = engine.maxpool2d(x, 3, 2)
        for c in range(2):
            for oy in range(y.shape[1]):
                for ox in range(y.shape[2]):
                    window = x[c, oy * 2:oy * 2 + 3, ox * 2:ox * 2 + 3]
                    assert y[c, oy, ox] in window

    def test_partial_windows_truncated(self):
        y, _ = engine.maxpool2d(np.zeros((1, 5, 5)), 2, 2)
        assert y.shape == (1, 2, 2)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            engine.maxpool2d(np.zeros((1, 4, 4)), 0)
        with pytest.raises(ValueError):
            engine.maxpool2d(np.zeros((1, 4, 4)), 2, 0)


class TestMaxPoolBackward:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 5])
    def test_matches_scatter_oracle_bitwise(self, k, stride):
        # 11x10 leaves partial windows for most (k, stride); NaN goes in x
        # and in the upstream gradient, with both signs.  The last two trials
        # draw gradients whose sums depend on the order of addition (1e16
        # absorbs 1.0 and 3.0), so a pixel that several windows route to pins
        # the window order of its sum
        rng = SplitMix64(100 * k + stride)
        for trial in range(8):
            x = signed_ties(rng, (3, 11, 10))
            if 2 <= trial < 6:
                x[rng.uniform(0, 1, x.shape) < 0.06] = np.nan
            if 4 <= trial < 6:
                x[rng.uniform(0, 1, x.shape) < 0.04] = -np.nan
            y, idx = engine.maxpool2d(x, k, stride)
            if trial < 6:
                g = signed_ties(rng, y.shape)
            else:
                pick = np.floor(rng.uniform(0, 4, y.shape)).astype(np.int64)
                g = np.array([1e16, -1e16, 1.0, 3.0])[pick]
            if trial in (1, 3, 5):
                g[rng.uniform(0, 1, g.shape) < 0.1] = np.nan
                g[rng.uniform(0, 1, g.shape) < 0.1] = -np.nan
            got = engine.maxpool2d_backward(idx, g)
            want = maxpool_backward_reference(idx, g)
            assert got.shape == want.shape == x.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes(), trial

    @pytest.mark.parametrize("k,stride", [(1, 1), (2, 2), (2, 3), (3, 3), (4, 5)])
    def test_windows_that_do_not_overlap_build_no_flat_argmax(self, k, stride):
        rng = SplitMix64(k + 10 * stride)
        y, idx = engine.maxpool2d(signed_ties(rng, (2, 11, 10)), k, stride)
        engine.maxpool2d_backward(idx, signed_ties(rng, y.shape))
        assert "flat_argmax" not in vars(idx)

    @pytest.mark.parametrize("k,stride", [(2, 2), (3, 2)])
    def test_upstream_shape_mismatch_rejected(self, k, stride):
        y, idx = engine.maxpool2d(SplitMix64(3).uniform(-1, 1, (2, 9, 9)), k, stride)
        for shape in [(2, 4), (1,) + y.shape[1:], (2, y.shape[1] + 1, y.shape[2]),
                      (2, y.shape[1], y.shape[2] - 1), (2,) + y.shape]:
            with pytest.raises(ValueError, match="does not match pool output"):
                engine.maxpool2d_backward(idx, np.zeros(shape))


class TestDense:
    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        y = engine.dense_forward(x, np.eye(3), np.zeros(3))
        assert np.array_equal(y, x)

    def test_hand_example(self):
        y = engine.dense_forward(np.array([3.0, 4.0]), np.array([[1.0, 2.0]]), np.array([0.5]))
        assert y == pytest.approx([11.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            engine.dense_forward(np.zeros(3), np.zeros((2, 4)), np.zeros(2))


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert engine.sigmoid(np.array([0.0]))[0] == 0.5

    def test_relu_definition(self):
        assert np.array_equal(engine.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_relu_backward_is_the_masked_product_written_over_the_gradient(self):
        rng = SplitMix64(8)
        x, g = with_specials(rng, (3, 7, 5)), with_specials(rng, (3, 7, 5), every=3)
        with np.errstate(invalid="ignore"):  # inf * 0
            want = relu_backward_reference(x, g)
            out = g.copy()
            assert engine.relu_backward(x, out) is out
            assert out.tobytes() == want.tobytes()
            kept = g.astype(np.float32)  # converted first, so left as it was
            assert engine.relu_backward(x, kept).tobytes() == \
                relu_backward_reference(x, kept).tobytes()
            assert kept.tobytes() == g.astype(np.float32).tobytes()

    def test_sigmoid_open_interval(self):
        y = engine.sigmoid(np.array([-50.0, 50.0, -700.0, 700.0]))
        assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_sigmoid_grad_at_zero(self):
        x = np.array([0.0])
        y = engine.sigmoid(x)
        g = engine.sigmoid_backward(y, np.ones(1))
        assert g[0] == pytest.approx(0.25)
        eps = 1e-6
        fd = (engine.sigmoid(x + eps) - engine.sigmoid(x - eps)) / (2 * eps)
        assert g[0] == pytest.approx(fd[0], abs=1e-9)


class TestSgd:
    def test_zero_grad_zero_velocity_fixed_point(self):
        params = {"a.weight": np.ones((2, 2))}
        state = engine.SgdState(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
        engine.sgd_momentum_step(params, {"a.weight": np.zeros((2, 2))}, state)
        assert np.array_equal(params["a.weight"], np.ones((2, 2)))

    def test_plain_step(self):
        params = {"a.weight": np.array([1.0])}
        state = engine.SgdState(learning_rate=0.1)
        engine.sgd_momentum_step(params, {"a.weight": np.array([1.0])}, state)
        assert params["a.weight"][0] == pytest.approx(0.9)

    def test_momentum_recursion(self):
        # v1 = -0.1, w1 = -0.1; v2 = 0.9*(-0.1) - 0.1 = -0.19, w2 = -0.29
        params = {"a.weight": np.array([0.0])}
        state = engine.SgdState(learning_rate=0.1, momentum=0.9)
        g = {"a.weight": np.array([1.0])}
        engine.sgd_momentum_step(params, g, state)
        assert params["a.weight"][0] == pytest.approx(-0.1)
        engine.sgd_momentum_step(params, g, state)
        assert params["a.weight"][0] == pytest.approx(-0.29)

    def test_weight_decay_shrinks_weights_not_biases(self):
        params = {"a.weight": np.array([2.0]), "a.bias": np.array([2.0])}
        grads = {"a.weight": np.array([0.0]), "a.bias": np.array([0.0])}
        state = engine.SgdState(learning_rate=0.1, weight_decay=0.5)
        engine.sgd_momentum_step(params, grads, state)
        assert abs(params["a.weight"][0]) < 2.0
        assert params["a.bias"][0] == 2.0

    def test_shape_mismatch_rejected(self):
        state = engine.SgdState(learning_rate=0.1)
        with pytest.raises(ValueError):
            engine.sgd_momentum_step({"a.weight": np.zeros(2)}, {"a.weight": np.zeros(3)}, state)


class TestGradCheck:
    def test_dense_quadratic_is_exact(self):
        rng = SplitMix64(0)
        w = rng.uniform(-1, 1, (4, 8))
        b = rng.uniform(-1, 1, (4,))
        x = rng.uniform(-1, 1, (8,))

        def loss():
            y = engine.dense_forward(x, w, b)
            return 0.5 * float(y @ y)

        y = engine.dense_forward(x, w, b)
        gw, gb = engine.OuterSum(w.shape), np.zeros_like(b)
        gx = engine.dense_backward(x, w, y, gw, gb)
        err = grad_check(loss, {"w": w, "b": b, "x": x},
                         {"w": outer_sum_array(gw), "b": gb, "x": gx}, eps=1e-5)
        assert err < 1e-7

    @pytest.mark.parametrize("seed", range(20))
    def test_conv_layer_fd(self, seed):
        rng = SplitMix64(seed)
        x = rng.uniform(-1, 1, (1, 4, 4))
        w = rng.uniform(-1, 1, (2, 1, 3, 3))
        b = rng.uniform(-1, 1, (2,))
        target = rng.uniform(-1, 1, (2, 2, 2))

        def loss():
            y = engine.conv2d_forward(x, w, b)
            return 0.5 * float(((y - target) ** 2).sum())

        y = engine.conv2d_forward(x, w, b)
        gx, gw, gb = engine.conv2d_backward(x, w, y - target)
        err = grad_check(loss, {"x": x, "w": w, "b": b}, {"x": gx, "w": gw, "b": gb}, eps=1e-5)
        assert err < 1e-5

    @pytest.mark.parametrize("seed", range(20))
    def test_pool_relu_sigmoid_chain_fd(self, seed):
        rng = SplitMix64(1000 + seed)
        x = rng.uniform(-1, 1, (2, 4, 4))
        target = rng.uniform(0.2, 0.8, (2, 2, 2))

        def forward():
            h = engine.relu(x)
            p, idx = engine.maxpool2d(h, 2, 2)
            s = engine.sigmoid(p)
            return h, idx, s

        def loss():
            return 0.5 * float(((forward()[2] - target) ** 2).sum())

        h, idx, s = forward()
        gs = s - target
        gp = engine.sigmoid_backward(s, gs)
        gh = engine.maxpool2d_backward(idx, gp)
        gx = engine.relu_backward(x, gh)
        err = grad_check(loss, {"x": x}, {"x": gx}, eps=1e-5)
        assert err < 1e-5

    @pytest.mark.parametrize("seed", range(20))
    def test_dense_layer_fd(self, seed):
        rng = SplitMix64(2000 + seed)
        w = rng.uniform(-1, 1, (4, 8))
        b = rng.uniform(-1, 1, (4,))
        x = rng.uniform(-1, 1, (8,))
        target = rng.uniform(-1, 1, (4,))

        def loss():
            y = engine.dense_forward(x, w, b)
            return 0.5 * float(((y - target) ** 2).sum())

        y = engine.dense_forward(x, w, b)
        gw, gb = engine.OuterSum(w.shape), np.zeros_like(b)
        gx = engine.dense_backward(x, w, y - target, gw, gb)
        err = grad_check(loss, {"w": w, "b": b, "x": x},
                         {"w": outer_sum_array(gw), "b": gb, "x": gx}, eps=1e-5)
        assert err < 1e-5

    def test_conv_fd_tighter_eps(self):
        # 1x4x4 input into a 2-channel 3x3 conv at eps=1e-6
        rng = SplitMix64(14)
        x = rng.uniform(-1, 1, (1, 4, 4))
        w = rng.uniform(-1, 1, (2, 1, 3, 3))
        b = rng.uniform(-1, 1, (2,))
        target = rng.uniform(-1, 1, (2, 2, 2))

        def loss():
            y = engine.conv2d_forward(x, w, b)
            return 0.5 * float(((y - target) ** 2).sum())

        y = engine.conv2d_forward(x, w, b)
        gx, gw, gb = engine.conv2d_backward(x, w, y - target)
        err = grad_check(loss, {"x": x, "w": w, "b": b}, {"x": gx, "w": gw, "b": gb}, eps=1e-6)
        assert err < 1e-5

    def test_corrupted_gradient_detected(self):
        rng = SplitMix64(3)
        w = rng.uniform(0.5, 1.5, (3, 3))
        x = rng.uniform(0.5, 1.5, (3,))

        def loss():
            return float((w @ x).sum())

        gw = engine.OuterSum(w.shape)
        engine.dense_backward(x, w, np.ones(3), gw, np.zeros(3))
        err = grad_check(loss, {"w": w}, {"w": 2.0 * outer_sum_array(gw)}, eps=1e-5)
        assert err == pytest.approx(0.5, abs=0.05)

    def test_sampled_coordinates(self):
        rng = SplitMix64(6)
        w = rng.uniform(-1, 1, (10, 10))
        x = rng.uniform(-1, 1, (10,))

        def loss():
            return float((w @ x).sum())

        gw = engine.OuterSum(w.shape)
        engine.dense_backward(x, w, np.ones(10), gw, np.zeros(10))
        err = grad_check(loss, {"w": w}, {"w": outer_sum_array(gw)}, eps=1e-5, sample=7)
        assert err < 1e-7

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            grad_check(lambda: 0.0, {}, {}, eps=0.0)

    def test_nonscalar_loss_rejected(self):
        with pytest.raises(ValueError):
            grad_check(lambda: np.zeros(2), {}, {})


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = SplitMix64(0)
        tensors = {
            "local.0.weight": rng.uniform(-1, 1, (4, 3, 3, 3)),
            "local.0.bias": rng.uniform(-1, 1, (4,)),
            "fusion.2.weight": rng.uniform(-1e300, 1e300, (2, 2)),
        }
        path = tmp_path / "model.ckpt"
        engine.save_checkpoint(path, tensors)
        loaded = engine.load_checkpoint(path)
        assert list(loaded) == list(tensors)
        for name in tensors:
            assert tensors[name].shape == loaded[name].shape
            assert np.array_equal(tensors[name], loaded[name])
            assert tensors[name].tobytes() == loaded[name].tobytes()

    def test_same_tensors_same_bytes(self, tmp_path):
        tensors = {"a.weight": SplitMix64(5).uniform(-1, 1, (6, 6))}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        engine.save_checkpoint(p1, tensors)
        engine.save_checkpoint(p2, tensors)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTLGSEG")
        with pytest.raises(ValueError):
            engine.load_checkpoint(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected_by_name(self, tmp_path, bad):
        bias = np.zeros(2)
        bias[1] = bad
        p = tmp_path / "model.ckpt"
        engine.save_checkpoint(p, {"fusion.0.weight": np.ones((2, 2)), "fusion.2.bias": bias})
        with pytest.raises(ValueError, match="fusion.2.bias"):
            engine.load_checkpoint(p)

    def test_repeated_tensor_name_rejected_by_path_and_name(self, tmp_path):
        p = tmp_path / "model.ckpt"
        engine.save_checkpoint(p, {"local.0.weight": np.ones((2, 3)), "local.0.bias": np.ones(2)})
        extra = tmp_path / "extra.ckpt"
        engine.save_checkpoint(extra, {"local.0.weight": np.full((2, 3), 7.0)})
        # a second copy of the first tensor, appended after the whole file
        p.write_bytes(p.read_bytes() + extra.read_bytes()[len(engine.CHECKPOINT_MAGIC):])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: tensor local.0.weight "
                                             "appears more than once$"):
            engine.load_checkpoint(p)

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "model.ckpt"
        engine.save_checkpoint(p, {"a.weight": np.ones((3, 3))})
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(ValueError):
            engine.load_checkpoint(p)

    def test_extents_whose_int64_product_wraps_are_truncated(self, tmp_path):
        # (2**32 - 1)**2 elements: an int64 product wraps to a negative count
        p = tmp_path / "model.ckpt"
        p.write_bytes(engine.CHECKPOINT_MAGIC + struct.pack("<I", 8) + b"a.weight"
                      + struct.pack("<3I", 2, 2 ** 32 - 1, 2 ** 32 - 1))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: truncated checkpoint$"):
            engine.load_checkpoint(p)


# ---------------------------------------------------------------------------
# oracles: the dense backward (its gradients then added with +=), relu
# backward, SGD step, block generator and checkpoint writer and reader that the
# in-place and streaming versions replaced, kept verbatim


def outer_sum_array(grad_weight):
    """The whole sum of an engine.OuterSum as an array, formed in the SGD
    step's chunks."""
    out = np.empty(grad_weight.shape)
    flat = out.reshape(-1)
    for lo, hi in engine._chunk_bounds(flat.size):
        flat[lo:hi] = grad_weight.form(lo, hi)
    return out


def dense_backward_reference(x, weight, grad_out, grad_weight, grad_bias):
    x = np.ascontiguousarray(x, dtype=np.float64)
    weight = np.ascontiguousarray(weight, dtype=np.float64)
    grad_out = np.ascontiguousarray(grad_out, dtype=np.float64)
    if grad_out.size != weight.shape[0]:
        raise ValueError("upstream gradient length != out_units")
    grad_x = weight.T @ grad_out
    grad_weight += np.outer(grad_out, x)
    grad_bias += grad_out.copy()
    return grad_x


def relu_backward_reference(x, grad_out):
    return (np.ascontiguousarray(grad_out, dtype=np.float64)
            * (np.ascontiguousarray(x, dtype=np.float64) > 0.0))


def sgd_step_reference(params, grads, state):
    for name, w in params.items():
        g = grads[name]
        if g.shape != w.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        v = state.velocity.get(name)
        if v is None:
            v = np.zeros_like(w)
            state.velocity[name] = v
        if v.shape != w.shape:
            raise ValueError(f"velocity shape mismatch for {name}")
        eff = g + state.weight_decay * w if name.endswith(".weight") else g
        v *= state.momentum
        v -= state.learning_rate * eff
        w += v


class SplitMix64Reference(SplitMix64):
    """The generator with its previous block routines."""

    def u64_block(self, n):
        if n < 0:
            raise ValueError("block size must be nonnegative")
        steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        z = np.uint64(self._state) + steps
        z = z ^ (z >> np.uint64(30))
        z = z * np.uint64(0xBF58476D1CE4E5B9)
        z = z ^ (z >> np.uint64(27))
        z = z * np.uint64(0x94D049BB133111EB)
        out = z ^ (z >> np.uint64(31))
        self._state = (self._state + n * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        return out

    def floats(self, n):
        return (self.u64_block(n) >> np.uint64(11)) * (2.0 ** -53)

    def uniform(self, low, high, shape):
        size = int(np.prod(shape)) if np.ndim(shape) else int(shape)
        u = self.floats(size)
        return (low + (high - low) * u).reshape(shape)


def save_checkpoint_reference(path, tensors):
    with open(path, "wb") as fh:
        fh.write(engine.CHECKPOINT_MAGIC)
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint_reference(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(engine.CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: not a checkpoint (bad magic)")
    off = len(engine.CHECKPOINT_MAGIC)
    out = {}

    def take(n):
        nonlocal off
        if off + n > len(blob):
            raise ValueError(f"{path}: truncated checkpoint")
        piece = blob[off:off + n]
        off += n
        return piece

    while off < len(blob):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: tensor name is not UTF-8: {exc}") from None
        if name in out:
            raise ValueError(f"{path}: tensor {name} appears more than once")
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        if not np.isfinite(data).all():
            raise ValueError(f"{path}: tensor {name} holds non-finite values")
        out[name] = data.reshape(shape).astype(np.float64)
    return out


SPECIALS = (np.nan, np.inf, -np.inf, -0.0, 0.0)


def with_specials(rng, shape, every=7, start=0):
    """Uniform draws on [-2, 2) with NaN, +-inf and signed zeros strewn in,
    the first of them at flat index start."""
    a = rng.uniform(-2.0, 2.0, shape)
    flat = a.reshape(-1)
    for k, value in enumerate(SPECIALS):
        flat[start + k::every * len(SPECIALS)] = value
    return a


def around_blocks(block):
    """Sizes 1, block - 1, block, block + 1 and several blocks plus a remainder."""
    return sorted({1, block - 1, block, block + 1, 3 * block + block // 2 + 1} - {0})


def outer_sums_reference(pairs, shape, factors=()):
    """Zero-filled sums that the per-call path adds each pair's outer product
    into, then scales with *=."""
    gw, gb = np.zeros(shape), np.zeros(shape[0])
    weight = np.zeros(shape)
    for x, grad_out in pairs:
        dense_backward_reference(x, weight, grad_out, gw, gb)
    for factor in factors:
        gw *= factor
    return gw


def dense_pairs(rng, out_units, in_units, samples, specials):
    draw = with_specials if specials else (lambda r, shape: r.uniform(-2, 2, shape))
    # each sample's specials one place further on, so NaN meets inf and zeros
    return [(np.roll(draw(rng, in_units), s), np.roll(draw(rng, out_units), s))
            for s in range(samples)]


def rows_around_a_chunk(in_units):
    """Row counts whose sums end just short of, at and past one SGD chunk,
    and past three."""
    r = -(-engine._SGD_CHUNK // in_units)
    return sorted({1, 2, r - 1, r, r + 1, r + 2, 3 * r + 1} - {0})


class TestDenseBackwardStreaming:
    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9, engine._SGD_CHUNK - 1, engine._SGD_CHUNK,
                                      engine._SGD_CHUNK + 7, engine._SGD_CHUNK + 8,
                                      3 * engine._SGD_CHUNK + 2, 3 * engine._SGD_CHUNK + 9])
    def test_chunks_keep_numpy_add_loop_tails_in_place(self, size):
        # every chunk but the last a multiple of 8 long, and the last longer
        # than 8 unless it is the only one
        bounds = list(engine._chunk_bounds(size))
        assert [i for lo, hi in bounds for i in range(lo, hi)] == list(range(size))
        lengths = [hi - lo for lo, hi in bounds]
        assert all(n % 8 == 0 for n in lengths[:-1])
        assert all(n <= engine._SGD_CHUNK + 8 for n in lengths)
        assert len(lengths) <= 1 or lengths[-1] > 8

    @pytest.mark.parametrize("in_units", [5, 3000, 2 ** 13 + 3])
    @pytest.mark.parametrize("specials", [False, True], ids=["finite", "specials"])
    @pytest.mark.parametrize("factors", [(), (1.0 / 3,), (0.5, 1.0 / 3)],
                             ids=["sum", "mean", "two_factors"])
    def test_sums_match_outer_then_add_bitwise(self, in_units, specials, factors):
        for out_units in rows_around_a_chunk(in_units):
            rng = SplitMix64(out_units * 7 + in_units)
            weight = rng.uniform(-1, 1, (out_units, in_units))
            pairs = dense_pairs(rng, out_units, in_units, 3, specials)
            gw, gb = engine.OuterSum(weight.shape), np.zeros(out_units)
            want_b = np.zeros(out_units)
            with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, inf - inf
                for x, grad_out in pairs:
                    got = engine.dense_backward(x, weight, grad_out, gw, gb)
                    want = dense_backward_reference(x, weight, grad_out, np.zeros_like(weight),
                                                    want_b)
                    assert got.tobytes() == want.tobytes(), out_units
                for factor in factors:
                    gw *= factor
                want_w = outer_sums_reference(pairs, weight.shape, factors)
                assert outer_sum_array(gw).tobytes() == want_w.tobytes(), out_units
            assert gb.tobytes() == want_b.tobytes(), out_units

    def test_pairs_are_kept_by_reference_with_the_factors(self):
        x, grad_out = np.arange(1.0, 4.0), np.array([-0.0, 2.0])
        gw = engine.OuterSum((2, 3))
        engine.dense_backward(x, np.ones((2, 3)), grad_out, gw, np.zeros(2))
        gw *= 0.5
        (got_g, got_x), = gw.pairs
        assert got_g is grad_out and got_x is x and gw.factors == [0.5]
        # 0.0 + -0.0 is +0.0: the sum starts from a zero fill, not the first product
        assert outer_sum_array(gw).tobytes() == (np.outer(grad_out, x) * 0.5 + 0.0).tobytes()

    @pytest.mark.parametrize("which, bad, match", [
        ("weight", np.zeros((4, 5)), "dense weight gradient"),
        ("weight", engine.OuterSum((3, 5)), "dense weight gradient"),
        ("bias", np.zeros(5), "dense bias gradient"),
        ("bias", np.zeros(4, dtype=np.float32), "dense bias gradient"),
        ("x", np.ones(4), "dense input length"),
        ("grad_out", np.ones(5), "upstream gradient length")])
    def test_arguments_of_wrong_shape_or_type_rejected(self, which, bad, match):
        args = {"x": np.ones(5), "weight": np.ones((4, 5)), "grad_out": np.ones(4),
                "grad_weight": engine.OuterSum((4, 5)), "grad_bias": np.zeros(4)}
        args[{"weight": "grad_weight", "bias": "grad_bias"}.get(which, which)] = bad
        with pytest.raises(ValueError, match=match):
            engine.dense_backward(**args)
        if isinstance(args["grad_weight"], engine.OuterSum):
            assert args["grad_weight"].pairs == []  # nothing was recorded


def same_bits_but_nan_payloads(a, b):
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


def sgd_case(sizes, seed, specials=False):
    """params and three steps' grads for .weight/.bias tensors of the given
    sizes, one .weight 2-D; with specials, both hold NaN, +-inf and signed
    zeros."""
    rng = SplitMix64(seed)
    draw = with_specials if specials else (lambda r, shape: r.uniform(-2, 2, shape))
    shapes = {}
    for i, n in enumerate(sizes):
        shapes[f"layer{i}.weight"] = (n,) if i else (1, n)
        shapes[f"layer{i}.bias"] = (n,)
    params = {name: draw(rng, shape) for name, shape in shapes.items()}
    # each step's specials one place further on: NaN gradients meet infinite weights
    grads = [{name: np.roll(draw(rng, shape), step + 1) for name, shape in shapes.items()}
             for step in range(3)]
    return params, grads


class TestSgdStreaming:
    SIZES = around_blocks(engine._SGD_CHUNK)

    @pytest.mark.parametrize("lr, momentum, decay", [(0.1, 0.9, 5e-4), (0.1, 0.0, 5e-4),
                                                     (1e-3, 0.9, 0.0), (0.0, 0.5, 0.1),
                                                     (1e-4, 0.9, 5e-4)])
    def test_steps_match_reference_bitwise(self, lr, momentum, decay):
        params, grads = sgd_case(self.SIZES, seed=11)
        want_params = {k: v.copy() for k, v in params.items()}
        state = engine.SgdState(lr, momentum, decay)
        want_state = engine.SgdState(lr, momentum, decay)
        for step, g in enumerate(grads):
            engine.sgd_momentum_step(params, g, state)
            sgd_step_reference(want_params, g, want_state)
            for name in params:
                assert params[name].tobytes() == want_params[name].tobytes(), (step, name)
                assert state.velocity[name].tobytes() == \
                    want_state.velocity[name].tobytes(), (step, name)

    def test_signed_zeros_match_reference_bitwise(self):
        params = {"a.weight": np.array([0.0, -0.0, 0.0, -0.0, 1.0]),
                  "a.bias": np.array([-0.0, 0.0, -0.0, 0.0, -1.0])}
        grads = {"a.weight": np.array([-0.0, -0.0, 0.0, 0.0, -0.0]),
                 "a.bias": np.array([0.0, -0.0, -0.0, 0.0, 0.0])}
        want = {k: v.copy() for k, v in params.items()}
        state, want_state = engine.SgdState(0.5, 0.0, 0.5), engine.SgdState(0.5, 0.0, 0.5)
        for _ in range(2):
            engine.sgd_momentum_step(params, grads, state)
            sgd_step_reference(want, grads, want_state)
            for name in params:
                assert params[name].tobytes() == want[name].tobytes(), name
                assert state.velocity[name].tobytes() == want_state.velocity[name].tobytes()

    @pytest.mark.parametrize("momentum, decay", [(0.9, 5e-4), (0.0, 5e-4), (0.9, 0.0)])
    def test_non_finite_values_complete_the_step_then_name_the_first_tensor(self, momentum,
                                                                           decay):
        # with decay 0, 0 * inf gives the default NaN, which g + wd*w then
        # meets with the NaN of g.  Which payload survives depends on operand
        # order, and the reference's own order flips at 256 KiB, where NumPy
        # reuses the wd*w temporary (g + tmp runs as tmp += g).  So a NaN is
        # compared as a NaN, and every other value bit for bit
        params, grads = sgd_case(self.SIZES, seed=12, specials=True)
        want_params = {k: v.copy() for k, v in params.items()}
        state, want_state = (engine.SgdState(0.1, momentum, decay) for _ in range(2))
        for step, g in enumerate(grads):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"^SGD step left non-finite values in "
                                                     r"layer0\.weight$"):
                    engine.sgd_momentum_step(params, g, state)
            with np.errstate(invalid="ignore", over="ignore"):
                sgd_step_reference(want_params, g, want_state)
            for name in params:
                assert same_bits_but_nan_payloads(params[name], want_params[name]), (step, name)
                assert same_bits_but_nan_payloads(state.velocity[name],
                                                  want_state.velocity[name]), (step, name)

    # dense weights whose rows are shorter than, about and longer than one
    # chunk, and whose sizes end around chunk bounds
    DENSE_SHAPES = [(out_units, in_units) for in_units in (5, 3000, 2 ** 13 + 3)
                    for out_units in rows_around_a_chunk(in_units)]

    def dense_case(self, seed, specials, factors):
        """params, and per step the OuterSum gradients and the reference's
        zero-filled sums of the same pairs (3, 2 and 1 samples)."""
        rng = SplitMix64(seed)
        draw = with_specials if specials else (lambda r, shape: r.uniform(-2, 2, shape))
        params, steps = {}, []
        for i, shape in enumerate(self.DENSE_SHAPES):
            params[f"fc{i}.weight"] = draw(rng, shape)
            params[f"fc{i}.bias"] = draw(rng, shape[:1])
        for samples in (3, 2, 1):
            got, want = {}, {}
            for name, w in params.items():
                if name.endswith(".bias"):
                    got[name] = want[name] = draw(rng, w.shape)
                    continue
                pairs = dense_pairs(rng, w.shape[0], w.shape[1], samples, specials)
                got[name] = engine.OuterSum(w.shape)
                for x, grad_out in pairs:
                    got[name].pairs.append((grad_out, x))
                for factor in factors:
                    got[name] *= factor
                with np.errstate(invalid="ignore", over="ignore"):
                    want[name] = outer_sums_reference(pairs, w.shape, factors)
            steps.append((got, want))
        return params, steps

    @pytest.mark.parametrize("lr, momentum, decay, factors", [
        (0.1, 0.9, 5e-4, ()), (0.1, 0.0, 5e-4, (1.0 / 3,)), (1e-3, 0.9, 0.0, (0.5,)),
        (1e-4, 0.9, 5e-4, (1.0 / 3,))])
    def test_outer_sum_gradients_match_the_per_call_sums_bitwise(self, lr, momentum, decay,
                                                                 factors):
        params, steps = self.dense_case(13, False, factors)
        want_params = {k: v.copy() for k, v in params.items()}
        state, want_state = (engine.SgdState(lr, momentum, decay) for _ in range(2))
        for step, (got, want) in enumerate(steps):
            engine.sgd_momentum_step(params, got, state)
            sgd_step_reference(want_params, want, want_state)
            for name in params:
                assert params[name].tobytes() == want_params[name].tobytes(), (step, name)
                assert state.velocity[name].tobytes() == \
                    want_state.velocity[name].tobytes(), (step, name)

    @pytest.mark.parametrize("momentum, decay, factors", [(0.9, 5e-4, ()), (0.0, 5e-4, (0.5,)),
                                                          (0.9, 0.0, (1.0 / 3,))])
    def test_non_finite_outer_sums_complete_the_step_then_name_the_first_tensor(
            self, momentum, decay, factors):
        params, steps = self.dense_case(14, True, factors)
        want_params = {k: v.copy() for k, v in params.items()}
        state, want_state = (engine.SgdState(0.1, momentum, decay) for _ in range(2))
        for step, (got, want) in enumerate(steps):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"^SGD step left non-finite values in "
                                                     r"fc0\.weight$"):
                    engine.sgd_momentum_step(params, got, state)
            with np.errstate(invalid="ignore", over="ignore"):
                sgd_step_reference(want_params, want, want_state)
            for name in params:
                assert same_bits_but_nan_payloads(params[name], want_params[name]), (step, name)
                assert same_bits_but_nan_payloads(state.velocity[name],
                                                  want_state.velocity[name]), (step, name)

    def test_outer_sum_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="gradient shape mismatch for a.weight"):
            engine.sgd_momentum_step({"a.weight": np.zeros((2, 3))},
                                     {"a.weight": engine.OuterSum((3, 2))}, engine.SgdState(0.1))

    def test_overflowing_step_is_rejected_without_a_warning(self):
        params = {"a.weight": np.ones(3), "a.bias": np.ones(2)}
        grads = {"a.weight": np.zeros(3), "a.bias": np.array([0.5, 2.0])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite values in a.bias$"):
                engine.sgd_momentum_step(params, grads, engine.SgdState(1.7e308))
        assert np.isfinite(params["a.weight"]).all()

    def test_parameter_that_is_not_contiguous_float64_rejected(self):
        state = engine.SgdState(0.1)
        with pytest.raises(ValueError, match="parameter a.weight must be"):
            engine.sgd_momentum_step({"a.weight": np.ones((3, 4)).T},
                                     {"a.weight": np.zeros((4, 3))}, state)


class TestHyperparameters:
    @pytest.mark.parametrize("field", ["learning_rate", "momentum", "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1e-300])
    def test_non_finite_or_negative_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be a finite number >= 0"):
            engine.SgdState(**{"learning_rate": 0.1, field: value})

    @pytest.mark.parametrize("field", ["learning_rate", "momentum", "weight_decay"])
    @pytest.mark.parametrize("value", [0.0, -0.0, 0, 5e-324, 1.7e308])
    def test_zero_and_finite_extremes_accepted(self, field, value):
        engine.SgdState(**{"learning_rate": 0.1, field: value})


def outcome(load, path):
    """What a checkpoint reader makes of path: its tensors' names, shapes,
    dtypes and bytes, or its error message."""
    try:
        tensors = load(path)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", [(k, v.shape, v.dtype, v.tobytes()) for k, v in tensors.items()]


def checkpoint_tensors():
    rng = SplitMix64(21)
    return {
        "local.0.weight": rng.uniform(-1, 1, (4, 3, 3, 3)),
        "local.0.bias": np.array([-0.0, 0.0, 5e-324, -1.7e308]),
        "fusion.0.weight": rng.uniform(-1, 1, (5, 6)).T,  # not C-contiguous
        "fusion.0.bias": rng.uniform(-1, 1, 6).astype(np.float32),
        "counts": np.arange(6, dtype=np.int64).reshape(2, 3),
        "scalar": np.float64(2.5),
        "empty": np.zeros((2, 0, 3)),
        "naïve.weight": with_specials(rng, (3, 4), every=1),
    }


class TestCheckpointStreaming:
    def test_file_bytes_match_reference(self, tmp_path):
        tensors = checkpoint_tensors()
        engine.save_checkpoint(tmp_path / "new.ckpt", tensors)
        save_checkpoint_reference(tmp_path / "old.ckpt", tensors)
        assert (tmp_path / "new.ckpt").read_bytes() == (tmp_path / "old.ckpt").read_bytes()

    def test_default_model_bytes_and_round_trip_match_reference(self, tmp_path):
        params = network.build_model(seed=3).params
        engine.save_checkpoint(tmp_path / "new.ckpt", params)
        save_checkpoint_reference(tmp_path / "old.ckpt", params)
        assert (tmp_path / "new.ckpt").read_bytes() == (tmp_path / "old.ckpt").read_bytes()
        got = outcome(engine.load_checkpoint, tmp_path / "new.ckpt")
        assert got == outcome(load_checkpoint_reference, tmp_path / "new.ckpt")
        assert [(k, v) for k, _, _, v in got[1]] == [(k, a.tobytes()) for k, a in params.items()]

    def test_every_malformed_file_gets_the_reference_message(self, tmp_path):
        finite = {k: v for k, v in checkpoint_tensors().items() if k != "naïve.weight"}
        save_checkpoint_reference(tmp_path / "ok.ckpt", finite)
        good = (tmp_path / "ok.ckpt").read_bytes()
        magic = engine.CHECKPOINT_MAGIC

        def tensor(name: bytes, shape, payload: bytes = b""):
            return (struct.pack("<I", len(name)) + name + struct.pack("<I", len(shape))
                    + struct.pack(f"<{len(shape)}I", *shape) + payload)

        one = tensor(b"a.weight", (2,), struct.pack("<2d", 1.0, -0.0))
        cases = {
            "empty file": b"",
            "short magic": magic[:3],
            "bad magic": b"NOTLGSEG" + good[len(magic):],
            "magic only": magic,
            "wrapping extents": magic + tensor(b"a.weight", (2, 2 ** 32 - 1, 2 ** 32 - 1)),
            "huge name length": magic + struct.pack("<I", 2 ** 32 - 1) + b"abc",
            "huge rank": magic + struct.pack("<I", 1) + b"a" + struct.pack("<I", 2 ** 32 - 1),
            "repeated name": magic + one + one,
            "non-UTF-8 name": magic + tensor(b"a\xff.weight", (1,), struct.pack("<d", 1.0)),
            "trailing bytes": good + b"\x01\x02\x03",
        }
        for k, bad in enumerate((np.nan, np.inf, -np.inf)):
            cases[f"non-finite {k}"] = magic + one + tensor(
                b"b.bias", (3,), struct.pack("<3d", 0.5, bad, 1.0))
        for cut in range(len(good)):
            cases[f"cut at {cut}"] = good[:cut]
        path, messages = tmp_path / "case.ckpt", set()
        for label, blob in cases.items():
            path.write_bytes(blob)
            got = outcome(engine.load_checkpoint, path)
            assert got == outcome(load_checkpoint_reference, path), label
            if got[0] == "error":
                messages.add(got[1])
        # the cases meet every message the reader has
        for text in ("not a checkpoint (bad magic)", "truncated checkpoint",
                     "tensor name is not UTF-8", "tensor a.weight appears more than once",
                     "tensor b.bias holds non-finite values"):
            assert any(text in message for message in messages), text

    def test_file_that_shrinks_while_read_is_truncated(self, tmp_path, monkeypatch):
        # the size taken at open still counts the bytes cut off: each read
        # that comes up short, of a name, the extents or a payload, says so
        save_checkpoint_reference(tmp_path / "ok.ckpt", checkpoint_tensors())
        good = (tmp_path / "ok.ckpt").read_bytes()
        fstat = os.fstat
        monkeypatch.setattr(engine.os, "fstat", lambda fd: os.stat_result(
            fstat(fd)[:6] + (len(good),) + fstat(fd)[7:]))
        path = tmp_path / "case.ckpt"
        for cut in range(len(engine.CHECKPOINT_MAGIC), len(good)):
            path.write_bytes(good[:cut])
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: truncated "
                                                 r"checkpoint$"):
                engine.load_checkpoint(path)
