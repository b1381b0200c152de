"""Model assembly, loss and training loop tests."""

import tracemalloc
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

from gradcheck import grad_check
from test_engine import (SPECIALS, dense_backward_reference, maxpool_backward_reference,
                         outer_sum_array, relu_backward_reference,
                         same_bits_but_nan_payloads, sgd_step_reference)
from lgseg import engine, network
from lgseg.network import (ConvSpec, PathwaySpec, PoolSpec, ReluSpec,
                           TrainConfig, build_model, parse_layers, patch_loss, train)
from lgseg.rng import SplitMix64

# compact dual architecture: full window sizes, few channels, cheap to run
LOCAL_SMALL = PathwaySpec(
    layers=(ConvSpec(4, 3), ReluSpec(), PoolSpec(4), ConvSpec(6, 3), ReluSpec(), PoolSpec(4)),
    embed_width=32, input_width=64)
GLOBAL_SMALL = PathwaySpec(
    layers=(ConvSpec(4, 7, stride=4), ReluSpec(), PoolSpec(4), ConvSpec(6, 3), ReluSpec(), PoolSpec(4)),
    embed_width=32, input_width=256)


@dataclass
class Triplet:
    """Free-standing windows with the windows(pathways) of sampling.PatchTriplet."""

    local: np.ndarray
    global_: np.ndarray
    target: np.ndarray

    def windows(self, pathways):
        both = {"local": self.local, "global": self.global_}
        return {prefix: both[prefix] for prefix in pathways}


def make_triplet(seed, positive=True):
    rng = SplitMix64(seed)
    local = rng.uniform(0, 1, (3, 64, 64))
    global_ = rng.uniform(0, 1, (3, 256, 256))
    if positive:
        target = (rng.uniform(0, 1, (16, 16)) > 0.5).astype(np.uint8)
    else:
        target = np.zeros((16, 16), dtype=np.uint8)
    return Triplet(local, global_, target)


def zero_arrays(model):
    """The per-call path's gradient dict: a zero-filled array per tensor."""
    return {name: np.zeros_like(arr) for name, arr in model.params.items()}


def small_dual(seed=0):
    return build_model({"local": LOCAL_SMALL, "global": GLOBAL_SMALL}, fusion_hidden=(24,),
                       seed=seed)


def local_only(seed):
    return build_model({"local": LOCAL_SMALL}, fusion_hidden=(24,), seed=seed)


class TestBuildModel:
    def test_default_fusion_input_width(self):
        model = build_model(seed=1)
        assert model.fusion_input_width == 512
        assert model.params["fusion.0.weight"].shape == (512, 512)
        assert model.params["fusion.2.weight"].shape == (256, 512)

    @pytest.mark.parametrize("case", ["missing", "extra", "wrong_shape"])
    @pytest.mark.parametrize("variant", ["local_only", "global_only", "dual"])
    def test_forward_rejects_windows_that_do_not_match_the_pathways(self, variant, case):
        pathways = {"local_only": {"local": LOCAL_SMALL}, "global_only": {"global": GLOBAL_SMALL},
                    "dual": {"local": LOCAL_SMALL, "global": GLOBAL_SMALL}}[variant]
        model = build_model(pathways, fusion_hidden=(24,), seed=2)
        t = make_triplet(0)
        windows = t.windows(model.pathways)
        assert model.forward(windows).shape == (16, 16)
        assert model.forward_with_caches(windows)[0].shape == (16, 16)
        prefixes = list(model.pathways)
        if case == "missing":
            bad, match = {k: v for k, v in windows.items() if k != prefixes[-1]}, "do not match"
        elif case == "extra":  # the absent pathway's window, or an unknown prefix
            extra = {"local_only": "global", "global_only": "local", "dual": "context"}[variant]
            bad = {**windows, extra: {"global": t.global_}.get(extra, t.local)}
            match = "do not match"
        else:
            bad = {**windows, prefixes[0]: np.zeros((3, 32, 32))}
            match = rf"{prefixes[0]} input must have shape \(3, \d+, \d+\), got \(3, 32, 32\)"
        for call in (model.forward, model.forward_with_caches):
            with pytest.raises(ValueError, match=match) as exc:
                call(bad)
            if case != "wrong_shape":  # both key lists are named
                assert str(list(bad)) in str(exc.value)
                assert str(prefixes) in str(exc.value)

    @pytest.mark.parametrize("pathways", [
        {"global": GLOBAL_SMALL, "local": LOCAL_SMALL},
        {"context": LOCAL_SMALL},
        {"local": LOCAL_SMALL, "context": GLOBAL_SMALL},
        {"local": LOCAL_SMALL, "global": GLOBAL_SMALL, "context": GLOBAL_SMALL},
    ], ids=["wrong_order", "unknown", "local_and_unknown", "dual_and_unknown"])
    def test_pathway_keys_must_be_local_global_in_order(self, pathways):
        with pytest.raises(ValueError, match="one or both of \\['local', 'global'\\] in that order"):
            build_model(pathways, fusion_hidden=(24,))
        with pytest.raises(ValueError, match="in that order"):
            network.LgSegModel(pathways, (24,), {})

    def test_global_only_variant(self):
        model = build_model({"global": GLOBAL_SMALL}, fusion_hidden=(24,), seed=3)
        t = make_triplet(1)
        assert model.forward({"global": t.global_}).shape == (16, 16)

    def test_same_seed_identical_checkpoints(self, tmp_path):
        a, b = small_dual(seed=9), small_dual(seed=9)
        pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        engine.save_checkpoint(pa, a.params)
        engine.save_checkpoint(pb, b.params)
        assert pa.read_bytes() == pb.read_bytes()

    def test_no_pathways_rejected(self):
        with pytest.raises(ValueError):
            build_model({})

    def test_wrong_input_width_rejected(self):
        bad = PathwaySpec(layers=(ConvSpec(4, 3), ReluSpec(), PoolSpec(2)),
                          embed_width=8, input_width=32)
        with pytest.raises(ValueError):
            build_model({"local": bad})
        with pytest.raises(ValueError):
            build_model({"global": bad})

    def test_degenerate_spec_rejected(self):
        bad = PathwaySpec(layers=(PoolSpec(128),), embed_width=8, input_width=64)
        with pytest.raises(ValueError):
            bad.shape_trace()
        with pytest.raises(ValueError):
            PathwaySpec(layers=(PoolSpec(2), PoolSpec(2), PoolSpec(2), PoolSpec(2),
                                PoolSpec(2), PoolSpec(2), PoolSpec(2)),
                        embed_width=8, input_width=64).shape_trace()
        # a zero kernel, stride or channel count: ValueError, never ZeroDivisionError
        for text in ("conv3x16s0", "pool0", "pool2s0", "conv0x16", "conv3x0, relu, conv3x16"):
            with pytest.raises(ValueError):
                PathwaySpec(parse_layers(text), embed_width=8, input_width=64).shape_trace()


class TestForward:
    def test_output_shape_and_open_range(self):
        model = small_dual()
        t = make_triplet(2)
        out = model.forward(t.windows(model.pathways))
        assert out.shape == (16, 16)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_zeroed_output_layer_gives_half(self):
        model = small_dual()
        last = len(model.fusion_hidden)
        model.params[f"fusion.{last}.weight"][:] = 0.0
        model.params[f"fusion.{last}.bias"][:] = 0.0
        t = make_triplet(3)
        out = model.forward(t.windows(model.pathways))
        assert np.all(out == 0.5)

    def test_global_input_perturbation_changes_output(self):
        model = small_dual()
        t = make_triplet(4)
        base = model.forward({"local": t.local, "global": t.global_})
        shifted = model.forward({"local": t.local, "global": np.clip(t.global_ + 0.2, 0, 1)})
        assert not np.array_equal(base, shifted)

    def test_forward_deterministic(self):
        model = small_dual()
        t = make_triplet(5)
        a = model.forward(t.windows(model.pathways))
        b = model.forward(t.windows(model.pathways))
        assert np.array_equal(a, b)

    def test_bad_extents_rejected(self):
        model = small_dual()
        with pytest.raises(ValueError):
            model.forward({"local": np.zeros((3, 32, 32)), "global": np.zeros((3, 256, 256))})


class TestPatchLoss:
    def test_uniform_half_prediction(self):
        pred = np.full((16, 16), 0.5)
        gt = (SplitMix64(0).uniform(0, 1, (16, 16)) > 0.5).astype(np.uint8)
        loss, _ = patch_loss(pred, gt)
        assert loss == pytest.approx(256 * np.log(2), rel=1e-12)

    def test_single_pixel_contribution(self):
        loss, _ = patch_loss(np.array([[0.9]]), np.array([[1.0]]))
        assert loss == pytest.approx(-np.log(0.9), rel=1e-12)

    def test_perfect_prediction_hits_clamp_floor(self):
        gt = (SplitMix64(1).uniform(0, 1, (16, 16)) > 0.5).astype(np.uint8)
        loss, _ = patch_loss(gt.astype(float), gt, eps=1e-7)
        assert loss == pytest.approx(256 * 1e-7, rel=1e-3)

    def test_gradient_sign_follows_error(self):
        rng = SplitMix64(2)
        pred = rng.uniform(0.05, 0.95, (16, 16))
        gt = (rng.uniform(0, 1, (16, 16)) > 0.5).astype(np.uint8)
        _, grad = patch_loss(pred, gt)
        assert np.all(np.sign(grad) == np.sign(pred - gt))

    def test_nonnegative_loss(self):
        rng = SplitMix64(3)
        for seed in range(5):
            pred = rng.uniform(0.01, 0.99, (16, 16))
            gt = (rng.uniform(0, 1, (16, 16)) > 0.3).astype(np.uint8)
            loss, _ = patch_loss(pred, gt)
            assert loss >= 0.0

    def test_nonbinary_gt_rejected(self):
        with pytest.raises(ValueError):
            patch_loss(np.full((2, 2), 0.5), np.full((2, 2), 0.25))

    def test_clamped_region_has_zero_grad(self):
        pred = np.array([[1e-12, 0.5]])
        gt = np.array([[1.0, 1.0]])
        _, grad = patch_loss(pred, gt)
        assert grad[0, 0] == 0.0 and grad[0, 1] != 0.0


def backward_arrays(model, caches, grad_probs):
    """model.backward into a fresh zero_grads() dict, each OuterSum formed
    as an array."""
    grads = model.zero_grads()
    model.backward(caches, grad_probs, grads)
    return {name: outer_sum_array(g) if isinstance(g, engine.OuterSum) else g
            for name, g in grads.items()}


class TestFullModelGradients:
    def test_finite_difference_agreement(self):
        model = small_dual(seed=7)
        t = make_triplet(11)
        windows = {"local": t.local.copy(), "global": t.global_.copy()}

        def loss_fn():
            probs = model.forward(windows)
            return patch_loss(probs, t.target)[0]

        probs, caches = model.forward_with_caches(windows)
        _, dprobs = patch_loss(probs, t.target)
        grads = backward_arrays(model, caches, dprobs)

        tensors = dict(model.params)
        analytic = dict(grads)
        # eps=1e-6: wide enough for stable central differences, narrow enough
        # not to straddle max-pool argmax switches deep in the net
        err = grad_check(loss_fn, tensors, analytic, eps=1e-6, sample=4, seed=0)
        assert err < 1e-4


# ---------------------------------------------------------------------------
# oracle: the per-pathway cache-list forward/backward that the op-list loops
# replaced, kept verbatim apart from reading the parameters off `model` and
# adding each dense weight gradient per call into zero-filled arrays


def _oracle_pathway_forward(model, prefix, spec, x, caches):
    conv_idx = 0
    for layer in spec.layers:
        if isinstance(layer, ConvSpec):
            w = model.params[f"{prefix}.{conv_idx}.weight"]
            b = model.params[f"{prefix}.{conv_idx}.bias"]
            caches.append(("conv", conv_idx, x))
            x = engine.conv2d_forward(x, w, b, layer.stride, layer.padding())
            conv_idx += 1
        elif isinstance(layer, PoolSpec):
            x, idx = engine.maxpool2d(x, layer.k, layer.stride)
            caches.append(("pool", idx))
        else:  # relu
            caches.append(("relu", x))
            x = engine.relu(x)
    shape = x.shape
    flat = x.reshape(-1)
    caches.append(("flatten", shape, flat))
    z = engine.dense_forward(flat, model.params[f"{prefix}.fc.weight"],
                             model.params[f"{prefix}.fc.bias"])
    caches.append(("fc_pre", z))
    return engine.relu(z)


def _oracle_pathway_backward(model, prefix, spec, caches, grad, grads):
    steps = list(caches)
    z = steps.pop()
    assert z[0] == "fc_pre"
    grad = engine.relu_backward(z[1], grad)
    fl = steps.pop()
    assert fl[0] == "flatten"
    grad = dense_backward_reference(fl[2], model.params[f"{prefix}.fc.weight"], grad,
                                    grads[f"{prefix}.fc.weight"], grads[f"{prefix}.fc.bias"])
    grad = grad.reshape(fl[1])
    for layer in reversed(spec.layers):
        step = steps.pop()
        if isinstance(layer, ConvSpec):
            kind, conv_idx, x = step
            assert kind == "conv"
            name = f"{prefix}.{conv_idx}"
            grad, gw, gb = engine.conv2d_backward(
                x, model.params[f"{name}.weight"], grad, layer.stride, layer.padding())
            grads[f"{name}.weight"] += gw
            grads[f"{name}.bias"] += gb
        elif isinstance(layer, PoolSpec):
            assert step[0] == "pool"
            grad = engine.maxpool2d_backward(step[1], grad)
        else:
            assert step[0] == "relu"
            grad = engine.relu_backward(step[1], grad)
    return grad


def oracle_forward(model, windows):
    # local before global, spelled out: the concatenation order is checked
    # independently of the model's pathway loop
    local_spec, global_spec = model.pathways.get("local"), model.pathways.get("global")
    caches = {}
    embeds = []
    if local_spec is not None:
        caches["local"] = []
        embeds.append(_oracle_pathway_forward(model, "local", local_spec,
                                              np.asarray(windows["local"], dtype=np.float64),
                                              caches["local"]))
    if global_spec is not None:
        caches["global"] = []
        embeds.append(_oracle_pathway_forward(model, "global", global_spec,
                                              np.asarray(windows["global"], dtype=np.float64),
                                              caches["global"]))
    z = np.concatenate(embeds)
    n_fusion = len(model.fusion_hidden) + 1
    caches["fusion"] = []
    for i in range(n_fusion):
        w = model.params[f"fusion.{i}.weight"]
        b = model.params[f"fusion.{i}.bias"]
        caches["fusion"].append(z)
        z = engine.dense_forward(z, w, b)
        if i < n_fusion - 1:
            caches["fusion"].append(("pre_relu", z))
            z = engine.relu(z)
    probs = engine.sigmoid(z)
    caches["sigmoid_out"] = probs
    return probs.reshape(16, 16), caches


def oracle_backward(model, caches, grad_probs):
    grads = zero_arrays(model)
    grad = engine.sigmoid_backward(caches["sigmoid_out"], np.asarray(grad_probs).reshape(-1))
    fusion_steps = list(caches["fusion"])
    n_fusion = len(model.fusion_hidden) + 1
    for i in range(n_fusion - 1, -1, -1):
        if i < n_fusion - 1:
            tagged = fusion_steps.pop()
            assert tagged[0] == "pre_relu"
            grad = engine.relu_backward(tagged[1], grad)
        z_in = fusion_steps.pop()
        grad = dense_backward_reference(z_in, model.params[f"fusion.{i}.weight"], grad,
                                        grads[f"fusion.{i}.weight"], grads[f"fusion.{i}.bias"])

    local_spec, global_spec = model.pathways.get("local"), model.pathways.get("global")
    grad_local = grad_global = None
    offset = 0
    if local_spec is not None:
        width = local_spec.embed_width
        grad_local = _oracle_pathway_backward(model, "local", local_spec, caches["local"],
                                              grad[offset:offset + width], grads)
        offset += width
    if global_spec is not None:
        width = global_spec.embed_width
        grad_global = _oracle_pathway_backward(model, "global", global_spec,
                                               caches["global"], grad[offset:offset + width],
                                               grads)
    return grads, grad_local, grad_global


# stride-2 conv with explicit pad, and overlapping 3/2 pooling
LOCAL_CUSTOM = PathwaySpec(
    layers=(ConvSpec(4, 3, stride=2, pad=1), ReluSpec(), PoolSpec(3, 2),
            ConvSpec(6, 5, pad=1), ReluSpec(), PoolSpec(3, 2)),
    embed_width=16, input_width=64)

# relus that must copy: over the input window, over a pool's output (which
# its PoolIndices holds) and over another relu's output
LOCAL_STACKED = PathwaySpec(
    layers=(ReluSpec(), ConvSpec(4, 3), PoolSpec(2), ReluSpec(), ReluSpec(),
            ConvSpec(6, 3), ReluSpec(), ReluSpec(), PoolSpec(4), ReluSpec()),
    embed_width=16, input_width=64)

ORACLE_MODELS = {
    "dual": lambda: small_dual(seed=5),
    "local_only": lambda: local_only(seed=6),
    "global_only": lambda: build_model({"global": GLOBAL_SMALL}, fusion_hidden=(64,), seed=7),
    "custom": lambda: build_model({"local": LOCAL_CUSTOM, "global": GLOBAL_SMALL},
                                  fusion_hidden=(24, 12), seed=8),
    "default": lambda: build_model(seed=9),
    "stacked": lambda: build_model({"local": LOCAL_STACKED, "global": GLOBAL_SMALL},
                                   fusion_hidden=(24,), seed=10),
}


def strewn_outputs(forward, values, every=5):
    """forward with `values` written into its fresh output from flat index 0,
    one every `every` entries in turn."""
    def strewn(*args, **kwargs):
        out = forward(*args, **kwargs)
        for k, value in enumerate(values):
            out.reshape(-1)[k * every::every * len(values)] = value
        return out
    return strewn


def signed_windows(model, seed):
    """Windows on [-1, 1): a relu over the input has values to change."""
    rng = SplitMix64(seed)
    return {p: rng.uniform(-1, 1, (3, w, w))
            for p, w in network.INPUT_WIDTHS.items() if p in model.pathways}


class TestOpListMatchesOracle:
    @pytest.mark.parametrize("variant", sorted(ORACLE_MODELS))
    def test_forward_and_gradients_bitwise(self, variant):
        model = ORACLE_MODELS[variant]()
        t = make_triplet(31)
        windows = t.windows(model.pathways)

        probs, caches = model.forward_with_caches(windows)
        want_probs, want_caches = oracle_forward(model, windows)
        assert np.array_equal(probs, want_probs)
        assert np.array_equal(model.forward(windows), want_probs)

        _, dprobs = patch_loss(probs, t.target)
        grads = backward_arrays(model, caches, dprobs)
        want_grads, _, _ = oracle_backward(model, want_caches, dprobs)
        assert list(grads) == list(want_grads) == list(model.params)
        for name in want_grads:
            assert np.array_equal(grads[name], want_grads[name]), name

    @pytest.mark.parametrize("variant", sorted(ORACLE_MODELS))
    def test_gradients_match_the_pool_scatter_oracle_bitwise(self, variant, monkeypatch):
        # "custom" has overlapping 3/2 pools, the other variants only k/k ones
        model = ORACLE_MODELS[variant]()
        t = make_triplet(33)
        probs, caches = model.forward_with_caches(t.windows(model.pathways))
        _, dprobs = patch_loss(probs, t.target)
        grads = backward_arrays(model, list(caches), dprobs)
        monkeypatch.setattr(engine, "maxpool2d_backward", maxpool_backward_reference)
        want = backward_arrays(model, caches, dprobs)
        assert list(grads) == list(want)
        for name in want:
            assert grads[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("values", [(-0.0, 0.0, -np.inf), SPECIALS],
                             ids=["zeros-and-minus-inf", "nan-inf-zeros"])
    @pytest.mark.parametrize("variant", ["dual", "custom", "stacked"])
    def test_non_finite_pre_activations_match_the_oracle_bitwise(self, variant, values,
                                                                  monkeypatch):
        # every conv and dense output gets NaN, +-inf or signed zeros before
        # its relu; the oracle's relu copies and tapes its input, the model's
        # writes over a fresh output and tapes that
        monkeypatch.setattr(engine, "conv2d_forward", strewn_outputs(engine.conv2d_forward,
                                                                     values))
        monkeypatch.setattr(engine, "dense_forward", strewn_outputs(engine.dense_forward,
                                                                    values, every=3))
        model = ORACLE_MODELS[variant]()
        t = make_triplet(34)
        windows = t.windows(model.pathways)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            probs, caches = model.forward_with_caches(windows)
            want_probs, want_caches = oracle_forward(model, windows)
            assert probs.tobytes() == want_probs.tobytes()
            assert model.forward(windows).tobytes() == want_probs.tobytes()
            _, dprobs = patch_loss(probs, t.target)
            grads = backward_arrays(model, caches, dprobs)
            want_grads, _, _ = oracle_backward(model, want_caches, dprobs)
        assert list(grads) == list(want_grads)
        for name in want_grads:
            assert grads[name].tobytes() == want_grads[name].tobytes(), name
        assert np.isnan(probs).any() == (values == SPECIALS)

    def test_relu_over_a_pool_relu_or_input_leaves_them_untouched(self):
        model = ORACLE_MODELS["stacked"]()
        windows = signed_windows(model, 35)
        kept = {p: w.copy() for p, w in windows.items()}
        _, tape = model.forward_with_caches(windows)
        pools = [entry for entry in tape if isinstance(entry, engine.PoolIndices)]
        assert len(pools) == 4
        for indices in pools:
            out, _ = engine.maxpool2d(indices.x, indices.k, indices.stride)
            assert indices.out.tobytes() == out.tobytes()
        # local's first pool runs over a conv output and is followed by relu
        assert (pools[0].out < 0).any()
        assert all(windows[p].tobytes() == kept[p].tobytes() for p in windows)

    @pytest.mark.parametrize("variant", ["default", "stacked"])
    def test_relu_tapes_its_output_and_keeps_no_pre_relu_copy(self, variant):
        # each relu's tape entry is its output; over a conv's or dense's
        # output it is the very array that the next op, unless a relu, was given
        model = ORACLE_MODELS[variant]()
        _, tape = model.forward_with_caches(signed_windows(model, 36))
        entries = iter(tape)
        fresh = 0
        for prefix in [*model.pathways, "fusion"]:
            ops = model.ops[prefix]
            saved = [next(entries) for _ in ops]
            for i, (kind, _, _) in enumerate(ops):
                if kind != "relu":
                    continue
                assert not (saved[i] < 0).any()
                prev = ops[i - 1][0] if i else None
                if prev == "relu":  # over a relu's output, relu copies
                    assert saved[i] is not saved[i - 1], (prefix, i)
                if prev in ("conv", "dense") and i + 1 < len(ops) and ops[i + 1][0] != "relu":
                    given = saved[i + 1]
                    given = given.x if isinstance(given, engine.PoolIndices) else given
                    assert given is saved[i], (prefix, i)
                    fresh += 1
        assert next(entries, None) is None
        # default: 5 local and 3 global convs and 2 fusion denses (the
        # pathways' last relus end their lists); stacked: 2 global convs and
        # 1 fusion dense, its local conv relus being followed by relus
        assert fresh == {"default": 10, "stacked": 3}[variant]

    def test_backward_consumes_its_tape(self):
        # backward pops the caller's own list: a copy leaves the tape whole
        # for a second pass, which gives the same gradients and empties it
        model = small_dual(seed=5)
        t = make_triplet(32)
        probs, caches = model.forward_with_caches(t.windows(model.pathways))
        _, dprobs = patch_loss(probs, t.target)
        entries = len(caches)
        first = backward_arrays(model, list(caches), dprobs)
        assert len(caches) == entries
        second = backward_arrays(model, caches, dprobs)
        assert caches == []
        for name in first:
            assert np.array_equal(first[name], second[name])

    def test_global_activations_are_freed_before_its_first_conv_step(self, monkeypatch):
        # the outputs of the default global pathway's convs and of the pools
        # that feed a conv, all on the tape, are dead when global.0's gradient
        # starts: backward frees each activation once its step back has used
        # it.  (The last pool's output is global.fc's input, which the fc
        # weight's OuterSum keeps for the batch's step.)
        model = ORACLE_MODELS["default"]()
        weights = [model.params[f"global.{i}.weight"] for i in range(3)]
        refs = []  # weakrefs to the global conv outputs, then to their pools'
        conv2d_forward, maxpool2d = engine.conv2d_forward, engine.maxpool2d

        def conv_forward(x, weight, *args):
            out = conv2d_forward(x, weight, *args)
            if any(weight is w for w in weights):
                refs.append(weakref.ref(out))
            return out

        def pool(x, *args):
            out, indices = maxpool2d(x, *args)
            if any(x is ref() for ref in refs):
                refs.append(weakref.ref(out))
            return out, indices

        monkeypatch.setattr(engine, "conv2d_forward", conv_forward)
        monkeypatch.setattr(engine, "maxpool2d", pool)
        t = make_triplet(37)
        probs, caches = model.forward_with_caches(t.windows(model.pathways))
        assert len(refs) == 6
        del refs[-1]
        assert all(any(entry is ref() or getattr(entry, "out", None) is ref()
                       for entry in caches) for ref in refs)
        _, dprobs = patch_loss(probs, t.target)

        conv2d_backward = engine.conv2d_backward
        alive_at_first_conv = []

        def conv_backward(x, weight, *args, **kwargs):
            if weight is model.params["global.0.weight"]:
                alive_at_first_conv.append([ref() is not None for ref in refs])
            return conv2d_backward(x, weight, *args, **kwargs)

        monkeypatch.setattr(engine, "conv2d_backward", conv_backward)
        model.backward(caches, dprobs, model.zero_grads())
        assert alive_at_first_conv == [[False] * 5]
        assert caches == []


def epoch_losses_in_shuffle_order(losses, cfg):
    """Each epoch's mean per-pixel loss from per-sample losses, added in that
    epoch's SplitMix64(cfg.seed) shuffle order and batch grouping."""
    shuffler, want = SplitMix64(cfg.seed), []
    for _ in range(cfg.epochs):
        order = list(range(len(losses)))
        shuffler.shuffle(order)
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch_loss = 0.0
            for i in order[start:start + cfg.batch_size]:
                batch_loss += losses[i]
            total += batch_loss
        want.append(total / (len(losses) * network.OUTPUT_PIXELS))
    return want


def use_reference_engine(monkeypatch):
    """Train with the per-call path: zero-filled gradient arrays, each dense
    weight gradient added per call, and the reference SGD step."""
    monkeypatch.setattr(network.LgSegModel, "zero_grads", zero_arrays)
    monkeypatch.setattr(engine, "dense_backward", dense_backward_reference)
    monkeypatch.setattr(engine, "relu_backward", relu_backward_reference)
    monkeypatch.setattr(engine, "sgd_momentum_step", sgd_step_reference)


def strew_specials(a, every=7):
    """A copy of a with NaN, +-inf and signed zeros strewn in from index 0."""
    a = np.array(a, dtype=np.float64)
    for k, value in enumerate(SPECIALS):
        a.reshape(-1)[k::every * len(SPECIALS)] = value
    return a


class TestTrain:
    def test_zero_learning_rate_is_noop(self):
        model = small_dual(seed=1)
        before = {k: v.copy() for k, v in model.params.items()}
        data = [make_triplet(s) for s in range(4)]
        cfg = TrainConfig(learning_rate=0.0, epochs=3, batch_size=2)
        losses = [patch_loss(model.forward(t.windows(model.pathways)), t.target,
                             cfg.clamp_eps)[0] for t in data]
        report = train(model, data, cfg)
        for name in before:
            assert np.array_equal(before[name], model.params[name])
        # every epoch adds the same per-sample losses, but in its own shuffle
        # order and batch grouping, so the float sums may differ by epoch
        assert report.epoch_losses == epoch_losses_in_shuffle_order(losses, cfg)

    def test_epoch_loss_adds_sample_losses_in_shuffle_and_batch_order(self, monkeypatch):
        # 1e16 + 1.0 rounds to 1e16, so these losses sum to 0, 1 or 2 by
        # order and grouping, in plain IEEE arithmetic on any BLAS kernel
        data = [make_triplet(s) for s in range(4)]
        loss_of = {id(t.target): loss for t, loss in zip(data, (1e16, 1.0, -1e16, 1.0))}
        monkeypatch.setattr(network, "patch_loss",
                            lambda probs, gt, eps: (loss_of[id(gt)], np.zeros_like(probs)))
        cfg = TrainConfig(learning_rate=0.0, epochs=6, batch_size=2, seed=1)
        report = train(small_dual(seed=1), data, cfg)
        want = epoch_losses_in_shuffle_order([loss_of[id(t.target)] for t in data], cfg)
        # the epochs' orders give different sums, so no one fixed order matches
        assert len(set(want)) > 1
        assert report.epoch_losses == want

    def test_identical_runs_identical_reports_and_params(self):
        data = [make_triplet(s) for s in range(6)]
        cfg = TrainConfig(epochs=2, batch_size=3, seed=5, learning_rate=1e-3)
        m1, m2 = small_dual(seed=2), small_dual(seed=2)
        r1 = train(m1, data, cfg)
        r2 = train(m2, data, cfg)
        assert r1 == r2
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_memorizes_tiny_set(self):
        # bright inputs -> all-ones target, dark inputs -> all-zeros
        model = local_only(seed=4)
        rng = SplitMix64(0)
        data = []
        for s in range(4):
            bright = s % 2 == 0
            lo, hi = (0.6, 1.0) if bright else (0.0, 0.4)
            data.append(Triplet(rng.uniform(lo, hi, (3, 64, 64)), None,
                                np.full((16, 16), int(bright), dtype=np.uint8)))
        cfg = TrainConfig(epochs=80, batch_size=4, learning_rate=5e-4, weight_decay=0.0, seed=0)
        report = train(model, data, cfg)
        assert report.epoch_losses[-1] < 0.05 * report.epoch_losses[0]

    def test_stop_loss_short_circuits(self):
        model = local_only(seed=4)
        data = [Triplet(make_triplet(0).local, None, np.zeros((16, 16), np.uint8))]
        cfg = TrainConfig(epochs=200, batch_size=1, learning_rate=5e-3, stop_loss=0.2, seed=0)
        report = train(model, data, cfg)
        assert len(report.epoch_losses) < 200
        assert report.epoch_losses[-1] < 0.2

    def test_non_finite_loss_aborts_naming_epoch_and_batch(self):
        model = small_dual(seed=1)
        data = [make_triplet(s) for s in range(4)]
        model.params["fusion.1.bias"][0] = np.nan
        with pytest.raises(ValueError, match="epoch 1, batch 1"):
            train(model, data, TrainConfig(epochs=2, batch_size=2))

    def test_mean_reduction_applies_batch_sum_over_batch_size(self, monkeypatch):
        # 8 samples in batches of 3: each epoch ends on a short batch of 2
        model = small_dual(seed=3)
        data = [make_triplet(40 + s, positive=s % 2 == 0) for s in range(8)]
        cfg = TrainConfig(epochs=2, batch_size=3, seed=6, learning_rate=1e-3, reduction="mean")
        shuffler, batches = SplitMix64(cfg.seed), []
        for _ in range(cfg.epochs):
            order = list(range(len(data)))
            shuffler.shuffle(order)
            batches += [order[i:i + 3] for i in range(0, len(order), 3)]
        applied = []
        sgd_step = engine.sgd_momentum_step

        def checked_step(params, grads, state):
            batch = batches[len(applied)]
            summed = model.zero_grads()  # at the parameters the step is about to update
            for i in batch:
                probs, caches = model.forward_with_caches(data[i].windows(model.pathways))
                model.backward(caches, patch_loss(probs, data[i].target)[1], out=summed)
            for name, g in grads.items():
                want = summed[name]
                if isinstance(g, engine.OuterSum):
                    g, want = outer_sum_array(g), outer_sum_array(want)
                assert np.array_equal(g, want * (1.0 / len(batch))), name
            applied.append(len(batch))
            sgd_step(params, grads, state)

        monkeypatch.setattr(engine, "sgd_momentum_step", checked_step)
        train(model, data, cfg)
        assert applied == [3, 3, 2, 3, 3, 2]

    @pytest.mark.parametrize("variant, reduction, momentum, decay", [
        ("small", "sum", 0.9, 5e-4), ("small", "mean", 0.9, 5e-4), ("small", "sum", 0.0, 5e-4),
        ("small", "mean", 0.0, 0.0), ("default", "mean", 0.9, 5e-4)])
    def test_params_and_losses_match_the_reference_engine_bitwise(
            self, monkeypatch, variant, reduction, momentum, decay):
        # 5 samples in batches of 2 over 2 epochs: each epoch ends on a short batch
        build = small_dual if variant == "small" else (lambda seed: build_model(seed=seed))
        count = 5 if variant == "small" else 2
        data = [make_triplet(50 + s, positive=s % 2 == 0) for s in range(count)]
        cfg = TrainConfig(epochs=2, batch_size=2, seed=4, learning_rate=1e-3,
                          momentum=momentum, weight_decay=decay, reduction=reduction)
        got_model, want_model = build(seed=6), build(seed=6)
        got = train(got_model, data, cfg)
        use_reference_engine(monkeypatch)
        want = train(want_model, data, cfg)
        assert got.epoch_losses == want.epoch_losses
        for name, arr in want_model.params.items():
            assert got_model.params[name].tobytes() == arr.tobytes(), name

    def test_one_fresh_gradient_dict_per_batch(self, monkeypatch):
        model = small_dual(seed=3)
        data = [make_triplet(60 + s) for s in range(5)]
        allocations, seen, pairs = [], [], []
        zero_grads = network.LgSegModel.zero_grads

        def counted(self):
            allocations.append(zero_grads(self))
            return allocations[-1]

        sgd_step = engine.sgd_momentum_step

        def checked_step(params, grads, state):
            seen.append(grads)
            pairs.append({name: len(g.pairs) for name, g in grads.items()
                          if isinstance(g, engine.OuterSum)})
            sgd_step(params, grads, state)

        monkeypatch.setattr(network.LgSegModel, "zero_grads", counted)
        monkeypatch.setattr(engine, "sgd_momentum_step", checked_step)
        train(model, data, TrainConfig(epochs=2, batch_size=2, learning_rate=1e-3))
        # each batch steps with the dict it drew, and no dict serves two batches
        assert len(allocations) == len(seen) == 6
        assert all(grads is drawn for grads, drawn in zip(seen, allocations))
        assert len({id(grads) for grads in seen}) == 6
        # each dense weight's pairs are the batch's own: 5 = 2 + 2 + 1
        dense = [f"{name}.fc.weight" for name in ("local", "global")] + \
            [f"fusion.{i}.weight" for i in range(2)]
        assert pairs == [dict.fromkeys(dense, n) for n in (2, 2, 1, 2, 2, 1)]

    @pytest.mark.parametrize("reduction, momentum", [("sum", 0.9), ("mean", 0.9), ("mean", 0.0)])
    def test_non_finite_dense_inputs_and_gradients_match_the_reference_engine(
            self, monkeypatch, reduction, momentum):
        # NaN, +-inf and signed zeros in every dense input and upstream
        # gradient of one batch: the step completes, then names a tensor
        data = [make_triplet(80 + s, positive=s % 2 == 0) for s in range(3)]
        cfg = TrainConfig(epochs=1, batch_size=3, seed=2, learning_rate=1e-3,
                          momentum=momentum, reduction=reduction)
        got_model, want_model = small_dual(seed=8), small_dual(seed=8)

        def strewn(dense_backward):
            return lambda x, weight, grad_out, gw, gb: dense_backward(
                strew_specials(x), weight, strew_specials(grad_out), gw, gb)

        with np.errstate(invalid="ignore", over="ignore"):
            monkeypatch.setattr(engine, "dense_backward", strewn(engine.dense_backward))
            with pytest.raises(ValueError, match=r"^SGD step left non-finite values in \S+ "
                                                 r"in epoch 1, batch 1$"):
                train(got_model, data, cfg)
            use_reference_engine(monkeypatch)
            monkeypatch.setattr(engine, "dense_backward", strewn(dense_backward_reference))
            train(want_model, data, cfg)
        for name, arr in want_model.params.items():
            assert same_bits_but_nan_payloads(got_model.params[name], arr), name
        assert any(np.isnan(arr).any() for arr in want_model.params.values())

    def test_no_recorded_pair_is_written_after_its_sample_backward(self, monkeypatch):
        # the pathways' upstream gradients are views of one fusion input
        # gradient that relu_backward writes over, one part per pathway
        model = small_dual(seed=3)
        data = [make_triplet(90 + s) for s in range(5)]
        recorded = []
        dense_backward, sgd_step = engine.dense_backward, engine.sgd_momentum_step

        def recording(x, weight, grad_out, gw, gb):
            out = dense_backward(x, weight, grad_out, gw, gb)
            recorded.append([(a, a.copy()) for a in gw.pairs[-1]])
            return out

        def checked_step(params, grads, state):
            assert recorded
            for pair in recorded:
                for arr, bytes_then in pair:
                    assert arr.tobytes() == bytes_then.tobytes()
            recorded.clear()
            sgd_step(params, grads, state)

        monkeypatch.setattr(engine, "dense_backward", recording)
        monkeypatch.setattr(engine, "sgd_momentum_step", checked_step)
        train(model, data, TrainConfig(epochs=1, batch_size=2, learning_rate=1e-3))

    def test_train_holds_no_gradient_array_the_size_of_a_dense_weight(self):
        # tracemalloc sees NumPy's buffers.  The traced peak of a train call
        # is bounded by the velocity it creates, one sample's own peak
        # (forward, loss and backward into gradient sums made beforehand) and
        # a 2 MiB margin, a quarter of local.fc's 8 MiB weight.  Batch sums
        # of the dense weights would add 17 MiB.
        model = build_model(seed=3)
        data = [make_triplet(100 + s, positive=s % 2 == 0) for s in range(4)]
        velocity = sum(arr.nbytes for arr in model.params.values())
        grads = model.zero_grads()
        tracemalloc.start()
        try:
            probs, caches = model.forward_with_caches(data[0].windows(model.pathways))
            model.backward(caches, patch_loss(probs, data[0].target)[1], out=grads)
            del probs, caches
            sample_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracemalloc.start()
            train(model, data, TrainConfig(epochs=1, batch_size=2, learning_rate=1e-4))
            train_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        margin = 2 << 20
        assert train_peak < velocity + sample_peak + margin, \
            (train_peak, velocity, sample_peak)

    def test_step_that_leaves_a_parameter_non_finite_aborts_naming_epoch_and_batch(self):
        model = small_dual(seed=1)
        data = [make_triplet(s) for s in range(4)]
        with pytest.raises(ValueError, match=r"^SGD step left non-finite values in \S+ "
                                             r"in epoch 1, batch 1$"):
            train(model, data, TrainConfig(epochs=2, batch_size=4, learning_rate=1.7e308))

    @pytest.mark.parametrize("field", ["learning_rate", "momentum", "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1e-300])
    def test_non_finite_or_negative_hyperparameter_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be a finite number >= 0"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["learning_rate", "momentum", "weight_decay"])
    @pytest.mark.parametrize("value", [0.0, 5e-324, 1.7e308])
    def test_zero_and_finite_extreme_hyperparameters_accepted(self, field, value):
        assert getattr(TrainConfig(**{field: value}), field) == value

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(small_dual(), [], TrainConfig())

    @pytest.mark.parametrize("stop_loss", [None, -1.0, float("nan")])
    def test_stop_loss_below_zero_or_not_a_number_rejected(self, stop_loss):
        with pytest.raises(ValueError, match="stop_loss"):
            TrainConfig(stop_loss=stop_loss)

    def test_report_equality_ignores_wall_clock(self):
        a = network.TrainReport([1.0, 0.5], wall_clock=[0.1, 0.1])
        b = network.TrainReport([1.0, 0.5], wall_clock=[9.9, 9.9])
        assert a == b
