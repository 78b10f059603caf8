import re
import tracemalloc
import weakref

import numpy as np
import pytest

from hexcnn.grid import HexTensor, cell_count
from hexcnn.nn import (
    LayerSpec,
    NetworkConfig,
    TrainConfig,
    backward,
    build_network,
    forward,
    hex_lenet,
    hex_lenet4,
    hex_vgg13,
    hex_vgg16,
    load_checkpoint,
    make_two_class_dataset,
    save_checkpoint,
    train_step,
    xent_loss_grad,
)
from hexcnn.grads import avgpool_backward, conv_backward_filter, conv_backward_input, maxpool_backward
from hexcnn.matmul import gemm
from hexcnn.ops import PATCH_BLOCK, avgpool, conv_valid, maxpool, tap_gather, window_columns
from hexcnn.instrument import MacMeter
from hexcnn import bench, nn, ops, zeronet
from hexcnn.zeronet import backward_zeroout, forward_zeroout, train_step_zeroout
from hexcnn.zeroout import _hex_flat


def tiny_cfg(seed=0):
    return NetworkConfig(
        5,
        1,
        (
            LayerSpec.conv(3, 2, 1, "relu"),
            LayerSpec.maxpool(2, 3),
            LayerSpec.flatten(),
            LayerSpec.dense(4),
            LayerSpec.softmax(),
        ),
        seed,
    )


def test_shape_inference_examples():
    net = build_network(
        NetworkConfig(8, 1, (LayerSpec.conv(4, 2, 1),), seed=0)
    )
    assert net.shapes[-1] == ("hex", 7, 4)

    net = build_network(NetworkConfig(5, 2, (LayerSpec.maxpool(2, 3),)))
    assert net.shapes[-1] == ("hex", 2, 2)

    net = build_network(NetworkConfig(2, 4, (LayerSpec.flatten(),)))
    assert net.shapes[-1] == ("flat", 28)


def test_build_reports_offending_layer():
    cases = [
        ((3, 1, (LayerSpec.conv(2, 2, 1), LayerSpec.conv(2, 4, 1))), "layer 1"),
        ((3, 1, (LayerSpec.dense(5),)), "layer 0"),
        ((3, 1, (LayerSpec.conv(2, 2, 0),)), r"layer 0 \(hexconv\): stride"),
        ((3, 1, (LayerSpec.maxpool(2, 0),)), r"layer 0 \(hexmaxpool\): stride"),
        ((3, 1, (LayerSpec.flatten(), LayerSpec.dense(0))), r"layer 1 \(dense\): units"),
        ((3, 0, (LayerSpec.flatten(),)), "input channels"),
    ]
    for args, match in cases:
        with pytest.raises(ValueError, match=match):
            build_network(NetworkConfig(*args))


def test_build_rejects_seeds_and_layers_of_the_wrong_type():
    with pytest.raises(ValueError, match="seed must be an integer"):
        build_network(NetworkConfig(3, 1, (LayerSpec.flatten(),), seed=1.5))
    with pytest.raises(ValueError, match="layer 1: not a LayerSpec"):
        build_network(NetworkConfig(3, 1, (LayerSpec.flatten(), "conv")))
    for layers in (None, 3):
        with pytest.raises(ValueError, match=f"layers must be a sequence of LayerSpecs, got {layers}"):
            NetworkConfig(5, 1, layers)


@pytest.mark.parametrize("preset", [hex_vgg13, hex_vgg16])
@pytest.mark.parametrize("scale", [0, -1, 0.0, float("inf"), float("nan"), "0.5", True, None])
def test_vgg_width_scale_must_be_a_positive_finite_real(preset, scale):
    with pytest.raises(ValueError, match="width scale must be a finite real number above 0"):
        preset(94, 10, width_scale=scale)


@pytest.mark.parametrize("kind", ["hexconv", "hexmaxpool", "hexavgpool", "flatten", "dense", "softmax_xent"])
def test_build_checks_the_activation_of_every_layer_kind(kind):
    spec = LayerSpec(kind, filters=1, window=1, units=1, activation="tanh")
    with pytest.raises(ValueError, match=rf"layer 0 \({kind}\): unknown activation 'tanh'"):
        build_network(NetworkConfig(3, 1, (spec,)))


@pytest.mark.parametrize(
    "layers,field",
    [
        ((LayerSpec("hexmaxpool", window=2, stride=1, filters=-5, units="x"),), "filters"),
        ((LayerSpec("hexavgpool", window=2, units=3),), "units"),
        ((LayerSpec("hexmaxpool", window=2, activation="relu"),), "activation"),
        ((LayerSpec("hexconv", filters=1, window=1, units=False),), "units"),  # False is not 0
        ((LayerSpec("flatten", stride=1.0),), "stride"),
        ((LayerSpec.flatten(), LayerSpec("dense", units=2, window=np.int64(0))), "window"),
        ((LayerSpec.flatten(), LayerSpec("softmax_xent", filters=2)), "filters"),
    ],
)
def test_build_rejects_fields_the_layer_kind_does_not_read(layers, field):
    # config_digest hashes every field, so an unread one would split the
    # checkpoints of one network
    with pytest.raises(ValueError, match=f"does not use {field}, which must stay"):
        build_network(NetworkConfig(5, 1, layers))


def test_preset_digests_are_unchanged():
    # pinned before unread fields were checked: saved checkpoints still load
    presets = (
        hex_lenet(17, 10),
        hex_lenet4(17, 10),
        hex_vgg13(94, 10, width_scale=0.125),
        hex_vgg16(130, 10, width_scale=0.125),
    )
    assert [nn.config_digest(cfg).hex()[:16] for cfg in presets] == [
        "9c972398b8ad5ad4",
        "e0fef8239cfacb91",
        "48baee7ffc7e932a",
        "704637dd238d9260",
    ]


def test_built_sides_are_the_kernels_sides():
    # build_network and the kernels resolve each layer's geometry on their
    # own: random conv/pool stacks, floored pools included, must agree
    rng = np.random.default_rng(24)
    floored = 0
    for case in range(40):
        side = int(rng.integers(4, 30))
        layers, s = [], side
        while s > 1 and len(layers) < 4:
            window = int(rng.integers(1, min(s, 3) + 1))
            kind = ("hexconv", "hexmaxpool", "hexavgpool")[int(rng.integers(0, 3))]
            strides = [k for k in (1, 2, 3) if kind != "hexconv" or (s - window) % k == 0]
            stride = strides[int(rng.integers(0, len(strides)))]
            filters = {"filters": 2} if kind == "hexconv" else {}
            layers.append(LayerSpec(kind, window=window, stride=stride, **filters))
            s = (s - window) // stride + 1
        net = build_network(NetworkConfig(side, 1, tuple(layers), case))
        x = HexTensor(side, 1, rng.standard_normal(cell_count(side)))
        for i, spec in enumerate(layers):
            if spec.kind == "hexconv":
                x = conv_valid(x, net.params[i], spec.stride)
            elif spec.kind == "hexmaxpool":
                x, _ = maxpool(x, spec.window, spec.stride)
            else:
                x = avgpool(x, spec.window, spec.stride)
            assert net.shapes[i + 1] == ("hex", x.side, x.channels)
        floored += sum(line.endswith(" (floor stride)") for line in net.describe())
    assert floored > 10


def test_init_bounds_follow_fan_in_out():
    net = build_network(tiny_cfg())
    bank = net.params[0]
    a = np.sqrt(6.0 / (1 * 7 + 3 * 7))
    assert np.abs(bank.weights).max() <= a
    assert not bank.bias.any()


def test_forward_zero_weight_network_uniform_softmax():
    cfg = tiny_cfg()
    net = build_network(cfg)
    net.params[3] = (np.zeros_like(net.params[3][0]), np.zeros_like(net.params[3][1]))
    net.params[0] = type(net.params[0])(2, np.zeros_like(net.params[0].weights))
    t = HexTensor(5, 1, np.random.default_rng(0).standard_normal((1, 61)))
    logits, _ = forward(net, [t])
    assert np.allclose(logits, 0.0)
    loss, g = xent_loss_grad(logits[0], 1)
    assert loss == pytest.approx(np.log(4))


def test_single_dense_layer_is_affine():
    cfg = NetworkConfig(2, 1, (LayerSpec.flatten(), LayerSpec.dense(3), LayerSpec.softmax()))
    net = build_network(cfg)
    rng = np.random.default_rng(1)
    t = HexTensor(2, 1, rng.standard_normal((1, 7)))
    logits, _ = forward(net, [t])
    w, b = net.params[1]
    assert np.allclose(logits[0], w @ t.data.ravel() + b)


def test_forward_matches_manual_composition():
    cfg = hex_lenet(17, 10, seed=5)
    net = build_network(cfg)
    rng = np.random.default_rng(2)
    t = HexTensor(17, 1, rng.standard_normal((1, cell_count(17))))
    logits, _ = forward(net, [t])

    x = conv_valid(t, net.params[0], 1)
    x = HexTensor(x.side, x.channels, np.maximum(x.data, 0.0))
    x, _ = maxpool(x, 2, 3)
    x = conv_valid(x, net.params[2], 1)
    x = HexTensor(x.side, x.channels, np.maximum(x.data, 0.0))
    x, _ = maxpool(x, 2, 3)
    vec = x.data.ravel()
    w, b = net.params[5]
    vec = np.maximum(w @ vec + b, 0.0)
    w, b = net.params[6]
    manual = w @ vec + b
    assert np.array_equal(logits[0], manual)


def test_backward_softmax_saturated_near_zero_grads():
    cfg = tiny_cfg()
    net = build_network(cfg)
    t = HexTensor(5, 1, np.zeros((1, 61)))
    logits = np.array([[50.0, -50.0, -50.0, -50.0]])
    loss, g = xent_loss_grad(logits[0], 0)
    assert loss < 1e-20 and np.abs(g).max() < 1e-20


def composed_cfg(seed=14):
    """conv, floor-mode stride-3 maxpool, conv, avgpool, flatten, a relu
    dense layer and a dense layer into softmax."""
    return NetworkConfig(
        13,
        2,
        (
            LayerSpec.conv(3, 2, 1, "relu"),
            LayerSpec.maxpool(2, 3),
            LayerSpec.conv(4, 2, 1, "relu"),
            LayerSpec.avgpool(2, 1),
            LayerSpec.flatten(),
            LayerSpec.dense(5, "relu"),
            LayerSpec.dense(3),
            LayerSpec.softmax(),
        ),
        seed,
    )


def check_network_gradients(cfg, n, probes):
    """Central finite differences of the mean batch loss against
    ``backward`` at (layer, 0 weights / 1 bias, coordinate) probes."""
    net = build_network(cfg)
    rng = np.random.default_rng(3)
    batch, labels = make_two_class_dataset(rng, n, cfg.input_side, cfg.input_channels)
    labels = labels % 3
    logits, caches = forward(net, batch)
    _, grads = backward(net, logits, caches, labels)

    def loss_at(layer, which, coord, offset):
        params = list(net.params)
        p = params[layer]
        if hasattr(p, "weights"):
            w, b = p.weights.copy(), p.bias.copy()
            (w if which == 0 else b)[coord] += offset
            params[layer] = type(p)(p.filter_side, w, b)
        else:
            w, b = p[0].copy(), p[1].copy()
            (w if which == 0 else b)[coord] += offset
            params[layer] = (w, b)
        probe = type(net)(net.cfg, params, net.shapes)
        lg, _ = forward(probe, batch)
        return sum(xent_loss_grad(lg[i], int(labels[i]))[0] for i in range(n)) / n

    h = 1e-6
    count = 0
    for layer, which, coord in probes:
        analytic = grads[layer][which][coord]
        numeric = (loss_at(layer, which, coord, h) - loss_at(layer, which, coord, -h)) / (2 * h)
        assert abs(analytic - numeric) <= 1e-5 * max(abs(analytic), abs(numeric), 1.0)
        count += 1
    assert count == len(probes)


def test_full_network_gradient_finite_difference():
    cfg = NetworkConfig(
        5,
        1,
        (
            LayerSpec.conv(2, 2, 1, "relu"),
            LayerSpec.maxpool(2, 3),
            LayerSpec.flatten(),
            LayerSpec.dense(3),
            LayerSpec.softmax(),
        ),
        seed=11,
    )
    check_network_gradients(cfg, 4, [(0, 0, (0, 0, 3)), (0, 1, (1,)), (3, 0, (2, 1)), (3, 1, (0,))])


def test_composed_network_gradient_finite_difference():
    probes = [(0, 0, (1, 0, 4)), (2, 0, (3, 2, 6)), (5, 0, (4, 10)), (5, 1, (2,)), (6, 0, (1, 3)), (6, 1, (0,))]
    check_network_gradients(composed_cfg(), 3, probes)


LAYOUTS = ((forward, backward), (forward_zeroout, backward_zeroout))


def _plan(module, net):
    """The trunk plan of layout ``module`` (``nn`` or ``zeronet``) for
    ``net`` at the current ``ops.PATCH_BLOCK`` and a group of one sample,
    as ``forward`` looks it up."""
    return module._trunk_plan(net.cfg.layers, tuple(net.shapes), ops.PATCH_BLOCK, 1)


def test_backward_rejects_label_count_mismatch():
    net = build_network(tiny_cfg())
    batch, labels = make_two_class_dataset(np.random.default_rng(8), 4, 5)
    for fwd, bwd in LAYOUTS:
        logits, caches = fwd(net, batch)
        with pytest.raises(ValueError, match="labels"):
            bwd(net, logits, caches, labels[:3])


@pytest.mark.parametrize("bad", [-1, 4, 0.7], ids=["negative", "past_last_class", "fractional"])
def test_backward_rejects_labels_that_are_not_class_indices(bad):
    # tiny_cfg has 4 classes; a label -1 used to wrap to the last class,
    # 4 escaped as IndexError and 0.7 was truncated to class 0
    net = build_network(tiny_cfg())
    batch, labels = make_two_class_dataset(np.random.default_rng(8), 3, 5)
    labels = [*labels[:2], bad]
    for fwd, bwd in LAYOUTS:
        logits, caches = fwd(net, batch)
        with pytest.raises(ValueError, match="labels"):
            bwd(net, logits, caches, labels)


def test_backward_requires_softmax_head():
    cfg = NetworkConfig(5, 1, (LayerSpec.conv(2, 2, 1, "relu"), LayerSpec.flatten(), LayerSpec.dense(3)))
    net = build_network(cfg)
    batch, labels = make_two_class_dataset(np.random.default_rng(8), 2, 5)
    for fwd, bwd in LAYOUTS:
        logits, caches = fwd(net, batch)
        assert logits.shape == (2, 3)
        with pytest.raises(ValueError, match="softmax_xent"):
            bwd(net, logits, caches, labels)


def test_backward_rejects_logits_that_do_not_match_the_caches():
    # logits for 2 samples against caches for 3 used to raise IndexError,
    # logits for 3 against caches for 2 a gemm shape error, and 1-D
    # logits "tuple index out of range"
    net = build_network(tiny_cfg())
    batch, labels = make_two_class_dataset(np.random.default_rng(8), 3, 5)
    for fwd, bwd in LAYOUTS:
        logits, caches = fwd(net, batch)
        _, two = fwd(net, batch[:2])
        for bad, cc, y in ((logits[:2], caches, labels), (logits, two, labels[:2]), (logits[0], caches, labels)):
            with pytest.raises(ValueError, match="logits"):
                bwd(net, bad, cc, y)
        # the failed calls consumed nothing
        loss, _ = bwd(net, logits, caches, labels)
        assert np.isfinite(loss)


def test_backward_consumes_its_caches():
    net = build_network(composed_cfg())
    batch, labels = make_two_class_dataset(np.random.default_rng(8), 3, 13, 2)
    for fwd, bwd in LAYOUTS:
        logits, caches = fwd(net, batch)
        samples = list(caches.trunk)
        bwd(net, logits, caches, labels)
        assert not caches.trunk and not caches.head and not any(samples)
        # a second call raises before it forms any product
        with MacMeter() as meter, pytest.raises(ValueError, match="consumed"):
            bwd(net, logits, caches, labels)
        assert meter.macs == 0


def test_backward_rejects_caches_from_the_other_layout():
    # each backward used to fail deep in its trunk: numpy's "operands
    # could not be broadcast" on the native side, an AxisError on ZeroOut's
    net = build_network(hex_lenet(17, 2))
    batch, labels = make_two_class_dataset(np.random.default_rng(30), 3, 17)
    (fwd, bwd), (zfwd, zbwd) = LAYOUTS
    for made, forward_of, backward_of in (("ZeroOut", zfwd, bwd), ("native", fwd, zbwd)):
        logits, caches = forward_of(net, batch)
        with MacMeter() as meter, pytest.raises(ValueError, match=f"caches come from the {made} layout's forward"):
            backward_of(net, logits, caches, labels)
        assert meter.macs == 0 and len(caches) == 3  # checked first: nothing consumed


def test_apply_gradients_checks_its_grads_and_writes_w_minus_lr_g_into_them():
    net = build_network(composed_cfg())
    batch, labels = make_two_class_dataset(np.random.default_rng(32), 3, 13, 2)
    _, grads = backward(net, *forward(net, batch), labels)
    params = list(net.params)
    want = [None if g is None else [w - 0.1 * a for w, a in zip(nn._arrays(p), g)] for p, g in zip(params, grads)]
    frozen = grads[6][1].copy()
    frozen.setflags(write=False)
    bad = [
        [None],  # used to apply nothing, silently
        grads[:-1],
        [None] * len(grads),  # None for the convs and dense layers
        grads[:1] + [grads[0]] + grads[2:],  # a gradient for the max pool
        [g if g is None else g[0] for g in grads],  # not (weights, bias) pairs
        grads[:5] + [(grads[5][0].T, grads[5][1])] + grads[6:],
        grads[:5] + [(grads[5][0].astype(np.float32), grads[5][1])] + grads[6:],
        grads[:6] + [(grads[6][0], frozen)] + grads[7:],  # cannot be written into
    ]
    for g in bad:
        with pytest.raises(ValueError, match="grads must|gradient must"):
            nn.apply_gradients(net, g, 0.1)
        assert all(a is b for a, b in zip(net.params, params))  # checked before any layer changed
    with pytest.raises(ValueError, match="learning rate"):
        nn.apply_gradients(net, grads, np.nan)
    nn.apply_gradients(net, grads, 0.1)
    for p, w in zip(net.params, want):
        if w is not None:
            assert [a.tobytes() for a in nn._arrays(p)] == [b.tobytes() for b in w]
    # consumed: the dense layers' gradient arrays now hold their parameters
    assert all(a is b for i in (5, 6) for a, b in zip(net.params[i], grads[i]))


def test_the_group_size_counts_the_largest_array_a_sample_builds():
    # hexlenet5 on lenet-train's side-37 hexagon: conv1's window array at
    # pool1's windows, 6 filters x 7 taps x 397 windows, on both layouts
    net = build_network(hex_lenet(37, 2))
    for module in (nn, zeronet):
        assert nn._sample_bytes(_plan(module, net), net.shapes) == 8 * 6 * 7 * 397
    # a VGG block: natively its overlapping pool's window array (4 x 7 x 19
    # beats the convs' 3 x 169 and 4 x 127 outputs); on ZeroOut its second
    # conv's output on the embedding, 4 x 13 x 13
    net = build_network(_vgg_block_cfg())
    assert nn._sample_bytes(_plan(nn, net), net.shapes) == 8 * 4 * 7 * 19
    assert nn._sample_bytes(_plan(zeronet, net), net.shapes) == 8 * 4 * 13 * 13


@pytest.mark.parametrize("layout", ["native", "zeroout"])
@pytest.mark.parametrize("make_cfg", [lambda: composed_cfg(), lambda: hex_lenet(17, 2)], ids=["composed", "lenet"])
def test_groups_of_samples_agree_with_one_sample_at_a_time(monkeypatch, layout, make_cfg):
    (fwd, bwd), module = {"native": (LAYOUTS[0], nn), "zeroout": (LAYOUTS[1], zeronet)}[layout]
    net = build_network(make_cfg())
    batch, labels = make_two_class_dataset(np.random.default_rng(33), 5, net.cfg.input_side, net.cfg.input_channels)
    per_sample = nn._sample_bytes(_plan(module, net), net.shapes)
    got = {}
    for group, sizes in ((1, [1] * 5), (2, [2, 2, 1]), (3, [3, 2]), (5, [5])):
        # the largest budget that gives this group: it floors
        monkeypatch.setattr(ops, "GROUP_BYTES", (group + 1) * per_sample - 1)
        logits, caches = fwd(net, iter(batch))  # groups are cut as the batch is read
        assert [n for _, n in caches.groups] == sizes
        if group == 1:  # each sample's trunk alone, as the composed-by-hand test pins it
            features = [module._trunk_forward(net, _plan(module, net), (t,))[0] for t in batch]
            assert caches.head[0][1].tobytes() == np.concatenate(features).tobytes()
        loss, grads = bwd(net, logits, caches, labels)
        got[group] = [logits, np.array(loss)] + [a for g in grads if g is not None for a in g]
    for group in (2, 3, 5):
        for a, b in zip(got[group], got[1], strict=True):
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


def test_trunk_caches_carry_no_sizes():
    # sizes live in net.shapes: a relu conv caches its input and one bit
    # an output value, but leaves its relu, and so its bits, to a max
    # pool right after it; that pool caches one byte a winning tap and
    # one bit a pooled value; an average pool and the flatten nothing
    # per group of n samples run side by side: the first conv keeps the
    # group's own tensors, every array after it covers the n samples
    net = build_network(composed_cfg())
    batch, _ = make_two_class_dataset(np.random.default_rng(8), 3, 13, 2)
    (_, _, channels), (_, side, _), (_, out_side, f) = net.shapes[1:4]
    for (fwd, _), values in zip(LAYOUTS, (cell_count, lambda s: (2 * s - 1) ** 2)):
        _, caches = fwd(net, batch)
        assert [n for _, n in caches.groups] == [3]  # composed_cfg's arrays are small: one group
        for (conv0, (taps, pool_bits), (x2, bits), avg, flat), (_, n) in zip(caches.trunk, caches.groups):
            assert conv0[0] == tuple(batch) and conv0[1] is None
            # both layouts cache the second conv's input as a flat (channels, n * cells) array
            assert x2.shape == (channels, n * values(side))
            assert bits.dtype == np.uint8 and bits.shape == (-(-f * n * values(out_side) // 8),)
            assert taps.dtype == np.uint8 and taps.shape == (channels, n * cell_count(side))
            assert pool_bits.dtype == np.uint8 and pool_bits.shape == (-(-channels * n * cell_count(side) // 8),)
            assert avg is None and flat is None


@pytest.mark.parametrize("layout", ["native", "zeroout"])
def test_backward_releases_each_conv_input_before_its_input_gradient(monkeypatch, layout):
    # composed_cfg's second conv (layer 2) reads the first pool's output;
    # that array lives in the cache alone, so once backward has formed
    # the conv's filter gradient nothing keeps it.  A group of one sample
    # each, as a network whose arrays fill ops.GROUP_BYTES runs
    monkeypatch.setattr(ops, "GROUP_BYTES", 0)
    net = build_network(composed_cfg())
    batch, labels = make_two_class_dataset(np.random.default_rng(8), 3, 13, 2)
    (fwd, bwd), module, name = {
        "native": (LAYOUTS[0], nn, "_input_grad"),
        "zeroout": (LAYOUTS[1], zeronet, "_input_grad"),
    }[layout]
    logits, caches = fwd(net, batch)
    inputs = [weakref.ref(sample[2][0]) for sample in caches.trunk]
    live = []
    real = getattr(module, name)

    def spy(*args):
        live.append(sum(r() is not None for r in inputs))
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    bwd(net, logits, caches, labels)
    # one call per group, in batch order: the group's own input and
    # every earlier one are gone, the later ones still cached
    assert live == [2, 1, 0]


def _identity_second_conv(cfg):
    layers = list(cfg.layers)
    layers[2] = LayerSpec.conv(layers[2].filters, layers[2].window, layers[2].stride, "identity")
    return NetworkConfig(cfg.input_side, cfg.input_channels, tuple(layers), cfg.seed)


@pytest.mark.parametrize("block", [PATCH_BLOCK, 5])
@pytest.mark.parametrize("make_cfg", [composed_cfg, lambda: _identity_second_conv(composed_cfg())],
                         ids=["relu", "identity"])
def test_trunk_backward_matches_the_public_kernels_composed_by_hand(monkeypatch, block, make_cfg):
    # the trunk runs the backward kernels' cores on arrays and skips their
    # checks; the public kernels, composed by hand, must give the same bits
    monkeypatch.setattr(ops, "PATCH_BLOCK", block)
    net = build_network(make_cfg())
    rng = np.random.default_rng(31)
    (t,), _ = make_two_class_dataset(rng, 1, 13, 2)
    plan = _plan(nn, net)
    features, cache = nn._trunk_forward(net, plan, (t,))  # layers 0-3, then the flatten
    d = rng.standard_normal(features.size)
    got = nn._trunk_grads(net)
    nn._trunk_backward(net, plan, cache, d[None], got)  # a group of one: one row
    assert not cache

    conv0, pool1, conv2, pool3 = net.cfg.layers[:4]
    z0 = conv_valid(t, net.params[0], conv0.stride)
    a0 = HexTensor(z0.side, z0.channels, np.maximum(z0.data, 0.0))
    p1, taps = maxpool(a0, pool1.window, pool1.stride)
    z2 = conv_valid(p1, net.params[2], conv2.stride)
    relu2 = conv2.activation == "relu"
    a2 = HexTensor(z2.side, z2.channels, np.maximum(z2.data, 0.0)) if relu2 else z2
    p3 = avgpool(a2, pool3.window, pool3.stride)
    e = avgpool_backward(HexTensor(p3.side, p3.channels, d), pool3.window, pool3.stride, a2.side)
    if relu2:
        e = HexTensor(e.side, e.channels, e.data * (z2.data > 0))
    want = nn._trunk_grads(net)  # accumulated as the trunk does, from zero
    for a, b in zip(want[2], conv_backward_filter(p1, e, conv2.stride, conv2.window)):
        a += b
    for a, b in zip(got[2], want[2]):  # conv2 feeds an average pool: every output cell
        assert a.tobytes() == b.tobytes()

    e = conv_backward_input(e, net.params[2], conv2.stride, p1.side)
    e = maxpool_backward(e, taps, pool1.window, pool1.stride, a0.side)
    e = HexTensor(e.side, e.channels, e.data * (z0.data > 0))
    # conv0 feeds a max pool whose windows share no cell, so its backward
    # runs on the pool's window cells only, tap major over the windows:
    # the conv table's columns at those cells.  A fused conv's blocks hold
    # whole samples, so one sample is one product at either block size
    cells = tap_gather(a0.side, pool1.window, pool1.stride).ravel()
    g = tap_gather(t.side, conv0.window, conv0.stride)[:, cells]
    e_win = np.take(e.data, cells, axis=1)  # C order, as the trunk's error: BLAS rounds by layout
    dw = gemm(e_win, window_columns(t.data, g).T)
    by_hand = (dw.reshape(net.params[0].weights.shape), e_win.sum(axis=1))
    full = conv_backward_filter(t, e, conv0.stride, conv0.window)  # every output cell
    for a, b, c in zip(got[0], by_hand, full):
        assert a.tobytes() == (np.zeros_like(b) + b).tobytes()  # accumulated from zero
        # the window cells hold all of the error, so only the last bits move
        assert np.abs(a - c).max() <= 1e-13 * np.abs(c).max()


def _vgg_block_cfg(seed=5):
    """relu conv, relu conv, overlapping max pool, flatten, dense into
    softmax: the first conv keeps its relu, the second leaves it to the
    pool."""
    return NetworkConfig(
        9,
        2,
        (
            LayerSpec.conv(3, 2, 1, "relu"),
            LayerSpec.conv(4, 2, 1, "relu"),
            LayerSpec.maxpool(2, 2),
            LayerSpec.flatten(),
            LayerSpec.dense(3),
            LayerSpec.softmax(),
        ),
        seed,
    )


# pre-activations planted in disjoint windows of the pool that applies a
# conv's relu, in tap order; the maximum is never at tap 0, so in the
# windows whose maximum is <= 0 the pool's tap differs from the one it
# takes after the relu, which is tap 0
PLANTED = (
    [-3.0, -1.0, -2.0, -1.0, -5.0, -2.0, -4.0],  # all negative, the maximum tied
    [-1.0, 0.0, -2.0, 0.0, -3.0, 0.0, -1.0],  # exact 0.0 ties
    [-2.0, -0.0, -1.0, -0.0, -3.0, -4.0, -1.0],  # -0.0 ties
    [-1.0, -0.0, 0.0, -2.0, -0.0, 0.0, -3.0],  # ties of both zeros
    [1.0, 2.0, 2.0, -1.0, 0.0, 2.0, -3.0],  # positive ties
)
NAN_WINDOW = [1.0, np.nan, 3.0, np.nan, -1.0, 0.0, 2.0]


def _unfused_trunk(net, t, d, conv):
    """A trunk's features and conv gradients through the public kernels,
    composed by hand, with every layer applying its own activation; the
    convs run through ``conv``."""
    layers = net.cfg.layers[: nn._head_start(net.cfg.layers)]
    x, saved = t, []
    for i, spec in enumerate(layers):
        if spec.kind == "hexconv":
            z = conv(x, net.params[i], spec.stride)
            mask = z.data > 0 if spec.activation == "relu" else None
            saved.append((x, mask))
            x = z if mask is None else HexTensor(z.side, z.channels, np.maximum(z.data, 0.0))
        elif spec.kind == "hexmaxpool":
            y, taps = maxpool(x, spec.window, spec.stride)
            saved.append((x.side, taps))
            x = y
        elif spec.kind == "hexavgpool":
            saved.append((x.side, None))
            x = avgpool(x, spec.window, spec.stride)
        else:  # flatten
            saved.append((x.side, x.channels))
            x = x.data.ravel()
    grads = nn._trunk_grads(net)
    e = d
    for i in reversed(range(len(layers))):
        spec = layers[i]
        if spec.kind == "flatten":
            side, channels = saved[i]
            e = HexTensor(side, channels, e.reshape(channels, -1))
        elif spec.kind == "hexmaxpool":
            side, taps = saved[i]
            e = maxpool_backward(e, taps, spec.window, spec.stride, side)
        elif spec.kind == "hexavgpool":
            e = avgpool_backward(e, spec.window, spec.stride, saved[i][0])
        else:  # hexconv
            x_in, mask = saved[i]
            if mask is not None:
                e = HexTensor(e.side, e.channels, e.data * mask)
            for a, b in zip(grads[i], conv_backward_filter(x_in, e, spec.stride, spec.window)):
                a += b
            if i > 0:
                e = conv_backward_input(e, net.params[i], spec.stride, x_in.side)
    return x, grads


@pytest.mark.parametrize("block", [PATCH_BLOCK, 5])
@pytest.mark.parametrize("make_cfg", [composed_cfg, _vgg_block_cfg], ids=["composed", "vgg-block"])
@pytest.mark.parametrize("layout", ["native", "zeroout"])
def test_a_max_pool_applying_its_convs_relu_gives_the_unfused_bits(monkeypatch, block, make_cfg, layout):
    # relu(maxpool(z)) in the trunks against maxpool(relu(z)) by hand, on
    # windows planted with the cases where the two orders could part
    monkeypatch.setattr(ops, "PATCH_BLOCK", block)
    net = build_network(make_cfg())
    layers = net.cfg.layers
    rng = np.random.default_rng(23)
    # integer weights, inputs and errors keep every sum exact in any
    # order, so both layouts must give the same bits
    for i, p in enumerate(net.params):
        if isinstance(p, ops.HexFilterBank):
            net.params[i] = ops.HexFilterBank(
                p.filter_side, rng.integers(-2, 3, p.weights.shape), rng.integers(-2, 3, p.filters)
            )
    t = HexTensor(net.cfg.input_side, 2, 1.0 * rng.integers(-3, 4, (2, cell_count(net.cfg.input_side))))
    pool = next(i for i, spec in enumerate(layers) if spec.kind == "hexmaxpool")
    conv_layer = pool - 1
    module = {"native": nn, "zeroout": zeronet}[layout]
    plan = _plan(module, net)
    assert plan[conv_layer][2] == "identity"
    assert plan[pool][2] == "relu"

    side = net.shapes[pool][1]
    g = tap_gather(side, layers[pool].window, layers[pool].stride)
    windows, used = [], set()
    for w in range(g.shape[1]):
        if used.isdisjoint(g[:, w]):
            windows.append(w)
            used.update(g[:, w])
    planted = list(PLANTED)
    # a NaN pooled before another conv would reach ZeroOut's zero corner
    # taps, which spread it into more cells than the native windows hold
    if layers[pool + 1].kind == "flatten":
        planted.append(NAN_WINDOW)
    assert len(windows) >= len(planted)

    def plant(z):  # (filters, cells) pre-activations of the pool's conv
        for w, values in zip(windows, planted):
            z[:, g[:, w]] = values

    # a conv that feeds a pool with disjoint windows computes only the
    # pool's window array (ops._conv_windows), on either layout; in these
    # configs that is the planted conv alone, and only before a
    # non-overlapping pool
    fused, conv_windows = [], ops._conv_windows

    def planted_windows(*args):  # (filters, taps, windows)
        win = conv_windows(*args)
        for w, values in zip(windows, planted):
            win[:, :, w] = values
        fused.append(win.shape)
        return win

    monkeypatch.setattr(ops, "_conv_windows", planted_windows)

    def conv(x, bank, stride):  # the hand-composed trunk's
        z = conv_valid(x, bank, stride)
        if bank is not net.params[conv_layer]:
            return z
        data = z.data.copy()
        plant(data)
        return HexTensor(z.side, z.channels, data)

    # an unfused conv runs ops._product over every output cell (on
    # ZeroOut, every anchor of the flat embedding); the planted conv is
    # the one whose weight matrix it multiplies
    weights, cells = {
        "native": (net.params[conv_layer].weights, np.arange(cell_count(side))),
        "zeroout": (zeronet._packed(net.params[conv_layer])[1], _hex_flat(side)),
    }[layout]
    product = ops._product

    def planted_product(x, w, bias, blocks):
        z = product(x, w, bias, blocks)
        if np.shares_memory(w, weights) and not plan[conv_layer][3]:  # the fused conv is planted above
            values = z[:, cells]
            plant(values)
            z[:, cells] = values
        return z

    monkeypatch.setattr(ops, "_product", planted_product)

    d = 7.0 * rng.integers(-3, 4, net.shapes[len(plan)][1])  # exact after the average pool's 1/7
    features, cache = module._trunk_forward(net, plan, (t,))
    disjoint = np.unique(g).size == g.size
    assert fused == ([(layers[conv_layer].filters, g.shape[0], g.shape[1])] if disjoint else [])
    got = nn._trunk_grads(net)
    module._trunk_backward(net, plan, cache, d[None], got)  # a group of one: one row
    assert not cache
    want_features, want = _unfused_trunk(net, t, d, conv)
    assert features.tobytes() == want_features.tobytes()
    assert np.isnan(features).any() == (len(planted) > len(PLANTED))
    for i, spec in enumerate(layers):
        if spec.kind == "hexconv":
            for a, b in zip(got[i], want[i]):
                # only the sign of an exact zero may differ
                assert np.array_equal(a, b, equal_nan=True)


def _conv_pool_cfg(side, channels, filters):
    """An identity side-2 conv, a stride-3 side-2 max pool, a flatten and a
    dense layer into softmax: the trunk's features are the pooled conv
    output."""
    return NetworkConfig(
        side,
        channels,
        (
            LayerSpec.conv(filters, 2, 1, "identity"),
            LayerSpec.maxpool(2, 3),
            LayerSpec.flatten(),
            LayerSpec.dense(2),
            LayerSpec.softmax(),
        ),
        3,
    )


@pytest.mark.parametrize("block", [PATCH_BLOCK, 5])
@pytest.mark.parametrize("layout", ["native", "zeroout"])
def test_a_conv_before_a_disjoint_max_pool_computes_only_its_windows(monkeypatch, block, layout):
    monkeypatch.setattr(ops, "PATCH_BLOCK", block)
    # each layout's taps per conv output cell, and the cells a conv over
    # a whole side-s output computes: the hexagon, or its embedding
    module, taps, cells = {
        "native": (nn, 7, cell_count),
        "zeroout": (zeronet, 9, lambda s: (2 * s - 1) ** 2),
    }[layout]
    rng = np.random.default_rng(41)
    # lenet-train's two conv-pool pairs at full size (hexlenet5 on side
    # 37): stride-3 side-2 pools, whose windows share no cell
    for side, channels, filters in ((37, 1, 6), (12, 6, 16)):
        net = build_network(_conv_pool_cfg(side, channels, filters))
        t = HexTensor(side, channels, rng.standard_normal((channels, cell_count(side))))
        with MacMeter() as meter:
            features, cache = module._trunk_forward(net, _plan(module, net), (t,))
        want, want_taps = maxpool(conv_valid(t, net.params[0]), 2, 3)
        # the product has fewer columns than conv_valid's, which can move
        # BLAS's last bits
        assert np.abs(features - want.data.ravel()).max() <= 1e-13
        assert cache[1][0].tobytes() == want_taps.tobytes() and cache[1][1] is None
        # the product covered the pool's 7 cells a window and no other cell
        assert meter.macs == filters * channels * taps * 7 * cell_count(net.shapes[2][1])

    # an overlapping pool (a VGG block's stride-2 pool) keeps the conv over
    # every output cell
    net = build_network(_vgg_block_cfg())
    t = HexTensor(9, 2, rng.standard_normal((2, cell_count(9))))
    with MacMeter() as meter:
        module._trunk_forward(net, _plan(module, net), (t,))
    convs = [(i, spec) for i, spec in enumerate(net.cfg.layers) if spec.kind == "hexconv"]
    assert meter.macs == sum(
        spec.filters * net.shapes[i][2] * taps * cells(net.shapes[i + 1][1]) for i, spec in convs
    )


def _fused_step_macs(net, conv_taps):
    """Per-sample MACs of a train step's trunk whose every conv feeds a
    max pool with disjoint windows, from the shapes: windows x pool taps
    x C x conv taps x F for the forward, the filter gradient and, past
    layer 0, the input gradient of each conv."""
    total = 0
    for i, spec in enumerate(net.cfg.layers):
        if spec.kind == "hexconv":
            pool, (_, windows, _) = net.cfg.layers[i + 1], net.shapes[i + 2]
            product = cell_count(windows) * cell_count(pool.window) * net.shapes[i][2] * conv_taps(spec.window)
            total += (3 if i else 2) * product * spec.filters
    return total


@pytest.mark.parametrize("layout", ["native", "zeroout"])
def test_a_fused_conv_pools_backward_runs_on_its_windows_alone(layout):
    # lenet-train's step: hexlenet5 on the side-37 hexagon that covers a
    # 48 x 48 image, 32 samples; both convs feed stride-3 side-2 max
    # pools, and their gradients, like their forwards, multiply only the
    # pools' window cells
    (fwd, bwd), conv_taps = {
        "native": (LAYOUTS[0], cell_count),
        "zeroout": (LAYOUTS[1], lambda k: (2 * k - 1) ** 2),
    }[layout]
    net = build_network(hex_lenet(37, 2, seed=1))
    plan = _plan({"native": nn, "zeroout": zeronet}[layout], net)
    assert [i for i, (spec, _, _, fused, _) in enumerate(plan) if fused and spec.kind == "hexconv"] == [0, 2]
    batch, labels = make_two_class_dataset(np.random.default_rng(2), 32, 37)
    with MacMeter() as meter:
        bwd(net, *fwd(net, batch), labels)
    dense = sum(3 * np.prod(p[0].shape) for p in net.params if isinstance(p, tuple))
    assert meter.macs == 32 * (_fused_step_macs(net, conv_taps) + dense)
    assert meter.macs == {"native": 31_021_440, "zeroout": 37_929_600}[layout]


# each layout's conv window table, pool window table and cells a side-L
# array, as its trunk plan reads them
LAYOUT_TABLES = {
    "native": (nn, tap_gather, tap_gather, cell_count),
    "zeroout": (zeronet, lambda side, k, s: zeronet._rect_table(2 * side - 1, 2 * k - 1, s), zeronet._hex_windows,
                lambda side: (2 * side - 1) ** 2),
}
FIELD_CONFIGS = [
    (lambda: hex_lenet(37, 2), [0, 2]),  # lenet-train's side-37 hexagon
    (lambda: hex_lenet(17, 2), [0, 2]),
    (composed_cfg, [0]),
    (lambda: hex_vgg13(94, 2, width_scale=1 / 16), [13]),  # its last pool has one window
]


@pytest.mark.parametrize("block", [PATCH_BLOCK, 5])
@pytest.mark.parametrize("make_cfg,convs", FIELD_CONFIGS, ids=["lenet37", "lenet17", "composed", "vgg13"])
@pytest.mark.parametrize("layout", ["native", "zeroout"])
def test_a_fused_conv_gathers_its_window_matrix_from_the_pool_windows_fields(block, make_cfg, convs, layout):
    # the field gather (ops.window_columns with rows) lays out, for each
    # block, the same bits as the composed table's gather: the conv's
    # table at the pool's window cells, tap major over the windows
    module, conv_table, pool_table, cells = LAYOUT_TABLES[layout]
    net = build_network(make_cfg())
    layers, rng = net.cfg.layers, np.random.default_rng(43)
    for group in (1, 2, 3):
        plan = module._trunk_plan(layers, tuple(net.shapes), block, group)
        assert [i for i, (spec, _, _, fused, _) in enumerate(plan) if fused and spec.kind == "hexconv"] == convs
        for i in convs:
            (spec, side, _, _, fields), pool = plan[i], layers[i + 1]
            g = conv_table(side, spec.window, spec.stride)
            windows = pool_table(net.shapes[i + 1][1], pool.window, pool.stride)
            composed = ops._stack(g[:, windows], cells(side), group)  # (taps, window cells, group*windows)
            per = windows.shape[1] * fields.samples
            x = rng.standard_normal((net.shapes[i][2], group * cells(side)))
            inputs = list(nn._block_inputs(x, fields.samples, cells(side)))
            assert len(inputs) == len(fields.blocks) == group // fields.samples
            for j, ((b, table), xb) in enumerate(zip(fields.blocks, inputs)):
                want = composed[:, :, j * per : (j + 1) * per].reshape(g.shape[0], -1)
                got = window_columns(xb, table, fields.rows)
                assert got.tobytes() == window_columns(x, want).tobytes()
                assert b == slice(j * want.shape[1], (j + 1) * want.shape[1])
                if i > 0:  # the input gradient scatters through the composed table itself
                    assert np.array_equal(fields.composed[j][1], want) and fields.composed[j][0] == b
            assert fields.composed is None if i == 0 else len(fields.composed) == len(fields.blocks)
            # a block holds whole samples: as many as fit the block and divide the group, at least one
            assert group % fields.samples == 0
            assert fields.samples == 1 or fields.samples * windows.size <= block


@pytest.mark.parametrize("layout", ["native", "zeroout"])
def test_a_side2_conv_at_a_side2_pool_reads_a_field_of_19_cells_natively_and_23_on_zeroout(layout):
    # of the 7 x 7 (tap, pool cell) pairs a window reads natively, 49
    # values meet on the side-3 hexagon's 19 cells; ZeroOut's 3 x 3
    # rectangle reads 63 pairs on 23 cells of the embedding
    module = LAYOUT_TABLES[layout][0]
    net = build_network(hex_lenet(37, 2))
    for i in (0, 2):
        fields = _plan(module, net)[i][4]
        taps = {"native": 7, "zeroout": 9}[layout]
        assert fields.rows.shape == (taps, 7)
        assert fields.blocks[0][1].shape[0] == {"native": 19, "zeroout": 23}[layout]
        assert np.unique(fields.rows).size == fields.blocks[0][1].shape[0]


@pytest.mark.parametrize("layout", ["native", "zeroout"])
def test_an_evicted_trunk_plan_is_rebuilt_with_the_same_bits(layout):
    # the plan caches are bounded (16 entries): filling one with other
    # block sizes evicts a network's plans, and the next step builds them
    # again, with the same tables and the same bits
    (fwd, bwd), module = {"native": (LAYOUTS[0], nn), "zeroout": (LAYOUTS[1], zeronet)}[layout]
    net = build_network(hex_lenet(17, 2))
    batch, labels = make_two_class_dataset(np.random.default_rng(47), 5, 17)
    first = _plan(module, net)

    def step():
        loss, grads = bwd(net, *fwd(net, batch), labels)
        return [np.array(loss)] + [a for g in grads if g is not None for a in g]

    want = step()
    for block in range(1, 17):
        module._trunk_plan(net.cfg.layers, tuple(net.shapes), block, 1)
    assert module._trunk_plan.cache_info().currsize == 16
    assert _plan(module, net) is not first
    for a, b in zip(step(), want, strict=True):
        assert a.tobytes() == b.tobytes()


def test_a_nan_read_only_by_cells_no_pool_window_reads_reaches_no_gradient():
    # hexlenet5's first conv feeds a disjoint max pool: of the 817 input
    # cells, 186 are read only by conv outputs that no window of the pool
    # reads.  Neither layout multiplies those outputs, forward or backward,
    # so NaNs there leave the loss and every gradient finite (a backward
    # over every conv output cell made the filter gradient NaN: 0 * NaN)
    net = build_network(hex_lenet(17, 2))
    windows = tap_gather(net.shapes[1][1], 2, 3).ravel()
    unread = np.setdiff1d(np.arange(cell_count(17)), tap_gather(17, 2, 1)[:, windows])
    assert unread.size == 186
    batch, labels = make_two_class_dataset(np.random.default_rng(19), 3, 17)
    x = batch[1].data.copy()
    x[:, unread] = np.nan
    batch[1] = HexTensor(17, 1, x)
    for fwd, bwd in LAYOUTS:
        loss, grads = bwd(net, *fwd(net, batch), labels)
        assert np.isfinite(loss)
        assert all(np.isfinite(a).all() for g in grads if g is not None for a in g)


# per trunk layer of each config: the activation it applies, and whether
# it is a conv that computes only its max pool's windows
TRUNK_PLANS = [
    (lambda: hex_lenet(17, 10, seed=5), ["identity", "relu", "identity", "relu", "identity"], [0, 2]),
    (composed_cfg, ["identity", "relu", "relu", "identity", "identity"], [0]),  # then an average pool
    (_vgg_block_cfg, ["relu", "identity", "relu", "identity"], []),  # an overlapping pool
]


@pytest.mark.parametrize("make_cfg,activations,fused", TRUNK_PLANS, ids=["lenet", "composed", "vgg-block"])
def test_both_layouts_plan_the_same_trunk_up_to_the_flatten(make_cfg, activations, fused):
    # a relu conv right before a max pool applies identity and the pool the
    # relu; each plan ends at the flatten, so no cut can leave a conv's
    # relu to a pool it does not run
    net = build_network(make_cfg())
    layers = net.cfg.layers
    native, embedded = _plan(nn, net), _plan(zeronet, net)
    assert len(native) == len(embedded) == nn._head_start(layers) and native[-1][0].kind == "flatten"
    for i, ((spec, side, act, fuses, table), (zspec, zside, zact, zfuses, ztable)) in enumerate(zip(native, embedded)):
        assert spec == zspec == layers[i] and side == zside == net.shapes[i][1]
        assert act == zact == activations[i]
        # a fused conv and its pool; the pool gathers nothing
        assert fuses == zfuses == (i in fused or i - 1 in fused)
        assert (table is None) == (ztable is None) == (spec.kind == "flatten" or i - 1 in fused)
        if i in fused:  # both products cover the same cells, the pool's, in blocks of as many samples
            assert [b for b, _ in table.blocks] == [b for b, _ in ztable.blocks]
            assert table.samples == ztable.samples
    assert _plan(nn, net) is native  # cached per network layout, block and group


def test_a_network_whose_last_layer_is_the_flatten_returns_its_features():
    # the plan reads no layer past the flatten
    cfg = NetworkConfig(5, 1, (LayerSpec.conv(2, 2, 1, "relu"), LayerSpec.maxpool(1, 1), LayerSpec.flatten()))
    net = build_network(cfg)
    batch, _ = make_two_class_dataset(np.random.default_rng(9), 2, 5)
    want = [np.maximum(conv_valid(t, net.params[0]).data.ravel(), 0.0) for t in batch]
    for fwd, _ in LAYOUTS:
        features, caches = fwd(net, batch)
        assert features.shape == (2, 74) and not caches.head
        assert np.abs(features - want).max() <= 1e-13


def test_forward_rejects_a_batch_item_that_is_not_float64():
    # a float32 item used to be promoted silently: float64 logits, and a
    # float32 conv input in the cache
    net = build_network(hex_lenet(17, 2))
    (t,), _ = make_two_class_dataset(np.random.default_rng(10), 1, 17)
    item = HexTensor(17, 1, t.data.astype(np.float32))
    for fwd, _ in LAYOUTS:
        with pytest.raises(ValueError, match="must be float64.* got float32"):
            fwd(net, [t, item])
        assert fwd(net, [t])[0].dtype == np.float64


def test_forward_rejects_empty_batches_and_items_that_are_not_tensors():
    # used to raise numpy's "need at least one array to stack" and an
    # AttributeError
    net = build_network(tiny_cfg())
    for fwd, _ in LAYOUTS:
        with pytest.raises(ValueError, match="empty"):
            fwd(net, [])
        with pytest.raises(ValueError, match="HexTensor"):
            fwd(net, [np.zeros(5)])


def test_forward_requires_flatten():
    net = build_network(NetworkConfig(5, 1, (LayerSpec.conv(2, 2, 1, "relu"),)))
    batch, _ = make_two_class_dataset(np.random.default_rng(8), 2, 5)
    for fwd, _ in LAYOUTS:
        with pytest.raises(ValueError, match="flatten"):
            fwd(net, batch)


def test_train_config_rejects_malformed_arguments():
    # the learning rate is a finite, non-negative real number and not a
    # bool; the batch size is an integer >= 1 (grid.check_int)
    for args in (
        ("0.1",), (True,), (float("inf"),), (-np.inf,), (np.nan,), (-1,), (None,),
        (0.1, "2"), (0.1, 1.5), (0.1, 0), (0.1, True),
    ):
        with pytest.raises(ValueError):
            TrainConfig(*args)
    for args in ((0.05, 32), (0,), (1, 1), (np.float64(0.1), np.int64(2))):
        TrainConfig(*args)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda net, batch, y: train_step(net, batch, y, None), id="train_step_no_config"),
        pytest.param(lambda net, batch, y: train_step_zeroout(net, batch, y, None), id="zeroout_step_no_config"),
        pytest.param(lambda net, batch, y: train_step(net, batch, y, 0.1), id="train_step_bare_rate"),
        pytest.param(lambda net, batch, y: forward(net, batch[0]), id="forward_one_tensor"),
        pytest.param(lambda net, batch, y: forward_zeroout(net, batch[0]), id="zeroout_forward_one_tensor"),
        pytest.param(lambda *_: make_two_class_dataset(np.random.default_rng(0), 2, 5, separation="x"),
                     id="separation_str"),
        pytest.param(lambda *_: make_two_class_dataset(np.random.default_rng(0), 2, 5, separation=np.nan),
                     id="separation_nan"),
        pytest.param(lambda *_: make_two_class_dataset(np.random.default_rng(0), 2, 5, separation=-np.inf),
                     id="separation_inf"),
        pytest.param(lambda *_: make_two_class_dataset(np.random.default_rng(0), 2, 5, separation=True),
                     id="separation_bool"),
    ],
)
def test_malformed_arguments_raise_value_error_before_any_product(call):
    # a step without a TrainConfig used to raise AttributeError after its
    # whole forward and backward, one HexTensor for a batch TypeError, a
    # string separation TypeError, and a NaN separation gave NaN data
    net = build_network(tiny_cfg())
    batch, labels = make_two_class_dataset(np.random.default_rng(8), 2, 5)
    with MacMeter() as meter, pytest.raises(ValueError):
        call(net, batch, labels)
    assert meter.macs == 0


def test_train_step_zero_lr_keeps_parameters():
    cfg = tiny_cfg()
    net = build_network(cfg)
    rng = np.random.default_rng(4)
    batch, labels = make_two_class_dataset(rng, 6, 5)
    tc = TrainConfig(0.0, 6)
    before = [
        (p.weights.copy(), p.bias.copy()) if hasattr(p, "weights") else
        (p[0].copy(), p[1].copy()) if p is not None else None
        for p in net.params
    ]
    l1 = train_step(net, batch, labels, tc)
    l2 = train_step(net, batch, labels, tc)
    assert l1 == l2
    for p, snap in zip(net.params, before):
        if snap is None:
            continue
        if hasattr(p, "weights"):
            assert np.array_equal(p.weights, snap[0]) and np.array_equal(p.bias, snap[1])
        else:
            assert np.array_equal(p[0], snap[0]) and np.array_equal(p[1], snap[1])


def test_training_loss_strictly_decreases_on_separable_set():
    cfg = tiny_cfg(seed=2)
    rng = np.random.default_rng(5)
    batch, labels = make_two_class_dataset(rng, 16, 5, separation=2.0)
    tc = TrainConfig(0.1, 16)
    net = build_network(cfg)
    losses = [train_step(net, batch, labels, tc) for _ in range(10)]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_training_determinism_bitwise():
    def run():
        cfg = tiny_cfg(seed=9)
        net = build_network(cfg)
        rng = np.random.default_rng(6)
        data, labels = make_two_class_dataset(rng, 24, 5)
        tc = TrainConfig(0.05, 8)
        return [train_step(net, data[i * 8 : (i + 1) * 8], labels[i * 8 : (i + 1) * 8], tc) for i in range(3)]

    assert run() == run()


def test_batch_loss_is_mean_of_per_sample_losses():
    cfg = tiny_cfg()
    net = build_network(cfg)
    rng = np.random.default_rng(7)
    batch, labels = make_two_class_dataset(rng, 5, 5)
    logits, caches = forward(net, batch)
    loss, _ = backward(net, logits, caches, labels)
    singles = []
    for i in range(5):
        lg, cc = forward(net, [batch[i]])
        li, _ = backward(net, lg, cc, [labels[i]])
        singles.append(li)
    assert loss == pytest.approx(np.mean(singles), rel=1e-12)


def test_hex_lenet_examples():
    cfg = hex_lenet(17, 10)
    net = build_network(cfg)
    assert net.shapes[-1] == ("flat", 10)
    # pinned once from the built shapes: conv 48 + conv 688 + dense 2040 + dense 1210
    assert net.parameter_count() == 3986
    with pytest.raises(ValueError):
        hex_lenet(2, 10)
    assert build_network(hex_lenet4(17, 10)).shapes[-1] == ("flat", 10)


def test_vgg_presets_build():
    net13 = build_network(hex_vgg13(94, 10, width_scale=0.125))
    assert net13.shapes[-1] == ("flat", 10)
    net16 = build_network(hex_vgg16(130, 10, width_scale=0.125))
    assert net16.shapes[-1] == ("flat", 10)


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_cfg(seed=3)
    net = build_network(cfg)
    rng = np.random.default_rng(8)
    batch, labels = make_two_class_dataset(rng, 4, 5)
    train_step(net, batch, labels, TrainConfig(0.1, 4))
    path = tmp_path / "model.hxm"
    save_checkpoint(net, path)
    back = load_checkpoint(path, cfg)
    logits_a, _ = forward(net, batch)
    logits_b, _ = forward(back, batch)
    assert np.array_equal(logits_a, logits_b)
    with pytest.raises(ValueError):
        load_checkpoint(path, tiny_cfg(seed=4))
    truncated = tmp_path / "truncated.hxm"
    raw = path.read_bytes()
    # cut inside the first array's size, inside its values, before the last array
    for cut in (45, 60, len(raw) - 8):
        truncated.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match=re.escape(f"{truncated}: truncated checkpoint")):
            load_checkpoint(truncated, cfg)
    padded = tmp_path / "padded.hxm"
    padded.write_bytes(raw + bytes(8))
    with pytest.raises(ValueError, match=re.escape(f"{padded}: 8 bytes after the last parameter array")):
        load_checkpoint(padded, cfg)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda p: build_network(None), id="build_network_none"),
        pytest.param(lambda p: load_checkpoint(p, "x"), id="load_checkpoint_str_config"),
        pytest.param(lambda p: bench.bench_conv([4], seed=1.5), id="bench_conv_seed"),
        pytest.param(lambda p: make_two_class_dataset(np.random.default_rng(0), 1.5, 5), id="dataset_count"),
        pytest.param(lambda p: make_two_class_dataset(np.random.default_rng(0), 2, 5, 1.5), id="dataset_channels"),
        pytest.param(lambda p: ops.HexFilterBank.random(np.random.default_rng(0), 1.5, 1, 2), id="bank_filters"),
        pytest.param(lambda p: ops.HexFilterBank.random(np.random.default_rng(0), 1, 1.5, 2), id="bank_channels"),
    ],
)
def test_malformed_configs_counts_and_seeds_raise_value_error(tmp_path, call):
    path = tmp_path / "model.hxm"
    save_checkpoint(build_network(tiny_cfg()), path)
    with pytest.raises(ValueError):
        call(path)


# -- the embedded twin -------------------------------------------------------


def test_zeroout_forward_matches_hex():
    cfg = hex_lenet(17, 3, seed=6)
    net = build_network(cfg)
    rng = np.random.default_rng(10)
    batch, _ = make_two_class_dataset(rng, 3, 17)
    a, _ = forward(net, batch)
    b, _ = forward_zeroout(net, batch)
    assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(a).max())


def test_zeroout_training_trajectory_matches():
    cfg = tiny_cfg(seed=12)
    rng = np.random.default_rng(11)
    data, labels = make_two_class_dataset(rng, 40, 5)
    tc = TrainConfig(0.1, 8)
    net_a = build_network(cfg)
    net_b = build_network(cfg)
    for s in range(5):
        batch = data[s * 8 : (s + 1) * 8]
        y = labels[s * 8 : (s + 1) * 8]
        la = train_step(net_a, batch, y, tc)
        lb = train_step_zeroout(net_b, batch, y, tc)
        assert abs(la - lb) <= 1e-8 * max(abs(la), abs(lb))


@pytest.mark.parametrize("pool", [(), (LayerSpec.maxpool(1, 1),)], ids=["conv", "conv-pool"])
def test_zeroout_spreads_a_nan_into_more_cells_than_the_native_conv(pool):
    # ZeroOut multiplies the zero corner taps too, and 0 * NaN is NaN, so
    # a NaN input reaches output cells whose hexagonal window misses it;
    # a side-1 max pool has disjoint windows, so its conv is the fused one
    x = np.zeros((1, cell_count(5)))
    x[0, 10] = np.nan
    t = HexTensor(5, 1, x)
    cfg = NetworkConfig(
        5, 1, (LayerSpec.conv(1, 2, 1, "identity"), *pool, LayerSpec.flatten(), LayerSpec.dense(2), LayerSpec.softmax())
    )
    net = build_network(cfg)
    net.params[0] = ops.HexFilterBank(2, np.ones((1, 1, 7)))
    (native, _), (embedded, _) = (module._trunk_forward(net, _plan(module, net), (t,)) for module in (nn, zeronet))
    native, embedded = set(np.flatnonzero(np.isnan(native))), set(np.flatnonzero(np.isnan(embedded)))
    assert native < embedded and (len(native), len(embedded)) == (2, 3)


def test_zeroout_twin_supports_avgpool():
    cfg = NetworkConfig(
        5,
        1,
        (
            LayerSpec.conv(2, 2, 1, "relu"),
            LayerSpec.avgpool(2, 3),
            LayerSpec.flatten(),
            LayerSpec.dense(2),
            LayerSpec.softmax(),
        ),
        seed=13,
    )
    rng = np.random.default_rng(12)
    data, labels = make_two_class_dataset(rng, 8, 5)
    net_a = build_network(cfg)
    net_b = build_network(cfg)
    tc = TrainConfig(0.1, 8)
    la = train_step(net_a, data, labels, tc)
    lb = train_step_zeroout(net_b, data, labels, tc)
    assert abs(la - lb) <= 1e-10
    lg_a, _ = forward(net_a, data[:2])
    lg_b, _ = forward_zeroout(net_b, data[:2])
    assert np.abs(lg_a - lg_b).max() <= 1e-10


def test_zeroout_gradients_match_on_composed_network():
    net = build_network(composed_cfg(seed=15))
    assert [i for i, line in enumerate(net.describe()) if line.endswith(" (floor stride)")] == [2]
    rng = np.random.default_rng(16)
    batch, labels = make_two_class_dataset(rng, 3, 13, 2)
    la, ga = backward(net, *forward(net, batch), labels)
    lb, gb = backward_zeroout(net, *forward_zeroout(net, batch), labels)
    assert abs(la - lb) <= 1e-8 * max(abs(la), abs(lb))
    for a, b in zip(ga, gb):
        assert (a is None) == (b is None)
        for x, y in zip(a or (), b or ()):
            assert np.abs(x - y).max() <= 1e-8 * max(np.abs(x).max(), np.abs(y).max(), 1e-300)


def test_zeroout_step_packs_each_bank_once(monkeypatch):
    # batch 3, two convs: forward and backward used to pack every bank
    # for every sample, 3 * 2 * 2 = 12 times
    cfg = NetworkConfig(
        7, 2, (LayerSpec.conv(3, 2), LayerSpec.conv(2, 2), LayerSpec.flatten(), LayerSpec.dense(2), LayerSpec.softmax())
    )
    net = build_network(cfg)
    batch, labels = make_two_class_dataset(np.random.default_rng(18), 3, 7, 2)
    packs = []
    real = zeronet.zeroout_filter
    monkeypatch.setattr(zeronet, "zeroout_filter", lambda bank: packs.append(bank) or real(bank))
    before = len(zeronet._PACKED)
    old = [weakref.ref(net.params[i]) for i in (0, 1)]
    train_step_zeroout(net, batch, labels, TrainConfig(0.1))
    assert [weakref.ref(b) for b in packs] == old
    packs.clear()
    # the step replaced both banks: their entries died with them
    assert all(r() is None for r in old) and len(zeronet._PACKED) == before
    train_step_zeroout(net, batch, labels, TrainConfig(0.1))
    assert len(packs) == 2


def test_zeroout_filter_gradient_is_mac_metered():
    # backward meters each conv's filter gradient and, past layer 0, its
    # input gradient, each exactly as many MACs as that conv's forward
    # product, plus the dense weight and input gradients.  Per conv:
    # batch * 3x3 taps * C * F * anchors on the embedding.
    cases = (
        (5, 2, (3,), 3, 4, (9 * 2 * 3 * 7 * 7,)),  # 9x9 embedding
        (7, 2, (3, 4), 2, 2, (9 * 2 * 3 * 11 * 11, 9 * 3 * 4 * 9 * 9)),  # 13x13, 11x11
    )
    for side, channels, filters, batch_size, classes, per_sample in cases:
        convs = [LayerSpec.conv(f, 2, 1, "relu") for f in filters]
        cfg = NetworkConfig(
            side, channels, (*convs, LayerSpec.flatten(), LayerSpec.dense(classes), LayerSpec.softmax())
        )
        net = build_network(cfg)
        batch, labels = make_two_class_dataset(np.random.default_rng(17), batch_size, side, channels)
        with MacMeter() as fwd:
            logits, caches = forward_zeroout(net, batch)
        with MacMeter() as bwd:
            backward_zeroout(net, logits, caches, labels)
        dense = batch_size * net.params[len(filters) + 1][0].size
        conv = [batch_size * m for m in per_sample]
        assert fwd.macs == sum(conv) + dense
        assert bwd.macs == sum(conv) + sum(conv[1:]) + 2 * dense


def test_vgg13_trajectory_matches_zeroout():
    # a deep conv->conv stack: each conv's cached input is the previous
    # conv's activation, released as backward walks it
    cfg = hex_vgg13(94, 2, seed=19, width_scale=1 / 16)
    rng = np.random.default_rng(20)
    data, labels = make_two_class_dataset(rng, 4, 94, 3)
    tc = TrainConfig(0.05)
    net_a = build_network(cfg)
    net_b = build_network(cfg)
    for s in range(2):
        batch, y = data[2 * s : 2 * s + 2], labels[2 * s : 2 * s + 2]
        la = train_step(net_a, batch, y, tc)
        lb = train_step_zeroout(net_b, batch, y, tc)
        assert abs(la - lb) <= 1e-8 * max(abs(la), abs(lb))
        for a, b in zip(nn._param_arrays(net_a), nn._param_arrays(net_b)):
            assert np.abs(a - b).max() <= 1e-8 * max(np.abs(a).max(), np.abs(b).max(), 1e-300)


def _step_bytes_bound(net, batch, values, taps):
    """Bytes one SGD step may hold at once if each conv caches only its
    input (8 bytes a value) and its packed relu bits (1 bit an output
    value, in whole bytes).

    ``values(side)`` is the values per channel of a side-``side``
    activation on the layout and ``taps(window)`` the taps of a
    side-``window`` filter.  Per sample: the conv inputs and bits, and
    the max-pool winning taps (1 byte an output cell; pool windows are
    hexagons on both layouts).  Once: one layer's working set, that is
    its window block twice (the block and ``np.take``'s copy of its
    index table) and three output-sized arrays (output, activation,
    error), and the head's batch inputs, outputs and parameters.
    """
    cache = block = out = head = 0
    for i, spec in enumerate(net.cfg.layers):
        before, after = net.shapes[i], net.shapes[i + 1]
        if spec.kind == "hexconv":
            (_, side, c), (_, out_side, f) = before, after
            cache += 8 * c * values(side) + -(-f * values(out_side) // 8)
            block = max(block, 8 * c * taps(spec.window) * min(values(out_side), PATCH_BLOCK))
            out = max(out, 8 * f * values(out_side))
        elif spec.kind == "hexmaxpool":
            (_, _, c), (_, out_side, _) = before, after
            cache += c * cell_count(out_side)
            block = max(block, 8 * c * cell_count(spec.window) * cell_count(out_side))
        elif spec.kind == "dense":
            fan_in, units = before[1], after[1]
            head += 8 * (batch * (fan_in + units) + (fan_in + 1) * units)
    return batch * cache + 2 * block + 3 * out + head


@pytest.mark.parametrize("layout", ["native", "zeroout"])
def test_train_step_peak_holds_only_what_backward_reads(monkeypatch, layout):
    # caching each conv's float64 pre-activation (64 bits an output
    # value, not 1) puts both layouts' peaks well over this bound; so
    # do ZeroOut's boolean masks and int64 taps.  The bound counts one
    # sample's working set, so the trunk runs groups of one: a group
    # multiplies that working set, within ops.GROUP_BYTES, and caches
    # the same entries, only wider
    monkeypatch.setattr(ops, "GROUP_BYTES", 0)
    step, values, taps = {
        "native": (train_step, cell_count, cell_count),
        "zeroout": (train_step_zeroout, lambda side: (2 * side - 1) ** 2, lambda k: (2 * k - 1) ** 2),
    }[layout]
    net = build_network(hex_lenet(17, 2, seed=3))
    batch, labels = make_two_class_dataset(np.random.default_rng(21), 8, 17)
    tc = TrainConfig(0.01)
    step(net, batch, labels, tc)  # builds the cached window tables
    tracemalloc.start()
    try:
        step(net, batch, labels, tc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _step_bytes_bound(net, 8, values, taps)
