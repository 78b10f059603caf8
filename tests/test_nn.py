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
    load_dataset,
    make_two_class_dataset,
    save_checkpoint,
    save_dataset,
    train_step,
    xent_loss_grad,
)
from hexcnn.ops import PATCH_BLOCK, avgpool, conv_valid, maxpool
from hexcnn.instrument import MacMeter
from hexcnn import nn, zeronet
from hexcnn.zeronet import backward_zeroout, forward_zeroout, train_step_zeroout


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


@pytest.mark.parametrize("layout", ["native", "zeroout"])
def test_backward_releases_each_conv_input_before_its_input_gradient(monkeypatch, layout):
    # composed_cfg's second conv (layer 2) reads the first pool's output;
    # that array lives in the cache alone, so once backward has formed
    # the conv's filter gradient nothing keeps it
    net = build_network(composed_cfg())
    batch, labels = make_two_class_dataset(np.random.default_rng(8), 3, 13, 2)
    (fwd, bwd), module, name = {
        "native": (LAYOUTS[0], nn, "conv_backward_input"),
        "zeroout": (LAYOUTS[1], zeronet, "_rect_conv_backward_input"),
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
    # one call per sample, in batch order: the sample's own input and
    # every earlier one are gone, the later ones still cached
    assert live == [2, 1, 0]


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
    truncated.write_bytes(path.read_bytes()[:45])  # cut inside the first array's size
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(truncated, cfg)


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    tensors, labels = make_two_class_dataset(rng, 5, 3)
    save_dataset(tmp_path / "ds", tensors, labels)
    back, back_labels = load_dataset(tmp_path / "ds")
    assert np.array_equal(back_labels, labels)
    for a, b in zip(back, tensors):
        assert np.array_equal(a.data, b.data)


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
    input (8 bytes a value) and its relu mask (1 byte an output cell).

    ``values(side)`` is the values per channel of a side-``side``
    activation on the layout and ``taps(window)`` the taps of a
    side-``window`` filter.  Per sample: the conv inputs and masks, and
    the max-pool winners (8 bytes an output cell; pool windows are
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
            cache += 8 * c * values(side) + f * values(out_side)
            block = max(block, 8 * c * taps(spec.window) * min(values(out_side), PATCH_BLOCK))
            out = max(out, 8 * f * values(out_side))
        elif spec.kind == "hexmaxpool":
            (_, _, c), (_, out_side, _) = before, after
            cache += 8 * c * cell_count(out_side)
            block = max(block, 8 * c * cell_count(spec.window) * cell_count(out_side))
        elif spec.kind == "dense":
            fan_in, units = before[1], after[1]
            head += 8 * (batch * (fan_in + units) + (fan_in + 1) * units)
    return batch * cache + 2 * block + 3 * out + head


@pytest.mark.parametrize("layout", ["native", "zeroout"])
def test_train_step_peak_holds_only_what_backward_reads(layout):
    # caching each conv's float64 pre-activation (8 bytes an output cell,
    # not 1) puts both layouts' peaks well over this bound
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
