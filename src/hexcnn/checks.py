"""Randomized verification suites: native versus ZeroOut convolution,
the adjoint identity, and finite-difference gradient checks.

These are the machine-checkable contracts of the hexagonal kernels; the
CLI ``verify`` command runs them and the acceptance tests pin their
tolerances.
"""

from __future__ import annotations

import numpy as np

from .grads import (
    avgpool_backward,
    conv_backward_filter,
    conv_backward_input,
    conv_backward_input_reflect,
    maxpool_backward,
)
from .grid import HexTensor, cell_count
from .nn import (
    LayerSpec,
    Network,
    NetworkConfig,
    _activate,
    _arrays,
    _with_arrays,
    backward,
    build_network,
    forward,
    make_two_class_dataset,
    xent_loss_grad,
)
from .ops import HexFilterBank, avgpool, conv_valid, maxpool, valid_geometry
from .zeroout import embed_parallelogram, extract_hex, rect_conv_reference, zeroout_filter

__all__ = [
    "rel_err",
    "zeroout_conv",
    "run_oracle_suite",
    "run_adjoint_suite",
    "run_gradient_suite",
]


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Largest elementwise gap relative to the larger operand's magnitude."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-300)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def zeroout_conv(t: HexTensor, bank: HexFilterBank, stride: int = 1) -> HexTensor:
    """The full ZeroOut pipeline: embed, rectangle conv, extract."""
    out_side = valid_geometry(t.side, bank.filter_side, stride)
    rect = rect_conv_reference(embed_parallelogram(t), zeroout_filter(bank), stride)
    return extract_hex(rect, out_side)


def _sample_geometry(rng, max_side=12, max_filter=4, strides=(1, 2, 3)):
    while True:
        filter_side = int(rng.integers(1, max_filter + 1))
        stride = int(rng.choice(strides))
        max_out = (max_side - filter_side) // stride + 1
        if max_out < 1:
            continue
        out_side = int(rng.integers(1, max_out + 1))
        return stride * (out_side - 1) + filter_side, filter_side, stride


def run_oracle_suite(seed: int, cases: int, tol: float = 1e-10, inject_fault: bool = False):
    """conv_valid == ZeroOut pipeline on random instances.

    Returns (rows, failures); each row is a dict suitable for CSV.
    """
    rng = np.random.default_rng(seed)
    rows = []
    failures = []
    for i in range(cases):
        side, fside, stride = _sample_geometry(rng)
        channels = int(rng.integers(1, 5))
        filters = int(rng.integers(1, 5))
        t = HexTensor(side, channels, rng.standard_normal((channels, cell_count(side))))
        bank = HexFilterBank.random(rng, filters, channels, fside)
        direct = conv_valid(t, bank, stride)
        if inject_fault and i == 0:
            corrupted = direct.data.copy()
            corrupted[0, 0] += 1.0
            direct = HexTensor(direct.side, direct.channels, corrupted)
        reference = zeroout_conv(t, bank, stride)
        err = rel_err(direct.data, reference.data)
        case_id = f"oracle_{i:03d}_L{side}_k{fside}_s{stride}_c{channels}_f{filters}"
        ok = err <= tol
        rows.append(
            {
                "suite": "oracle",
                "case": case_id,
                "status": "pass" if ok else "fail",
                "max_rel_err": err,
            }
        )
        if not ok:
            failures.append((case_id, {"input": t.data, "weights": bank.weights, "bias": bank.bias}))
    return rows, failures


def run_adjoint_suite(seed: int, cases: int, tol: float = 1e-10):
    """<conv(I, K), D> == <I, conv_backward_input(D, K)> for bias-free K,
    and conv_backward_input == the point-reflection reference."""
    rng = np.random.default_rng(seed)
    rows = []
    failures = []
    for i in range(cases):
        side, fside, stride = _sample_geometry(rng)
        channels = int(rng.integers(1, 4))
        filters = int(rng.integers(1, 4))
        t = HexTensor(side, channels, rng.standard_normal((channels, cell_count(side))))
        bank = HexFilterBank(
            fside, rng.standard_normal((filters, channels, cell_count(fside)))
        )
        out = conv_valid(t, bank, stride)
        delta = HexTensor(
            out.side, filters, rng.standard_normal((filters, cell_count(out.side)))
        )
        lhs = float(np.vdot(out.data, delta.data))
        back = conv_backward_input(delta, bank, stride, side)
        rhs = float(np.vdot(t.data, back.data))
        err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        reference = conv_backward_input_reflect(delta, bank, stride, side)
        err = max(err, rel_err(back.data, reference.data))
        case_id = f"adjoint_{i:03d}_L{side}_k{fside}_s{stride}"
        ok = err <= tol
        rows.append(
            {"suite": "adjoint", "case": case_id, "status": "pass" if ok else "fail", "max_rel_err": err}
        )
        if not ok:
            failures.append((case_id, {"input": t.data, "weights": bank.weights, "delta": delta.data}))
    return rows, failures


# -- finite differences ------------------------------------------------------

FD_STEP = 1e-6


def _fd_ok(analytic: float, numeric: float, tol: float) -> tuple[bool, float]:
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
    return err <= tol, err


def _sq_loss(t: HexTensor) -> float:
    return 0.5 * float(np.vdot(t.data, t.data))


def _probe_coords(rng, shape, count):
    flat = rng.integers(0, int(np.prod(shape)), size=count)
    return [np.unravel_index(int(f), shape) for f in flat]


def _probe(results, name, analytic, x, loss, coords, tol, h) -> int:
    """Central differences of ``loss`` at ``x`` against ``analytic`` at each
    coordinate; appends one (name, ok, err) result per probe and returns
    the probe count."""
    for c in coords:
        xp = x.copy()
        xp[c] += h
        hi = loss(xp)
        xp[c] -= 2 * h
        lo = loss(xp)
        results.append((name, *_fd_ok(analytic[c], (hi - lo) / (2 * h), tol)))
    return len(coords)


def _grad_cases_conv(rng, probes, tol, h, results, target):
    """FD checks for conv input/filter/bias gradients, E = sum(O^2)/2."""
    instances = max(1, probes // 5)
    done = 0
    for inst in range(instances):
        side, fside, stride = _sample_geometry(rng, max_side=8, max_filter=3)
        channels = int(rng.integers(1, 3))
        filters = int(rng.integers(1, 3))
        x = rng.standard_normal((channels, cell_count(side)))
        bank = HexFilterBank.random(rng, filters, channels, fside)
        t = HexTensor(side, channels, x)
        out = conv_valid(t, bank, stride)
        name = f"{target}_{inst}"
        if target == "conv_input":
            grad = conv_backward_input(out, bank, stride, side).data
            coords = _probe_coords(rng, x.shape, min(5, probes - done))
            loss = lambda xp: _sq_loss(conv_valid(HexTensor(side, channels, xp), bank, stride))
            done += _probe(results, name, grad, x, loss, coords, tol, h)
        else:
            dw, db = conv_backward_filter(t, out, stride, fside)
            coords = _probe_coords(rng, bank.weights.shape, min(5, probes - done))
            loss = lambda wp: _sq_loss(conv_valid(t, HexFilterBank(fside, wp, bank.bias), stride))
            done += _probe(results, name, dw, bank.weights, loss, coords, tol, h)
            f = int(rng.integers(0, filters))
            loss = lambda bp: _sq_loss(conv_valid(t, HexFilterBank(fside, bank.weights, bp), stride))
            _probe(results, f"{target}_bias_{inst}", db, bank.bias, loss, [f], tol, h)
        if done >= probes:
            break


def _grad_cases_pool(rng, probes, tol, h, results, target):
    instances = max(1, probes // 5)
    done = 0
    for inst in range(instances):
        side, fside, stride = _sample_geometry(rng, max_side=8, max_filter=3)
        channels = int(rng.integers(1, 3))
        x = rng.standard_normal((channels, cell_count(side)))
        t = HexTensor(side, channels, x)
        if target == "maxpool":
            out, amap = maxpool(t, fside, stride)
            grad = maxpool_backward(out, amap).data
            loss = lambda xp: _sq_loss(maxpool(HexTensor(side, channels, xp), fside, stride)[0])
        else:
            out = avgpool(t, fside, stride)
            grad = avgpool_backward(out, fside, stride, side).data
            loss = lambda xp: _sq_loss(avgpool(HexTensor(side, channels, xp), fside, stride))
        coords = _probe_coords(rng, x.shape, min(5, probes - done))
        done += _probe(results, f"{target}_{inst}", grad, x, loss, coords, tol, h)
        if done >= probes:
            break


def _grad_cases_activation(rng, probes, tol, h, results):
    loss = lambda xp: 0.5 * float(np.sum(np.maximum(xp, 0.0) ** 2))
    done = 0
    inst = 0
    while done < probes:
        side = int(rng.integers(2, 7))
        channels = int(rng.integers(1, 3))
        x = rng.standard_normal((channels, cell_count(side)))
        a, mask = _activate(x, "relu")
        grad = a * mask  # the error of the loss times relu's derivative, as training forms it
        coords = _probe_coords(rng, x.shape, min(5, probes - done))
        done += _probe(results, f"activation_{inst}", grad, x, loss, coords, tol, h)
        inst += 1


def _network_fixture(seed):
    cfg = NetworkConfig(
        5,
        1,
        (
            LayerSpec.conv(3, 2, 1, "relu"),
            LayerSpec.maxpool(2, 3),
            LayerSpec.flatten(),
            LayerSpec.dense(3),
            LayerSpec.softmax(),
        ),
        seed,
    )
    net = build_network(cfg)
    rng = np.random.default_rng(seed + 1)
    batch, labels = make_two_class_dataset(rng, 4, 5)
    labels = labels % 3
    return net, batch, labels


def _net_loss(net, batch, labels) -> float:
    logits, _ = forward(net, batch)
    n = len(batch)
    return sum(xent_loss_grad(logits[b], int(labels[b]))[0] for b in range(n)) / n


def _grad_cases_network(rng, probes, tol, h, results):
    net, batch, labels = _network_fixture(int(rng.integers(0, 2**31)))
    logits, caches = forward(net, batch)
    _, grads = backward(net, logits, caches, labels)
    param_layers = [i for i, g in enumerate(grads) if g is not None]
    for p in range(probes):
        i = param_layers[int(rng.integers(0, len(param_layers)))]
        which = int(rng.integers(0, 2))  # 0: weights, 1: bias
        analytic = grads[i][which]
        coord = _probe_coords(rng, analytic.shape, 1)[0]

        def loss_with(offset):
            params = list(net.params)
            w, b = (a.copy() for a in _arrays(params[i]))
            (w if which == 0 else b)[coord] += offset
            params[i] = _with_arrays(params[i], w, b)
            probed = Network(net.cfg, params, net.shapes)
            return _net_loss(probed, batch, labels)

        numeric = (loss_with(h) - loss_with(-h)) / (2 * h)
        ok, err = _fd_ok(float(analytic[coord]), numeric, tol)
        results.append((f"network_l{i}", ok, err))


def run_gradient_suite(seed: int, probes: int = 50, tol: float = 1e-5, h: float = FD_STEP):
    """Central finite differences against every backward op and a small
    composed network; ``probes`` probes per op."""
    rng = np.random.default_rng(seed)
    results: list[tuple[str, bool, float]] = []
    _grad_cases_conv(rng, probes, tol, h, results, "conv_input")
    _grad_cases_conv(rng, probes, tol, h, results, "conv_filter")
    _grad_cases_pool(rng, probes, tol, h, results, "maxpool")
    _grad_cases_pool(rng, probes, tol, h, results, "avgpool")
    _grad_cases_activation(rng, probes, tol, h, results)
    _grad_cases_network(rng, probes, tol, h, results)
    rows = [
        {"suite": "gradient", "case": name, "status": "pass" if ok else "fail", "max_rel_err": err}
        for name, ok, err in results
    ]
    failures = [(name, None) for name, ok, _ in results if not ok]
    return rows, failures
