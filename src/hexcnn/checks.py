"""Randomized verification suites: native versus ZeroOut convolution,
the adjoint identity, and finite-difference gradient checks.

These are the machine-checkable contracts of the hexagonal kernels; the
CLI ``verify`` command runs them.  Their gates are the constants
``EXACT_TOL`` and ``FD_TOL``, which the acceptance tests pin.
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
from .grid import HexTensor, cell_count, check_int, check_tensor
from .nn import (
    LayerSpec,
    Network,
    NetworkConfig,
    _activate,
    _arrays,
    _relu_grad,
    _with_arrays,
    backward,
    build_network,
    forward,
    make_two_class_dataset,
    xent_loss_grad,
)
from .ops import HexFilterBank, avgpool, check_bank, conv_valid, maxpool, valid_geometry
from .zeroout import embed_parallelogram, extract_hex, rect_conv_reference, zeroout_filter

__all__ = [
    "EXACT_TOL",
    "FD_TOL",
    "FD_STEP",
    "rel_err",
    "zeroout_conv",
    "run_oracle_suite",
    "run_adjoint_suite",
    "run_gradient_suite",
]


# The gates: the oracle and the adjoint agree to rounding; central
# differences with step FD_STEP agree to FD_TOL.
EXACT_TOL = 1e-10
FD_TOL = 1e-5
FD_STEP = 1e-6


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Largest elementwise gap relative to the larger operand's magnitude."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-300)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def zeroout_conv(t: HexTensor, bank: HexFilterBank, stride: int = 1) -> HexTensor:
    """The full ZeroOut pipeline: embed, rectangle conv, extract."""
    check_tensor(t, "input")
    out_side = valid_geometry(t.side, check_bank(bank, "filter bank").filter_side, stride)
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


def _report(suite: str, results, tol: float):
    """(rows, failures) of one suite from its (case, error, replay inputs
    or None) results; a case fails unless its error is at most ``tol``,
    so a NaN error fails."""
    rows = []
    failures = []
    for case, err, replay in results:
        ok = err <= tol
        rows.append({"suite": suite, "case": case, "status": "pass" if ok else "fail", "max_rel_err": err})
        if not ok:
            failures.append((case, replay))
    return rows, failures


def run_oracle_suite(seed: int, cases: int):
    """conv_valid == ZeroOut pipeline on random instances.

    Returns (rows, failures); each row is a dict suitable for CSV.
    """
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    results = []
    for i in range(check_int(cases, "cases", 0)):
        side, fside, stride = _sample_geometry(rng)
        channels = int(rng.integers(1, 5))
        filters = int(rng.integers(1, 5))
        t = HexTensor(side, channels, rng.standard_normal((channels, cell_count(side))))
        bank = HexFilterBank.random(rng, filters, channels, fside)
        err = rel_err(conv_valid(t, bank, stride).data, zeroout_conv(t, bank, stride).data)
        case_id = f"oracle_{i:03d}_L{side}_k{fside}_s{stride}_c{channels}_f{filters}"
        results.append((case_id, err, {"input": t.data, "weights": bank.weights, "bias": bank.bias}))
    return _report("oracle", results, EXACT_TOL)


def run_adjoint_suite(seed: int, cases: int):
    """<conv(I, K), D> == <I, conv_backward_input(D, K)> for bias-free K,
    and conv_backward_input == the point-reflection reference."""
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    results = []
    for i in range(check_int(cases, "cases", 0)):
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
        results.append((case_id, err, {"input": t.data, "weights": bank.weights, "delta": delta.data}))
    return _report("adjoint", results, EXACT_TOL)


# -- finite differences ------------------------------------------------------

def _fd_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)


def _sq_loss(t: HexTensor) -> float:
    return 0.5 * float(np.vdot(t.data, t.data))


def _probe_coords(rng, shape, count):
    flat = rng.integers(0, int(np.prod(shape)), size=count)
    return [np.unravel_index(int(f), shape) for f in flat]


def _probe(results, name, analytic, x, loss, coords) -> int:
    """Central differences of ``loss`` at ``x`` against ``analytic`` at each
    coordinate; appends one (name, error, None) result per probe and
    returns the probe count."""
    for c in coords:
        xp = x.copy()
        xp[c] += FD_STEP
        hi = loss(xp)
        xp[c] -= 2 * FD_STEP
        lo = loss(xp)
        results.append((name, _fd_err(analytic[c], (hi - lo) / (2 * FD_STEP)), None))
    return len(coords)


def _grad_cases_conv(rng, probes, results, target):
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
            done += _probe(results, name, grad, x, loss, coords)
        else:
            dw, db = conv_backward_filter(t, out, stride, fside)
            coords = _probe_coords(rng, bank.weights.shape, min(5, probes - done))
            loss = lambda wp: _sq_loss(conv_valid(t, HexFilterBank(fside, wp, bank.bias), stride))
            done += _probe(results, name, dw, bank.weights, loss, coords)
            if coords:  # one bias probe rides with each instance's weight probes
                f = int(rng.integers(0, filters))
                loss = lambda bp: _sq_loss(conv_valid(t, HexFilterBank(fside, bank.weights, bp), stride))
                _probe(results, f"{target}_bias_{inst}", db, bank.bias, loss, [f])
        if done >= probes:
            break


def _grad_cases_pool(rng, probes, results, target):
    instances = max(1, probes // 5)
    done = 0
    for inst in range(instances):
        side, fside, stride = _sample_geometry(rng, max_side=8, max_filter=3)
        channels = int(rng.integers(1, 3))
        x = rng.standard_normal((channels, cell_count(side)))
        t = HexTensor(side, channels, x)
        if target == "maxpool":
            out, taps = maxpool(t, fside, stride)
            grad = maxpool_backward(out, taps, fside, stride, side).data
            loss = lambda xp: _sq_loss(maxpool(HexTensor(side, channels, xp), fside, stride)[0])
        else:
            out = avgpool(t, fside, stride)
            grad = avgpool_backward(out, fside, stride, side).data
            loss = lambda xp: _sq_loss(avgpool(HexTensor(side, channels, xp), fside, stride))
        coords = _probe_coords(rng, x.shape, min(5, probes - done))
        done += _probe(results, f"{target}_{inst}", grad, x, loss, coords)
        if done >= probes:
            break


def _grad_cases_activation(rng, probes, results):
    loss = lambda xp: 0.5 * float(np.sum(np.maximum(xp, 0.0) ** 2))
    done = 0
    inst = 0
    while done < probes:
        side = int(rng.integers(2, 7))
        channels = int(rng.integers(1, 3))
        x = rng.standard_normal((channels, cell_count(side)))
        a, bits = _activate(x, "relu")
        grad = _relu_grad(a, bits)  # the error of the loss times relu's derivative, as training forms it
        coords = _probe_coords(rng, x.shape, min(5, probes - done))
        done += _probe(results, f"activation_{inst}", grad, x, loss, coords)
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


def _grad_cases_network(rng, probes, results):
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

        numeric = (loss_with(FD_STEP) - loss_with(-FD_STEP)) / (2 * FD_STEP)
        results.append((f"network_l{i}", _fd_err(float(analytic[coord]), numeric), None))


def run_gradient_suite(seed: int, probes: int):
    """Central finite differences against every backward op and a small
    composed network; ``probes`` probes per op."""
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    probes = check_int(probes, "probes", 0)
    results = []
    _grad_cases_conv(rng, probes, results, "conv_input")
    _grad_cases_conv(rng, probes, results, "conv_filter")
    _grad_cases_pool(rng, probes, results, "maxpool")
    _grad_cases_pool(rng, probes, results, "avgpool")
    _grad_cases_activation(rng, probes, results)
    _grad_cases_network(rng, probes, results)
    return _report("gradient", results, FD_TOL)
