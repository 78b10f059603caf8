"""The benchmark's workloads: seed-generated inputs, one op per layout, output checks.

An op is one SGD step on the train workloads and one forward pass on
``wide-infer``.  The native op goes through ``nn.train_step`` /
``nn.forward``; the baseline op runs ``zeronet.train_step_zeroout`` /
``zeronet.forward_zeroout`` on the same inputs.  Every train op starts
from the network's initial parameters, so each op does the same work
and its outputs depend only on its input batch.

hexcnn functions are always reached through their module
(``nn.train_step``, not a name bound at import time), so the tracer's
patches are seen by the ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hexcnn import grid, nn, resample, zeronet

LOSS_GAP = 1e-8  # train ops: relative gap between the two layouts' losses
LOGIT_GAP = 1e-10  # forward ops: logit gap, relative to max(1, |logit|)
LEARNING_RATE = 0.05
POOL = 4  # distinct input batches per run, used in turn


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    # kept here rather than taken from hexcnn.checks, so the gate does not
    # move with the code it judges
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-300)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def _param_arrays(params):
    for p in params:
        if p is None:
            continue
        if isinstance(p, tuple):
            yield from p
        else:
            yield p.weights
            yield p.bias


@dataclass
class Case:
    """One workload, built from a seed: both networks and the input pool."""

    name: str
    train: bool
    batch: int
    shapes: dict
    net: nn.Network
    znet: nn.Network
    inputs: list  # POOL entries of (inputs, labels)
    resample_side: int  # > 0: inputs are square images, resampled to this side inside the op

    def __post_init__(self):
        self.init = list(self.net.params)
        self.tc = nn.TrainConfig(LEARNING_RATE, self.batch)

    def _batch(self, i: int):
        x, y = self.inputs[i % len(self.inputs)]
        if self.resample_side:
            x = [resample.square_to_hex(img, self.resample_side) for img in x]
        return x, y

    def native(self, i: int):
        """Op ``i`` on the hexagonal layout: (loss, updated params) or logits."""
        if not self.train:
            return nn.forward(self.net, self._batch(i)[0])[0]
        self.net.params[:] = self.init
        x, y = self._batch(i)
        return nn.train_step(self.net, x, y, self.tc), list(self.net.params)

    def zeroout(self, i: int):
        """Op ``i`` on the ZeroOut layout, same inputs and starting parameters."""
        if not self.train:
            return zeronet.forward_zeroout(self.net, self._batch(i)[0])[0]
        self.znet.params[:] = self.init
        x, y = self._batch(i)
        return zeronet.train_step_zeroout(self.znet, x, y, self.tc), list(self.znet.params)

    def check(self, native, zeroout) -> tuple[bool, float]:
        """Gate one op pair; returns (passed, gap).

        Train ops: loss gap <= LOSS_GAP, and the updated parameters agree
        to the same relative gap.  Forward ops: logit gap <= LOGIT_GAP.
        Any non-finite output fails.
        """
        if not self.train:
            a, b = np.asarray(native), np.asarray(zeroout)
            if a.shape != b.shape or not (np.isfinite(a).all() and np.isfinite(b).all()):
                return False, float("inf")
            gap = float(np.abs(a - b).max()) / max(1.0, float(np.abs(b).max()))
            return gap <= LOGIT_GAP, gap
        (la, pa), (lb, pb) = native, zeroout
        arrays = list(zip(_param_arrays(pa), _param_arrays(pb)))
        finite = np.isfinite([la, lb]).all() and all(
            np.isfinite(a).all() and np.isfinite(b).all() for a, b in arrays
        )
        if not finite or any(a.shape != b.shape for a, b in arrays):
            return False, float("inf")
        gap = max([abs(la - lb) / max(abs(la), abs(lb), 1e-300)] + [_rel_gap(a, b) for a, b in arrays])
        return gap <= LOSS_GAP, gap

    def output_bits(self, native) -> bytes:
        """The native op's loss or logit bits, for the run digest."""
        value = native[0] if self.train else native
        return np.asarray(value, dtype=np.float64).tobytes()

    def nominal_macs(self, taps=None) -> list[dict]:
        """Useful multiply-accumulates per op, per layer, from shapes alone.

        Conv layers count P*C*taps*F per sample for the forward pass, the
        filter gradient and (past layer 0) the input gradient; dense
        layers count in*out for each of the same three.  ``taps`` maps a
        filter side to taps per output cell; by default a hexagon's cell
        count, for ZeroOut the (2k-1)^2 rectangle.
        """
        taps = taps or grid.cell_count
        rows = []
        for i, spec in enumerate(self.net.cfg.layers):
            before, after = self.net.shapes[i], self.net.shapes[i + 1]
            if spec.kind == "hexconv":
                fwd = grid.cell_count(after[1]) * before[2] * taps(spec.window) * after[2]
            elif spec.kind == "dense":
                fwd = before[1] * after[1]
            else:
                continue
            fwd *= self.batch
            rows.append(
                {
                    "layer": i,
                    "kind": spec.kind,
                    "forward": fwd,
                    "filter_grad": fwd if self.train else 0,
                    "input_grad": fwd if self.train and i > 0 else 0,
                }
            )
        return rows


def rect_taps(window: int) -> int:
    """Taps of the ZeroOut rectangle that embeds a side-``window`` hexagon."""
    return (2 * window - 1) ** 2


def total_macs(rows: list[dict]) -> int:
    return sum(r["forward"] + r["filter_grad"] + r["input_grad"] for r in rows)


def _hex_batch(rng, batch: int, side: int, channels: int):
    data = rng.standard_normal((batch, channels, grid.cell_count(side)))
    return [grid.HexTensor(side, channels, d) for d in data]


def _case(name, cfg, batch, inputs, train, resample_side=0, **shapes) -> Case:
    net = nn.build_network(cfg)
    znet = nn.build_network(cfg)
    shapes.update(batch=batch, layers=net.describe())
    return Case(name, train, batch, shapes, net, znet, inputs, resample_side)


def lenet_train(seed: int, image_side: int = 48, batch: int = 32) -> Case:
    """hexlenet5 on square two-class images resampled to the covering hexagon."""
    rng = np.random.default_rng(seed)
    side = resample.min_cover_side(image_side)
    inputs = []
    for _ in range(POOL):
        labels = rng.integers(0, 2, size=batch)
        noise = rng.normal(0.0, 0.5, size=(batch, image_side, image_side))
        images = [resample.SquareImage(n + 0.5 * y) for n, y in zip(noise, labels)]
        inputs.append((images, labels))
    cfg = nn.hex_lenet(side, 2, seed=seed)
    return _case("lenet-train", cfg, batch, inputs, True, side, image_side=image_side, hex_side=side)


def gather_train(seed: int, side: int = 80, channels: int = 16, window: int = 3) -> Case:
    """Two big convs (the second at stride 3), dense(2), batch 1."""
    rng = np.random.default_rng(seed)
    inputs = [(_hex_batch(rng, 1, side, channels), rng.integers(0, 2, size=1)) for _ in range(POOL)]
    layers = (
        nn.LayerSpec.conv(channels, window, 1, "relu"),
        nn.LayerSpec.conv(channels, window, 3, "relu"),
        nn.LayerSpec.flatten(),
        nn.LayerSpec.dense(2),
        nn.LayerSpec.softmax(),
    )
    cfg = nn.NetworkConfig(side, channels, layers, seed)
    return _case("gather-train", cfg, 1, inputs, True, side=side, channels=channels, window=window)


def wide_infer(seed: int, side: int = 24, channels: int = 256, window: int = 2) -> Case:
    """Two wide convs at stride 1, dense(2), forward only, batch 1."""
    rng = np.random.default_rng(seed)
    inputs = [(_hex_batch(rng, 1, side, channels), None) for _ in range(POOL)]
    layers = (
        nn.LayerSpec.conv(channels, window, 1, "relu"),
        nn.LayerSpec.conv(channels, window, 1, "relu"),
        nn.LayerSpec.flatten(),
        nn.LayerSpec.dense(2),
        nn.LayerSpec.softmax(),
    )
    cfg = nn.NetworkConfig(side, channels, layers, seed)
    return _case("wide-infer", cfg, 1, inputs, False, side=side, channels=channels, window=window)


WORKLOADS = {"lenet-train": lenet_train, "gather-train": gather_train, "wide-infer": wide_infer}

# Shapes small enough for the benchmark's own smoke tests.
TINY = {
    "lenet-train": {"image_side": 12, "batch": 4},
    "gather-train": {"side": 11, "channels": 2},
    "wide-infer": {"side": 5, "channels": 4},
}


def make_case(name: str, seed: int, tiny: bool = False) -> Case:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed, **(TINY[name] if tiny else {}))

