"""One benchmark run: set up, then check and time op pairs in a closed loop.

Load is one process and one caller: each op pair runs the native op,
then the ZeroOut op on the same inputs, then checks the two outputs,
and only then starts the next pair.  The first pair is the warm-up (it
fills hexcnn's cached gather tables); the second is an untimed pass
under ``tracemalloc`` for the peak-memory figures; the rest are timed,
with a pass of the fixed ``Reference`` kernel after every op.  A traced
run first times untraced pairs, then times traced pairs under the span
tracer, and reports the per-layer figures from those.
"""

from __future__ import annotations

import hashlib
import statistics
import tracemalloc
import traceback
from time import perf_counter

import numpy as np
from hexcnn import instrument

import workloads
from tracer import Tracer

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
DIGEST_OPS = 8  # the digest covers the native outputs of the run's first ops
MIN_TIMED = DIGEST_OPS - 2  # timed pairs per phase, whatever the time budget
PATHS = ("native", "zeroout")
REF_MS = 4.5  # the Reference kernel's median on the defining host at its fast level


class Reference:
    """A fixed kernel, timed between ops, to scale out the host's changing speed.

    On the shared 2-CPU host this benchmark was defined on, the speed a
    process gets switches between a fast and a slow level (about 1.3x
    apart) for seconds to minutes at a time: ten 30 s runs of the same
    code gave hexlenet5 step medians from 68 to 95 ms, while the
    native/ZeroOut ratio stayed within 0.72-0.78 in every run.  This
    kernel mixes the three kinds of work hexcnn does (a BLAS multiply, a
    fancy-index gather, a Python loop) on arrays of about 3 MB, and it
    never changes with the package, so an op's time over the kernel's
    time next to it tracks the code rather than the host.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((192, 192))
        self.x = rng.random((8, 10_000))
        self.g = rng.integers(0, 10_000, size=(2_000, 19))

    def _kernel(self) -> None:
        for _ in range(2):
            self.a @ self.a
            np.ascontiguousarray(self.x[:, self.g].transpose(1, 0, 2))
        s = 0
        for i in range(20_000):
            s += i * i

    def __call__(self) -> float:
        """Seconds for one pass, timed after an untimed pass that refills the
        caches the preceding op evicted."""
        self._kernel()
        t0 = perf_counter()
        self._kernel()
        return perf_counter() - t0


def timed(path, i, op):
    t0 = perf_counter()
    out = op(i)
    return out, perf_counter() - t0


def peak_mb(path, i, op):
    """The op's ``tracemalloc`` peak above what was allocated before it, in MB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = op(i)
        return out, (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


class Run:
    """Checks every op pair of one run and counts what was attempted and failed."""

    def __init__(self, case: workloads.Case):
        self.case = case
        self.attempted = 0
        self.failed = 0
        self.errors = []  # the first few failures, for the result file
        self.max_gap = 0.0
        self.bits = []
        self.reference = Reference()
        self._next = 0

    def _fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)

    def pair(self, how=timed):
        """Run, measure and check the next op pair; its measures, or None on failure."""
        i = self._next
        self._next += 1
        self.attempted += 1
        try:
            a, va = how("native", i, self.case.native)
            b, vb = how("zeroout", i, self.case.zeroout)
            ok, gap = self.case.check(a, b)
        except Exception:  # a broken op counts as failed; the run goes on
            self._fail(f"op {i}: {traceback.format_exc(limit=3)}")
            return None
        if len(self.bits) < DIGEST_OPS:
            self.bits.append(self.case.output_bits(a))
        self.max_gap = max(self.max_gap, gap)
        if not ok:
            self._fail(f"op {i}: layouts differ by {gap:.3e}")
            return None
        return va, vb

    def phase(self, seconds: float, how=timed) -> dict:
        """Pairs for ``seconds`` (at least MIN_TIMED of them), in ms.

        Returns per path the op times and, under ``<path>.ref``, the
        reference time that goes with each: the mean of the reference
        passes just before and just after the op.
        """
        ms = {k: [] for p in PATHS for k in (p, f"{p}.ref")}
        last = self.reference()

        def bracketed(path, i, op):
            nonlocal last
            out, v = how(path, i, op)
            before, last = last, self.reference()
            return out, (v, (before + last) / 2)

        deadline = perf_counter() + seconds
        k = 0
        while k < MIN_TIMED or perf_counter() < deadline:
            k += 1
            got = self.pair(bracketed)
            if got is not None:
                for p, (v, ref) in zip(PATHS, got):
                    ms[p].append(1e3 * v)
                    ms[f"{p}.ref"].append(1e3 * ref)
        return ms


def setup(name: str, seed: int, tiny: bool = False) -> Run:
    """Build the workload and run the warm-up pair."""
    run = Run(workloads.make_case(name, seed, tiny))
    run.pair()
    return run


def digest(bits: list) -> str:
    """sha256 over the native outputs' bits of the run's first DIGEST_OPS ops."""
    return hashlib.sha256(b"".join(bits)).hexdigest()


def tail(samples: list) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples above it.

    Falls back to the median when there are too few samples for any.
    """
    q = next((q for q in TAIL_PERCENTILES if len(samples) * (1 - q / 100) >= TAIL_BEYOND), 50.0)
    return q, float(np.percentile(samples, q))


def end_to_end(run: Run, ms: dict, peaks: tuple, setup_s: list) -> tuple[dict, dict]:
    """The end-to-end metrics, and notes that go with them into the result file.

    Each op time is scaled by REF_MS over its own reference time, so it
    reads as milliseconds on a host where the reference kernel takes
    REF_MS; the unscaled wall-clock figures go to the notes.  ``setup_s``
    is the median of the wall-clock set-up samples.
    """
    scaled = {p: [REF_MS * v / r for v, r in zip(ms[p], ms[f"{p}.ref"])] for p in PATHS}
    m = {"setup_s": (statistics.median(setup_s), "s")}
    notes = {"op_ms": ms, "wall": {}}
    for p, prefix in zip(PATHS, ("", "zeroout.")):
        q, v = tail(scaled[p])
        m[f"{prefix}op_ms.p50"] = (statistics.median(scaled[p]), "ms")
        m[f"{prefix}op_ms.tail"] = (v, "ms")
        notes[f"{prefix}op_ms.tail"] = {"percentile": q, "samples": len(ms[p])}
        notes["wall"][f"{prefix}op_ms.p50"] = statistics.median(ms[p])
        notes["wall"][f"{prefix}op_ms.tail"] = tail(ms[p])[1]
    m["samples_per_s"] = (run.case.batch * len(scaled["native"]) / (sum(scaled["native"]) / 1e3), "1/s")
    m["peak_mb"] = (peaks[0], "MB")
    m["zeroout.peak_mb"] = (peaks[1], "MB")
    m["ok_frac"] = (1.0 - run.failed / run.attempted, "1")
    notes["failed_frac"] = run.failed / run.attempted
    return m, notes


def per_layer(run: Run, tracer: Tracer, untraced_ms: dict, macs_metered: list) -> tuple[dict, dict]:
    """The per-layer metrics of a traced phase, and the full per-span table."""
    nat = tracer.layer_stats("native")
    zo = tracer.layer_stats("zeroout")

    def stat(stats, span, key):
        return stats["layers"].get(span, {}).get(key, 0.0)

    m = {}
    for name, key, unit in (
        ("nn.forward", "self_ms", "ms"),
        ("nn.backward", "self_ms", "ms"),
        ("nn.apply_gradients", "busy_ms", "ms"),
        ("grid.pad_rings", "busy_ms", "ms"),
        ("ops.window_columns", "calls", "count"),
        ("ops.window_columns", "busy_ms", "ms"),
        ("ops.conv_valid", "calls", "count"),
        ("ops.conv_valid", "self_ms", "ms"),
        ("ops.conv_full", "self_ms", "ms"),
        ("ops.maxpool", "calls", "count"),
        ("ops.maxpool", "busy_ms", "ms"),
        ("grads.maxpool_backward", "busy_ms", "ms"),
        ("grads.conv_backward_filter", "self_ms", "ms"),
        ("grads.conv_backward_input", "self_ms", "ms"),
        ("grads.upsample_stride", "busy_ms", "ms"),
        ("matmul.gemm", "calls", "count"),
        ("matmul.gemm", "busy_ms", "ms"),
        ("resample.square_to_hex", "calls", "count"),
        ("resample.square_to_hex", "busy_ms", "ms"),
    ):
        m[f"{name}.{key}"] = (stat(nat, name, key), unit)
    m["ops.window_columns.mb"] = (stat(nat, "ops.window_columns", "count") / 1e6, "MB")
    gemm_s = stat(nat, "matmul.gemm", "busy_ms") / 1e3
    m["matmul.gemm.gmacs_per_s"] = (stat(nat, "matmul.gemm", "count") / gemm_s / 1e9 if gemm_s else 0.0, "GMAC/s")
    m["grid.HexTensor.count"] = (nat["hex_tensors"], "count")
    m["grid.HexTensor.mb"] = (nat["hex_tensor_bytes"] / 1e6, "MB")
    m["zeronet.forward_zeroout.self_ms"] = (stat(zo, "zeronet.forward_zeroout", "self_ms"), "ms")
    m["zeronet.backward_zeroout.self_ms"] = (stat(zo, "zeronet.backward_zeroout", "self_ms"), "ms")
    m["zeronet.gemm.busy_ms"] = (stat(zo, "matmul.gemm", "busy_ms"), "ms")

    case = run.case
    nominal = case.nominal_macs()
    rect = case.nominal_macs(workloads.rect_taps)
    metered = statistics.median(macs_metered)
    m["macs.nominal"] = (workloads.total_macs(nominal), "count")
    m["instrument.macs_metered"] = (metered, "count")
    m["instrument.mac_coverage"] = (metered / workloads.total_macs(nominal), "1")
    m["zeroout.mac_ratio"] = (workloads.total_macs(nominal) / workloads.total_macs(rect), "1")
    m["trace.overhead_ms"] = (statistics.median(nat["op_ms"]) - statistics.median(untraced_ms["native"]), "ms")
    m["trace.covered_frac"] = (nat["covered_frac"], "1")
    table = {
        "native_self_ms": _ranked(nat),
        "zeroout_self_ms": _ranked(zo),
        "macs_by_layer": {"native": nominal, "zeroout": rect},
        "traced_op_ms_p50": {p: statistics.median(s["op_ms"]) for p, s in (("native", nat), ("zeroout", zo))},
        "traced_ops": {"native": nat["ops"], "zeroout": zo["ops"]},
        "covered_frac": {"native": nat["covered_frac"], "zeroout": zo["covered_frac"]},
        "patched": tracer.bindings,
    }
    return m, table


def _ranked(stats: dict) -> dict:
    rows = sorted(stats["layers"].items(), key=lambda kv: -kv[1]["self_ms"])
    return {name: s["self_ms"] for name, s in rows}


def traced_phase(run: Run, seconds: float) -> tuple[Tracer, list]:
    """Time pairs under the tracer; also meter the native ops' MACs."""
    tracer = Tracer()
    macs = []

    def how(path, i, op):
        with tracer.op(path, i), instrument.MacMeter() as meter:
            got = timed(path, i, op)
        if path == "native":
            macs.append(meter.macs)
        return got

    with tracer.installed():
        run.phase(seconds, how)
    return tracer, macs


def measure(run: Run, seconds: float, trace: bool, setup_s: list):
    """The run's metrics, notes for the result file, and its tracer (or None)."""
    peaks = run.pair(peak_mb)
    if peaks is None:
        return None, {}, None
    if not trace:
        ms = run.phase(seconds)
        if not ms["native"]:
            return None, {}, None
        metrics, notes = end_to_end(run, ms, peaks, setup_s)
        return metrics, notes, None
    ms = run.phase(seconds / 2)
    tracer, macs = traced_phase(run, seconds / 2)
    if not ms["native"] or not macs:
        return None, {}, tracer
    metrics, notes = per_layer(run, tracer, ms, macs)
    notes["untraced_op_ms_p50"] = {p: statistics.median(ms[p]) for p in PATHS}
    return metrics, notes, tracer
