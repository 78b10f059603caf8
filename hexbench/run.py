"""hexcnn benchmark: time native hexagonal ops against the ZeroOut layout.

Run from the root of a source checkout:

    python3 hexbench/run.py --workload lenet-train --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the span tracer and prints the
per-layer ones.  End-to-end op times are scaled by a fixed reference
kernel timed next to every op (``harness.Reference``), so they read as
milliseconds on the host the benchmark was defined on; set-up and
per-layer times are plain wall-clock.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the full record (provenance, digest, samples,
per-span table) goes to ``hexbench/results/``, and a traced run also
writes its spans there.

hexcnn is imported from ``src/`` of the checkout and nowhere else; the
run exits 2 when that tree is missing.  BLAS runs one thread, and freed
memory stays in the process (see ``keep_freed_memory``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_REPEATS = 5


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy loads.

    Ops run one at a time and each waits on the last, so BLAS is the
    only source of parallelism.  On a 2-CPU box a second thread gave no
    speed-up at these shapes and widened the run-to-run spread.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def keep_freed_memory() -> bool:
    """Serve every allocation from the glibc heap and never hand it back.

    By default arrays over 32 MB get fresh mappings, so each op faults
    its window matrices in again, and the cost of that depends on
    whether the kernel has huge pages free at that moment: gather-train
    medians ranged 147-213 ms across runs on the same inputs, against
    about 1% with freed memory kept for reuse.  Returns False where the
    C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_max = -1, -4
    return bool(mallopt(m_mmap_max, 0)) and bool(mallopt(m_trim_threshold, 2**31 - 1))


def import_hexcnn() -> None:
    """Import hexcnn from this checkout's ``src``; raise if it is not there."""
    pkg = SRC / "hexcnn"
    if not (pkg / "__init__.py").is_file():
        raise ImportError(f"no hexcnn sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import hexcnn

    if Path(hexcnn.__file__).resolve().parent != pkg.resolve():
        raise ImportError(f"hexcnn resolved to {hexcnn.__file__}, not {pkg}")


def probe_setup(args) -> list[float]:
    """Seconds from starting a fresh process to its first timed op, SETUP_REPEATS times.

    Wall-clock, unlike the op times: set-up is mostly process start and
    imports, which did not follow the reference kernel's speed.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--probe-setup"]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline().strip() == "ready"
            elapsed = perf_counter() - t0
            child.stdout.read()
            code = child.wait()
        if not ready or code != 0:
            raise RuntimeError(f"set-up probe exited {code} without getting ready")
        samples.append(elapsed)
    return samples


def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(case) -> dict:
    import numpy as np

    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "shapes": case.shapes,
    }


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="tiny shapes, for the benchmark's own tests")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    pin_blas_threads()
    heap_only = keep_freed_memory()
    try:
        import_hexcnn()
    except ImportError as exc:
        print(f"hexbench: {exc}", file=sys.stderr)
        return 2
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"hexbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.probe_setup:
        harness.setup(args.workload, args.seed, args.tiny)
        print("ready", flush=True)
        return 0

    setup_s = [] if args.trace else probe_setup(args)
    run = harness.setup(args.workload, args.seed, args.tiny)
    metrics, notes, tracer = harness.measure(run, args.seconds, bool(args.trace), setup_s)
    if metrics is None:
        print("hexbench: no op succeeded; no metrics to report", file=sys.stderr)
        for err in run.errors:
            print(err, file=sys.stderr)
        return 1

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(run.case) | {"heap_only_allocator": heap_only},
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "max_gap": run.max_gap,
        "digest": harness.digest(run.bits),
        "setup_samples_s": setup_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as fh:
            tracer.write_spans(fh)

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6g} {unit}")
    print(f"digest {record['digest']}  max gap {run.max_gap:.3e}  failed {run.failed}/{run.attempted}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
