"""Run the unchanged benchmark on two commits; write BENCH_<n>.json.

Run from the root of a source checkout whose tracked files are committed:

    python3 tools/bench_json.py 22                  # parent = HEAD~1, change = HEAD
    python3 tools/bench_json.py 22 --parent 99e942e  # a change of several commits

Both sides run from files exported with ``git archive`` into temporary
directories, which are removed at the end: the parent from ``--parent``,
the change from ``HEAD``.  The script refuses to run when tracked files
differ from ``HEAD``, since those edits would not be measured.  For each
workload it runs ten pairs of ``hexbench/run.py --trace 0`` children,
one in each tree, for BENCHMARK.json's ``run_seconds`` each, with seed
k in pair k (1..10) and the side that runs first alternating from pair
to pair.  It reads each child's result file back from its own tree and
writes ``BENCH_<n>.json`` at the root of this checkout: each tree's
commit, and per workload and tree the runs (every end-to-end metric,
``setup_samples_s``, the same-seed digest) with their medians and
quartiles and the provenance the first run recorded (its ``git_sha``
is null: an export has no repository), the change/parent ratio of each
median, the per-pair ratios, and per end-to-end metric a verdict: the
pairs the change won in BENCHMARK.json's ``better`` direction,
whether its median gain exceeds the parent's interquartile spread,
whether its median loss exceeds the metric's ``bound`` (a fraction of
the parent's median), and the quartiles of the per-pair ratios, which
a drift of the host's speed over the run does not widen; the summary
printed at the end gives those quartiles for ``op_ms.p50`` and names
every metric that got worse by more than its bound.
One more child per tree imports that tree's ``hexbench/workloads.py``
and runs op 0 of each workload (seed 1) on each layout, metered with
``instrument.MacMeter``; each workload's ``macs`` section holds both
counts per tree and their ratio, beside the 7/12 a side-2 convolution
does.  The child also hashes each op's outputs (a train op's loss and
updated parameters, a forward op's logits): the ``outputs`` section
holds each tree's two sha256 digests, and ``outputs_equal`` is true when
the trees agree on both layouts, so a change to either layout's bits
shows (the run digest covers native outputs only), and counts the index
lookups its ``np.take`` calls make (indices times the rows before the
axis): the ``take_lookups`` section holds each tree's two counts.  Each tree's
``src_lines`` counts the lines of every ``src/hexcnn`` module and their
total.  Each tree also runs ``hexcnn verify --cases 50`` once, from its
own ``src``; the ``verify`` section holds each tree's exit code, wall
time and the sha256 of the CSV it wrote, and ``csv_equal``: whether the
two CSVs are byte-identical.  Nothing under ``hexbench/`` is changed; the
children run it as it is in each tree.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("parent", "change")
PAIRS = 10  # the fewest pairs a gain claim is judged on
SIDE2_MAC_RATIO = 7 / 12  # native over ZeroOut MACs of a side-2 conv: 7 taps to 9, 3/4 of the anchors

# Run in a tree's root with the workload names as arguments; prints
# {workload: {"macs": {layout: MACs}, "outputs": {layout: sha256},
# "take_lookups": {layout: count}}} for op 0 of each layout.  Every
# ``np.take`` call in the op is counted: its indices times the rows of
# the axes before its axis, the index lookups it makes.
METER = """
import hashlib, json, math, sys
sys.path[:0] = ["src", "hexbench"]
import numpy as np
from hexcnn import instrument
import workloads
take, lookups = np.take, [0]

def counted_take(a, indices, axis=None, *args, **kwargs):
    shape = np.shape(a)
    lookups[0] += np.size(indices) * (1 if axis is None else math.prod(shape[: axis % len(shape)]))
    return take(a, indices, axis, *args, **kwargs)

np.take = counted_take
counts = {}
for name in sys.argv[1:]:
    case = workloads.make_case(name, 1)
    counts[name] = {"macs": {}, "outputs": {}, "take_lookups": {}}
    for path in ("native", "zeroout"):
        lookups[0] = 0
        with instrument.MacMeter() as meter:
            out = getattr(case, path)(0)
        counts[name]["macs"][path] = meter.macs
        counts[name]["take_lookups"][path] = lookups[0]
        arrays = [out[0], *workloads._param_arrays(out[1])] if case.train else [out]
        bits = b"".join(np.asarray(a, dtype=np.float64).tobytes() for a in arrays)
        counts[name]["outputs"][path] = hashlib.sha256(bits).hexdigest()
print(json.dumps(counts))
"""


# Run in a tree's root with the CSV path as its argument: ``hexcnn verify
# --cases 50`` from that tree's source.
VERIFY = """
import sys
sys.path[:0] = ["src"]
from hexcnn.cli import main
sys.exit(main(["verify", "--cases", "50", "--out", sys.argv[1]]))
"""


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of commit ``rev`` under ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_child(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``hexbench/run.py --trace 0`` run in ``tree``; its result record."""
    cmd = [sys.executable, "hexbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode}:\n{out.stderr}")
    record = json.loads((tree / "hexbench" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "seed": seed,
        "metrics": {k: v["value"] for k, v in record["metrics"].items()},
        "setup_samples_s": record["setup_samples_s"],
        "digest": record["digest"],
        "provenance": record["provenance"],
    }


def meter_ops(tree: Path, workloads: list) -> dict:
    """{workload: {"macs": {layout: MACs}, "outputs": {layout: sha256},
    "take_lookups": {layout: count}}}: op 0 of each layout, metered,
    hashed and its ``np.take`` index lookups counted by ``tree``'s own
    code in a child process."""
    out = subprocess.run([sys.executable, "-c", METER, *workloads], cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"op meter in {tree} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def outputs_equal(outputs: dict) -> bool:
    """True when every tree of ``outputs`` = {tree: {layout: sha256}}
    gave the same digest on every layout."""
    first, *rest = outputs.values()
    return all(o == first for o in rest)


def line_counts(tree: Path) -> dict:
    """The lines of each module of ``tree``'s ``src/hexcnn``, by file
    name, and their total."""
    modules = {p.name: len(p.read_text().splitlines()) for p in sorted((tree / "src" / "hexcnn").glob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def run_verify(tree: Path) -> dict:
    """One ``hexcnn verify --cases 50`` in a child process run by
    ``tree``'s own code: its exit code, its wall time from start to exit
    (the interpreter's start-up included) and the sha256 of the CSV it
    wrote (None if it wrote none)."""
    with tempfile.TemporaryDirectory(prefix="verify-") as tmp:
        csv = Path(tmp) / "verify.csv"
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", VERIFY, str(csv)], cwd=tree, capture_output=True)
        wall = time.perf_counter() - start
        digest = hashlib.sha256(csv.read_bytes()).hexdigest() if csv.exists() else None
    return {"exit": out.returncode, "wall_s": wall, "csv_sha256": digest}


def verify_section(paths: dict) -> dict:
    """``run_verify`` in each tree of ``paths`` = {tree: root}, and
    ``csv_equal``: true when every tree wrote a CSV and all are
    byte-identical."""
    out = {tree: run_verify(path) for tree, path in paths.items()}
    digests = {v["csv_sha256"] for v in out.values()}
    out["csv_equal"] = len(digests) == 1 and None not in digests
    return out


def mac_ratios(counts: dict) -> dict:
    """One workload's ``macs`` section from ``counts`` = {tree: {"native":
    MACs, "zeroout": MACs}}: per tree both counts and native/ZeroOut,
    beside a side-2 convolution's 7/12."""
    out = {tree: {**c, "ratio": _ratio(c["native"], c["zeroout"])} for tree, c in counts.items()}
    out["side2_ratio"] = SIDE2_MAC_RATIO
    return out


def _quartiles(values: list) -> list:
    """[q1, median, q3]; a single value is all three."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Whether the change beat the parent on one metric, from its values
    in pair order, the metric's ``better`` direction ("lower" or
    "higher") and its ``bound``: ``pairs_won`` counts the pairs the
    change won (a tie goes to neither side); ``median_gain`` is the
    change's median minus the parent's, signed so that a gain is
    positive; ``gain_exceeds_parent_iqr`` is true when that gain is
    larger than the spread between the parent's quartiles, and
    ``loss_exceeds_bound`` when the change is worse by more than
    ``bound`` times the parent's median.  A deterministic metric, such
    as a peak, has no spread, so its loss is judged by the bound alone.  ``pair_ratio_quartiles`` are the
    quartiles of the change/parent ratio of each pair whose parent value
    is not zero (None when none is): the two runs of a pair run back to
    back, so a drift of the host's speed across the whole run, which
    widens the parent's spread, cancels in them."""
    sign = {"lower": -1, "higher": 1}[better]
    (q1, pmed, q3), cmed = _quartiles(parent), _quartiles(change)[1]
    gain = sign * (cmed - pmed)
    ratios = [c / p for p, c in zip(parent, change) if p]
    return {
        "pairs_won": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "median_gain": gain,
        "parent_iqr": q3 - q1,
        "gain_exceeds_parent_iqr": gain > q3 - q1,
        "loss_exceeds_bound": -gain > bound * abs(pmed),
        "pair_ratio_quartiles": _quartiles(ratios) if ratios else None,
    }


def summarize(runs: dict, directed: dict) -> dict:
    """One workload's section from ``runs`` = {tree: [run records, in pair
    order]} and ``directed`` = {metric: ("lower" or "higher", bound)},
    BENCHMARK.json's end-to-end directions and bounds.

    Each tree gets the median and quartiles of every metric over its
    runs; ``ratio`` divides the change's median by the parent's, and
    ``pair_ratios`` does so pair by pair.  ``verdict`` holds each
    directed metric's ``verdict``.  ``digests_equal`` is true when every
    pair's two runs gave the same digest (same seed, same bits).
    """
    names = list(runs["parent"][0]["metrics"])
    out = {}
    for tree in TREES:
        quart = {k: _quartiles([r["metrics"][k] for r in runs[tree]]) for k in names}
        out[tree] = {
            "median": {k: q[1] for k, q in quart.items()},
            "quartiles": quart,
            "runs": [{k: v for k, v in r.items() if k != "provenance"} for r in runs[tree]],
            "provenance": runs[tree][0]["provenance"],
        }
    pairs = list(zip(runs["parent"], runs["change"]))
    out["ratio"] = {k: _ratio(out["change"]["median"][k], out["parent"]["median"][k]) for k in names}
    out["pair_ratios"] = {k: [_ratio(c["metrics"][k], p["metrics"][k]) for p, c in pairs] for k in names}
    out["verdict"] = {
        k: verdict([p["metrics"][k] for p, _ in pairs], [c["metrics"][k] for _, c in pairs], *directed[k])
        for k in names if k in directed
    }
    out["digests_equal"] = all(p["digest"] == c["digest"] for p, c in pairs)
    return out


def regressions(workload: dict) -> list:
    """Lines naming each end-to-end metric of one workload's section
    whose change is worse than the parent by more than its bound."""
    return [
        f"  worse: {k} change/parent {workload['ratio'][k]:.3f}, median loss {-v['median_gain']:.4g} "
        f"beyond its bound, won {v['pairs_won']} of {v['pairs']} pairs"
        for k, v in workload["verdict"].items() if v["loss_exceeds_bound"]
    ]


def _ratio(a: float, b: float) -> float | None:
    return a / b if b else None


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("n", type=int, help="the number in BENCH_<n>.json")
    p.add_argument("--parent", default="HEAD~1", help="commit to compare HEAD against (default HEAD~1)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if _git("status", "--porcelain", "--untracked-files=no"):
        sys.exit("tracked files differ from HEAD; commit them first, since the change side runs HEAD")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    directed = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    revs = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", "HEAD")}
    doc = {
        "n": args.n,
        "command": spec["command"] + ["--trace", "0"],
        "seconds": seconds,
        "pairs": PAIRS,
        "seeds": list(range(1, PAIRS + 1)),
        "trees": {tree: {"git_sha": sha} for tree, sha in revs.items()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees = {tree: Path(tmp) / tree for tree in TREES}
        for tree, path in trees.items():
            export(revs[tree], path)
            doc["trees"][tree]["src_lines"] = line_counts(path)
        doc["verify"] = verify_section(trees)
        names = [w["name"] for w in spec["workloads"]]
        metered = {tree: meter_ops(path, names) for tree, path in trees.items()}
        for workload in names:
            runs = {tree: [] for tree in TREES}
            for k, seed in enumerate(doc["seeds"]):
                for tree in (TREES if k % 2 == 0 else TREES[::-1]):
                    runs[tree].append(run_child(trees[tree], workload, seed, seconds))
                    print(f"{workload} seed {seed} {tree}: op_ms.p50 "
                          f"{runs[tree][-1]['metrics']['op_ms.p50']:.3f}", file=sys.stderr, flush=True)
            doc["workloads"][workload] = summarize(runs, directed)
            w = doc["workloads"][workload]
            w["macs"] = mac_ratios({tree: metered[tree][workload]["macs"] for tree in TREES})
            w["outputs"] = {tree: metered[tree][workload]["outputs"] for tree in TREES}
            w["take_lookups"] = {tree: metered[tree][workload]["take_lookups"] for tree in TREES}
            w["outputs_equal"] = outputs_equal(w["outputs"])
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, w in doc["workloads"].items():
        v = w["verdict"]["op_ms.p50"]
        q1, med, q3 = v["pair_ratio_quartiles"]
        print(f"{workload}: op_ms.p50 change/parent {w['ratio']['op_ms.p50']:.3f}, "
              f"pair ratios {q1:.3f} / {med:.3f} / {q3:.3f} (quartiles), "
              f"won {v['pairs_won']} of {v['pairs']} pairs, median gain {v['median_gain']:.3f} ms "
              f"{'>' if v['gain_exceeds_parent_iqr'] else '<='} parent IQR {v['parent_iqr']:.3f} ms, "
              f"metered MAC ratio {w['macs']['change']['ratio']:.3f}, digests equal {w['digests_equal']}, "
              f"outputs equal {w['outputs_equal']}")
        t = w["take_lookups"]
        print("  np.take lookups in op 0, parent -> change: "
              + ", ".join(f"{path} {t['parent'][path]:,} -> {t['change'][path]:,}" for path in ("native", "zeroout")))
        for line in regressions(w):
            print(line)
    v = doc["verify"]
    print("verify --cases 50: " + ", ".join(f"{tree} exit {v[tree]['exit']} in {v[tree]['wall_s']:.2f} s"
                                            for tree in TREES) + f", CSVs byte-identical {v['csv_equal']}")
    print("src/hexcnn lines: " + ", ".join(f"{tree} {doc['trees'][tree]['src_lines']['total']}" for tree in TREES))
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
