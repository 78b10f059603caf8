"""``tools/bench_json.py``'s summary of paired benchmark runs.

The script's children run the benchmark for minutes; this checks only
the arithmetic of the JSON it writes, on made-up run records, and its
short children, ``hexcnn verify --cases 50`` and the op meter, on this
checkout.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hexcnn.instrument import MacMeter
from hexcnn.ops import HexFilterBank

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_json.py"


@pytest.fixture(scope="module")
def bench_json():
    spec = importlib.util.spec_from_file_location("_bench_json", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


BETTER = {"op_ms.p50": "lower", "ok_frac": "higher"}


def _run(seed, op_ms, digest):
    return {"seed": seed, "metrics": {"op_ms.p50": op_ms, "ok_frac": 1.0}, "setup_samples_s": [0.3, 0.4],
            "digest": digest, "provenance": {"git_sha": None}}


def test_summary_gives_medians_quartiles_and_ratios(bench_json):
    runs = {
        "parent": [_run(1, 10.0, "a"), _run(2, 12.0, "b"), _run(3, 14.0, "c")],
        "change": [_run(1, 8.0, "a"), _run(2, 9.0, "b"), _run(3, 7.0, "c")],
    }
    out = bench_json.summarize(runs, BETTER)
    assert out["parent"]["quartiles"]["op_ms.p50"] == [11.0, 12.0, 13.0]
    assert out["change"]["median"]["op_ms.p50"] == 8.0
    assert out["ratio"] == {"op_ms.p50": 8.0 / 12.0, "ok_frac": 1.0}
    assert out["pair_ratios"]["op_ms.p50"] == [0.8, 0.75, 0.5]
    assert out["digests_equal"]
    assert out["change"]["runs"][0]["setup_samples_s"] == [0.3, 0.4]
    assert "provenance" not in out["change"]["runs"][0] and out["change"]["provenance"] == {"git_sha": None}


def test_summary_flags_a_pair_whose_digests_differ(bench_json):
    runs = {"parent": [_run(1, 10.0, "a")], "change": [_run(1, 10.0, "x")]}
    out = bench_json.summarize(runs, BETTER)
    assert not out["digests_equal"]
    assert out["parent"]["quartiles"]["op_ms.p50"] == [10.0, 10.0, 10.0]


def test_mac_section_gives_each_trees_ratio_beside_seven_twelfths(bench_json):
    counts = {"parent": {"native": 63, "zeroout": 100}, "change": {"native": 7, "zeroout": 12}}
    out = bench_json.mac_ratios(counts)
    assert out["parent"] == {"native": 63, "zeroout": 100, "ratio": 0.63}
    assert out["change"]["ratio"] == out["side2_ratio"] == 7 / 12
    assert counts["parent"] == {"native": 63, "zeroout": 100}  # not written into


def test_verdict_counts_won_pairs_in_the_metrics_direction(bench_json):
    parent, change = [10.0, 12.0, 14.0, 11.0, 13.0], [9.0, 12.0, 15.0, 8.0, 10.0]
    lower = bench_json.verdict(parent, change, "lower")
    assert lower["pairs_won"] == 3 and lower["pairs"] == 5  # the tie at 12.0 goes to neither side
    # medians 12 -> 10; the parent's quartiles are 11 and 13
    assert lower["median_gain"] == 2.0 and lower["parent_iqr"] == 2.0
    assert not lower["gain_exceeds_parent_iqr"]  # a gain must exceed the spread, not match it
    higher = bench_json.verdict(parent, change, "higher")
    assert higher["pairs_won"] == 1 and higher["median_gain"] == -2.0 and not higher["gain_exceeds_parent_iqr"]
    assert bench_json.verdict(parent, [c - 0.5 for c in change], "lower")["gain_exceeds_parent_iqr"]


def test_verdict_flags_a_loss_beyond_the_parents_iqr_and_main_names_it(bench_json):
    parent, change = [10.0, 12.0, 14.0, 11.0, 13.0], [13.0, 15.0, 16.0, 14.0, 12.0]
    # medians 12 -> 14 against quartiles 11 and 13: worse by 2, not beyond
    assert not bench_json.verdict(parent, change, "lower")["loss_exceeds_parent_iqr"]
    worse = bench_json.verdict(parent, [c + 0.5 for c in change], "lower")
    assert worse["loss_exceeds_parent_iqr"] and not worse["gain_exceeds_parent_iqr"]
    assert worse["median_gain"] == -2.5
    # the mirror in the other direction: a higher-is-better metric that fell
    assert bench_json.verdict([c + 0.5 for c in change], parent, "higher")["loss_exceeds_parent_iqr"]

    runs = {
        "parent": [_run(1, 10.0, "a"), _run(2, 12.0, "b"), _run(3, 14.0, "c")],
        "change": [_run(1, 16.0, "a"), _run(2, 15.0, "b"), _run(3, 17.0, "c")],
    }
    for run in runs["change"]:
        run["metrics"]["ok_frac"] = 0.5
    lines = bench_json.regressions(bench_json.summarize(runs, BETTER))
    assert [line.split()[1] for line in lines] == ["op_ms.p50", "ok_frac"]
    assert "change/parent 1.333" in lines[0] and "won 0 of 3 pairs" in lines[0]
    runs["change"] = runs["parent"]
    assert bench_json.regressions(bench_json.summarize(runs, BETTER)) == []


def test_verdict_gives_the_quartiles_of_the_pair_ratios_which_drift_does_not_widen(bench_json):
    # the host slows by a third across the run; every pair is 0.9, so the
    # ratios agree while the parent's spread swallows the gain
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    v = bench_json.verdict(parent, [0.9 * p for p in parent], "lower")
    assert v["pairs_won"] == 5 and not v["gain_exceeds_parent_iqr"]
    assert v["pair_ratio_quartiles"] == pytest.approx([0.9, 0.9, 0.9], rel=1e-15)
    # a pair whose parent reads 0 has no ratio; with none left there are no quartiles
    assert bench_json.verdict([0.0, 2.0], [1.0, 1.0], "lower")["pair_ratio_quartiles"] == [0.5, 0.5, 0.5]
    assert bench_json.verdict([0.0], [1.0], "lower")["pair_ratio_quartiles"] is None


def test_main_prints_the_pair_ratio_quartiles_of_op_ms(bench_json, monkeypatch, capsys, tmp_path):
    # the children are replaced: each run reads one made-up op time, the
    # change 0.8 of the parent in every pair
    monkeypatch.setattr(bench_json, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(
        '{"command": ["run"], "run_seconds": 1, "workloads": [{"name": "w"}], '
        '"end_to_end": [{"name": "op_ms.p50", "better": "lower"}]}'
    )
    monkeypatch.setattr(bench_json, "_git", lambda *args: "" if args[0] == "status" else "abc")
    monkeypatch.setattr(bench_json, "export", lambda rev, dest: (dest / "src" / "hexcnn").mkdir(parents=True))
    monkeypatch.setattr(bench_json, "verify_section", lambda trees: {
        **{t: {"exit": 0, "wall_s": 1.0, "csv_sha256": "x"} for t in trees}, "csv_equal": True})
    monkeypatch.setattr(bench_json, "meter_ops", lambda tree, names: {
        n: {"macs": {"native": 7, "zeroout": 12}, "outputs": {"native": "a", "zeroout": "b"},
            "take_lookups": {"native": 19 if tree.name == "change" else 49, "zeroout": 1234}} for n in names})

    def child(tree, workload, seed, seconds):
        ms = (10.0 + seed) * (0.8 if tree.name == "change" else 1.0)
        return {"seed": seed, "metrics": {"op_ms.p50": ms}, "setup_samples_s": [], "digest": "d",
                "provenance": {}}

    monkeypatch.setattr(bench_json, "run_child", child)
    assert bench_json.main(["99"]) == 0
    out = capsys.readouterr().out
    assert "w: op_ms.p50 change/parent 0.800, pair ratios 0.800 / 0.800 / 0.800 (quartiles), won 10 of 10" in out
    assert "np.take lookups in op 0, parent -> change: native 49 -> 19, zeroout 1,234 -> 1,234" in out
    doc = json.loads((tmp_path / "BENCH_99.json").read_text())
    assert doc["workloads"]["w"]["take_lookups"] == {"parent": {"native": 49, "zeroout": 1234},
                                                     "change": {"native": 19, "zeroout": 1234}}


def test_summary_gives_a_verdict_per_directed_metric(bench_json):
    runs = {
        "parent": [_run(1, 10.0, "a"), _run(2, 12.0, "b"), _run(3, 14.0, "c")],
        "change": [_run(1, 8.0, "a"), _run(2, 12.0, "b"), _run(3, 7.0, "c")],
    }
    out = bench_json.summarize(runs, {"op_ms.p50": "lower"})
    assert list(out["verdict"]) == ["op_ms.p50"]  # ok_frac has no direction here
    assert out["verdict"]["op_ms.p50"] == {
        "pairs_won": 2, "pairs": 3, "median_gain": 4.0, "parent_iqr": 2.0, "gain_exceeds_parent_iqr": True,
        "loss_exceeds_parent_iqr": False, "pair_ratio_quartiles": [0.65, 0.8, 0.9],
    }
    assert bench_json.summarize(runs, BETTER)["verdict"]["ok_frac"]["pairs_won"] == 0  # all ties


def test_verify_runs_in_the_trees_own_source_and_digests_its_csv(bench_json, tmp_path):
    from hexcnn.cli import main

    assert main(["verify", "--cases", "50", "--out", str(tmp_path / "want.csv")]) == 0
    got = bench_json.run_verify(SCRIPT.parents[1])
    assert got["exit"] == 0 and got["wall_s"] > 0
    assert got["csv_sha256"] == hashlib.sha256((tmp_path / "want.csv").read_bytes()).hexdigest()
    # a tree whose own package cannot be imported writes no CSV
    broken = tmp_path / "broken" / "src" / "hexcnn"
    broken.mkdir(parents=True)
    (broken / "__init__.py").write_text("raise ImportError('broken tree')\n")
    got = bench_json.run_verify(tmp_path / "broken")
    assert got["exit"] != 0 and got["csv_sha256"] is None


def test_verify_section_matches_csvs_only_when_every_tree_wrote_the_same(bench_json, monkeypatch):
    digests = {"a": "x", "b": "x", "c": "y", "none": None}
    monkeypatch.setattr(bench_json, "run_verify", lambda path: {"exit": 0, "wall_s": 1.0, "csv_sha256": digests[path]})
    out = bench_json.verify_section({"parent": "a", "change": "b"})
    assert out["csv_equal"] and out["parent"] == {"exit": 0, "wall_s": 1.0, "csv_sha256": "x"}
    assert not bench_json.verify_section({"parent": "a", "change": "c"})["csv_equal"]
    assert not bench_json.verify_section({"parent": "none", "change": "none"})["csv_equal"]


def test_op_meter_counts_and_hashes_op_zero_of_each_layout(bench_json, monkeypatch):
    # the child's digests, rebuilt here from the op's outputs: a train
    # op's loss, then each parameter array; a forward op's logits
    spec = importlib.util.spec_from_file_location("_workloads", SCRIPT.parents[1] / "hexbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    names = ["lenet-train", "wide-infer"]
    got = bench_json.meter_ops(SCRIPT.parents[1], names)
    assert list(got) == names
    for name in names:
        case = workloads.make_case(name, 1)
        for layout in ("native", "zeroout"):
            with MacMeter() as meter:
                out = getattr(case, layout)(0)
            arrays = [out]
            if case.train:
                loss, params = out
                arrays = [np.float64(loss)]
                for p in filter(None, params):
                    arrays += [p.weights, p.bias] if isinstance(p, HexFilterBank) else p
            digest = hashlib.sha256(b"".join(np.ascontiguousarray(a, np.float64).tobytes() for a in arrays))
            assert got[name]["macs"][layout] == meter.macs > 0
            assert got[name]["outputs"][layout] == digest.hexdigest()


STUB_WORKLOADS = """
import numpy as np


class Case:
    train = False

    def native(self, i):  # 3 rows of 2 x 2 indices, then 5 flat ones: 17 lookups
        a = np.arange(30.0).reshape(3, 10)
        return np.take(a, [[0, 1], [2, 3]], axis=1).sum() + np.take(a, [1, 2, 3, 4, 5]).sum()

    def zeroout(self, i):  # 2 rows before axis -2 of 3 indices, and 0 indices: 6 lookups
        a = np.ones((2, 3, 4))
        return np.take(a, [0, 2, 2], axis=-2).sum() + np.take(a, np.zeros(0, int), axis=2).sum()


def make_case(name, seed):
    return Case()
"""


def test_op_meter_counts_the_index_lookups_of_every_take_in_op_zero(bench_json, tmp_path):
    # a stub tree: its package meters nothing, its workload only gathers
    (tmp_path / "src" / "hexcnn").mkdir(parents=True)
    (tmp_path / "src" / "hexcnn" / "__init__.py").write_text("")
    (tmp_path / "src" / "hexcnn" / "instrument.py").write_text(
        "class MacMeter:\n    macs = 0\n    def __enter__(self):\n        return self\n"
        "    def __exit__(self, *exc):\n        pass\n"
    )
    (tmp_path / "hexbench").mkdir()
    (tmp_path / "hexbench" / "workloads.py").write_text(STUB_WORKLOADS)
    got = bench_json.meter_ops(tmp_path, ["a", "b"])
    assert got["a"]["take_lookups"] == got["b"]["take_lookups"] == {"native": 17, "zeroout": 6}
    assert got["a"]["macs"] == {"native": 0, "zeroout": 0}


def test_outputs_are_equal_only_when_every_tree_agrees_on_both_layouts(bench_json):
    same = {"native": "a", "zeroout": "b"}
    assert bench_json.outputs_equal({"parent": same, "change": dict(same)})
    assert not bench_json.outputs_equal({"parent": same, "change": {"native": "a", "zeroout": "c"}})
    assert not bench_json.outputs_equal({"parent": same, "change": {"native": "c", "zeroout": "b"}})


def test_line_counts_give_each_module_and_the_total(bench_json, tmp_path):
    src = tmp_path / "src" / "hexcnn"
    src.mkdir(parents=True)
    (src / "b.py").write_text("x = 1\n\ny = 2\n")
    (src / "a.py").write_text("z = 3")  # no final newline
    (src / "notes.txt").write_text("not a module\n")
    assert bench_json.line_counts(tmp_path) == {"modules": {"a.py": 1, "b.py": 3}, "total": 4}
