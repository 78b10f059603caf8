import argparse
import csv
import hashlib
import io
import struct
from pathlib import Path

import numpy as np
import pytest

from hexcnn import bench, checks
from hexcnn.cli import build_parser, main
from hexcnn.fileio import read_hxt, write_img1
from hexcnn.grid import HexTensor, cell_count
from hexcnn.instrument import MacMeter
from hexcnn.ops import PATCH_BLOCK, HexFilterBank, conv_valid, valid_geometry
from hexcnn.resample import SquareImage
from hexcnn.zeronet import _rect_conv_all
from hexcnn.zeroout import embed_parallelogram, rect_conv_reference, zeroout_filter


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, list(csv.reader(io.StringIO(out)))


def test_verify_default_passes(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    code = main(["verify", "--cases", "8", "--gradient-probes", "6", "--out", str(out)])
    assert code == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["suite", "case", "status", "max_rel_err"]
    assert all(r[2] == "pass" for r in rows[1:])
    assert {r[0] for r in rows[1:]} == {"oracle", "adjoint", "gradient"}


def test_verify_case_list_is_pinned():
    """The suites, cases and verdicts of the default ``hexcnn verify``
    (seed 0, 50 cases, 20 gradient probes; 224 rows), hashed without
    their error values, which depend on the BLAS build.  A change to an
    RNG draw, a case name or a verdict fails here: re-pin only with a
    reason in CHANGES.md."""
    rows = []
    for suite_rows, _ in (
        checks.run_oracle_suite(0, 50),
        checks.run_adjoint_suite(1, 50),
        checks.run_gradient_suite(2, 20),
    ):
        rows.extend(suite_rows)
    text = "".join(f"{r['suite']},{r['case']},{r['status']}\n" for r in rows)
    assert len(rows) == 224
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c7ad1b8102336ed74437eebf108deeada522f0c30107f45746687a27f9a61454"
    )


def test_verify_zero_cases_empty_report(capsys):
    code, rows = run_cli(["verify", "--cases", "0"], capsys)
    assert code == 0
    assert rows == [["suite", "case", "status", "max_rel_err"]]


def test_suites_with_zero_cases_or_probes_emit_no_rows():
    # the filter-gradient check's bias probe used to run with no probes left
    for suite in (checks.run_oracle_suite(0, 0), checks.run_adjoint_suite(0, 0), checks.run_gradient_suite(0, 0)):
        assert suite == ([], [])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: checks.run_oracle_suite(0, -1), id="oracle_cases"),
        pytest.param(lambda: checks.run_adjoint_suite(-1, 1), id="adjoint_seed"),
        pytest.param(lambda: checks.run_gradient_suite(0, 1.0), id="gradient_probes"),
        # a zero channel count used to divide by zero
        pytest.param(lambda: bench.space_report([4], channels=0), id="space_report_channels"),
        pytest.param(lambda: bench.space_report([0]), id="space_report_size"),
        # zero repetitions used to time nothing and report a NaN
        pytest.param(lambda: bench.bench_conv([4], reps=0), id="bench_conv_reps"),
        pytest.param(lambda: bench.bench_conv([4.0]), id="bench_conv_size"),
        # a zero stride used to skip every size
        pytest.param(lambda: bench.bench_conv([4], stride=0), id="bench_conv_stride"),
    ],
)
def test_suites_and_benchmarks_reject_bad_counts(call):
    with pytest.raises(ValueError, match="integer"):
        call()


@pytest.mark.parametrize("fault", [1.0, np.nan], ids=["offset", "nan"])
def test_verify_failure_saves_replay_inputs(tmp_path, capsys, monkeypatch, fault):
    # corrupt one output cell of the first native convolution, oracle case 0's;
    # a NaN error must fail like a large one
    faults = [fault]

    def faulty_conv_valid(t, bank, stride=1):
        out = conv_valid(t, bank, stride)
        if not faults:
            return out
        data = out.data.copy()
        data[0, 0] += faults.pop()
        return HexTensor(out.side, out.channels, data)

    monkeypatch.setattr(checks, "conv_valid", faulty_conv_valid)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "verify.csv"
    code = main(["verify", "--cases", "3", "--gradient-probes", "3", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "oracle_000" in err
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert [r[1][:10] for r in rows[1:] if r[2] == "fail"] == ["oracle_000"]
    assert len(list(tmp_path.glob("hexcnn-replay-oracle_000_*.npz"))) == 1


def test_space_report_values(capsys):
    code, rows = run_cli(["space-report", "--sizes", "120"], capsys)
    assert code == 0
    header, row = rows[0], rows[1]
    rec = dict(zip(header, row))
    assert rec["hex_input_cells"] == "42841"
    assert rec["zeroout_input_cells"] == "57121"
    assert rec["quasih_input_cells"] == "49712"
    assert float(rec["input_saving_vs_zeroout_pct"]) == pytest.approx(25.0, abs=0.1)
    assert float(rec["input_saving_vs_quasih_pct"]) == pytest.approx(13.8, abs=0.5)
    assert float(rec["conv_saving_vs_zeroout_pct"]) == pytest.approx(41.7, abs=0.1)


def test_space_report_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["space-report", "--sizes", "30,60,90,120", "--out", str(a)]) == 0
    assert main(["space-report", "--sizes", "30,60,90,120", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_conv_small(capsys):
    code, rows = run_cli(
        ["bench-conv", "--sizes", "8,16", "--reps", "5", "--seed", "1"], capsys
    )
    assert code == 0
    header = rows[0]
    assert header[0] == "case_id" and "wall_time_s" in header
    body = rows[1:]
    assert len(body) == 6  # two sizes x three methods
    rec = {(r[0], r[1]): dict(zip(header, r)) for r in body}
    hexr = rec[("conv_L16_k2_s1", "hex_direct")]
    zero = rec[("conv_L16_k2_s1", "zeroout_ref")]
    # per-output MAC ratio is exactly 7/9 for side-2 windows
    hex_per = int(hexr["macs"]) / int(hexr["output_cells"])
    zero_per = int(zero["macs"]) / int(zero["output_cells"])
    assert hex_per / zero_per == pytest.approx(7 / 9)
    # the fair lowering does the oracle's MACs over the same 29x29 anchors,
    # in one block of window matrix: 841 patches x 3 channels x 3x3 taps
    fair = rec[("conv_L16_k2_s1", "zeroout_fair")]
    assert fair["macs"] == zero["macs"] and fair["output_cells"] == zero["output_cells"] == "841"
    assert int(fair["bytes_im2col"]) == 841 * 3 * 9 * 8


def test_bench_conv_im2col_bytes_are_the_largest_block(capsys):
    # side 16 has 631 patches, one block; the big side has more than a block
    big = next(side for side in range(16, 200) if cell_count(valid_geometry(side, 2, 1)) > PATCH_BLOCK)
    code, rows = run_cli(["bench-conv", "--sizes", f"16,{big}", "--reps", "1"], capsys)
    assert code == 0
    got = {r[0]: int(dict(zip(rows[0], r))["bytes_im2col"]) for r in rows[1:] if r[1] == "hex_direct"}
    per_patch = 3 * 7 * 8  # channels x taps x float64
    assert got == {"conv_L16_k2_s1": 631 * per_patch, f"conv_L{big}_k2_s1": PATCH_BLOCK * per_patch}


def test_bench_conv_im2col_bytes_are_one_chunk_of_channels(capsys):
    # 128 channels: two chunks of 64 natively (448 rows of 7 taps), three of
    # 43 on ZeroOut's 3x3 rectangle (387 rows), over 127 and 13x13 patches
    code, rows = run_cli(["bench-conv", "--sizes", "8", "--channels", "128", "--reps", "1"], capsys)
    assert code == 0
    got = {r[1]: int(dict(zip(rows[0], r))["bytes_im2col"]) for r in rows[1:]}
    assert got == {"hex_direct": 127 * 64 * 7 * 8, "zeroout_ref": 0, "zeroout_fair": 169 * 43 * 9 * 8}


def test_bench_conv_skips_invalid_geometry(capsys):
    for argv, skipped, kept in (
        (["bench-conv", "--sizes", "3,4", "--stride", "2", "--reps", "1"], "side 3", "conv_L4_k2_s2"),
        (["space-report", "--sizes", "1,30"], "side 1", "\n30,"),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0
        assert f"skipping {skipped}" in captured.err
        assert kept in captured.out


def test_space_report_skips_sides_the_convolution_rejects(capsys):
    # a side-2 filter at stride 2 does not tile side 31, so conv_valid
    # rejects it; space-report prints no row for it and says so as bench-conv does
    assert main(["space-report", "--sizes", "30,31", "--stride", "2"]) == 0
    captured = capsys.readouterr()
    assert [r[0] for r in csv.reader(io.StringIO(captured.out))] == ["input_side", "30"]
    assert captured.err == "skipping side 31: geometry invalid for filter 2 stride 2\n"
    assert main(["bench-conv", "--sizes", "31", "--stride", "2", "--reps", "1"]) == 0
    assert capsys.readouterr().err == captured.err


def test_bench_conv_runs_each_kernel_reps_plus_one_times(monkeypatch):
    calls = dict.fromkeys(("conv_valid", "rect_conv_reference", "_rect_conv_all"), 0)
    for name in calls:

        def counted(*args, _fn=getattr(bench, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(bench, name, counted)
    sizes, reps = (8, 16), 2
    results = bench.bench_conv(sizes, reps=reps, seed=3)
    # one warm-up call, which is also the metered one, then the timed reps
    assert calls == dict.fromkeys(calls, len(sizes) * (reps + 1))
    for side in sizes:
        # MACs depend on shapes only, so any tensor and bank of the row's shapes do
        t = HexTensor(side, 3, np.ones((3, cell_count(side))))
        bank = HexFilterBank.random(np.random.default_rng(0), 1, 3, 2)
        metered = {}
        for method, fn in (
            ("hex_direct", lambda: conv_valid(t, bank, 1)),
            ("zeroout_ref", lambda: rect_conv_reference(embed_parallelogram(t), zeroout_filter(bank))),
            ("zeroout_fair", lambda: _rect_conv_all(embed_parallelogram(t).reshape(3, -1), 2 * side - 1, bank, 1)),
        ):
            with MacMeter() as meter:
                fn()
            metered[method] = meter.macs
        assert {r.method: r.macs for r in results if r.input_side == side} == metered


def test_readme_cli_block_names_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    named = [line.split()[1] for line in block.splitlines() if line.startswith("hexcnn ")]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(named) == sorted(sub.choices)


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "missing" / "x.csv")
    img_path = tmp_path / "c.img1"
    write_img1(img_path, SquareImage(np.ones((1, 4, 4))))
    for argv in (
        ["verify", "--cases", "1", "--gradient-probes", "1", "--out", out],
        ["space-report", "--sizes", "30", "--out", out],
        ["space-report", "--sizes", "30", "--out", str(tmp_path)],  # a directory
        ["resample", str(img_path), out],
        ["space-report", "--sizes", "30", "--out", "x\x00.csv"],  # open() raises ValueError
        ["resample", str(img_path), "x\x00.hxt"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


def test_resample_constant_image(tmp_path, capsys):
    from hexcnn.resample import cell_centers

    img_path = tmp_path / "c.img1"
    out_path = tmp_path / "c.hxt"
    write_img1(img_path, SquareImage(np.full((1, 16, 16), 0.5)))
    assert main(["resample", str(img_path), str(out_path)]) == 0
    t = read_hxt(out_path)
    assert t.side == 13  # ceil((3*16+1)/4)
    # the covering hexagon sticks out past the image: cells sampling fully
    # inside reproduce the constant, cells fully outside read zero, and
    # boundary cells fall in between
    centers = cell_centers(13, (7.5, 7.5))
    interior = (
        (centers[:, 0] >= 0) & (centers[:, 0] <= 14) & (centers[:, 1] >= 0) & (centers[:, 1] <= 14)
    )
    assert np.allclose(t.data[0, interior], 0.5)
    assert t.data.min() >= 0.0 and t.data.max() <= 0.5 + 1e-12


def test_resample_single_pixel(tmp_path):
    img_path = tmp_path / "p.img1"
    out_path = tmp_path / "p.hxt"
    write_img1(img_path, SquareImage(np.array([[[2.0]]])))
    assert main(["resample", str(img_path), str(out_path), "--side", "1"]) == 0
    t = read_hxt(out_path)
    assert t.side == 1 and t.data[0, 0] == 2.0


def test_resample_bad_inputs(tmp_path, capsys):
    img_path = tmp_path / "c.img1"
    write_img1(img_path, SquareImage(np.ones((1, 4, 4))))
    assert main(["resample", str(tmp_path / "missing.img1"), str(tmp_path / "o.hxt")]) == 2
    # a header cut before maxval, sizes past the data, an empty image
    truncated = tmp_path / "t.pgm"
    for header in (b"P5 4 4", b"P5 9999999999 9999999999 255\n", b"P5 0 4 255\n"):
        truncated.write_bytes(header)
        assert main(["resample", str(truncated), str(tmp_path / "o.hxt")]) == 2
    # an IMG1 header with zero channels and no payload
    empty = tmp_path / "e.img1"
    empty.write_bytes(b"IMG1" + struct.pack("<III", 4, 4, 0))
    assert main(["resample", str(empty), str(tmp_path / "o.hxt")]) == 2


def test_usage_error_exit_code(capsys):
    for argv in (
        ["no-such-command"],
        ["bench-conv", "--sizes", "abc"],
        ["bench-conv", "--sizes="],
        ["space-report", "--sizes=0,-3"],
        ["space-report", "--sizes="],
        ["space-report", "--sizes", "30,0"],
        ["bench-conv", "--reps", "0"],
        ["bench-conv", "--channels", "0"],
        ["bench-conv", "--filters", "0"],
        ["bench-conv", "--filter-side", "-1"],
        ["bench-conv", "--stride", "0"],
        ["bench-conv", "--seed", "-1"],
        ["space-report", "--filter-side", "0"],
        ["space-report", "--stride", "0"],
        ["space-report", "--channels", "0"],
        ["verify", "--gradient-probes", "-3"],
        ["verify", "--cases", "-1"],
        ["verify", "--seed", "-1"],
        ["verify", "--cases", "two"],
        ["resample", "missing.img1", "o.hxt", "--side", "nope"],
        ["resample", "missing.img1", "o.hxt", "--side", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "Traceback" not in capsys.readouterr().err
