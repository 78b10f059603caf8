"""Acceptance gate: each test pins one primary criterion at its stated
tolerance and prints a pass/fail line (run with ``pytest -s`` to see them).
"""

from fractions import Fraction

import numpy as np

from hexcnn.bench import bench_conv
from hexcnn.checks import run_adjoint_suite, run_gradient_suite, run_oracle_suite
from hexcnn.grid import HexTensor, cell_count
from hexcnn.im2col import im2col
from hexcnn.instrument import MacMeter
from hexcnn.nn import TrainConfig, build_network, hex_lenet, make_two_class_dataset, train_step
from hexcnn.ops import HexFilterBank, conv_valid, valid_geometry
from hexcnn.zeronet import train_step_zeroout
from hexcnn.zeroout import embed_parallelogram, rect_conv_reference, zeroout_filter


def report(name, ok, detail=""):
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_input_space_saving():
    hex_cells = 3 * 120 * 119 + 1
    zero_cells = (2 * 120 - 1) ** 2
    saving = 100.0 * (1 - hex_cells / zero_cells)
    report(
        "input-space saving at x=120 is 25.0% +/- 0.1pp",
        abs(saving - 25.0) <= 0.1,
        f"{saving:.4f}%",
    )


def test_criterion_02_convolution_space_saving():
    hex_patches = 3 * 119 * 118 + 1
    rect_patches = (2 * 120 - 3) ** 2
    saving = 100.0 * (1 - (hex_patches * 7) / (rect_patches * 9))
    report(
        "convolution-space saving at x=120 is 41.7% +/- 0.1pp",
        abs(saving - 41.7) <= 0.1,
        f"{saving:.4f}%",
    )


def test_criterion_03_quasih_input_space_saving():
    hex_cells = 3 * 120 * 119 + 1
    quasih_cells = (2 * 120 - 1) * int(np.ceil(np.sqrt(3.0) * 120))
    saving = 100.0 * (1 - hex_cells / quasih_cells)
    report(
        "input-space saving vs Quasi-H at x=120 is 13.8% +/- 0.5pp",
        abs(saving - 13.8) <= 0.5,
        f"{saving:.4f}%",
    )


def test_criterion_04_patch_count_reproduction():
    patches = cell_count(valid_geometry(5, 2, 3))
    rng = np.random.default_rng(0)
    mat = im2col(HexTensor(5, 3, rng.standard_normal((3, 61))), 2, 3)
    report(
        "side-5 / window-2 / stride-3 input yields 7 patches and a 7x21 matrix",
        patches == 7 and mat.shape == (7, 21),
        f"patches={patches}, shape={mat.shape}",
    )


def test_criterion_05_oracle_equivalence_200_cases():
    rows, failures = run_oracle_suite(seed=2024, cases=200)
    worst = max(r["max_rel_err"] for r in rows)
    report(
        "native and ZeroOut convolution agree within 1e-10 on 200 cases",
        len(rows) == 200 and not failures and worst <= 1e-10,
        f"worst rel err {worst:.3e}",
    )


def test_criterion_06_gradient_correctness():
    rows, failures = run_gradient_suite(seed=99, probes=50)
    worst = max(r["max_rel_err"] for r in rows)
    kinds = {r["case"].split("_")[0] for r in rows}
    report(
        "backward ops and the composed network match finite differences within 1e-5",
        not failures and worst <= 1e-5 and kinds >= {"conv", "maxpool", "avgpool", "activation", "network"},
        f"{len(rows)} probes, worst rel err {worst:.3e}",
    )


def test_criterion_07_adjoint_identity_100_cases():
    rows, failures = run_adjoint_suite(seed=7, cases=100)
    worst = max(r["max_rel_err"] for r in rows)
    report(
        "convolution adjoint identity holds within 1e-10 on 100 cases",
        len(rows) == 100 and not failures and worst <= 1e-10,
        f"worst rel err {worst:.3e}",
    )


def test_criterion_08_mac_ratio_exact():
    rng = np.random.default_rng(1)
    ok = True
    details = []
    for fside, expect in ((2, Fraction(7, 9)), (3, Fraction(19, 25))):
        side = fside + 6
        t = HexTensor(side, 2, rng.standard_normal((2, cell_count(side))))
        bank = HexFilterBank.random(rng, 3, 2, fside)
        with MacMeter() as hex_m:
            out = conv_valid(t, bank)
        with MacMeter() as zero_m:
            rect = rect_conv_reference(embed_parallelogram(t), zeroout_filter(bank))
        ratio = Fraction(hex_m.macs * rect.shape[1] * rect.shape[2], zero_m.macs * out.cell_count)
        ok = ok and ratio == expect
        details.append(f"window {fside}: {ratio} vs {expect}")
    report("instrumented per-output MAC ratio equals cell count over square taps", ok, "; ".join(details))


def test_criterion_09_training_smoke():
    side, batch, steps = 17, 8, 50
    cfg = hex_lenet(side, 2, seed=3)
    rng = np.random.default_rng(7)
    data, labels = make_two_class_dataset(rng, 200, side)
    tc = TrainConfig(0.1, batch)
    net_hex = build_network(cfg)
    net_zero = build_network(cfg)
    hex_losses, zero_losses = [], []
    for s in range(steps):
        lo = (s * batch) % (len(data) - batch + 1)
        chunk, y = data[lo : lo + batch], labels[lo : lo + batch]
        hex_losses.append(train_step(net_hex, chunk, y, tc))
        zero_losses.append(train_step_zeroout(net_zero, chunk, y, tc))
    drop = 1 - hex_losses[-1] / hex_losses[0]
    gap = max(
        abs(a - b) / max(abs(a), abs(b), 1e-300) for a, b in zip(hex_losses, zero_losses)
    )
    report(
        "hex-LeNet loss drops >= 50% in 50 steps and both layouts agree within 1e-8",
        drop >= 0.5 and gap <= 1e-8,
        f"drop {100 * drop:.1f}%, max path gap {gap:.3e}",
    )


def test_criterion_10_wall_time_direction():
    results = bench_conv([64, 128, 256], filter_side=2, stride=1, channels=3,
                         filters=1, reps=5, seed=5)
    times = {(r.input_side, r.method): r.wall_time_s for r in results}
    ok = all(times[(s, "hex_direct")] < times[(s, "zeroout_ref")] for s in (64, 128, 256))
    detail = "; ".join(
        f"L={s}: hex {times[(s, 'hex_direct')]:.4f}s vs zeroout {times[(s, 'zeroout_ref')]:.4f}s"
        for s in (64, 128, 256)
    )
    report(
        "hex direct convolution is faster than the ZeroOut reference at L in {64,128,256}",
        ok,
        detail,
    )
