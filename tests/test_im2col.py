import numpy as np
import pytest

from hexcnn.grid import HexTensor, cell_count
from hexcnn.im2col import gemm, im2col
from hexcnn.ops import valid_geometry


def naive_matmul(a, b):
    """Triple-loop reference product."""
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


@pytest.mark.parametrize(
    "args,expected", [((5, 2, 3), 7), ((6, 6, 1), 1), ((4, 2, 1), 19)]
)
def test_patch_count(args, expected):
    assert cell_count(valid_geometry(*args)) == expected


def test_patch_count_rejects_nondividing_stride():
    with pytest.raises(ValueError):
        valid_geometry(6, 2, 3)


def test_im2col_shape_seven_by_twentyone():
    rng = np.random.default_rng(0)
    t = HexTensor(5, 3, rng.standard_normal((3, 61)))
    assert im2col(t, 2, 3).shape == (7, 21)


def test_im2col_whole_input_is_storage_vector():
    t = HexTensor(3, 1, np.arange(19.0))
    mat = im2col(t, 3, 1)
    assert mat.shape == (1, 19)
    assert np.array_equal(mat[0], t.data[0])


def test_im2col_constant_input():
    t = HexTensor(4, 2, np.full(74, 2.5))
    assert np.all(im2col(t, 2, 1) == 2.5)


def test_gemm_identity_and_hand_case():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 4))
    assert np.allclose(gemm(a, np.eye(4)), a)
    out = gemm(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0], [6.0]]))
    assert np.array_equal(out, [[17.0], [39.0]])


def test_gemm_dimension_mismatch():
    with pytest.raises(ValueError):
        gemm(np.zeros((2, 3)), np.zeros((2, 3)))


@pytest.mark.parametrize(
    "a,b",
    [
        (np.array([["a"]]), np.array([["b"]])),
        (np.ones((1, 1)), np.array([[1 + 2j]])),
        (np.array([[None]]), np.ones((1, 1))),
    ],
    ids=["strings", "complex", "objects"],
)
def test_gemm_rejects_operands_that_are_not_real(a, b):
    with pytest.raises(ValueError, match="dtype"):
        gemm(a, b)


@pytest.mark.parametrize(
    "out",
    [
        np.empty((2, 2), int),
        [[0.0, 0.0], [0.0, 0.0]],
        np.empty((2, 3)),
        np.empty((2, 2), np.float32),
        np.empty((2, 2), complex),
    ],
    ids=["integer", "list", "shape", "narrower_float", "complex"],
)
def test_gemm_rejects_an_out_it_cannot_fill(out):
    # an integer out used to escape as numpy's UFuncTypeError, a list as TypeError
    with pytest.raises(ValueError, match="out must"):
        gemm(np.ones((2, 2)), np.ones((2, 2)), out=out)


def test_gemm_widens_into_a_float64_out():
    out = np.empty((2, 1))
    a = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)
    assert gemm(a, np.array([[5], [6]]), out=out) is out
    assert np.array_equal(out, [[17.0], [39.0]])


@pytest.mark.parametrize("shape", [(7, 5, 3), (64, 64, 64), (130, 70, 9)])
def test_gemm_matches_naive(shape):
    m, k, n = shape
    rng = np.random.default_rng(m + k + n)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    ref = naive_matmul(a, b)
    scale = np.abs(ref).max()
    assert np.abs(gemm(a, b) - ref).max() <= 1e-12 * scale


def test_im2col_footprint_ratio_tends_to_7_12():
    # side-2 filter, stride 1: window matrix cells versus the ZeroOut
    # rectangle's 9-tap window matrix on the parallelogram embedding
    def ratio(side):
        hexcells = cell_count(valid_geometry(side, 2, 1)) * 7
        rect = (2 * side - 3) ** 2 * 9
        return hexcells / rect

    assert abs(ratio(300) - 7 / 12) < 1e-2
    assert abs(ratio(3000) - 7 / 12) < 1e-3
