"""Native hexagonal CNN kernels on axial-coordinate lattices.

Hexagon-shaped tensors are stored without rectangular padding;
convolution and pooling use hexagon-shaped windows, backpropagation is
the exact adjoint of the forward kernels, and each convolution is one
im2col matrix times the filter matrix.  A ZeroOut reference
(rectangular embedding with zeroed filter corners) serves as the
correctness oracle and the baseline for space and time comparisons.
"""

from .grid import (
    HexTensor,
    cell_count,
    cells,
    pad_rings,
    rotate_permutation,
)
from .ops import HexFilterBank, avgpool, conv_full, conv_valid, maxpool
from .grads import (
    avgpool_backward,
    conv_backward_filter,
    conv_backward_input,
    maxpool_backward,
    upsample_stride,
)
from .im2col import gemm, im2col
from .zeroout import (
    ZeroOutFilterBank,
    embed_parallelogram,
    extract_hex,
    rect_conv_reference,
    zeroout_filter,
)
from .resample import (
    SquareImage,
    min_cover_side,
    square_to_hex,
)
from .nn import (
    LayerSpec,
    Network,
    NetworkConfig,
    TrainConfig,
    build_network,
    hex_lenet,
    train_step,
)

__version__ = "0.1.0"
