"""fsconv: weight-shared convolution kernels.

A convolution layer's filters are overlapping segments of one shared 1D
weight vector. This package derives and validates such layouts, runs the
convolution exactly through window sums along the diagonals of the
feature/weight product matrix (with instrumented multiply counts against a
brute-force reference), quantizes the shared weights to n-bit linear grids
with an exact integer-path inference identity, and differentiates through
fractional filter locations.
"""

from .counters import MultCounter
from .dfs import (
    central_diff,
    check_gradients,
    extract_fractional,
    grad_alpha,
    grad_summary,
    init_alphas,
    locate,
    locate_grad,
)
from .fcfs import (
    AccelerationReport,
    Fallback,
    FcfsPlan,
    LayerPlan,
    RunReport,
    build_integrals,
    convolve,
    fcfs_conv,
    layer_plan,
    measured_acceleration,
    measured_ratio,
    naive_conv,
    required_diagonals,
)
from .formats import (
    ArchSpec,
    BatchNormSpec,
    ConvSpec,
    DenseSpec,
    ModelLayer,
    bundled_arch,
    dump_arch,
    dump_model,
    load_model,
    parse_arch,
    read_arch,
    read_model,
    write_model,
)
from .geometry import (
    ConvGeometry,
    Layout,
    ParamCount,
    PredictedAcceleration,
    StridePolicy,
    count_params,
    derive_layout,
    predicted_acceleration,
)
from .oracle import ConvOutput, LoweredPlan, pad_same, rel_dev
from .quant import (
    QuantizedSummary,
    dequantize,
    effective_params,
    quantize,
    quantize_affine_layer,
    quantized_affine_forward,
)
from .tensors import (
    FeatureMap,
    FilterSummary,
    extract_filter,
    filter_as_3d,
    unwrap,
    unwrap_index,
)

__version__ = "0.1.0"
