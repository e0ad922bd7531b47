"""Sparse multiple kernel learning over product (tensor) kernels.

Learns a nonnegative, l2-bounded combination of the exponentially many
elementwise products of per-variable base kernels, without ever enumerating
them: each iteration solves the inner ridge problem, draws one product kernel
with probability proportional to the magnitude of its gradient component, and
applies a projected single-coordinate update. Baselines over the explicitly
enumerated kernel set and a CLI benchmark harness are included.
"""

from .baselines import (
    brute_force_q,
    dual_objective,
    enumerate_index_set,
    full_gradient,
    grad_component,
    run_full_gradient,
    solve_dense,
)
from .dataset import (
    Dataset,
    DatasetError,
    MultiIndex,
    StandardizerParams,
    SyntheticSpec,
    gen_synthetic,
    load_csv,
    split,
    standardize,
    synthetic_target,
)
from .dual import (
    DualSolveError,
    DualState,
    assemble_combined_gram,
    predict,
    solve_alpha,
)
from .gradient import (
    GRAD_SCALE,
    DegreeMasses,
    RhoSchedule,
    degree_masses,
    total_mass_C,
)
from .harness import MetricsOutput, RunConfig, parse_cli, run_experiment
from .kernels import (
    BaseKernelSet,
    KernelError,
    build_base_kernels,
    product_kernel_cross,
    product_kernel_matrix,
)
from .optimizer import (
    OptimizerState,
    RunRecord,
    RunResult,
    SparseTheta,
    default_step_size,
    project_pos_l2ball,
    run,
)
from .sampler import SamplerError, SamplerWorkspace

__version__ = "0.1.0"

