"""Inner solve for the kernel-weighted ridge problem and prediction.

For the squared loss the inner minimization over predictors reduces to the
symmetric positive-definite system (K_theta + n I) alpha = y, and the
inner-minimized objective value is J = y . alpha / 2. Both identities are
pinned by tests against a direct numerical minimization of the dual objective

    G(alpha) = alpha' K alpha / 2 + (1/n) sum_t conj_loss_t(-n alpha_t),

whose minimizer is alpha and whose negated minimum is J.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

# product_kernel_matrix is unused here, but the benchmark's tracer
# (bench/measure.py) wraps this module attribute by name, so it stays imported
from .kernels import (  # noqa: F401
    BaseKernelSet,
    GramMatrix,
    KernelError,
    product_columns,
    product_kernel_matrix,
)


class DualSolveError(RuntimeError):
    """Factorization failure; K_theta + nI should always be PD, so this signals
    NaN/inf corruption upstream."""


@dataclass(frozen=True)
class LossSpec:
    """Loss marker. Only the squared loss l_t(tau) = (tau - y_t)^2 / 2 is
    supported; its convex conjugate is conj(v) = v^2 / 2 + v y_t."""

    kind: str = "squared"

    def __post_init__(self):
        if self.kind != "squared":
            raise ValueError(f"unsupported loss kind {self.kind!r}")

    def conjugate(self, v: np.ndarray, y: np.ndarray) -> np.ndarray:
        return 0.5 * v**2 + v * y


@dataclass(frozen=True)
class DualState:
    """The inner solve at one Gram. K_theta holds the caller's array, not a
    copy: a DualState solved from `OptimizerState.combined_gram()` changes
    when that buffer is next written, so the descent loops use it only within
    its iteration and return states solved from fresh Grams."""

    alpha: np.ndarray
    K_theta: GramMatrix
    J_value: float
    n: int


def dual_objective(alpha: np.ndarray, K: np.ndarray, y: np.ndarray) -> float:
    """The minimized dual objective G(alpha); J = -min_alpha G."""
    n = len(y)
    loss = LossSpec()
    return float(0.5 * alpha @ K @ alpha + np.mean(loss.conjugate(-n * alpha, y)))


def solve_alpha(K_theta: GramMatrix | np.ndarray, y: np.ndarray) -> DualState:
    """Solve (K_theta + n I) alpha = y by Cholesky; J = y . alpha / 2."""
    if isinstance(K_theta, GramMatrix):
        K = K_theta.values
        gram = K_theta
    else:
        K = np.asarray(K_theta, dtype=np.float64)
        gram = GramMatrix(K)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if K.shape != (n, n):
        raise DualSolveError(f"K_theta shape {K.shape} does not match n={n}")
    # a Fortran-ordered copy, so LAPACK factors it in place instead of making
    # a second n x n copy of its own
    system = np.array(K, order="F")
    system[np.diag_indices_from(system)] += n
    try:
        # finiteness was validated when the Gram was constructed
        factor = scipy.linalg.cho_factor(system, lower=True, overwrite_a=True, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise DualSolveError(f"Cholesky failed on K_theta + nI: {exc}") from exc
    alpha = scipy.linalg.cho_solve(factor, y, check_finite=False)
    if not np.all(np.isfinite(alpha)):
        raise DualSolveError("non-finite dual solution; upstream state is corrupt")
    return DualState(alpha=alpha, K_theta=gram, J_value=float(0.5 * y @ alpha), n=n)


def support_weights(theta, rho) -> tuple[list, np.ndarray]:
    """The support tuples of theta and their Gram weights theta_i / rho_d(i)^2."""
    support = list(theta.items())
    weights = np.array([value / rho.rho_sq[len(idx)] for idx, value in support])
    return [idx for idx, _ in support], weights


def assemble_combined_gram(theta, ks: BaseKernelSet, rho) -> GramMatrix:
    """K_theta = sum over support of (theta_i / rho_d(i)^2) z_i z_i', built
    fresh as one product over the support columns."""
    return GramMatrix(ks.weighted_gram(*support_weights(theta, rho)))


def objective_J(theta, ks: BaseKernelSet, rho, y: np.ndarray) -> float:
    """J at a sparse weight vector: assemble K_theta and run the inner solve."""
    return solve_alpha(assemble_combined_gram(theta, ks, rho), y).J_value


def predict(
    state: DualState,
    theta,
    train_inputs: np.ndarray,
    query_inputs: np.ndarray,
    rho,
) -> np.ndarray:
    """Predictions y_hat_q = sum_t alpha_t sum_i (theta_i / rho^2) k_i(x_t, x_q).
    Each product kernel is rank one, so this is
    sum_i w_i z_i(query) (z_i(train) . alpha) over the support columns."""
    train_inputs = np.asarray(train_inputs)
    query_inputs = np.asarray(query_inputs)
    if train_inputs.shape[1] != query_inputs.shape[1]:
        raise KernelError(
            f"column mismatch: train has {train_inputs.shape[1]}, query has {query_inputs.shape[1]}"
        )
    tuples, weights = support_weights(theta, rho)
    along_alpha = product_columns(train_inputs, tuples).T @ state.alpha
    return product_columns(query_inputs, tuples) @ (weights * along_alpha)
