"""Inner solve for the kernel-weighted ridge problem and prediction.

For the squared loss the inner minimization over predictors reduces to the
symmetric positive-definite system (K_theta + n I) alpha = y, and the
inner-minimized objective value is J = y . alpha / 2. Both identities are
pinned by tests against a direct numerical minimization of the dual objective

    G(alpha) = alpha' K alpha / 2 + (1/n) sum_t conj_loss_t(-n alpha_t),

whose minimizer is alpha and whose negated minimum is J.

The descent loop hands the solver its Gram in the span of the support,
K_theta = C diag(w) C' over s columns, one per distinct monomial. Woodbury's
identity turns the n x n system into the s x s capacitance system
(n I + W^(1/2) C'C W^(1/2)) c = W^(1/2) C' y, whose eigenvalues are all >= n
for any s, and alpha = (y - C W^(1/2) c) / n: O(n s + s^3) with no n x n
array.
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
    weighted_outer,
)


class DualSolveError(RuntimeError):
    """Factorization failure; K_theta + nI should always be PD, so this signals
    NaN/inf corruption upstream."""


@dataclass(frozen=True)
class SupportGram:
    """K_theta = C diag(weights) C' in the span of its support: `columns` is
    n x s, one column per distinct monomial, `gram` is C'C (s x s), and
    `weights` (length s) already carry the iterate's scale. Weights within
    round-off below zero are read as zero."""

    columns: np.ndarray
    gram: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        s = self.columns.shape[1]
        if self.gram.shape != (s, s) or self.weights.shape != (s,):
            raise KernelError(
                f"support form shapes disagree: columns {self.columns.shape}, "
                f"gram {self.gram.shape}, weights {self.weights.shape}"
            )

    def nonnegative_weights(self) -> np.ndarray:
        """The weights with negative round-off (down to -1e-12 of the largest)
        clamped to zero; raise FloatingPointError beyond that or on a
        non-finite weight."""
        w = self.weights
        if not np.all(np.isfinite(w)):
            raise FloatingPointError("non-finite support weight")
        floor = -1e-12 * float(np.max(np.abs(w), initial=0.0))
        if np.any(w < floor):
            raise FloatingPointError(f"negative support weight beyond round-off: {w.min()}")
        return np.maximum(w, 0.0)

    def dense(self) -> np.ndarray:
        """The n x n Gram C diag(weights) C', exactly symmetric."""
        return weighted_outer(self.columns, self.nonnegative_weights())


@dataclass(frozen=True)
class DualState:
    """The inner solve at one Gram, dense or in support form."""

    alpha: np.ndarray
    K_theta: GramMatrix | SupportGram
    J_value: float
    n: int


def dual_objective(alpha: np.ndarray, K: np.ndarray, y: np.ndarray) -> float:
    """The minimized dual objective G(alpha); J = -min_alpha G."""
    v = -len(y) * alpha
    # the squared loss (tau - y_t)^2 / 2 has the conjugate v^2 / 2 + v y_t
    return float(0.5 * alpha @ K @ alpha + np.mean(0.5 * v**2 + v * y))


def solve_alpha(K_theta: GramMatrix | SupportGram | np.ndarray, y: np.ndarray) -> DualState:
    """Solve (K_theta + n I) alpha = y by Cholesky; J = y . alpha / 2. A
    SupportGram is solved through its capacitance system."""
    if isinstance(K_theta, SupportGram):
        return _solve_support(K_theta, y)
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


def _solve_support(K_theta: SupportGram, y: np.ndarray) -> DualState:
    """Woodbury: with V = C W^(1/2), (V V' + n I)^-1 r = (r - V c) / n where
    (n I + V'V) c = V' r, and V'V = W^(1/2) G W^(1/2) comes from the cached
    Gram of the columns. Where K_theta outweighs n I along y, alpha is far
    smaller than y and the subtraction cancels most of its digits, so one
    step of refinement against the residual of (K_theta + n I) alpha = y
    follows, through the same factor."""
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    C = K_theta.columns
    if C.shape[0] != n:
        raise DualSolveError(f"support columns have {C.shape[0]} rows, but n={n}")
    weights = K_theta.nonnegative_weights()
    root = np.sqrt(weights)
    # Fortran order, so LAPACK factors it in place without a copy of its own
    capacitance = np.array(K_theta.gram, order="F")
    capacitance *= root[:, None]
    capacitance *= root
    capacitance[np.diag_indices_from(capacitance)] += n
    try:
        factor = scipy.linalg.cho_factor(
            capacitance, lower=True, overwrite_a=True, check_finite=False
        )
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise DualSolveError(f"Cholesky failed on the capacitance matrix: {exc}") from exc

    def solve(r: np.ndarray) -> np.ndarray:
        c = scipy.linalg.cho_solve(factor, root * (C.T @ r), check_finite=False)
        out = r - C @ (root * c)
        out /= n
        return out

    alpha = solve(y)
    if C.shape[1]:
        # with no columns alpha = y / n is already correctly rounded
        alpha += solve(y - n * alpha - C @ (weights * (C.T @ alpha)))
    if not np.all(np.isfinite(alpha)):
        raise DualSolveError("non-finite dual solution; upstream state is corrupt")
    return DualState(alpha=alpha, K_theta=K_theta, J_value=float(0.5 * y @ alpha), n=n)


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
