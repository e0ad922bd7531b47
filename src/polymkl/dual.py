"""Inner solve for the kernel-weighted ridge problem and prediction.

For the squared loss the inner minimization over predictors reduces to the
symmetric positive-definite system (K_theta + n I) alpha = y, and the
inner-minimized objective value is J = y . alpha / 2. Both identities are
pinned by tests against a direct numerical minimization of the dual objective

    G(alpha) = alpha' K alpha / 2 + (1/n) sum_t conj_loss_t(-n alpha_t),

whose minimizer is alpha and whose negated minimum is J.

The learner hands the solver every combined Gram in the span of its
support, K_theta = C diag(w) C' over s columns, one per distinct monomial:
the descent loop from its cache, and the final solves from
`assemble_combined_gram`, which builds the form afresh from a sparse theta.
Woodbury's identity turns the n x n system into the s x s capacitance system
(n I + W^(1/2) C'C W^(1/2)) c = W^(1/2) C' y, whose eigenvalues are all >= n
for any s as no weight is negative, and alpha = (y - C W^(1/2) c) / n:
O(n s + s^3) with no n x n array. The dense Cholesky on a `GramMatrix`
serves the enumerated baselines and the test oracles. Both call LAPACK
potrf/potrs directly (`.lapack`), the routines behind scipy's
cho_factor/cho_solve: at the small s of a descent loop the per-call checks
and copies of those wrappers cost more than the arithmetic. Any nonzero `info` raises `DualSolveError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# product_kernel_matrix is unused here, but the benchmark's tracer
# (bench/measure.py) wraps this module attribute by name, so it stays imported
from .kernels import (  # noqa: F401
    BaseKernelSet,
    GramMatrix,
    KernelError,
    monomial_key,
    product_columns,
    product_kernel_matrix,
)
from .lapack import dpotrf, dpotrs


class DualSolveError(RuntimeError):
    """Factorization failure; K_theta + nI should always be PD, so this signals
    NaN/inf corruption upstream."""


@dataclass(frozen=True)
class SupportGram:
    """K_theta = C diag(weights) C' in the span of its support: `columns` is
    n x s, one column per distinct monomial (`monomial_key`), `gram` is C'C
    (s x s), and `weights` (length s) are the summed theta_i / rho_|i|^2 of
    each monomial's tuples, with the iterate's scale applied. Each weight is
    a sum of positive terms, or 0.0 for a monomial with no tuple left, so a
    negative or non-finite one means corrupt state: construction raises
    FloatingPointError on it, and the solve and `dense` read the weights as
    they are. The learner's only Gram form; `dense` builds the n x n array
    for oracles and tests."""

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
        if s:
            # min and max carry a NaN through, so it fails the test too
            low, high = float(self.weights.min()), float(self.weights.max())
            if not (0.0 <= low and high < math.inf):
                raise FloatingPointError(
                    f"support weights must be finite and >= 0, got min {low}, max {high}"
                )

    def dense(self) -> np.ndarray:
        """The n x n Gram C diag(weights) C', as the single product B B' with
        B = C diag(weights)^(1/2), so exactly symmetric."""
        B = self.columns * np.sqrt(self.weights)
        return B @ B.T


@dataclass(frozen=True)
class DualState:
    """The inner solve at one Gram: a `SupportGram` in the learner, a dense
    `GramMatrix` in the enumerated baselines and the oracles."""

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
    # finiteness was validated when the Gram was constructed
    factor, info = dpotrf(system, lower=True, clean=False, overwrite_a=True)
    if info:
        raise DualSolveError(f"Cholesky failed on K_theta + nI: potrf info {info}")
    alpha, info = dpotrs(factor, y, lower=True)
    if info:
        raise DualSolveError(f"solve failed on K_theta + nI: potrs info {info}")
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
    weights = K_theta.weights
    s = len(weights)
    if s == 0:
        # no columns: K_theta = 0, and y / n is correctly rounded
        alpha = y / n
    else:
        root = np.sqrt(weights)
        # Fortran order, so potrf factors it in place
        capacitance = np.multiply(K_theta.gram, root[:, None], order="F")
        capacitance *= root
        capacitance.flat[:: s + 1] += n
        factor, info = dpotrf(capacitance, lower=True, clean=False, overwrite_a=True)
        if info:
            raise DualSolveError(f"Cholesky failed on the capacitance matrix: potrf info {info}")

        def solve(r: np.ndarray) -> np.ndarray:
            c, info = dpotrs(factor, root * (C.T @ r), lower=True, overwrite_b=True)
            if info:
                raise DualSolveError(f"capacitance solve failed: potrs info {info}")
            out = r - C @ (root * c)
            out /= n
            return out

        alpha = solve(y)
        alpha += solve(y - n * alpha - C @ (weights * (C.T @ alpha)))
    if not np.all(np.isfinite(alpha)):
        raise DualSolveError("non-finite dual solution; upstream state is corrupt")
    return DualState(alpha=alpha, K_theta=K_theta, J_value=float(0.5 * y @ alpha), n=n)


def monomial_weights(theta, rho) -> tuple[list, np.ndarray]:
    """theta's support grouped by monomial: the distinct `monomial_key`s, in
    order of first appearance, and for each the Gram weight
    sum theta_i / rho_|i|^2 over its tuples, as one exactly rounded sum."""
    terms: dict = {}
    for idx, value in theta.items():
        terms.setdefault(monomial_key(idx), []).append(value / rho.rho_sq[len(idx)])
    return list(terms), np.array([math.fsum(t) for t in terms.values()])


def assemble_combined_gram(theta, ks: BaseKernelSet, rho) -> SupportGram:
    """K_theta = sum over support of (theta_i / rho_d(i)^2) z_i z_i' in support
    form, built fresh: one column per distinct monomial, their Gram C'C, and
    the summed weights. O(n s^2), with no n x n array."""
    keys, weights = monomial_weights(theta, rho)
    # the keys drop index 0, so product_columns cannot reject it on its own
    if not ks.has_constant and any(0 in idx for idx, _ in theta.items()):
        raise KernelError("no base kernel with index 0")
    C = ks.product_columns(keys)
    return SupportGram(C, C.T @ C, weights)


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
    sum_k w_k z_k(query) (z_k(train) . alpha) over the support's distinct
    monomials k."""
    train_inputs = np.asarray(train_inputs)
    query_inputs = np.asarray(query_inputs)
    if train_inputs.shape[1] != query_inputs.shape[1]:
        raise KernelError(
            f"column mismatch: train has {train_inputs.shape[1]}, query has {query_inputs.shape[1]}"
        )
    keys, weights = monomial_weights(theta, rho)
    along_alpha = product_columns(train_inputs, keys).T @ state.alpha
    return product_columns(query_inputs, keys) @ (weights * along_alpha)
