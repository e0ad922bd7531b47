"""Inner solve for the kernel-weighted ridge problem and prediction.

For the squared loss the inner minimization over predictors reduces to the
symmetric positive-definite system (K_theta + n I) alpha = y, and the
inner-minimized objective value is J = y . alpha / 2. Both identities are
pinned by tests against a direct numerical minimization of the dual objective
(`baselines.dual_objective`).

The learner hands the solver every combined Gram in the span of its
support, K_theta = C diag(w) C' over s columns, one per distinct monomial:
the descent loop from its cache, and the final solves from
`assemble_combined_gram`, which builds the form afresh from a sparse theta.
Woodbury's identity turns the n x n system into the s x s capacitance system
(n I + W^(1/2) C'C W^(1/2)) c = W^(1/2) C' y, whose eigenvalues are all >= n
for any s as no weight is negative, and alpha = (y - C W^(1/2) c) / n:
O(n s + s^3) with no n x n array. The dense Cholesky on an n x n array
(`baselines.solve_dense`) serves the enumerated baselines and the test
oracles. Both call LAPACK potrf/potrs directly (`.lapack`), the routines
behind scipy's cho_factor/cho_solve: at the small s of a descent loop the
per-call checks and copies of those wrappers cost more than the arithmetic.
Any nonzero `info` raises `DualSolveError`, as does a support solve whose
residual shows the system too ill-conditioned to trust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# product_kernel_matrix is unused here, but the benchmark's tracer
# (bench/measure.py) wraps this module attribute by name, so it stays imported
from .kernels import (  # noqa: F401
    BaseKernelSet,
    KernelError,
    monomial_key,
    product_columns,
    product_kernel_matrix,
)
from .lapack import dpotrf, dpotrs

# the largest residual of the first solve, ||y - (K_theta + n I) alpha||,
# allowed relative to ||y||. It grows about as 1/lambda: the bench
# workloads read at most 2.3e-11, and a synthetic r=3, n=40, D=3 run at most
# 3.2e-7 at lambda=1e-10 and 3.8e-4 at 1e-13, whose test MSE (1.8e-15)
# still falls with lambda. From 3.7e-3 at 1e-14 the solve's error shows in
# the predictions (test MSE 2.8e-11, and 2.3e-8 at 1e-15); by 46 at 1e-18
# the refinement step grows the residual instead of cutting it, and J turns
# negative.
_RESIDUAL_RTOL = 1e-3


class DualSolveError(RuntimeError):
    """Factorization failure, or a support solve too inaccurate to use.
    K_theta + nI should always be PD, so a failed factorization signals
    NaN/inf corruption upstream, and an inaccurate solve a ridge strength so
    small that K_theta swamps n I beyond what doubles resolve."""


@dataclass(frozen=True)
class SupportGram:
    """K_theta = C diag(weights) C' in the span of its support: `columns` is
    n x s, one column per distinct monomial (`monomial_key`), `gram` is C'C
    (s x s, exactly symmetric, as the solve reads it transposed), and
    `weights` (length s) are the summed theta_i / rho_|i|^2 of each
    monomial's tuples. Each weight is a sum of nonnegative terms, 0.0
    for a monomial with no tuple left, so a negative or non-finite one means
    corrupt state: construction raises FloatingPointError on it, and the
    solve and `dense` read the weights as they are. The learner's only Gram
    form; `dense` builds the n x n array for oracles and tests."""

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
    """The inner solve at one Gram, held as the solve took it: a
    `SupportGram` in the learner, a dense n x n array in the enumerated
    baselines and the oracles."""

    alpha: np.ndarray
    K_theta: SupportGram | np.ndarray
    J_value: float


def solve_alpha(K_theta: SupportGram, y: np.ndarray) -> DualState:
    """Solve (K_theta + n I) alpha = y; J = y . alpha / 2. Woodbury: with
    V = C W^(1/2), (V V' + n I)^-1 r = (r - V c) / n where (n I + V'V) c = V' r,
    and V'V = W^(1/2) G W^(1/2) comes from the cached Gram of the columns.
    Where K_theta outweighs n I along y, alpha is far smaller than y and the
    subtraction cancels most of its digits, so one step of refinement against
    the residual of (K_theta + n I) alpha = y follows, through the same
    factor. A first residual above _RESIDUAL_RTOL of ||y|| raises
    `DualSolveError`: the system is then too ill-conditioned for the
    refinement to recover a usable alpha."""
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
        # Fortran order, so potrf factors it in place. The Gram is exactly
        # symmetric, so its transpose holds the same values in Fortran
        # order, and each entry is (G_ij r_i) r_j either way
        capacitance = np.multiply(K_theta.gram.T, root[:, None], order="F")
        capacitance *= root
        # its diagonal, as a 1-D view through the C-ordered transpose
        diagonal = capacitance.T.reshape(-1)[:: s + 1]
        diagonal += n
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
        residual = y - n * alpha - C @ (weights * (C.T @ alpha))
        # squared norms, as np.linalg.norm costs more than the comparison
        # needs; an overflowing residual and a NaN both fail the test
        size_sq, scale_sq = float(np.vdot(residual, residual)), float(np.vdot(y, y))
        if not size_sq <= _RESIDUAL_RTOL**2 * scale_sq:
            raise DualSolveError(
                f"support solve residual {math.sqrt(size_sq):.3e} exceeds {_RESIDUAL_RTOL:g} "
                f"of ||y|| = {math.sqrt(scale_sq):.3e}; the system is too ill-conditioned "
                f"(lambda too small?)"
            )
        alpha += solve(residual)
    if not np.all(np.isfinite(alpha)):
        raise DualSolveError("non-finite dual solution; upstream state is corrupt")
    return DualState(alpha=alpha, K_theta=K_theta, J_value=float(0.5 * y @ alpha))


def monomial_weights(theta, rho) -> tuple[list, np.ndarray]:
    """theta's support grouped by monomial: the distinct `monomial_key`s, in
    order of first appearance, and for each the Gram weight sum
    theta_i / rho_|i|^2 over its tuples, exactly rounded."""
    terms: dict = {}
    for idx, value in theta.items():
        terms.setdefault(monomial_key(idx), []).append(value / rho.rho_sq[len(idx)])
    return list(terms), np.array([math.fsum(t) for t in terms.values()])


def support_columns(theta, ks: BaseKernelSet, rho) -> tuple[list, np.ndarray, np.ndarray]:
    """theta's support built fresh from its tuples: the distinct monomials,
    the n x s columns, one per monomial, and their summed weights
    theta_i / rho_d(i)^2, so that K_theta = C diag(weights) C'. O(n s)."""
    keys, weights = monomial_weights(theta, rho)
    # the keys drop index 0, so product_columns cannot reject it on its own
    if not ks.has_constant and any(0 in idx for idx, _ in theta.items()):
        raise KernelError("no base kernel with index 0")
    return keys, ks.product_columns(keys), weights


def assemble_combined_gram(theta, ks: BaseKernelSet, rho) -> SupportGram:
    """K_theta in support form, built fresh: `support_columns` and their Gram
    C'C. O(n s^2), with no n x n array."""
    _keys, C, weights = support_columns(theta, ks, rho)
    return SupportGram(C, C.T @ C, weights)


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
