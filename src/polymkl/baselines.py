"""Everything that pays for the enumerated index set or a dense n x n Gram:
the draw of uniform coordinate descent (one uniformly random coordinate of
the enumerated set per iteration of `optimizer.run`), deterministic
full-gradient projected descent with backtracking line search, and the dense
oracles the learner's fast paths are tested against: `solve_dense`,
`dual_objective`, `grad_component` and `brute_force_q`.

Both solvers pay the honest enumeration cost per iteration, which is what the
scaling benchmarks contrast against the proportional sampler. The
full-gradient solver doubles as the optimum oracle in tests. Every dense Gram
here is a plain n x n array, and every walk over the enumerated set is
`_iter_tuple_grams`, which builds each base Gram afresh from the inputs.
Every enumeration is a list of tuples from `enumerate_index_set` and stops
at ENUMERATION_GUARD tuples. This module imports the learner; no module of
the learner imports it.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from .dataset import Dataset, MultiIndex
from .dual import DualSolveError, DualState
from .gradient import GRAD_SCALE, DegreeMasses, RhoSchedule
from .kernels import BaseKernelSet, product_kernel_matrix
from .lapack import dpotrf, dpotrs
from .optimizer import RunRecord, RunResult, SparseTheta, project_pos_l2ball
from .sampler import SamplerError

ENUMERATION_GUARD = 10**6


class EnumerationError(ValueError):
    pass


def enumerate_index_set(indices: list[int], D: int) -> list[MultiIndex]:
    """Every ordered tuple over the given base-kernel indices up to degree D,
    by degree and lexicographic within one. A set beyond ENUMERATION_GUARD
    tuples raises."""
    if D < 0:
        raise EnumerationError("D must be nonnegative")
    size = sum(len(indices) ** d for d in range(D + 1))
    if size > ENUMERATION_GUARD:
        raise EnumerationError(f"index set of size {size} exceeds guard {ENUMERATION_GUARD}")
    tuples: list[MultiIndex] = []
    for d in range(D + 1):
        tuples.extend(itertools.product(indices, repeat=d))
    return tuples


def _iter_tuple_grams(ks: BaseKernelSet, D: int, dtype=np.float64):
    """Depth-first walk of all tuples with prefix Hadamard products shared, so
    each tuple costs one elementwise multiply by its last base Gram, which is
    built afresh from the inputs: x_j x_j', or all ones for index 0. Every
    Gram has type `dtype`. Yields (tuple, Gram)."""

    def base(j: int) -> np.ndarray:
        if j == 0:
            return np.ones((ks.n, ks.n), dtype)
        x = ks.inputs[:, j - 1].astype(dtype)
        return np.outer(x, x)

    def walk(prefix: MultiIndex, mat: np.ndarray):
        yield prefix, mat
        if len(prefix) < D:
            for j in ks.indices:
                yield from walk(prefix + (j,), mat * base(j))

    yield from walk((), np.ones((ks.n, ks.n), dtype))


def solve_dense(K_theta: np.ndarray, y: np.ndarray) -> DualState:
    """Solve (K_theta + n I) alpha = y by a dense Cholesky, O(n^3); J = y . alpha / 2.
    The enumerated baselines' solve, and the oracle for `dual.solve_alpha`.
    K_theta must be n x n and finite, or DualSolveError is raised before
    anything is factored."""
    K = np.asarray(K_theta, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if K.shape != (n, n):
        raise DualSolveError(f"K_theta shape {K.shape} does not match n={n}")
    if not np.all(np.isfinite(K)):
        raise DualSolveError("non-finite entry in K_theta")
    # a Fortran-ordered copy, so LAPACK factors it in place instead of making
    # a second n x n copy of its own
    system = np.array(K, order="F")
    system[np.diag_indices_from(system)] += n
    factor, info = dpotrf(system, lower=True, clean=False, overwrite_a=True)
    if info:
        raise DualSolveError(f"Cholesky failed on K_theta + nI: potrf info {info}")
    alpha, info = dpotrs(factor, y, lower=True)
    if info:
        raise DualSolveError(f"solve failed on K_theta + nI: potrs info {info}")
    if not np.all(np.isfinite(alpha)):
        raise DualSolveError("non-finite dual solution; upstream state is corrupt")
    return DualState(alpha=alpha, K_theta=K, J_value=float(0.5 * y @ alpha))


def dual_objective(alpha: np.ndarray, K: np.ndarray, y: np.ndarray) -> float:
    """The dual objective

        G(alpha) = alpha' K alpha / 2 + (1/n) sum_t conj_loss_t(-n alpha_t),

    whose minimizer is the inner solve's alpha and whose negated minimum is J."""
    v = -len(y) * alpha
    # the squared loss (tau - y_t)^2 / 2 has the conjugate v^2 / 2 + v y_t
    return float(0.5 * alpha @ K @ alpha + np.mean(0.5 * v**2 + v * y))


def grad_component(alpha: np.ndarray, K_i: np.ndarray, rho_sq_d: float) -> float:
    """The exact component g_i = -GRAD_SCALE * (alpha' K_i alpha) / rho_d^2 from
    the dense product kernel K_i. K_i is PSD, so g_i <= 0; a quadratic form
    that rounds below zero (where sum(alpha) is near 0, say) is read as 0."""
    return -GRAD_SCALE * max(float(alpha @ K_i @ alpha), 0.0) / rho_sq_d


def brute_force_q(
    alpha: np.ndarray, ks: BaseKernelSet, rho: RhoSchedule, D: int
) -> dict[MultiIndex, float]:
    """Exact normalized |gradient| over every ordered tuple of degree <= D, the
    law the proportional sampler draws from. Test oracle only: enumeration is
    exponential in D and stops at ENUMERATION_GUARD tuples. The dense
    products, quadratic forms and sums are taken in np.longdouble, so where a
    tuple's mass alpha' K_i alpha cancels the oracle keeps more digits than
    the column code it checks; a form that rounds below zero is read as 0."""
    enumerate_index_set(ks.indices, D)  # raises beyond the guard
    a = np.asarray(alpha, dtype=np.longdouble)
    magnitudes = {
        idx: max(a @ gram @ a, 0) / rho.rho_sq[len(idx)]
        for idx, gram in _iter_tuple_grams(ks, D, np.longdouble)
    }
    total = sum(magnitudes.values())
    if total <= 0:
        raise SamplerError("zero total gradient mass; nothing to normalize")
    return {idx: float(mass / total) for idx, mass in magnitudes.items()}


def full_gradient(
    alpha: np.ndarray, ks: BaseKernelSet, rho: RhoSchedule, tuples: list[MultiIndex]
) -> np.ndarray:
    """Every gradient component over the enumerated set, in its tuple order."""
    M = np.outer(alpha, alpha)
    by_tuple = {}
    for idx, gram in _iter_tuple_grams(ks, rho.D):
        by_tuple[idx] = -GRAD_SCALE * float(np.vdot(M, gram)) / rho.rho_sq[len(idx)]
    return np.array([by_tuple[idx] for idx in tuples])


def uniform_draws(ks: BaseKernelSet, rho: RhoSchedule, seed: int):
    """The draw of uniform coordinate descent: one coordinate of the
    enumerated set, uniformly on the generator [seed, 2], with its exact
    component from its dense product kernel (`grad_component`). Returns the
    tuple and its inverse-probability estimate size * g_i. The set is
    enumerated once, here, so one beyond the guard fails before the loop
    starts."""
    tuples = enumerate_index_set(ks.indices, ks.D)
    size = len(tuples)
    rng = np.random.default_rng([int(seed), 2])

    def draw(masses: DegreeMasses) -> tuple[MultiIndex, float]:
        idx = tuples[int(rng.integers(size))]
        g_i = grad_component(masses.alpha, product_kernel_matrix(ks, idx), rho.rho_sq[len(idx)])
        return idx, size * g_i

    return draw


def run_full_gradient(
    config, data: Dataset, ks: BaseKernelSet, rho: RhoSchedule, tol: float = 1e-8
) -> RunResult:
    """Deterministic projected gradient descent with the exact full gradient and
    an Armijo backtracking line search, run until the relative objective change
    drops below `tol` or config.T iterations elapse (partial result then). The
    result's averaged and last iterates are both the final iterate, with its
    dense inner solve; its step size reads "line-search".

    Per iteration this walks the whole enumerated set twice over n^2 entries
    (gradient components and the gradient's combined Gram), so the cost is
    proportional to the index-set size by construction.
    """
    T = int(config.T)
    tuples = enumerate_index_set(ks.indices, ks.D)
    y = data.targets
    n = ks.n
    rho_sq_by_len = rho.rho_sq

    theta = np.zeros(len(tuples))
    K_theta = np.zeros((n, n))
    positions = {idx: p for p, idx in enumerate(tuples)}

    def exact_K(th: np.ndarray) -> np.ndarray:
        K = np.zeros((n, n))
        for idx, gram in _iter_tuple_grams(ks, rho.D):
            w = th[positions[idx]]
            if w != 0.0:
                K += (w / rho_sq_by_len[len(idx)]) * gram
        return K

    records: list[RunRecord] = []
    started = time.perf_counter()
    dual = solve_dense(K_theta, y)
    J = dual.J_value
    step = 1.0
    converged = False
    armijo = 1e-4
    for k in range(1, T + 1):
        M = np.outer(dual.alpha, dual.alpha)
        grad = np.empty(len(tuples))
        K_grad = np.zeros((n, n))
        for idx, gram in _iter_tuple_grams(ks, rho.D):
            rsq = rho_sq_by_len[len(idx)]
            g = -GRAD_SCALE * float(np.vdot(M, gram)) / rsq
            grad[positions[idx]] = g
            if g != 0.0:
                K_grad += (g / rsq) * gram
        C = float(np.sum(np.abs(grad)))
        records.append(
            RunRecord(
                iter=k,
                wall_time_s=time.perf_counter() - started,
                J_value=J,
                C_value=C,
                support_size=int(np.count_nonzero(theta)),
                theta_norm=float(np.linalg.norm(theta)),
            )
        )
        if C <= 0:
            converged = True
            break

        # gradient components are <= 0, so theta - t*grad stays nonnegative and
        # the projection is at most a rescale; the candidate Gram is then a
        # linear combination of the running Gram and the gradient Gram
        accepted = False
        t = step
        for _ in range(60):
            cand = theta - t * grad
            scale = project_pos_l2ball(cand)
            K_cand = scale * (K_theta - t * K_grad)
            dual_cand = solve_dense(K_cand, y)
            if dual_cand.J_value <= J + armijo * float(grad @ (cand - theta)):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            converged = True  # no descent direction progress left at float precision
            break
        J_prev = J
        theta, K_theta, dual, J = cand, K_cand, dual_cand, dual_cand.J_value
        step = min(t * 2.0, 1e6)
        if k % 25 == 0:
            K_theta = exact_K(theta)  # shed line-search round-off drift
        if abs(J_prev - J) <= tol * max(abs(J_prev), 1e-300):
            converged = True
            break

    # exact final values, independent of the incremental updates
    theta_star = SparseTheta.from_dict(
        {idx: float(theta[p]) for idx, p in positions.items() if theta[p] != 0.0}
    )
    final = solve_dense(exact_K(theta), y)
    return RunResult(
        theta_avg=theta_star,
        final=final,
        records=records,
        step_size="line-search",
        theta_last=theta_star,
        dual_last=final,
        converged=converged,
    )
