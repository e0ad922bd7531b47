"""Reference solvers over the explicitly enumerated index set: uniform
coordinate descent (one uniformly random coordinate per iteration) and
deterministic full-gradient projected descent with backtracking line search.

Both pay the honest enumeration cost per iteration, which is what the scaling
benchmarks contrast against the proportional sampler. The full-gradient solver
doubles as the optimum oracle in tests.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, MultiIndex
from .dual import DualState, solve_alpha
from .gradient import GRAD_SCALE, DegreeMasses, GradSample, RhoSchedule, total_mass_C
from .kernels import BaseKernelSet, GramMatrix, product_kernel_matrix
from .optimizer import RunRecord, RunResult, SparseTheta, run


class EnumerationError(ValueError):
    pass


@dataclass
class EnumeratedIndexSet:
    """All ordered multi-indices of degree <= D, lexicographic within degree."""

    tuples: list[MultiIndex]

    @property
    def size(self) -> int:
        return len(self.tuples)


def enumerate_index_set(r_indices, D: int, guard: int = 10**6) -> EnumeratedIndexSet:
    """Enumerate every ordered tuple over the given base-kernel indices up to
    degree D. `r_indices` may be an int r (meaning indices 1..r) or an explicit
    index list."""
    if isinstance(r_indices, int):
        if r_indices < 1:
            raise EnumerationError("need at least one base kernel")
        indices = list(range(1, r_indices + 1))
    else:
        indices = list(r_indices)
    if D < 0:
        raise EnumerationError("D must be nonnegative")
    size = sum(len(indices) ** d for d in range(D + 1))
    if size > guard:
        raise EnumerationError(f"index set of size {size} exceeds guard {guard}")
    tuples: list[MultiIndex] = []
    for d in range(D + 1):
        tuples.extend(itertools.product(indices, repeat=d))
    return EnumeratedIndexSet(tuples=tuples)


def _iter_tuple_grams(ks: BaseKernelSet, D: int):
    """Depth-first walk of all tuples with prefix Hadamard products shared, so
    each tuple costs one elementwise multiply. Yields (tuple, Gram)."""
    ones = np.ones((ks.n, ks.n))

    def walk(prefix: MultiIndex, mat: np.ndarray):
        yield prefix, mat
        if len(prefix) < D:
            for j in ks.indices:
                yield from walk(prefix + (j,), mat * ks.kernel(j))

    yield from walk((), ones)


def full_gradient(
    alpha: np.ndarray, ks: BaseKernelSet, rho: RhoSchedule, enum: EnumeratedIndexSet
) -> np.ndarray:
    """Every gradient component over the enumerated set, in its tuple order."""
    M = np.outer(alpha, alpha)
    by_tuple = {}
    for idx, gram in _iter_tuple_grams(ks, rho.D):
        by_tuple[idx] = -GRAD_SCALE * float(np.vdot(M, gram)) / rho.rho_sq[len(idx)]
    return np.array([by_tuple[idx] for idx in enum.tuples])


def uniform_draws(ks: BaseKernelSet, rho: RhoSchedule, seed: int):
    """The draw of uniform coordinate descent: one coordinate of the
    enumerated set, uniformly on the generator [seed, 2], with its exact
    component from its dense product kernel, carrying the
    inverse-probability estimate size * g_i. The set is enumerated once,
    here, so one beyond the guard fails before the loop starts. K_i is PSD,
    so the exact component is <= 0; a quadratic form that rounds below zero
    (where sum(alpha) is near 0, say) is read as 0."""
    enum = enumerate_index_set(ks.indices, ks.D)
    rng = np.random.default_rng([int(seed), 2])

    def draw(alpha: np.ndarray, masses: DegreeMasses) -> GradSample:
        idx = enum.tuples[int(rng.integers(enum.size))]
        gram = product_kernel_matrix(ks, idx).values
        g_i = -GRAD_SCALE * max(float(alpha @ gram @ alpha), 0.0) / rho.rho_sq[len(idx)]
        return GradSample(index=idx, value=enum.size * g_i, mass=total_mass_C(masses))

    return draw


def run_ucd(config, data: Dataset, ks: BaseKernelSet, rho: RhoSchedule) -> RunResult:
    """Uniform coordinate descent: the descent loop of `optimizer.run` with
    `uniform_draws` in place of the proportional sampler."""
    return run(config, data, ks, rho, draws=uniform_draws)


@dataclass
class FullGradResult:
    theta_star: SparseTheta
    # the dense inner solve at theta_star
    final: DualState
    records: list[RunRecord]
    converged: bool

    @property
    def J_star(self) -> float:
        return self.final.J_value


def run_full_gradient(
    config, data: Dataset, ks: BaseKernelSet, rho: RhoSchedule, tol: float = 1e-8
) -> FullGradResult:
    """Deterministic projected gradient descent with the exact full gradient and
    an Armijo backtracking line search, run until the relative objective change
    drops below `tol` or config.T iterations elapse (partial result then).

    Per iteration this walks the whole enumerated set twice over n^2 entries
    (gradient components and the gradient's combined Gram), so the cost is
    proportional to the index-set size by construction.
    """
    T = int(config.T)
    enum = enumerate_index_set(ks.indices, ks.D)
    y = data.targets
    n = ks.n
    rho_sq_by_len = rho.rho_sq

    theta = np.zeros(enum.size)
    K_theta = np.zeros((n, n))
    positions = {idx: p for p, idx in enumerate(enum.tuples)}

    def exact_K(th: np.ndarray) -> np.ndarray:
        K = np.zeros((n, n))
        for idx, gram in _iter_tuple_grams(ks, rho.D):
            w = th[positions[idx]]
            if w != 0.0:
                K += (w / rho_sq_by_len[len(idx)]) * gram
        return K

    records: list[RunRecord] = []
    started = time.perf_counter()
    dual = solve_alpha(GramMatrix(K_theta), y)
    J = dual.J_value
    step = 1.0
    converged = False
    armijo = 1e-4
    for k in range(1, T + 1):
        M = np.outer(dual.alpha, dual.alpha)
        grad = np.empty(enum.size)
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
            norm = float(np.linalg.norm(cand))
            scale = 1.0 / norm if norm > 1.0 else 1.0
            cand *= scale
            K_cand = scale * (K_theta - t * K_grad)
            dual_cand = solve_alpha(GramMatrix(K_cand), y)
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
    return FullGradResult(
        theta_star=theta_star,
        final=solve_alpha(GramMatrix(exact_K(theta)), y),
        records=records,
        converged=converged,
    )
