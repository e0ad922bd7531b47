"""Draw a product-kernel multi-index with probability proportional to the
magnitude of its gradient component.

The draw is hierarchical: first the degree d, with weight
delta(d) = alpha' S^(.)d alpha / rho_d^2, then one base-kernel index per
position. Every base kernel is rank one, K_j = z_j z_j', so the running
Hadamard product of alpha alpha' with the factors chosen so far is u u', with
u = alpha * z_prefix elementwise. Position i uses conditional weights

    pi(j) proportional to sum_{t,s} u_t u_s S^(.)k_ts z_jt z_js
          = colsum(U * (S^(.)k U))_j,   U = u[:, None] * Z,   k = d - i,

for m base kernels. Where the kernel set holds S^(.)k = Phi_k Phi_k' (F_k < n
features), that is colsum((Phi_k' U)^2) at n F_k m flops; elsewhere it is one
n x n by n x m product, n^2 m flops. Their sum over j telescopes to the
previous position's chosen weight. The resulting joint law over ordered
tuples is exactly the normalized |gradient| distribution, which
`brute_force_q` enumerates densely for testing.
"""

from __future__ import annotations

import numpy as np

from .dataset import MultiIndex
from .gradient import DegreeMasses, RhoSchedule, degree_masses
from .kernels import BaseKernelSet

ENUMERATION_GUARD = 10**6

# round-off tolerance for masses that are nonnegative in exact arithmetic,
# relative to the ambient mass scale
_NEG_TOL = 1e-12


class SamplerError(RuntimeError):
    pass


def _draw_categorical(rng: np.random.Generator, weights: np.ndarray, scale: float) -> int:
    """One uniform variate against the cumulative sums of `weights`, renormalized
    by their computed total. Negative round-off down to -_NEG_TOL*scale is
    clamped to zero; anything lower signals corruption. The total is numpy's
    pairwise sum, not the last cumulative sum, which rounds differently from
    eight weights on."""
    weights = np.asarray(weights, dtype=np.float64)
    low = weights.min(initial=np.inf)
    if low < -_NEG_TOL * max(1.0, scale):
        raise SamplerError(f"negative sampling mass beyond round-off: min={low}")
    if low < 0.0:
        weights = np.maximum(weights, 0.0)
    total = float(weights.sum())
    if total <= 0:
        raise SamplerError("all sampling masses vanished; upstream state is corrupt")
    u = rng.random() * total
    return min(int(weights.cumsum().searchsorted(u, side="right")), len(weights) - 1)


class SamplerWorkspace:
    """Reusable per-draw buffers over one immutable kernel set. Single-owner:
    share the kernel set across workspaces, not a workspace across callers."""

    def __init__(self, ks: BaseKernelSet, rho: RhoSchedule, rng: np.random.Generator):
        self.ks = ks
        self.rho = rho
        self.rng = rng
        # running factor u = alpha * z_prefix, U = u[:, None] * Z, and the
        # products Phi_k' U (F_k x m) or S^(.)k U (n x m)
        self.u = np.empty(ks.n)
        self._U = np.empty(ks.Z.shape, order="F")
        m = ks.Z.shape[1]
        self._PhiU = {k: np.empty((phi.shape[1], m)) for k, phi in ks.features.items()}
        self._PU = np.empty(ks.Z.shape, order="F") if ks.dense_powers else None

    def draw(self, alpha: np.ndarray, masses: DegreeMasses | None = None) -> MultiIndex:
        ks = self.ks
        if masses is None:
            masses = degree_masses(alpha, ks, self.rho)
        if masses.total <= 0:
            raise SamplerError("zero total gradient mass; nothing to sample")
        d = _draw_categorical(self.rng, masses.delta, masses.total)
        if d == 0:
            return ()

        u = self.u
        np.copyto(u, alpha)
        chosen: list[int] = []
        # entering position i the denominator is the weight that won position
        # i-1 (telescoping); at i=1 it is the degree weight before rho-scaling
        denom = float(masses.delta[d] * self.rho.rho_sq[d])
        for i in range(1, d + 1):
            weights = self.position_weights(u, d - i)
            total = float(weights.sum())
            # written so that a NaN total fails it too
            if not abs(total - denom) <= 1e-9 * max(1.0, abs(denom)):
                raise SamplerError(f"telescoping identity violated: {total} vs {denom}")
            pos = _draw_categorical(self.rng, weights, scale=max(denom, 1.0))
            chosen.append(ks.indices[pos])
            denom = float(weights[pos])
            u *= ks.Z[:, pos]
        return tuple(chosen)

    def position_weights(self, u: np.ndarray, remaining: int) -> np.ndarray:
        """Unnormalized weight of every base index at a position whose running
        factor is u, with `remaining` positions after it:
        colsum(U * (S^(.)remaining U)) with U = u[:, None] * Z."""
        U = np.multiply(u[:, None], self.ks.Z, out=self._U)
        if remaining == 0:
            # S^(.)0 is all ones, so the weights are the squared column sums
            weights = U.sum(axis=0)
            weights *= weights
            return weights
        phi = self.ks.features.get(remaining)
        if phi is not None:
            # S^(.)k = Phi Phi', so each weight is a squared column norm of Phi' U
            V = np.matmul(phi.T, U, out=self._PhiU[remaining])
            return np.einsum("fj,fj->j", V, V)
        PU = np.matmul(self.ks.dense_powers[remaining], U, out=self._PU)
        return np.einsum("tj,tj->j", U, PU)


def sample_multi_index(
    alpha: np.ndarray,
    ks: BaseKernelSet,
    rho: RhoSchedule,
    rng: np.random.Generator,
    masses: DegreeMasses | None = None,
) -> MultiIndex:
    """One-shot draw; long-running loops should hold a SamplerWorkspace instead."""
    return SamplerWorkspace(ks, rho, rng).draw(alpha, masses)


def brute_force_q(
    alpha: np.ndarray, ks: BaseKernelSet, rho: RhoSchedule, D: int
) -> dict[MultiIndex, float]:
    """Exact normalized |gradient| over every ordered tuple of degree <= D.

    Test oracle only: enumeration is exponential in D and guarded at
    ENUMERATION_GUARD tuples.
    """
    size = sum(ks.num_kernels**d for d in range(D + 1))
    if size > ENUMERATION_GUARD:
        raise SamplerError(f"index set of size {size} exceeds enumeration guard")
    masses: dict[MultiIndex, float] = {}
    M0 = np.outer(alpha, alpha)

    def visit(prefix: MultiIndex, M: np.ndarray):
        masses[prefix] = float(M.sum()) / rho.rho_sq[len(prefix)]
        if len(prefix) < D:
            for j in ks.indices:
                visit(prefix + (j,), M * ks.kernel(j))

    visit((), M0)
    total = sum(masses.values())
    if total <= 0:
        raise SamplerError("zero total gradient mass; nothing to normalize")
    return {idx: mass / total for idx, mass in masses.items()}
