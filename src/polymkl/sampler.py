"""Draw a product-kernel multi-index with probability proportional to the
magnitude of its gradient component.

The draw is hierarchical: first the degree d, with weight
delta(d) = alpha' S^(.)d alpha / rho_d^2, then one base-kernel index per
position. Every base kernel is rank one, K_j = z_j z_j', so the running
Hadamard product of alpha alpha' with the factors chosen so far is u u', with
u = alpha * z_prefix elementwise. Position i uses conditional weights

    pi(j) proportional to sum_{t,s} u_t u_s S^(.)k_ts z_jt z_js
          = colsum(U * (S^(.)k U))_j,   U = u[:, None] * Z,   k = d - i,

for m base kernels. Where the kernel set holds the next degree's features
Phi_(k+1) (F_(k+1) < n), they are read off one projection: with
v = Phi_(k+1)' u the weights are L_k v^2 (`BaseKernelSet.lifts`; L_0 is the
identity and Phi_1 = Z), at n F_(k+1) + m F_(k+1) flops. At the top
feature degree K, where Phi_(K+1) is not held, they are
colsum((Phi_K' U)^2) at n F_K m flops. At a dense degree P = S^(.)k is
exactly symmetric, so only its lower triangle is read: the weights are
2 colsum(U * (tril(P) U)) - diag(P)'(U * U), one triangular product at
n^2 m / 2 multiply-adds. Their sum over j telescopes to the previous
position's chosen weight. The resulting joint law over ordered tuples is
exactly the normalized |gradient| distribution, which
`baselines.brute_force_q` enumerates densely for testing.

Each categorical, the degree's and every position's, takes the pairwise
total its caller already holds (`DegreeMasses.total`, and the sum the
telescoping check takes) and walks the weights as Python floats, which at
the few weights of most draws costs less than numpy's calls and draws the
same index bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .dataset import MultiIndex
from .gradient import DegreeMasses, RhoSchedule
from .kernels import BaseKernelSet
from .lapack import dtrmm

# round-off tolerance for masses that are nonnegative in exact arithmetic,
# relative to the ambient mass scale
_NEG_TOL = 1e-12


class SamplerError(RuntimeError):
    pass


def _draw_categorical(
    rng: np.random.Generator, weights: np.ndarray, total: float, scale: float
) -> int:
    """One uniform variate, scaled by `total`, against the cumulative sums of
    `weights`. `total` is the caller's numpy pairwise sum of the same
    weights, float(weights.sum()), not the last cumulative sum, which rounds
    differently from eight weights on. Negative round-off down to
    -_NEG_TOL*scale is clamped to zero, and the total then taken afresh;
    anything lower signals corruption, as does a total that is not positive
    and finite. The sums run over Python floats: numpy's cumsum is sequential
    at every length, so `accumulate` gives it bit for bit, without numpy's
    per-call cost at the few weights of most draws."""
    values = weights.tolist()
    low = min(values)
    if low < -_NEG_TOL * max(1.0, scale):
        raise SamplerError(f"negative sampling mass beyond round-off: min={low}")
    if low < 0.0:
        weights = np.maximum(weights, 0.0)
        values, total = weights.tolist(), float(weights.sum())
    # written so that a NaN total fails it too
    if not 0.0 < total < math.inf:
        raise SamplerError(
            f"sampling masses total {total}, not positive and finite; upstream state is corrupt"
        )
    u = rng.random() * total
    return min(bisect_right(list(accumulate(values)), u), len(values) - 1)


class SamplerWorkspace:
    """Reusable per-draw buffers over one immutable kernel set. Single-owner:
    share the kernel set across workspaces, not a workspace across callers."""

    def __init__(self, ks: BaseKernelSet, rho: RhoSchedule, rng: np.random.Generator):
        self.ks = ks
        self.rho = rho
        self.rng = rng
        # running factor u = alpha * z_prefix; where a degree is dense, also
        # U = u[:, None] * Z and the product Phi_K' U (F_K x m) at the top
        # feature degree K, and above it one n x m buffer that holds U * U
        # and then, in place, tril(S^(.)k) U
        self.u = np.empty(ks.n)
        self._U = self._PhiU = self._PU = None
        if ks.dense_powers:
            self._U = np.empty(ks.Z.shape, order="F")
            self._PU = np.empty(ks.Z.shape, order="F")
            if ks.features:
                top = ks.features[len(ks.features)]
                self._PhiU = np.empty((top.shape[1], ks.Z.shape[1]))

    def draw(self, alpha: np.ndarray, masses: DegreeMasses) -> MultiIndex:
        ks = self.ks
        # a zero or non-finite total raises here, before any variate is drawn
        d = _draw_categorical(self.rng, masses.delta, masses.total, masses.total)
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
            pos = _draw_categorical(self.rng, weights, total, scale=max(denom, 1.0))
            chosen.append(ks.indices[pos])
            denom = float(weights[pos])
            u *= ks.Z[:, pos]
        return tuple(chosen)

    def position_weights(self, u: np.ndarray, remaining: int) -> np.ndarray:
        """Unnormalized weight of every base index at a position whose running
        factor is u, with `remaining` < D positions after it:
        colsum(U * (S^(.)remaining U)) with U = u[:, None] * Z. Where the
        next degree is held as features, that is L_remaining v^2 with
        v = Phi_(remaining+1)' u. A dense power P is read through its lower
        triangle only, as 2 colsum(U * (tril(P) U)) - diag(P)'(U * U)."""
        ks = self.ks
        phi = ks.Z if remaining == 0 else ks.features.get(remaining + 1)
        if phi is not None:
            v = phi.T @ u
            squares = v * v
            return squares if remaining == 0 else ks.lifts[remaining] @ squares
        U = np.multiply(u[:, None], ks.Z, out=self._U)
        phi = ks.features.get(remaining)
        if phi is not None:
            # S^(.)K = Phi Phi', so each weight is a squared column norm of Phi' U
            V = np.matmul(phi.T, U, out=self._PhiU)
            return np.einsum("fj,fj->j", V, V)
        P = ks.dense_powers[remaining]
        PU = np.multiply(U, U, out=self._PU)
        diagonal = np.diagonal(P) @ PU
        np.copyto(PU, U)
        # P is symmetric, so P.T is the same array in Fortran order and its
        # lower triangle is tril(P)
        PU = dtrmm(1.0, P.T, PU, lower=1, overwrite_b=1)
        return 2.0 * np.einsum("tj,tj->j", U, PU) - diagonal
