"""Rank-one base kernels, exact forms of the elementwise (Hadamard) powers of
their sum, and product-kernel Gram assembly.

A product kernel is identified by a MultiIndex: an ordered tuple of base-kernel
indices. Index 0 is the constant kernel (all-ones Gram) when enabled; indices
1..r are the per-variable linear kernels k_j(x, x') = x_j * x'_j. The empty
tuple is the degree-0 kernel, identically 1.

Every base kernel is rank one, K_j = z_j z_j' with z_0 = 1 and z_j = x_j, so
every product kernel is z z' with z the elementwise product of its columns.
Their sum S = Z Z' over the m base columns has rank at most m, so its power
S^(.)k factors exactly as Phi_k Phi_k' through the F_k = C(m+k-1, k) scaled
symmetric monomials of degree k. `BaseKernelSet` holds each degree in the
cheaper of the two forms: Phi_k where F_k < n (a quadratic form costs n F_k),
the dense S^(.)k elsewhere (n^2 / 2), except a dense top degree D, which
nothing reads and which is not built. Beside each feature degree k+1 it holds
the m x F_(k+1) lift L_k: for any u, the squared column norms of
Phi_k'(u * Z) are L_k (Phi_(k+1)' u)^2, so a position's weights are read off
one projection onto the next degree's features. `position_weights` computes
the weights of every draw position: for the degree masses at the first
position of a top-degree draw, and for the sampler at every later one. The
fast paths work on these columns; `product_kernel_matrix` and
`product_kernel_cross` build Grams as plain arrays straight from the inputs
and serve as the independent oracles. The tests and baselines take them
dense (n x n); the descent loop's Gram check takes one 1 x n row of
`product_kernel_cross`.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset, MultiIndex
from .lapack import dtrmm


class KernelError(ValueError):
    pass


class BaseKernelSet:
    """Immutable bundle of the base-kernel columns Z (n x m, one column z_j per
    base index, in `indices` order) and one exact form of each elementwise
    power S^(.)k, k = 1..D, of their Gram S = Z Z' = sum_j K_j.

    Where F_k = C(m+k-1, k) < n, `features[k]` holds Phi_k (n x F_k) with
    S^(.)k = Phi_k Phi_k'. Its column for the multiset c_1 <= ... <= c_k of
    base positions is sqrt(k! / prod cnt!) * prod_i Z[:, c_i], with cnt the
    multiplicities; Phi_1 is Z itself. F_k never falls as k grows, so the
    feature degrees are 1..K and the dense ones K+1..D. For the dense degrees
    below the top, K+1..D-1, `dense_powers[k]` holds the n x n array S^(.)k,
    C-ordered and exactly symmetric, so its transpose is the same matrix in
    Fortran order and BLAS reads it through its lower triangle alone. Where
    the top degree D is dense, S^(.)D is held in neither form: its mass is
    the sum of the first position's weights of a degree-D draw, which read
    degree D-1 alone. S^(.)0 is all ones and held in neither.

    For k = 1..K-1, `lifts[k]` holds L_k (m x F_(k+1)): entry (j, c') is how
    often base position j occurs in the multiset c', divided by k+1. Since
    (u * z_j)' Phi_k[:, c] = sqrt(cnt_(c+j)(j) / (k+1)) (Phi_(k+1)' u)_(c+j),
    the squared column norms of Phi_k'(u * Z) equal L_k v^2 with
    v = Phi_(k+1)' u. Each column of L_k sums to 1, so the weights sum to
    |v|^2. L_0 is the identity and is not stored.

    No n x n base Gram is stored. Shared read-only by the sampler, gradient,
    and optimizer code; never mutated after construction.
    """

    def __init__(self, inputs: np.ndarray, include_constant: bool, D: int):
        if D < 0:
            raise KernelError("D must be nonnegative")
        self.inputs = np.asarray(inputs, dtype=np.float64)
        self.n, r = self.inputs.shape
        self.D = D
        self.indices = ([0] if include_constant else []) + list(range(1, r + 1))
        if not self.indices:
            raise KernelError("need at least one base kernel")
        self._position = {j: pos for pos, j in enumerate(self.indices)}
        self.Z = self.product_columns([(j,) for j in self.indices])
        m = len(self.indices)
        # the form of every degree is fixed from F_k before anything is built
        num_feature = 0
        while num_feature < D and math.comb(m + num_feature, num_feature + 1) < self.n:
            num_feature += 1
        self.features, self.lifts = self._features(num_feature)
        self.dense_powers = self._dense_powers(num_feature + 1)

    def _features(self, K: int) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
        """Phi_1..Phi_K, each from the one below it, and the lifts L_1..L_{K-1}.
        Column c' = (c_1..c_k) of Phi_k is column (c_1..c_{k-1}) of Phi_{k-1}
        times Z[:, c_k] times sqrt(k / cnt), cnt being how often c_k occurs in
        c'. L_{k-1} (m x F_k) holds at (j, c') how often j occurs in c',
        divided by k, so each of its columns sums to 1."""
        if K == 0:
            return {}, {}
        m = self.Z.shape[1]
        features = {1: self.Z}
        lifts = {}
        # per column of the previous degree: its last position and the
        # multiplicity of every position in it
        last = np.arange(m)
        counts = np.eye(m, dtype=np.int64)
        for k in range(2, K + 1):
            children = m - last
            parent = np.repeat(np.arange(last.size), children)
            first_child = np.cumsum(children) - children
            column = np.arange(parent.size)
            child = column - first_child[parent] + last[parent]
            counts = counts[parent]
            counts[column, child] += 1
            last = child
            phi = features[k - 1][:, parent]
            phi *= self.Z[:, child]
            phi *= np.sqrt(k / counts[column, child])
            features[k] = phi
            lifts[k - 1] = counts.T / k
        return features, lifts

    def _dense_powers(self, first: int) -> dict[int, np.ndarray]:
        """S^(.)k for k = first..D-1. S is kept only as S^(.)1; otherwise the
        top power held is written into S's own buffer."""
        top = self.D - 1
        if first > top:
            return {}
        S = self.Z @ self.Z.T
        powers = {1: S} if first == 1 else {}
        power = S
        for k in range(2, top + 1):
            out = S if k == top and first > 1 else None
            power = np.multiply(power, S, out=out)
            if k >= first:
                powers[k] = power
        return powers

    @property
    def has_constant(self) -> bool:
        return 0 in self._position

    def product_columns(self, tuples: list[MultiIndex]) -> np.ndarray:
        """n x len(tuples) matrix whose i-th column z_i gives product kernel
        tuples[i] as z_i z_i'."""
        for idx in tuples:
            for j in idx:
                if j not in self._position:
                    raise KernelError(f"no base kernel with index {j}")
        return product_columns(self.inputs, tuples)


def monomial_key(idx: MultiIndex) -> MultiIndex:
    """The monomial a tuple's product kernel is: its sorted nonzero base
    indices. Permutations, and the constant kernel's index 0, leave the
    column z unchanged, so tuples with one key share one column."""
    return tuple(sorted(j for j in idx if j != 0))


def product_columns(inputs: np.ndarray, tuples: list[MultiIndex]) -> np.ndarray:
    """Columns z_i over the rows of `inputs`, one per tuple: the elementwise
    product of the selected columns of [1, inputs], where index 0 contributes
    the constant factor 1 and the empty tuple gives all ones."""
    inputs = np.asarray(inputs, dtype=np.float64)
    out = np.ones((inputs.shape[0], len(tuples)), order="F")
    for c, idx in enumerate(tuples):
        for j in idx:
            if j == 0:
                continue
            if not 1 <= j <= inputs.shape[1]:
                raise KernelError(f"base kernel index {j} out of range")
            out[:, c] *= inputs[:, j - 1]
    return out


def position_weights(ks: BaseKernelSet, u: np.ndarray, remaining: int) -> np.ndarray:
    """Unnormalized weight of every base index at a draw position whose running
    factor is u, with `remaining` < D positions after it:
    colsum(U * (S^(.)remaining U)) with U = u[:, None] * Z. Where the next
    degree is held as features, that is L_remaining v^2 with
    v = Phi_(remaining+1)' u. At the top feature degree K each weight is a
    squared column norm of Phi_K' U. A dense power P is read through its
    lower triangle only, as 2 colsum(U * (tril(P) U)) - diag(P)'(U * U).
    With the constant kernel, column 0 of U is u itself, so weight 0 is the
    quadratic form u' S^(.)remaining u."""
    phi = ks.Z if remaining == 0 else ks.features.get(remaining + 1)
    if phi is not None:
        v = phi.T @ u
        squares = v * v
        return squares if remaining == 0 else ks.lifts[remaining] @ squares
    U = np.multiply(u[:, None], ks.Z, order="F")
    phi = ks.features.get(remaining)
    if phi is not None:
        # S^(.)K = Phi Phi', so each weight is a squared column norm of Phi' U
        V = phi.T @ U
        return np.einsum("fj,fj->j", V, V)
    P = ks.dense_powers[remaining]
    PU = np.multiply(U, U)
    diagonal = np.diagonal(P) @ PU
    np.copyto(PU, U)
    # P is symmetric, so P.T is the same array in Fortran order and its
    # lower triangle is tril(P)
    PU = dtrmm(1.0, P.T, PU, lower=1, overwrite_b=1)
    return 2.0 * np.einsum("tj,tj->j", U, PU) - diagonal


def build_base_kernels(data: Dataset, include_constant: bool, D: int) -> BaseKernelSet:
    """Per-variable linear kernels K_j = x_j x_j', optionally plus an all-ones
    constant kernel, held as columns, with each Hadamard power of S = sum K_j
    up to degree D precomputed in its cheaper exact form, save a dense top
    degree, which is not built."""
    return BaseKernelSet(data.inputs, include_constant, D)


def product_kernel_matrix(ks: BaseKernelSet, idx: MultiIndex) -> np.ndarray:
    """Dense n x n Gram of product kernel idx, the elementwise product of its
    base Grams x_j x_j' built straight from the inputs, without the column
    code it serves as an oracle for; index 0 is the all-ones factor and the
    empty idx gives all ones. Raises KernelError on an index outside
    `ks.indices` or a non-finite entry."""
    out = np.ones((ks.n, ks.n))
    for j in idx:
        if j not in ks.indices:
            raise KernelError(f"no base kernel with index {j}")
        if j != 0:
            x = ks.inputs[:, j - 1]
            out *= np.outer(x, x)
    if not np.all(np.isfinite(out)):
        raise KernelError(f"non-finite entry in the Gram of {idx}")
    return out


def product_kernel_cross(
    train_inputs: np.ndarray, query_inputs: np.ndarray, idx: MultiIndex
) -> np.ndarray:
    """Cross Gram (n_query x n_train): entry (q, t) is the product kernel
    evaluated at (x_t, x_q). Index 0 contributes the constant factor 1."""
    train_inputs = np.asarray(train_inputs)
    query_inputs = np.asarray(query_inputs)
    if train_inputs.shape[1] != query_inputs.shape[1]:
        raise KernelError(
            f"column mismatch: train has {train_inputs.shape[1]}, query has {query_inputs.shape[1]}"
        )
    out = np.ones((query_inputs.shape[0], train_inputs.shape[0]))
    for j in idx:
        if j == 0:
            continue
        if not 1 <= j <= train_inputs.shape[1]:
            raise KernelError(f"base kernel index {j} out of range")
        out = out * np.outer(query_inputs[:, j - 1], train_inputs[:, j - 1])
    return out

