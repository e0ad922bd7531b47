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
the dense S^(.)k elsewhere (n^2). The fast paths work on these columns;
`product_kernel_matrix`, `product_kernel_cross` and `BaseKernelSet.kernel`
build Grams straight from the inputs and serve as the independent oracles.
The tests and baselines take them dense (n x n); the descent loop's Gram
check takes one 1 x n row of `product_kernel_cross`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, MultiIndex


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class GramMatrix:
    """A square n x n kernel matrix, checked finite on construction."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise KernelError(f"Gram matrix must be square, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise KernelError("non-finite entry in Gram matrix")
        object.__setattr__(self, "values", values)


class BaseKernelSet:
    """Immutable bundle of the base-kernel columns Z (n x m, one column z_j per
    base index, in `indices` order) and one exact form of each elementwise
    power S^(.)k, k = 1..D, of their Gram S = Z Z' = sum_j K_j.

    Where F_k = C(m+k-1, k) < n, `features[k]` holds Phi_k (n x F_k) with
    S^(.)k = Phi_k Phi_k'. Its column for the multiset c_1 <= ... <= c_k of
    base positions is sqrt(k! / prod cnt!) * prod_i Z[:, c_i], with cnt the
    multiplicities; Phi_1 is Z itself. Elsewhere `dense_powers[k]` holds the
    n x n array S^(.)k. F_k never falls as k grows, so the feature degrees
    are 1..K and the dense ones K+1..D. S^(.)0 is all ones and held in
    neither.

    No n x n base Gram is stored; `kernel(j)` builds one on demand. Shared
    read-only by the sampler, gradient, and optimizer code; never mutated
    after construction.
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
        self.features = self._features(num_feature)
        self.dense_powers = self._dense_powers(num_feature + 1)

    def _features(self, K: int) -> dict[int, np.ndarray]:
        """Phi_1..Phi_K, each from the one below it. Column (c_1..c_k) of Phi_k
        is column (c_1..c_{k-1}) of Phi_{k-1} times Z[:, c_k] times
        sqrt(k / cnt), cnt being how often c_k occurs, that is the length of
        the run of c_k that ends the multiset."""
        if K == 0:
            return {}
        m = self.Z.shape[1]
        features = {1: self.Z}
        # per column of the previous degree: its last position and run length
        last = np.arange(m)
        run = np.ones(m, dtype=np.int64)
        for k in range(2, K + 1):
            children = m - last
            parent = np.repeat(np.arange(last.size), children)
            first_child = np.cumsum(children) - children
            child = np.arange(parent.size) - first_child[parent] + last[parent]
            run = np.where(child == last[parent], run[parent] + 1, 1)
            last = child
            phi = features[k - 1][:, parent]
            phi *= self.Z[:, child]
            phi *= np.sqrt(k / run)
            features[k] = phi
        return features

    def _dense_powers(self, first: int) -> dict[int, np.ndarray]:
        """S^(.)k for k = first..D. S is kept only as S^(.)1; otherwise the top
        power is written into S's own buffer."""
        if first > self.D:
            return {}
        S = self.Z @ self.Z.T
        powers = {1: S} if first == 1 else {}
        power = S
        for k in range(2, self.D + 1):
            out = S if k == self.D and first > 1 else None
            power = np.multiply(power, S, out=out)
            if k >= first:
                powers[k] = power
        return powers

    @property
    def num_kernels(self) -> int:
        return len(self.indices)

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

    def kernel(self, j: int) -> np.ndarray:
        """Dense n x n Gram of base kernel j, built on demand straight from the
        inputs, without the column code it serves as an oracle for."""
        if j not in self._position:
            raise KernelError(f"no base kernel with index {j}")
        if j == 0:
            return np.ones((self.n, self.n))
        x = self.inputs[:, j - 1]
        return np.outer(x, x)


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


def build_base_kernels(data: Dataset, include_constant: bool, D: int) -> BaseKernelSet:
    """Per-variable linear kernels K_j = x_j x_j', optionally plus an all-ones
    constant kernel, held as columns, with each Hadamard power of S = sum K_j
    up to degree D precomputed in its cheaper exact form."""
    return BaseKernelSet(data.inputs, include_constant, D)


def product_kernel_matrix(ks: BaseKernelSet, idx: MultiIndex) -> GramMatrix:
    """Elementwise product of the selected base Grams; empty idx is all-ones."""
    out = np.ones((ks.n, ks.n))
    for j in idx:
        out *= ks.kernel(j)
    return GramMatrix(out)


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


def count_index_set(r: int, D: int) -> tuple[int, int]:
    """(ordered tuple count sum_{d<=D} r^d, distinct multiset count C(r+D, D))."""
    if r < 1 or D < 0:
        raise KernelError("need r >= 1 and D >= 0")
    ordered = sum(r**d for d in range(D + 1))
    distinct = math.comb(r + D, D)
    return ordered, distinct
