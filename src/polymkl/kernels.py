"""Rank-one base kernels, the elementwise (Hadamard) powers of their sum, and
product-kernel Gram assembly.

A product kernel is identified by a MultiIndex: an ordered tuple of base-kernel
indices. Index 0 is the constant kernel (all-ones Gram) when enabled; indices
1..r are the per-variable linear kernels k_j(x, x') = x_j * x'_j. The empty
tuple is the degree-0 kernel, identically 1.

Every base kernel is rank one, K_j = z_j z_j' with z_0 = 1 and z_j = x_j, so
every product kernel is z z' with z the elementwise product of its columns.
The fast paths work on these columns; `product_kernel_matrix`,
`product_kernel_cross` and `BaseKernelSet.kernel` build the dense n x n Grams
and serve as the independent oracles.
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
    """A symmetric n x n kernel matrix tagged with where it came from."""

    values: np.ndarray
    provenance: MultiIndex | str = "combined"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise KernelError(f"Gram matrix must be square, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise KernelError("non-finite entry in Gram matrix")
        object.__setattr__(self, "values", values)


class BaseKernelSet:
    """Immutable bundle of the base-kernel columns Z (n x m, one column z_j per
    base index, in `indices` order), their Gram S = Z Z' = sum_j K_j, and the
    cached elementwise powers S^(.)0..D.

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
        self.S = self.Z @ self.Z.T
        # powers[d] = S^(.)d elementwise; powers[0] is all ones and powers[1]
        # is S itself. O(D n^2) total.
        powers = [np.ones((self.n, self.n)), self.S]
        for _ in range(2, D + 1):
            powers.append(powers[-1] * self.S)
        self.powers = powers[: D + 1]

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

    def weighted_gram(self, tuples: list[MultiIndex], weights) -> np.ndarray:
        """sum_i weights[i] z_i z_i' as the single product B B' with
        B = Z_s diag(weights)^(1/2), exactly symmetric; weights must be
        nonnegative."""
        weights = np.asarray(weights, dtype=np.float64)
        if np.any(weights < 0):
            raise KernelError("combination weights must be nonnegative")
        B = self.product_columns(tuples)
        B *= np.sqrt(weights)
        return B @ B.T


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
    constant kernel, held as columns, with S = sum K_j and its Hadamard powers
    precomputed."""
    return BaseKernelSet(data.inputs, include_constant, D)


def hadamard_power(mat: GramMatrix, d: int) -> GramMatrix:
    """Elementwise d-th power; d = 0 gives the all-ones matrix.

    Computed by repeated multiplication so it agrees bit for bit with a cached
    chain of elementwise products.
    """
    if d < 0:
        raise KernelError("Hadamard power must be nonnegative")
    out = np.ones_like(mat.values)
    for _ in range(d):
        out = out * mat.values
    return GramMatrix(out, provenance=mat.provenance if d == 1 else "combined")


def product_kernel_matrix(ks: BaseKernelSet, idx: MultiIndex) -> GramMatrix:
    """Elementwise product of the selected base Grams; empty idx is all-ones."""
    out = np.ones((ks.n, ks.n))
    for j in idx:
        out *= ks.kernel(j)
    return GramMatrix(out, provenance=tuple(idx))


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
