"""Tabular regression data: CSV loading, standardization, splitting, and a
synthetic sparse-monomial benchmark generator.

All functions are pure value-to-value transforms; random number generators are
passed explicitly, so everything here is safe to call from concurrent workers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

MultiIndex = tuple[int, ...]


class DatasetError(ValueError):
    """Raised for malformed input data (missing files, ragged rows, bad cells)."""


@dataclass(frozen=True)
class Dataset:
    """An (n x r) input matrix with a length-n target vector."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[0] < 1 or inputs.shape[1] < 1:
            raise DatasetError(f"inputs must be a nonempty 2-d matrix, got shape {inputs.shape}")
        if targets.shape != (inputs.shape[0],):
            raise DatasetError(
                f"targets must have length {inputs.shape[0]}, got shape {targets.shape}"
            )
        if not np.all(np.isfinite(inputs)) or not np.all(np.isfinite(targets)):
            raise DatasetError("non-finite entry in inputs or targets")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def r(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class StandardizerParams:
    """Per-column affine transform fitted by :func:`standardize`.

    Scales use the population convention (divide by n). Constant columns get
    mean = value, scale = 1, so they map to all zeros.
    """

    mean: np.ndarray
    scale: np.ndarray
    target_mean: float
    target_scale: float

    def __post_init__(self):
        if np.any(np.asarray(self.scale) <= 0) or self.target_scale <= 0:
            raise DatasetError("standardizer scales must be strictly positive")

    def apply(self, data: Dataset) -> Dataset:
        return Dataset(
            inputs=(data.inputs - self.mean) / self.scale,
            targets=(data.targets - self.target_mean) / self.target_scale,
        )


@dataclass(frozen=True)
class SyntheticSpec:
    """Configuration for the sparse-monomial regression benchmark."""

    r: int
    n_train: int
    n_test: int
    n_terms: int = 10
    max_degree: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.r < 1 or self.n_train < 1 or self.n_test < 1 or self.n_terms < 1:
            raise DatasetError("r, n_train, n_test, n_terms must all be positive")
        if self.max_degree < 0:
            raise DatasetError("max_degree must be nonnegative")
        available = count_monomials(self.r, self.max_degree)
        if self.n_terms > available:
            raise DatasetError(
                f"n_terms={self.n_terms} exceeds the {available} distinct monomials of "
                f"degree <= {self.max_degree} in {self.r} variables"
            )


def load_csv(path) -> Dataset:
    """Read a comma-separated numeric file without a header row; the last
    column is the target.

    Every row must have the same column count (>= 2). Cell errors are reported
    with 1-based row/column positions.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DatasetError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise DatasetError(f"{path}: no rows")
    width = len(rows[0])
    if width < 2:
        raise DatasetError(f"{path}: need at least 2 columns, got {width}")
    values = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DatasetError(f"{path}: row {i + 1} has {len(row)} columns, expected {width}")
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise DatasetError(
                    f"{path}: non-numeric cell {cell!r} at row {i + 1}, column {j + 1}"
                ) from None
    return Dataset(inputs=values[:, :-1], targets=values[:, -1])


def standardize(data: Dataset) -> tuple[Dataset, StandardizerParams]:
    """Center and rescale every input column and the target to zero mean, unit
    population standard deviation. Constant columns map to zero with scale 1."""
    if data.n < 2:
        raise DatasetError("standardize needs at least 2 rows")
    mean = data.inputs.mean(axis=0)
    scale = data.inputs.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    t_mean = float(data.targets.mean())
    t_scale = float(data.targets.std())
    if t_scale <= 0:
        t_scale = 1.0
    params = StandardizerParams(mean=mean, scale=scale, target_mean=t_mean, target_scale=t_scale)
    return params.apply(data), params


def split(
    data: Dataset, n_train: int, n_val: int, n_test: int, seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Randomly partition rows into disjoint train/validation/test subsets.

    Deterministic for a given seed. Callers fit standardization on the train
    part only.
    """
    if min(n_train, n_val, n_test) < 0:
        raise DatasetError("split sizes must be nonnegative")
    total = n_train + n_val + n_test
    if total > data.n:
        raise DatasetError(f"split sizes sum to {total} but only {data.n} rows available")
    perm = np.random.default_rng(seed).permutation(data.n)
    parts = []
    offset = 0
    for size in (n_train, n_val, n_test):
        idx = perm[offset : offset + size]
        offset += size
        if size == 0:
            parts.append(None)
        else:
            parts.append(Dataset(inputs=data.inputs[idx], targets=data.targets[idx]))
    return tuple(parts)


def count_monomials(r: int, max_degree: int) -> int:
    """Number of distinct monomials the generator can draw (degree 1..max_degree
    multisets of r variables, or just the constant monomial when max_degree=0).
    The multisets of degree 0..max_degree number C(r + max_degree, max_degree),
    so the count is that less the empty one, in O(min(r, max_degree))."""
    if max_degree == 0:
        return 1
    return math.comb(r + max_degree, max_degree) - 1


def gen_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset, list[MultiIndex]]:
    """Draw inputs uniform on [-1, 1]^r and a target that is an equal-weight sum
    of ``n_terms`` distinct random monomials of degree <= max_degree.

    Returns (train, test, truth) where truth lists the chosen monomials as
    sorted 1-based variable tuples. The target is noise-free and unnormalized;
    it is exactly reproducible from truth and the raw inputs.
    """
    rng = np.random.default_rng(spec.seed)
    n_total = spec.n_train + spec.n_test
    inputs = rng.uniform(-1.0, 1.0, size=(n_total, spec.r))

    terms: list[MultiIndex] = []
    seen: set[MultiIndex] = set()
    while len(terms) < spec.n_terms:
        if spec.max_degree == 0:
            term: MultiIndex = ()
        else:
            degree = int(rng.integers(1, spec.max_degree + 1))
            term = tuple(sorted(int(v) for v in rng.integers(1, spec.r + 1, size=degree)))
        if term in seen:
            continue
        seen.add(term)
        terms.append(term)

    targets = synthetic_target(inputs, terms)
    train = Dataset(inputs=inputs[: spec.n_train], targets=targets[: spec.n_train])
    test = Dataset(inputs=inputs[spec.n_train :], targets=targets[spec.n_train :])
    return train, test, terms


def synthetic_target(inputs: np.ndarray, truth: list[MultiIndex]) -> np.ndarray:
    """The noise-free target for raw inputs from a truth term list: the sum of
    its monomials, each the product of its 1-based variables' columns."""
    inputs = np.asarray(inputs)
    targets = np.zeros(inputs.shape[0])
    for term in truth:
        values = np.ones(inputs.shape[0])
        for var in term:
            values = values * inputs[:, var - 1]
        targets += values
    return targets
