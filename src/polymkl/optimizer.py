"""Projected stochastic descent over the nonnegative part of the l2 unit ball,
with a sparse weight representation, the combined Gram kept in the span of
its support, and lazy iterate averaging. One loop serves the proportional
sampler and uniform coordinate descent; only the draw differs
(`proportional_draws` here, `baselines.uniform_draws`).

The combined Gram is scale * C diag(w) C', held by a `SupportCache`: one
column of C per distinct monomial of the support (permutations of a tuple,
and tuples that differ only by the constant kernel, share one), their Gram
G = C'C, and per-monomial weights w. A step raises one weight in O(1); a
monomial's first step adds its column and a row of G in O(n s); a rebase
re-sums the weights. The inner solve works on these through Woodbury's
identity. The two final solves, at the averaged and at the last iterate,
take the same form, assembled afresh from theta by `assemble_combined_gram`.
So the loop allocates no n x n array. The checkpoint checks the cache
against itself and against theta: a probe through columns built afresh, and
the last updated column against its kernel's diagonal and one row, computed
from the inputs in O(n k).

The iterate theta lives on exponentially many coordinates but only touched
ones are stored: theta_i = scale * raw_i. Every gradient component is <= 0,
as each K_i is PSD, so a step only raises one coordinate and the projection
is a single multiplication of `scale`. Between touches of a coordinate its
value changes only through `scale`, which is what makes exact O(1)
averaging bookkeeping possible (prefix sums of the per-iteration scales).
"""

from __future__ import annotations

import math
import time
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, MultiIndex
from .dual import DualState, SupportGram, assemble_combined_gram, monomial_weights
from .dual import solve_alpha, support_columns
from .gradient import (
    DegreeMasses,
    GradSample,
    RhoSchedule,
    degree_masses,
    importance_estimate,
    total_mass_C,
)
# product_kernel_matrix is unused here, but the benchmark's tracer
# (bench/measure.py) wraps this module attribute by name, so it stays imported
from .kernels import (  # noqa: F401
    BaseKernelSet,
    KernelError,
    monomial_key,
    product_kernel_cross,
    product_kernel_matrix,
)
from .sampler import SamplerWorkspace

# rescale only when the squared norm exceeds this, so that re-projecting an
# already-projected vector is an exact no-op while staying inside the 1e-12
# feasibility budget
_PROJECT_SLACK = 1e-13

# fold the scale into the raws, flush the averaging accumulators, and restart
# the prefix sum whenever the scale drops below this; the scale decays
# geometrically under repeated projections, and letting it run away destroys
# the prefix-sum differences (raw grows like 1/scale while the per-iterate
# prefix increments shrink like scale)
_REBASE_THRESHOLD = 1e-2

# refresh the incrementally tracked sum of squared raws this often
_NORM_REFRESH = 256

# the spacing of the subnormals: below the normal range a rounding errs by up
# to half of it, however small its result
_SUBNORMAL = math.ulp(0.0)

# the relative tolerance of every comparison in `check_combined_gram`
_GRAM_CHECK_RTOL = 1e-9

# flag (warn, never fail) a run whose gradient mass exceeds this multiple of
# its starting value
MASS_BUDGET_FACTOR = 10.0


class SparseTheta:
    """Nonnegative sparse weights with a global scale: theta_i = scale * raw_i.

    Raw entries are strictly positive and finite; a fold evicts those that
    underflow. Mutating methods keep the cached sum of squared raws
    consistent (with periodic exact refresh).
    """

    __slots__ = ("scale", "raw", "raw_sq_sum", "_touches")

    def __init__(self, scale: float = 1.0, raw: dict[MultiIndex, float] | None = None):
        self.scale = float(scale)
        self.raw = dict(raw) if raw else {}
        # written so that a NaN fails it too
        if not all(0.0 < v < math.inf for v in self.raw.values()):
            raise ValueError("raw weights must be strictly positive and finite")
        self.raw_sq_sum = math.fsum(v * v for v in self.raw.values())
        self._touches = 0

    @classmethod
    def from_dict(cls, values: dict[MultiIndex, float]) -> "SparseTheta":
        return cls(1.0, {idx: v for idx, v in values.items() if v != 0.0})

    def value(self, idx: MultiIndex) -> float:
        return self.scale * self.raw.get(idx, 0.0)

    def items(self):
        for idx, raw in self.raw.items():
            yield idx, self.scale * raw

    def as_dict(self) -> dict[MultiIndex, float]:
        return dict(self.items())

    @property
    def support_size(self) -> int:
        return len(self.raw)

    @property
    def norm_sq(self) -> float:
        return self.scale * self.scale * self.raw_sq_sum

    def norm(self) -> float:
        return math.sqrt(max(self.norm_sq, 0.0))

    def copy(self) -> "SparseTheta":
        return SparseTheta(self.scale, self.raw)

    def _refresh_norm(self):
        self.raw_sq_sum = math.fsum(v * v for v in self.raw.values())

    def set_raw(self, idx: MultiIndex, new_raw: float):
        """Overwrite one raw entry, keeping the cached squared sum in step. A
        raw is never lowered to 0 or below, so that raises ValueError."""
        if not math.isfinite(new_raw):
            raise ValueError(f"non-finite raw weight for {idx}")
        if new_raw <= 0.0:
            raise ValueError(f"nonpositive raw weight {new_raw} for {idx}")
        old = self.raw.get(idx, 0.0)
        self.raw[idx] = new_raw
        self.raw_sq_sum += new_raw * new_raw - old * old
        self._touches += 1
        if self._touches % _NORM_REFRESH == 0:
            self._refresh_norm()

    def fold_scale(self):
        """Push the global scale into the raw entries, evicting those whose
        product underflows to zero."""
        folded = ((idx, self.scale * v) for idx, v in self.raw.items())
        self.raw = {idx: v for idx, v in folded if v > 0.0}
        self.scale = 1.0
        self._refresh_norm()


def project_pos_l2ball(theta: SparseTheta) -> SparseTheta:
    """Euclidean projection onto {theta >= 0, ||theta||_2 <= 1}, in place. A
    SparseTheta holds no negative entry, so this is the rescale by 1/norm
    when the norm exceeds one. Idempotent. A raw above about 1.3e154 squares
    to infinity, so a squared norm that is not finite is taken again as the
    norm of the raws scaled by the largest (`math.hypot`)."""
    nsq = theta.norm_sq
    if nsq > 1.0 + _PROJECT_SLACK:
        if nsq < math.inf:
            theta.scale /= math.sqrt(nsq)
        else:
            norm = math.hypot(*theta.raw.values())
            if norm == math.inf:
                raise FloatingPointError("norm of the raw weights overflows")
            theta.scale = 1.0 / norm
    return theta


def default_step_size(B_estimate: float, T: int) -> float:
    """Constant step 1 / sqrt(B T) for a unit-strongly-convex potential on the
    unit ball started at zero; B defaults to the squared gradient mass at the
    start."""
    if B_estimate <= 0 or T < 1:
        raise ValueError("need B_estimate > 0 and T >= 1")
    return 1.0 / math.sqrt(B_estimate * T)


@dataclass
class RunRecord:
    iter: int
    wall_time_s: float
    J_value: float
    C_value: float
    support_size: int
    theta_norm: float


@dataclass
class RunResult:
    theta_avg: SparseTheta
    final: DualState
    records: list[RunRecord]
    # the constant step of the descent loop, or "line-search" for the
    # full-gradient solver
    step_size: float | str
    theta_last: SparseTheta
    dual_last: DualState
    converged: bool = False
    mass_exceeded_budget: bool = False


class SupportCache:
    """The combined Gram of theta's support in raw units, C diag(w) C': one
    column of C per distinct monomial, in the slot its `monomial_key` maps
    to, their Gram G = C'C, and weights w_k = sum of raw_i / rho_|i|^2 over
    the tuples i of theta with key k. Three events change it: a monomial's
    first column with its row of G, in O(n s); a raised weight, in O(1); and
    the re-sum of the weights after a fold. No column is dropped: a monomial
    with no tuple left keeps its column at weight 0."""

    def __init__(self, ks: BaseKernelSet):
        self.ks = ks
        # n x capacity columns, in Fortran order so a column is contiguous
        self._slot_of_key: dict[MultiIndex, int] = {}
        self._C = np.empty((ks.n, 0), order="F")
        self._G = np.empty((0, 0))
        self._w = np.empty(0)

    @property
    def num_columns(self) -> int:
        return len(self._slot_of_key)

    @property
    def monomials(self) -> list[MultiIndex]:
        """The cached monomial keys, in column order."""
        return list(self._slot_of_key)

    def gram(self, scale: float) -> SupportGram:
        """The combined Gram at `scale`, in support form. The slots it covers
        are never rewritten and the weights are a copy, so it stays valid."""
        s = self.num_columns
        return SupportGram(self._C[:, :s], self._G[:s, :s], scale * self._w[:s])

    def column(self, idx: MultiIndex) -> np.ndarray:
        """The cached column of the monomial of tuple idx."""
        return self._C[:, self._slot_of_key[monomial_key(idx)]]

    def raise_weight(self, idx: MultiIndex, delta: float):
        """Add delta to the weight of the monomial of tuple idx."""
        # the slot first: a new column may replace the arrays
        slot = self._slot(monomial_key(idx))
        self._w[slot] += delta

    def resum(self, raw: dict[MultiIndex, float], rho: RhoSchedule):
        """Set every weight to its re-sum over `raw` (`monomial_weights`), 0
        for a monomial with no tuple left."""
        keys, weights = monomial_weights(raw, rho)
        slots = [self._slot(key) for key in keys]
        self._w[: self.num_columns] = 0.0
        self._w[slots] = weights

    def _slot(self, key: MultiIndex) -> int:
        slot = self._slot_of_key.get(key)
        return self._add_column(key) if slot is None else slot

    def _add_column(self, key: MultiIndex) -> int:
        z = self.ks.product_columns([key])[:, 0]
        if not np.all(np.isfinite(z)):
            raise FloatingPointError(f"non-finite column for monomial {key}")
        s = self.num_columns
        if s == self._C.shape[1]:
            self._grow(max(16, 2 * s))
        self._C[:, s] = z
        row = self._C[:, : s + 1].T @ z
        if not np.all(np.isfinite(row)):
            raise FloatingPointError(f"non-finite Gram row for monomial {key}")
        self._G[s, : s + 1] = row
        self._G[: s + 1, s] = row
        self._w[s] = 0.0
        self._slot_of_key[key] = s
        return s

    def _grow(self, capacity: int):
        """Copy the cache into fresh arrays of room `capacity`. Support forms
        handed out earlier keep the old arrays."""
        s = self.num_columns
        # copied through an index list, with temporaries, on purpose: with
        # plain slice copies the benchmark's `wide` workload read setup_s
        # 24% higher (3.90 against 3.14 ms, medians of 7 and 4 runs of 30 s
        # on a 2-vCPU VM), from the allocator state this leaves for the
        # next fit's kernel build, not from more work
        keep = list(range(s))
        C = np.empty((self.ks.n, capacity), order="F")
        C[:, :s] = self._C[:, keep]
        G = np.empty((capacity, capacity))
        G[:s, :s] = self._G[np.ix_(keep, keep)]
        w = np.empty(capacity)
        w[:s] = self._w[keep]
        self._C, self._G, self._w = C, G, w

    def check(self, raw: dict[MultiIndex, float], rho: RhoSchedule, steps: int):
        """Raise FloatingPointError if the weights have drifted from their
        re-sum over `raw`, or G from a fresh C'C. The weight drift may reach
        _GRAM_CHECK_RTOL times the largest weight, plus one smallest subnormal
        per rounding behind it (per one of the `steps` taken, and per re-summed
        term): below the normal range a rounding costs an absolute half ulp,
        which no relative bound covers."""
        keys, weights = monomial_weights(raw, rho)
        s = self.num_columns
        resummed = np.zeros(s)
        resummed[[self._slot_of_key[key] for key in keys]] = weights
        denom = float(np.max(np.abs(resummed), initial=0.0))
        drift = float(np.max(np.abs(self._w[:s] - resummed), initial=0.0))
        roundings = steps + max(Counter(map(monomial_key, raw)).values(), default=0)
        # written so that a NaN fails it too
        if not drift <= _GRAM_CHECK_RTOL * denom + roundings * _SUBNORMAL:
            raise FloatingPointError(f"cached support weights drifted: {drift:.3e} of {denom:.3e}")
        C = self._C[:, :s]
        fresh = C.T @ C
        error = np.linalg.norm(self._G[:s, :s] - fresh)
        if not error <= _GRAM_CHECK_RTOL * np.linalg.norm(fresh):
            raise FloatingPointError(f"cached column Gram disagrees with C'C: {error:.3e}")


class OptimizerState:
    """Single-owner mutable state for one descent run: the iterate theta, its
    `SupportCache`, and the lazy average (per-coordinate accumulators against
    a prefix sum of scales). A step raises one weight of the cache; a rebase
    folds theta's scale into its raws and has the cache re-sum them.
    `last_index` is the tuple of the latest nonzero update, None before one."""

    def __init__(self, ks: BaseKernelSet, rho: RhoSchedule):
        self.ks = ks
        self.rho = rho
        self.theta = SparseTheta()
        self.iter = 0
        self.last_index: MultiIndex | None = None
        self.records: list[RunRecord] = []
        self.cache = SupportCache(ks)
        # the Gram check's fixed probe, made at its first call
        self._probe: np.ndarray | None = None
        # averaging: prefix sum of scales of iterates counted so far, the
        # number counted, and per-coordinate (accumulator, prefix-sum mark)
        self._ps = 0.0
        self._avg_count = 0
        self._avg_acc: dict[MultiIndex, float] = {}
        self._avg_mark: dict[MultiIndex, float] = {}

    def support_gram(self) -> SupportGram:
        """The current combined Gram in support form (`SupportCache.gram`)."""
        return self.cache.gram(self.theta.scale)

    def combined_gram(self) -> np.ndarray:
        """The current combined Gram, built dense from the cache into a fresh
        array (n x n; for oracles and tests)."""
        return self.support_gram().dense()

    def rebuild_combined_gram(self) -> SupportGram:
        """The combined Gram in support form, assembled afresh from theta's
        tuples, independently of the cache's slots, columns and weights."""
        return assemble_combined_gram(self.theta, self.ks, self.rho)

    def _flush_average(self, idx: MultiIndex):
        # mark defaults to 0: a never-flushed raw entry has held its value
        # since the start of the current prefix-sum epoch
        mark = self._avg_mark.get(idx, 0.0)
        self._avg_acc[idx] = self._avg_acc.get(idx, 0.0) + self.theta.raw.get(idx, 0.0) * (
            self._ps - mark
        )
        self._avg_mark[idx] = self._ps

    def _rebase(self):
        """Flush every coordinate of theta, fold the scale into the raws, have
        the cache re-sum its weights from them, and restart the prefix sum."""
        for idx in self.theta.raw:
            self._flush_average(idx)
        self.theta.fold_scale()
        self.cache.resum(self.theta.raw, self.rho)
        self._ps = 0.0
        self._avg_mark = {idx: 0.0 for idx in self.theta.raw}

    def step(self, sample: GradSample, eta: float) -> "OptimizerState":
        """One full update: count the entering iterate toward the average, add
        -eta * sample.value >= 0 to the sampled coordinate (and to its
        monomial's weight), and rescale back into the unit ball. A gradient
        component is never positive, so a positive sample raises ValueError,
        as does a step size that is not positive and finite."""
        # written so that a NaN fails them too
        if not 0.0 < eta < math.inf:
            raise ValueError(f"step size must be positive and finite, got {eta}")
        if not math.isfinite(sample.value):
            raise FloatingPointError("non-finite gradient sample")
        if sample.value > 0.0:
            raise ValueError(f"positive gradient sample {sample.value} on {sample.index}")
        self._ps += self.theta.scale
        self._avg_count += 1
        self.iter += 1
        idx = sample.index
        delta_theta = -eta * sample.value
        if delta_theta != 0.0:
            old_raw = self.theta.raw.get(idx, 0.0)
            # the cache's keys drop index 0, so an entering tuple is checked here
            if not old_raw and 0 in idx and not self.ks.has_constant:
                raise KernelError("no base kernel with index 0")
            new_raw = old_raw + delta_theta / self.theta.scale
            self.cache.raise_weight(idx, (new_raw - old_raw) / self.rho.rho_sq[len(idx)])
            self._flush_average(idx)
            self.theta.set_raw(idx, new_raw)
            self.last_index = idx
            project_pos_l2ball(self.theta)
            if self.theta.scale < _REBASE_THRESHOLD:
                self._rebase()
        return self

    def check_combined_gram(self):
        """Raise FloatingPointError if the cache fails `SupportCache.check`,
        if the cached Gram times a fixed probe vector differs from the same
        product over `support_columns` of theta, or if the cached column of
        `last_index` disagrees with entries of its product kernel
        (`_check_column`). The cache's own check shares its key map and
        columns; the probe shares neither, so it catches a key in the wrong
        slot or a wrong column; the kernel entries come straight from the
        inputs. Each bound is _GRAM_CHECK_RTOL times what it compares."""
        self.cache.check(self.theta.raw, self.rho, self.iter)
        # a fixed probe, made once per state, so the check draws nothing from
        # the run's generator
        if self._probe is None:
            self._probe = np.random.default_rng(0).standard_normal(self.ks.n)
        probe = self._probe
        K = self.support_gram()
        cached = K.columns @ (K.weights * (K.columns.T @ probe))
        columns, weights = support_columns(self.theta, self.ks, self.rho)
        along = columns.T @ probe
        expected = columns @ (weights * along)
        # the size of the sum before any cancellation between its terms
        size = np.linalg.norm(np.abs(columns) @ (weights * np.abs(along)))
        error = np.linalg.norm(cached - expected)
        if not error <= _GRAM_CHECK_RTOL * size:
            raise FloatingPointError(
                f"cached Gram disagrees with the support tuples' own columns: "
                f"{error:.3e} of {size:.3e}"
            )
        if self.last_index is not None:
            self._check_column(self.last_index, self.cache.column(self.last_index))

    def _check_column(self, idx: MultiIndex, z: np.ndarray):
        """Compare z z' with entries of the product kernel K of idx, taken
        straight from the inputs: its diagonal d and its row p = argmax d.
        For the rank-one K = w w' this is z z' = K: the diagonal fixes
        |z| = |w|, and row p fixes one common sign. O(n k), with no n x n
        array."""
        inputs = self.ks.inputs
        diagonal = np.ones(self.ks.n)
        for j in idx:
            if j != 0:
                diagonal *= inputs[:, j - 1] * inputs[:, j - 1]
        p = int(np.argmax(diagonal))
        bound = _GRAM_CHECK_RTOL * diagonal[p]
        if diagonal[p] == 0.0:
            if np.any(z):
                raise FloatingPointError(f"column of {idx} is nonzero where its kernel is zero")
            return
        # written so that a NaN fails them too
        error = float(np.max(np.abs(z * z - diagonal)))
        if not error <= bound:
            raise FloatingPointError(
                f"column of {idx} disagrees with its kernel's diagonal: "
                f"{error:.3e} of {diagonal[p]:.3e}"
            )
        row = product_kernel_cross(inputs, inputs[p : p + 1], idx)[0]
        error = float(np.max(np.abs(z[p] * z - row)))
        if not error <= bound:
            raise FloatingPointError(
                f"column of {idx} disagrees with its kernel's row {p}: "
                f"{error:.3e} of {diagonal[p]:.3e}"
            )

    def average_theta(self) -> SparseTheta:
        """The average of the iterates counted so far, reconstructed exactly from
        the prefix sums; does not disturb the running bookkeeping."""
        if self._avg_count < 1:
            raise ValueError("no iterates have been counted yet")
        out: dict[MultiIndex, float] = {}
        for idx in set(self._avg_acc) | set(self.theta.raw):
            acc = self._avg_acc.get(idx, 0.0)
            mark = self._avg_mark.get(idx, 0.0)
            acc += self.theta.raw.get(idx, 0.0) * (self._ps - mark)
            if acc != 0.0:
                out[idx] = acc / self._avg_count
        return SparseTheta.from_dict(out)

    def mark_tail_iterates(self, count: int):
        """Count `count` further iterates equal to the current one (used when a
        run stops early with a zero gradient)."""
        if count > 0:
            self._ps += count * self.theta.scale
            self._avg_count += count


def proportional_draws(ks: BaseKernelSet, rho: RhoSchedule, seed: int):
    """The draw of the proportional sampler: one tuple with probability
    |g_i| / C through a `SamplerWorkspace` on the generator [seed, 1],
    carrying the importance estimate -C."""
    workspace = SamplerWorkspace(ks, rho, np.random.default_rng([int(seed), 1]))

    def draw(alpha: np.ndarray, masses: DegreeMasses) -> GradSample:
        return importance_estimate(workspace.draw(alpha, masses), masses)

    return draw


def run(
    config, data: Dataset, ks: BaseKernelSet, rho: RhoSchedule, draws=proportional_draws
) -> RunResult:
    """Full descent loop: per iteration, an inner solve at the current iterate,
    the degree masses, one draw, and a projected single-coordinate update.
    Returns the averaged iterate, the inner solve at it, and per-iteration
    records. Deterministic given config.seed. Every solve, in the loop and
    after it, is in support form.

    `config` is a `RunConfig`; the loop reads its fields T, step (None for
    the default 1 / sqrt(C0^2 T)), seed and checkpoint_every (>= 1). `draws(ks, rho, seed)` is called once, before the
    loop, and returns `draw(alpha, masses) -> GradSample`, the estimate
    applied at that iteration; it owns its generator. The default is
    `proportional_draws`; `baselines.uniform_draws` gives uniform coordinate
    descent.
    """
    T = int(config.T)
    if T < 1:
        raise ValueError("T must be >= 1")
    draw = draws(ks, rho, config.seed)
    state = OptimizerState(ks, rho)
    y = data.targets

    started = time.perf_counter()
    converged = False
    mass_exceeded = False
    try:
        for k in range(1, T + 1):
            dual = solve_alpha(state.support_gram(), y)
            masses = degree_masses(dual.alpha, ks, rho)
            C = total_mass_C(masses)
            if k == 1:
                C0 = C
                if config.step is not None:
                    step_size = float(config.step)
                else:
                    step_size = default_step_size(C0 * C0, T) if C0 > 0 else 1.0
            if C > MASS_BUDGET_FACTOR * max(C0, 1e-300) and not mass_exceeded:
                mass_exceeded = True
                warnings.warn(
                    f"gradient mass {C:.3e} exceeded {MASS_BUDGET_FACTOR:.1f}x its "
                    f"starting value {C0:.3e}; step size may be too optimistic",
                    RuntimeWarning,
                    stacklevel=2,
                )
            state.records.append(
                RunRecord(
                    iter=k,
                    wall_time_s=time.perf_counter() - started,
                    J_value=dual.J_value,
                    C_value=C,
                    support_size=state.theta.support_size,
                    theta_norm=state.theta.norm(),
                )
            )
            if C <= 0:
                # zero gradient: every later iterate equals this one
                state.mark_tail_iterates(T - k + 1)
                converged = True
                break
            state.step(draw(dual.alpha, masses), step_size)
            if k % config.checkpoint_every == 0:
                state.check_combined_gram()
    except Exception as exc:
        exc.partial_records = state.records  # let the harness flush what exists
        raise

    theta_avg = state.average_theta()
    final = solve_alpha(assemble_combined_gram(theta_avg, ks, rho), y)
    theta_last = state.theta.copy()
    dual_last = solve_alpha(state.rebuild_combined_gram(), y)
    return RunResult(
        theta_avg=theta_avg,
        final=final,
        records=state.records,
        step_size=step_size,
        converged=converged,
        mass_exceeded_budget=mass_exceeded,
        theta_last=theta_last,
        dual_last=dual_last,
    )
