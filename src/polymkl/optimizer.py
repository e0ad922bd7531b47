"""Projected stochastic descent over the nonnegative part of the l2 unit ball,
with a sparse weight representation, the combined Gram kept in the span of
its support, and lazy iterate averaging. One loop serves the proportional
sampler and uniform coordinate descent; only the draw differs
(`proportional_draws` here, `baselines.uniform_draws`).

The combined Gram is scale * C diag(w) C', with one cached column of C per
distinct monomial of the support (permutations of a tuple, and tuples that
differ only by the constant kernel, share one), their Gram G = C'C, and
per-monomial weights w. A step adds to one weight in O(1); a monomial's
first step adds its column and a row of G in O(n s). The inner solve works
on these through Woodbury's identity. The two final solves, at the averaged
and at the last iterate, take the same form, assembled afresh from theta by
`assemble_combined_gram`. So the loop allocates no n x n array: the
checkpoint checks the last updated column against its kernel's diagonal and
one row, computed from the inputs in O(n k).

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
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, MultiIndex
from .dual import DualState, SupportGram, assemble_combined_gram, solve_alpha
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
    GramMatrix,
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


class SparseTheta:
    """Nonnegative sparse weights with a global scale: theta_i = scale * raw_i.

    Raw entries are strictly positive and finite; zeros are evicted. Mutating
    methods keep the cached sum of squared raws consistent (with periodic
    exact refresh).
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
        """Overwrite one raw entry (evicting nonpositive values), keeping the
        cached squared sum in step."""
        if not math.isfinite(new_raw):
            raise ValueError(f"non-finite raw weight for {idx}")
        old = self.raw.get(idx, 0.0)
        if new_raw <= 0.0:
            self.raw.pop(idx, None)
            new_raw = 0.0
        else:
            self.raw[idx] = new_raw
        self.raw_sq_sum += new_raw * new_raw - old * old
        self._touches += 1
        if self._touches % _NORM_REFRESH == 0:
            self._refresh_norm()

    def fold_scale(self) -> float:
        """Push the global scale into the raw entries, returning the old scale
        (callers tracking scale-linear caches must multiply them by it).
        Entries whose product underflows to zero are evicted."""
        s = self.scale
        folded = ((idx, s * v) for idx, v in self.raw.items())
        self.raw = {idx: v for idx, v in folded if v > 0.0}
        self.scale = 1.0
        self._refresh_norm()
        return s


def project_pos_l2ball(theta: SparseTheta) -> SparseTheta:
    """Euclidean projection onto {theta >= 0, ||theta||_2 <= 1}, in place. A
    SparseTheta holds no negative entry, so this is the rescale by 1/norm
    when the norm exceeds one. Idempotent."""
    nsq = theta.norm_sq
    if nsq > 1.0 + _PROJECT_SLACK:
        theta.scale /= math.sqrt(nsq)
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


class OptimizerState:
    """Single-owner mutable state for one descent run.

    Keeps the combined Gram in the span of its support as scale * C W C':
    one cached column of C per distinct monomial (see `monomial_key`), their
    Gram G = C'C, and weights w_k = sum of raw_i / rho_|i|^2 over the tuples
    i of theta with key k. A step only raises one weight, in O(1); a new
    monomial adds its column and a row of G in O(n s). No column is dropped:
    a tuple whose value underflows at a rebase leaves theta, and its
    monomial keeps the column, at weight 0 if no tuple of it is left. Also
    holds the lazy-average bookkeeping (per-coordinate accumulators against
    a prefix sum of scales). `last_index` is the tuple the latest nonzero
    update touched, None before the first.
    """

    def __init__(self, ks: BaseKernelSet, rho: RhoSchedule):
        self.ks = ks
        self.rho = rho
        self.theta = SparseTheta()
        self.iter = 0
        self.last_index: MultiIndex | None = None
        self.records: list[RunRecord] = []
        # the column cache: slot of each monomial key and of each tuple seen,
        # the columns (n x capacity, Fortran order so a column is contiguous),
        # their Gram and the weights
        self._slot_of_key: dict[MultiIndex, int] = {}
        self._slot_of_tuple: dict[MultiIndex, int] = {}
        self._C = np.empty((ks.n, 0), order="F")
        self._G = np.empty((0, 0))
        self._w = np.empty(0)
        # averaging: prefix sum of scales of iterates counted so far, the
        # number counted, and per-coordinate (accumulator, prefix-sum mark)
        self._ps = 0.0
        self._avg_count = 0
        self._avg_acc: dict[MultiIndex, float] = {}
        self._avg_mark: dict[MultiIndex, float] = {}

    @property
    def num_columns(self) -> int:
        return len(self._slot_of_key)

    @property
    def monomials(self) -> list[MultiIndex]:
        """The cached monomial keys, in column order."""
        return list(self._slot_of_key)

    def _support_form(self, scale: float) -> SupportGram:
        s = self.num_columns
        return SupportGram(self._C[:, :s], self._G[:s, :s], scale * self._w[:s])

    def support_gram(self) -> SupportGram:
        """The current combined Gram in support form. The columns and G of
        the slots it covers are never rewritten, and the weights are a copy,
        so it stays valid after later steps."""
        return self._support_form(self.theta.scale)

    @property
    def combined_unscaled(self) -> np.ndarray:
        """C W C', the combined Gram without the scale, built dense from the
        cache on each read (n x n; for oracles and tests)."""
        return self._support_form(1.0).dense()

    def combined_gram(self) -> GramMatrix:
        """The current combined Gram, built dense from the cache into a fresh
        array (n x n; for oracles and tests)."""
        return GramMatrix(self._support_form(self.theta.scale).dense())

    def rebuild_combined_gram(self) -> SupportGram:
        """The combined Gram in support form, assembled afresh from theta's
        tuples, independently of the cache's slots, columns and weights."""
        return assemble_combined_gram(self.theta, self.ks, self.rho)

    def _slot(self, idx: MultiIndex) -> int:
        """The cache slot of tuple idx, adding its monomial's column (and a
        row of G) when the monomial is new."""
        slot = self._slot_of_tuple.get(idx)
        if slot is None:
            # built once per new tuple, so an unknown base index raises; the
            # sorted order gives every tuple of one monomial the same bits
            z = self.ks.product_columns([tuple(sorted(idx))])[:, 0]
            key = monomial_key(idx)
            slot = self._slot_of_key.get(key)
            if slot is None:
                slot = self._add_column(key, z)
            self._slot_of_tuple[idx] = slot
        return slot

    def _add_column(self, key: MultiIndex, z: np.ndarray) -> int:
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

    def _resummed_terms(self) -> list[list[float]]:
        """Per slot, the terms raw_i / rho_|i|^2 of its tuples in theta."""
        slots = [self._slot(idx) for idx in self.theta.raw]
        terms: list[list[float]] = [[] for _ in range(self.num_columns)]
        for slot, (idx, raw) in zip(slots, self.theta.raw.items()):
            terms[slot].append(raw / self.rho.rho_sq[len(idx)])
        return terms

    def resync_weights(self):
        """Re-sum the cached weights from theta, each as one exactly rounded
        sum; call after editing theta directly, outside `step`."""
        terms = self._resummed_terms()
        self._w[: len(terms)] = [math.fsum(t) for t in terms]

    def _mark_entering_iterate(self):
        self._ps += self.theta.scale
        self._avg_count += 1

    def _flush_average(self, idx: MultiIndex):
        # mark defaults to 0: a never-flushed raw entry has held its value
        # since the start of the current prefix-sum epoch
        mark = self._avg_mark.get(idx, 0.0)
        self._avg_acc[idx] = self._avg_acc.get(idx, 0.0) + self.theta.raw.get(idx, 0.0) * (
            self._ps - mark
        )
        self._avg_mark[idx] = self._ps

    def _rebase(self):
        """Flush every coordinate of theta, fold the scale into the raws
        (evicting those that underflow), re-sum the cached weights from them,
        and restart the prefix sum at zero."""
        for idx in self.theta.raw:
            self._flush_average(idx)
        self.theta.fold_scale()
        self.resync_weights()
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
        self._mark_entering_iterate()
        self.iter += 1
        idx = sample.index
        delta_theta = -eta * sample.value
        if delta_theta != 0.0:
            slot = self._slot(idx)
            self._flush_average(idx)
            old_raw = self.theta.raw.get(idx, 0.0)
            new_raw = old_raw + delta_theta / self.theta.scale
            self.theta.set_raw(idx, new_raw)
            self._w[slot] += (new_raw - old_raw) / self.rho.rho_sq[len(idx)]
            self.last_index = idx
            project_pos_l2ball(self.theta)
            if self.theta.scale < _REBASE_THRESHOLD:
                self._rebase()
        return self

    def check_combined_gram(self, rel_tol: float = 1e-9):
        """Raise FloatingPointError if the cached weights have drifted from a
        re-sum over theta, if the cached G differs from a fresh C'C, if the
        cached Gram times a fixed probe vector differs from the same product
        over `rebuild_combined_gram`, or if the cached column of `last_index`
        disagrees with entries of its product kernel (`_check_column`). The first two share the cache's tuple
        mapping and columns; the probe shares neither, so it catches a tuple
        in the wrong slot or a wrong column of any monomial; the kernel
        entries come straight from the inputs and share no code with the
        columns at all."""
        resummed = np.array([math.fsum(t) for t in self._resummed_terms()])
        s = len(resummed)
        denom = float(np.max(np.abs(resummed), initial=0.0))
        drift = float(np.max(np.abs(self._w[:s] - resummed), initial=0.0))
        # written so that a NaN fails it too
        if not drift <= rel_tol * denom:
            raise FloatingPointError(f"cached support weights drifted: {drift:.3e} of {denom:.3e}")
        C = self._C[:, :s]
        fresh = C.T @ C
        error = np.linalg.norm(self._G[:s, :s] - fresh)
        if not error <= rel_tol * np.linalg.norm(fresh):
            raise FloatingPointError(f"cached column Gram disagrees with C'C: {error:.3e}")
        # a fixed probe, so the check draws nothing from the run's generator
        probe = np.random.default_rng(0).standard_normal(self.ks.n)
        K = self._support_form(self.theta.scale)
        cached = K.columns @ (K.weights * (K.columns.T @ probe))
        R = self.rebuild_combined_gram()
        along = R.columns.T @ probe
        expected = R.columns @ (R.weights * along)
        # the size of the sum before any cancellation between its terms
        size = np.linalg.norm(np.abs(R.columns) @ (R.weights * np.abs(along)))
        error = np.linalg.norm(cached - expected)
        if not error <= rel_tol * size:
            raise FloatingPointError(
                f"cached Gram disagrees with the support tuples' own columns: "
                f"{error:.3e} of {size:.3e}"
            )
        if self.last_index is not None:
            slot = self._slot_of_tuple[self.last_index]
            self._check_column(self.last_index, self._C[:, slot], rel_tol)

    def _check_column(self, idx: MultiIndex, z: np.ndarray, rel_tol: float):
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
        bound = rel_tol * diagonal[p]
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
    the default 1 / sqrt(C0^2 T)), seed, checkpoint_every (>= 1) and
    mass_budget_factor. `draws(ks, rho, seed)` is called once, before the
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
            if C > config.mass_budget_factor * max(C0, 1e-300) and not mass_exceeded:
                mass_exceeded = True
                warnings.warn(
                    f"gradient mass {C:.3e} exceeded {config.mass_budget_factor:.1f}x its "
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
