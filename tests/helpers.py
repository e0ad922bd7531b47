"""Helpers that only the tests call: the index-set count, the scaling study
behind acceptance criterion 6, a reader for the support listing a run
writes, J at a sparse weight vector, and a Python subprocess that imports
this checkout's package. None of them is on a path of the CLI or of the
learner, so they live here and not in the package."""

from __future__ import annotations

import csv
import math
import os
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from polymkl import baselines, optimizer
from polymkl.dataset import SyntheticSpec
from polymkl.dual import assemble_combined_gram, solve_alpha
from polymkl.harness import RunConfig, _prepare_data
from polymkl.kernels import BaseKernelSet, KernelError, build_base_kernels

# the scaling study skips the full-gradient solver on index sets larger than this
_SCALING_ENUM_GUARD = 20000


def count_index_set(r: int, D: int) -> tuple[int, int]:
    """(ordered tuple count sum_{d<=D} r^d, distinct multiset count C(r+D, D))."""
    if r < 1 or D < 0:
        raise KernelError("need r >= 1 and D >= 0")
    ordered = sum(r**d for d in range(D + 1))
    distinct = math.comb(r + D, D)
    return ordered, distinct


def objective_J(theta, ks: BaseKernelSet, rho, y: np.ndarray) -> float:
    """J at a sparse weight vector: assemble K_theta and run the inner solve."""
    return solve_alpha(assemble_combined_gram(theta, ks, rho), y).J_value


def read_theta_csv(path: str) -> dict[tuple[int, ...], float]:
    """Parse a support listing back into an index-to-weight map."""
    support: dict[tuple[int, ...], float] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            idx = tuple(int(p) for p in row["tuple"].split("-")) if row["tuple"] else ()
            support[idx] = float(row["weight"])
    return support


def run_scaling_study(
    r_values: list[int],
    D: int,
    base_spec: SyntheticSpec,
    T: int,
    seeds: list[int],
    lam: float = 1e-5,
) -> list[dict]:
    """Median per-iteration wall time of the proportional sampler and the
    full-gradient solver across input dimensions, with the index-set sizes.

    The full-gradient column is skipped where the enumerated set would exceed
    _SCALING_ENUM_GUARD tuples. Returns one row per r.
    """
    rows = []
    for r in r_values:
        ordered, _distinct = count_index_set(r, D)
        row = {"r": r, "index_set_size": ordered, "stoch_s_per_iter": None, "fullgrad_s_per_iter": None}
        stoch_times, full_times = [], []
        for seed in seeds:
            spec = replace(base_spec, r=r, seed=seed)
            config = RunConfig(
                algo="stoch", D=D, T=T, seed=seed, lam=lam,
                include_constant=False, synthetic=spec, out="unused",
            )
            train, _val, _test = _prepare_data(config)
            ks = build_base_kernels(train, include_constant=False, D=D)
            rho = config.rho_schedule()
            result = optimizer.run(config, train, ks, rho)
            stoch_times.extend(_iteration_times(result.records))
            if ordered <= _SCALING_ENUM_GUARD:
                full = baselines.run_full_gradient(config, train, ks, rho, tol=0.0)
                full_times.extend(_iteration_times(full.records))
        row["stoch_s_per_iter"] = statistics.median(stoch_times)
        if full_times:
            row["fullgrad_s_per_iter"] = statistics.median(full_times)
        rows.append(row)
    return rows


def _iteration_times(records) -> list[float]:
    times = [rec.wall_time_s for rec in records]
    return [b - a for a, b in zip([0.0] + times[:-1], times)]


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run `python *args` with this checkout's `src` first on the import path,
    for checks that need a fresh interpreter or its flags, such as -O."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
