"""Command-line benchmark harness: configuration, experiment orchestration,
and metrics output.

One run loads or generates a regression dataset, standardizes it on the train
split, builds the per-variable base kernels, dispatches to one of the three
solvers (proportional sampling, uniform coordinate descent, or full-gradient
descent over the enumerated set), and writes three artifacts next to the
requested output stem:

    <out>.records.csv   one row per iteration: iter, wall_time_s, J_value,
                        C_value, support_size, theta_norm
    <out>.summary.txt   key: value lines (objective at the averaged and last
                        iterates, test MSE, support size, config echo)
    <out>.theta.csv     the averaged iterate's support: degree, tuple, weight

Identical configuration and seed reproduce the records byte for byte except
for the wall_time_s column. An existing output file is an error, so runs
cannot silently share a path. Each artifact is written to a temporary file
beside its path and only then linked into place, so a crash while writing
leaves no artifact behind to block a rerun.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
import uuid
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, optimizer
from .dataset import (
    Dataset,
    DatasetError,
    SyntheticSpec,
    gen_synthetic,
    load_csv,
    split,
    standardize,
)
from .dual import predict
from .gradient import RhoSchedule
from .kernels import BaseKernelSet, build_base_kernels

ALGOS = ("stoch", "ucd", "fullgrad")


class ConfigError(ValueError):
    pass


def _positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0


@dataclass
class RunConfig:
    algo: str = "stoch"
    D: int = 3
    rho_sq: tuple[float, ...] | None = None  # None means all ones
    lam: float = 1e-5
    lambda_grid: tuple[float, ...] | None = None
    T: int = 1000
    step: float | None = None
    seed: int = 0
    include_constant: bool = True
    data_path: str | None = None
    synthetic: SyntheticSpec | None = None
    synthetic_val: int = 0
    split_sizes: tuple[int, int, int] | None = None
    out: str = "run"
    checkpoint_every: int = 100

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ConfigError(f"algo must be one of {ALGOS}, got {self.algo!r}")
        if self.T < 1:
            raise ConfigError("T must be >= 1")
        if self.D < 0:
            raise ConfigError("degree must be >= 0")
        if not _positive_finite(self.lam):
            raise ConfigError(f"lambda must be a positive finite number, got {self.lam}")
        if self.lambda_grid is not None and not all(map(_positive_finite, self.lambda_grid)):
            raise ConfigError(
                f"lambda-grid entries must be positive finite numbers, got {self.lambda_grid}"
            )
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint-every must be >= 1")
        if self.step is not None and not _positive_finite(self.step):
            raise ConfigError(f"step must be a positive finite number, got {self.step}")
        if self.rho_sq is not None:
            if len(self.rho_sq) != self.D + 1:
                raise ConfigError(
                    f"rho-sq needs {self.D + 1} entries for degree {self.D}, got {len(self.rho_sq)}"
                )
            if not all(map(_positive_finite, self.rho_sq)):
                raise ConfigError(
                    f"rho-sq entries must be positive finite numbers, got {self.rho_sq}"
                )
        if (self.data_path is None) == (self.synthetic is None):
            raise ConfigError("exactly one of --data and --synthetic is required")
        if self.data_path is not None and self.split_sizes is None:
            raise ConfigError("--split a,b,c is required with --data")
        if self.data_path is None and self.split_sizes is not None:
            raise ConfigError("--split applies only to --data")
        if self.split_sizes is not None and min(self.split_sizes) < 0:
            raise ConfigError(f"split sizes must be >= 0, got {self.split_sizes}")
        if self.synthetic_val < 0:
            raise ConfigError(f"synthetic val must be >= 0, got {self.synthetic_val}")
        n_val = self.split_sizes[1] if self.data_path is not None else self.synthetic_val
        if self.lambda_grid and n_val == 0:
            raise ConfigError("--lambda-grid needs a validation split (or val= for synthetic)")
        # standardization fits a mean and a spread on the train split
        n_train = self.split_sizes[0] if self.data_path is not None else self.synthetic.n_train
        if n_train < 2:
            raise ConfigError(f"the train split needs at least 2 rows, got {n_train}")
        if self.synthetic is not None and self.synthetic.max_degree > self.D:
            raise ConfigError(
                f"synthetic maxdeg={self.synthetic.max_degree} exceeds the run degree D={self.D}"
            )

    def rho_schedule(self) -> RhoSchedule:
        base = RhoSchedule(np.array(self.rho_sq)) if self.rho_sq else RhoSchedule.uniform(self.D)
        return base.scaled(self.lam)


@dataclass
class MetricsOutput:
    records: list[optimizer.RunRecord]
    summary: dict
    theta_support: list[tuple[int, tuple[int, ...], float]]
    paths: dict[str, str] = field(default_factory=dict)


def _prepare_data(config: RunConfig):
    """Load or generate, split, and standardize (fit on train only).

    Returns (train, val, test). `val` may be None.
    """
    if config.data_path is not None:
        full = load_csv(config.data_path)
        n_train, n_val, n_test = config.split_sizes
        train, val, test = split(full, n_train, n_val, n_test, seed=config.seed)
    else:
        # oversample the train block and slice a validation set off its tail
        spec = config.synthetic
        n = spec.n_train
        train_big, test = gen_synthetic(replace(spec, n_train=n + config.synthetic_val))[:2]
        train = Dataset(train_big.inputs[:n], train_big.targets[:n])
        val = None
        if config.synthetic_val > 0:
            val = Dataset(train_big.inputs[n:], train_big.targets[n:])
    std_train, params = standardize(train)
    std_val = params.apply(val) if val is not None else None
    std_test = params.apply(test) if test is not None else None
    return std_train, std_val, std_test


def _dispatch(config: RunConfig, train: Dataset, ks: BaseKernelSet, rho: RhoSchedule):
    if config.algo == "stoch":
        return optimizer.run(config, train, ks, rho)
    if config.algo == "ucd":
        return optimizer.run(config, train, ks, rho, draws=baselines.uniform_draws)
    return baselines.run_full_gradient(config, train, ks, rho)


def _test_mse(result, rho, train: Dataset, queries: Dataset) -> float:
    preds = predict(result.final, result.theta_avg, train.inputs, queries.inputs, rho)
    return float(np.mean((preds - queries.targets) ** 2))


def run_experiment(config: RunConfig) -> MetricsOutput:
    """Execute one configured run and write records, summary, and the averaged
    iterate's support listing to disk."""
    total_start = time.perf_counter()
    train, val, test = _prepare_data(config)
    ks = build_base_kernels(train, include_constant=config.include_constant, D=config.D)

    chosen_lam = config.lam
    if config.lambda_grid:
        best = None
        for lam in config.lambda_grid:
            cand = replace(config, lam=lam, lambda_grid=None)
            rho = cand.rho_schedule()
            result = _dispatch(cand, train, ks, rho)
            val_mse = _test_mse(result, rho, train, val)
            if best is None or val_mse < best[0]:
                best = (val_mse, lam, result)
        # a fit is deterministic given its config, so the chosen fit is the
        # run's result as it stands
        _, chosen_lam, result = best
        config = replace(config, lam=chosen_lam, lambda_grid=None)
        rho = config.rho_schedule()
    else:
        rho = config.rho_schedule()
        result = _dispatch(config, train, ks, rho)
    test_mse = _test_mse(result, rho, train, test) if test is not None else float("nan")
    total_wall = time.perf_counter() - total_start

    summary = {
        "algo": config.algo,
        "seed": config.seed,
        "degree": config.D,
        "lambda": chosen_lam,
        "rho_sq": ",".join(repr(v) for v in (config.rho_sq or (1.0,) * (config.D + 1))),
        "iters": config.T,
        "step": result.step_size,
        "constant_kernel": config.include_constant,
        "n_train": train.n,
        "J_avg_iterate": result.final.J_value,
        "J_last_iterate": result.dual_last.J_value,
        "test_mse": test_mse,
        "support_size": result.theta_avg.support_size,
        "theta_norm": result.theta_avg.norm(),
        "converged_early": result.converged,
        "total_wall_time_s": total_wall,
    }
    support = sorted(
        (len(idx), idx, value) for idx, value in result.theta_avg.items()
    )
    out = MetricsOutput(records=result.records, summary=summary, theta_support=support)
    _write_outputs(config.out, out)
    return out


def _write_records(fh, records):
    writer = csv.writer(fh)
    writer.writerow(["iter", "wall_time_s", "J_value", "C_value", "support_size", "theta_norm"])
    for rec in records:
        writer.writerow(
            [
                rec.iter,
                f"{rec.wall_time_s:.6f}",
                repr(rec.J_value),
                repr(rec.C_value),
                rec.support_size,
                repr(rec.theta_norm),
            ]
        )


def _write_summary(fh, summary):
    for key, value in summary.items():
        fh.write(f"{key}: {value!r}\n" if isinstance(value, str) else f"{key}: {value}\n")


def _write_theta(fh, theta_support):
    writer = csv.writer(fh)
    writer.writerow(["degree", "tuple", "weight"])
    for degree, idx, value in theta_support:
        writer.writerow([degree, "-".join(str(j) for j in idx), repr(value)])


def _output_taken(path: str) -> ConfigError:
    return ConfigError(f"output file {path} already exists; choose a fresh --out path")


def _write_outputs(stem: str, out: MetricsOutput):
    """Write the three artifacts, or none of them. All paths are checked free
    first. Each file is written under a temporary name beside its path and
    then hard-linked into place: unlike a rename, the link fails on a path
    taken in the meantime instead of replacing it."""
    artifacts = {
        "records": (f"{stem}.records.csv", lambda fh: _write_records(fh, out.records)),
        "summary": (f"{stem}.summary.txt", lambda fh: _write_summary(fh, out.summary)),
        "theta": (f"{stem}.theta.csv", lambda fh: _write_theta(fh, out.theta_support)),
    }
    for path, _ in artifacts.values():
        if os.path.lexists(path):
            raise _output_taken(path)
    staged, placed = [], []
    try:
        for path, write in artifacts.values():
            tmp = f"{path}.{uuid.uuid4().hex}.tmp"
            with open(tmp, "x", newline="") as fh:
                staged.append(tmp)
                write(fh)
        for tmp, (path, _) in zip(staged, artifacts.values()):
            try:
                os.link(tmp, path)
            except FileExistsError:
                raise _output_taken(path) from None
            placed.append(path)
    except BaseException:
        for path in placed:
            os.unlink(path)
        raise
    finally:
        for tmp in staged:
            os.unlink(tmp)
    out.paths = {name: path for name, (path, _) in artifacts.items()}


def parse_cli(argv: list[str]) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="polymkl",
        description=(
            "Learn a sparse nonnegative combination of product kernels for "
            "regression and benchmark it against enumerated-set baselines."
        ),
    )
    parser.add_argument("--algo", choices=ALGOS, default="stoch", help="solver to run")
    parser.add_argument("--data", metavar="PATH", help="CSV file, last column is the target")
    parser.add_argument(
        "--synthetic",
        metavar="KEYS",
        help="r=..,train=..,test=..[,terms=10][,maxdeg=3][,val=0] sparse-monomial generator",
    )
    parser.add_argument("--degree", type=int, default=3, help="maximum product-kernel degree D")
    parser.add_argument(
        "--rho-sq", metavar="LIST", help="comma list of D+1 squared degree weights (default all 1)"
    )
    parser.add_argument("--lambda", dest="lam", type=float, default=1e-5, help="ridge strength")
    parser.add_argument(
        "--lambda-grid", metavar="LIST", help="comma list of ridge strengths tried on validation MSE"
    )
    parser.add_argument("--iters", type=int, default=1000, help="iteration count T")
    parser.add_argument(
        "--step", type=float, help="positive step size override (default: theory constant)"
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--constant", choices=("on", "off"), default="on", help="include the constant base kernel"
    )
    parser.add_argument("--split", metavar="A,B,C", help="train,val,test row counts for --data")
    parser.add_argument("--out", default="run", help="output path stem")
    parser.add_argument("--checkpoint-every", type=int, default=100, help="invariant check cadence")
    args = parser.parse_args(argv)

    synthetic = None
    synthetic_val = 0
    if args.synthetic:
        keys = {}
        for item in args.synthetic.split(","):
            if "=" not in item:
                parser.error(f"--synthetic entries must be key=value, got {item!r}")
            key, _, value = item.partition("=")
            keys[key.strip()] = value.strip()
        try:
            synthetic = SyntheticSpec(
                r=int(keys.pop("r")),
                n_train=int(keys.pop("train")),
                n_test=int(keys.pop("test")),
                n_terms=int(keys.pop("terms", 10)),
                max_degree=int(keys.pop("maxdeg", 3)),
                seed=args.seed,
            )
            synthetic_val = int(keys.pop("val", 0))
        except KeyError as exc:
            parser.error(f"--synthetic is missing {exc.args[0]}=")
        except (ValueError, DatasetError) as exc:
            parser.error(f"bad --synthetic value: {exc}")
        if keys:
            parser.error(f"unknown --synthetic keys: {', '.join(sorted(keys))}")

    split_sizes = None
    if args.split:
        try:
            split_sizes = tuple(int(p) for p in args.split.split(","))
        except ValueError:
            parser.error("--split must be three integers a,b,c")
        if len(split_sizes) != 3:
            parser.error("--split must be three integers a,b,c")

    def parse_floats(text):
        try:
            return tuple(float(p) for p in text.split(","))
        except ValueError:
            parser.error(f"expected a comma list of numbers, got {text!r}")

    try:
        return RunConfig(
            algo=args.algo,
            D=args.degree,
            rho_sq=parse_floats(args.rho_sq) if args.rho_sq else None,
            lam=args.lam,
            lambda_grid=parse_floats(args.lambda_grid) if args.lambda_grid else None,
            T=args.iters,
            step=args.step,
            seed=args.seed,
            include_constant=args.constant == "on",
            data_path=args.data,
            synthetic=synthetic,
            synthetic_val=synthetic_val,
            split_sizes=split_sizes,
            out=args.out,
            checkpoint_every=args.checkpoint_every,
        )
    except ConfigError as exc:
        parser.error(str(exc))


def _flush_partial_records(stem: str, records) -> str | None:
    """Write the records of a failed run to `<stem>.records.partial.csv`; an
    existing file there is left alone, as every other output path is."""
    path = f"{stem}.records.partial.csv"
    try:
        with open(path, "x", newline="") as fh:
            _write_records(fh, records)
    except FileExistsError:
        print(f"partial records not flushed: {path} already exists", file=sys.stderr)
        return None
    except OSError:
        return None
    return path


def main(argv: list[str] | None = None) -> int:
    config = parse_cli(sys.argv[1:] if argv is None else argv)
    try:
        out = run_experiment(config)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        partial = getattr(exc, "partial_records", None)
        if partial:
            flushed = _flush_partial_records(config.out, partial)
            if flushed:
                print(f"partial records flushed to {flushed}", file=sys.stderr)
        return 1
    print(f"records: {out.paths['records']}")
    print(f"summary: {out.paths['summary']}")
    print(f"theta:   {out.paths['theta']}")
    for key in ("J_avg_iterate", "J_last_iterate", "test_mse", "support_size"):
        print(f"{key}: {out.summary[key]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
