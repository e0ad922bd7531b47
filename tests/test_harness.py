import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polymkl import (
    RhoSchedule,
    RunConfig,
    SparseTheta,
    SyntheticSpec,
    build_base_kernels,
    parse_cli,
    predict,
    run_experiment,
    solve_alpha,
)
from polymkl.baselines import solve_dense
from polymkl.dataset import gen_synthetic, standardize
from polymkl.dual import assemble_combined_gram
from polymkl.harness import ConfigError, main

from helpers import read_theta_csv


def usage_error(capsys) -> str:
    """The message of argparse's closing `error:` line on stderr. The usage
    line above it names every flag, so only this line tells which check
    failed."""
    prefix = "polymkl: error: "
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(prefix), last
    return last[len(prefix):]


class TestParseCli:
    def test_full_flag_set(self):
        config = parse_cli(
            [
                "--algo", "stoch", "--degree", "3", "--iters", "1000", "--seed", "7",
                "--synthetic", "r=5,train=500,test=1000",
            ]
        )
        assert config.algo == "stoch"
        assert config.D == 3 and config.T == 1000 and config.seed == 7
        assert config.synthetic == SyntheticSpec(5, 500, 1000, 10, 3, seed=7)

    def test_bogus_algo_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--algo", "bogus", "--synthetic", "r=3,train=10,test=5"])
        assert exc.value.code == 2
        assert "bogus" in capsys.readouterr().err

    def test_rho_sq_list(self):
        config = parse_cli(
            ["--rho-sq", "1,1,1,4", "--degree", "3", "--synthetic", "r=3,train=20,test=5"]
        )
        assert config.rho_sq == (1.0, 1.0, 1.0, 4.0)
        np.testing.assert_allclose(config.rho_schedule().rho_sq, np.array([1, 1, 1, 4]) * 1e-5)

    def test_rho_sq_wrong_length(self, capsys):
        with pytest.raises(SystemExit):
            parse_cli(["--rho-sq", "1,1", "--degree", "3", "--synthetic", "r=3,train=20,test=5"])
        assert "rho-sq" in capsys.readouterr().err

    def test_data_requires_split(self, capsys):
        with pytest.raises(SystemExit):
            parse_cli(["--data", "x.csv"])
        assert "--split" in capsys.readouterr().err

    def test_data_and_synthetic_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            parse_cli(["--data", "x.csv", "--split", "5,0,5",
                       "--synthetic", "r=3,train=10,test=5"])
        assert usage_error(capsys) == "exactly one of --data and --synthetic is required"

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit):
            parse_cli(["--frobnicate", "--synthetic", "r=3,train=10,test=5"])
        assert "frobnicate" in capsys.readouterr().err

    def test_unknown_synthetic_key(self, capsys):
        with pytest.raises(SystemExit):
            parse_cli(["--synthetic", "r=3,train=10,test=5,zap=3"])
        assert "zap" in capsys.readouterr().err

    @pytest.mark.parametrize("every", ["0", "-5"])
    def test_checkpoint_every_below_one_usage_error(self, every, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--checkpoint-every", every, "--synthetic", "r=3,train=10,test=5"])
        assert exc.value.code == 2
        assert usage_error(capsys) == "checkpoint-every must be >= 1"

    @pytest.mark.parametrize("step", ["0", "-0.1"])
    def test_step_not_positive_usage_error(self, step, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--step", step, "--synthetic", "r=3,train=10,test=5"])
        assert exc.value.code == 2
        assert usage_error(capsys) == f"step must be a positive finite number, got {float(step)}"

    @pytest.mark.parametrize("step", [float("nan"), float("inf")])
    def test_step_not_finite(self, step):
        with pytest.raises(ConfigError, match="step"):
            RunConfig(step=step, synthetic=SyntheticSpec(r=3, n_train=10, n_test=5))

    def test_negative_synthetic_val(self):
        with pytest.raises(ConfigError, match="val"):
            RunConfig(synthetic=SyntheticSpec(r=3, n_train=30, n_test=5), synthetic_val=-3)

    @pytest.mark.parametrize("sizes", [(-1, 2, 2), (5, -1, 2), (5, 2, -2)])
    def test_negative_split_size(self, sizes):
        with pytest.raises(ConfigError, match="split sizes"):
            RunConfig(data_path="data.csv", split_sizes=sizes)

    @pytest.mark.parametrize("n_train", [0, 1])
    def test_train_split_below_two_rows(self, n_train):
        # standardization fits a spread on the train split
        with pytest.raises(ConfigError, match="train split"):
            RunConfig(data_path="data.csv", split_sizes=(n_train, 2, 2))
        if n_train:
            with pytest.raises(ConfigError, match="train split"):
                RunConfig(synthetic=SyntheticSpec(r=3, n_train=n_train, n_test=5))

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--synthetic", "r=3,train=30,test=5,val=-3"], "val must be"),
            (["--synthetic", "r=3,train=1,test=5"], "train split"),
            (["--data", "DATA", "--split=-1,2,2"], "split sizes"),
            (["--data", "DATA", "--split=0,2,2"], "train split"),
            (["--data", "DATA", "--split=1,2,2"], "train split"),
            (["--synthetic", "r=3,train=30,test=10", "--split", "5,5,5"], "only to --data"),
        ],
    )
    def test_bad_split_usage_error_before_loading(self, flags, message, capsys, tmp_path):
        data = tmp_path / "data.csv"
        np.savetxt(data, np.random.default_rng(0).normal(size=(20, 4)), delimiter=",")
        argv = [str(data) if f == "DATA" else f for f in flags]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--iters", "5", "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["data.csv"]

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
    def test_lambda_not_positive_finite(self, lam):
        with pytest.raises(ConfigError, match="lambda"):
            RunConfig(lam=lam, synthetic=SyntheticSpec(r=3, n_train=10, n_test=5))

    @pytest.mark.parametrize(
        "grid", [(1e-3, -1.0), (1e-3, 0.0), (float("nan"),), (1.0, float("inf"))]
    )
    def test_lambda_grid_entry_not_positive_finite(self, grid):
        with pytest.raises(ConfigError, match="lambda-grid"):
            RunConfig(lambda_grid=grid, synthetic=SyntheticSpec(r=3, n_train=10, n_test=5))

    @pytest.mark.parametrize(
        "rho_sq", [(1, 0, 1, 1), (1, -2, 1, 1), (1, float("nan"), 1, 1), (float("inf"), 1, 1, 1)]
    )
    def test_rho_sq_entry_not_positive_finite(self, rho_sq):
        with pytest.raises(ConfigError, match="rho-sq"):
            RunConfig(rho_sq=rho_sq, synthetic=SyntheticSpec(r=3, n_train=10, n_test=5))

    @pytest.mark.parametrize(
        "flags",
        [
            ["--lambda", "nan"],
            ["--lambda", "inf"],
            ["--lambda-grid", "1e-3,-1"],
            ["--rho-sq", "1,nan,1,1"],
        ],
    )
    def test_bad_ridge_or_scale_usage_error_before_any_fit(self, flags, capsys, tmp_path):
        out = str(tmp_path / "run")
        argv = flags + ["--synthetic", "r=3,train=10,test=5,val=5", "--out", out]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        expected = {
            "--lambda": "lambda must be a positive finite number, got",
            "--lambda-grid": "lambda-grid entries must be positive finite numbers, got",
            "--rho-sq": "rho-sq entries must be positive finite numbers, got",
        }[flags[0]]
        assert usage_error(capsys).startswith(expected)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "source",
        [["--synthetic", "r=3,train=10,test=5"], ["--data", "DATA", "--split", "12,0,8"]],
    )
    def test_lambda_grid_without_validation_rows_usage_error_before_any_fit(
        self, source, capsys, tmp_path
    ):
        data = tmp_path / "data.csv"
        np.savetxt(data, np.random.default_rng(0).normal(size=(20, 4)), delimiter=",")
        argv = [str(data) if f == "DATA" else f for f in source]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--lambda-grid", "1e-3,1", "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert "lambda-grid needs a validation split" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["data.csv"]

    def test_excess_synthetic_terms_usage_error_before_any_write(self, capsys, tmp_path):
        # the default terms=10 exceeds the 9 monomials of degree <= 2 in 3 variables
        out = str(tmp_path / "run")
        with pytest.raises(SystemExit) as exc:
            main(["--synthetic", "r=3,train=40,test=10,maxdeg=2", "--degree", "2", "--out", out])
        assert exc.value.code == 2
        assert "exceeds the 9 distinct monomials" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_synthetic_degree_above_run_degree(self, capsys):
        with pytest.raises(SystemExit):
            parse_cli(["--synthetic", "r=4,train=10,test=5,maxdeg=3", "--degree", "2"])
        assert "maxdeg" in capsys.readouterr().err


def quick_config(tmp_path, name="run", **kw):
    defaults = dict(
        algo="stoch",
        D=2,
        T=40,
        seed=1,
        lam=1e-3,
        include_constant=False,
        synthetic=SyntheticSpec(r=3, n_train=25, n_test=15, n_terms=3, max_degree=2, seed=1),
        out=str(tmp_path / name),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestRunExperiment:
    def test_writes_all_artifacts(self, tmp_path):
        out = run_experiment(quick_config(tmp_path))
        with open(out.paths["records"]) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        assert list(rows[0].keys()) == [
            "iter", "wall_time_s", "J_value", "C_value", "support_size", "theta_norm",
        ]
        summary = (tmp_path / "run.summary.txt").read_text()
        assert "test_mse:" in summary and "J_avg_iterate:" in summary
        support = read_theta_csv(out.paths["theta"])
        assert support and all(w > 0 for w in support.values())

    def test_records_parse_back_losslessly(self, tmp_path):
        out = run_experiment(quick_config(tmp_path))
        with open(out.paths["records"]) as fh:
            rows = list(csv.DictReader(fh))
        for rec, row in zip(out.records, rows):
            assert int(row["iter"]) == rec.iter
            assert float(row["J_value"]) == rec.J_value
            assert float(row["C_value"]) == rec.C_value
            assert int(row["support_size"]) == rec.support_size
            assert float(row["theta_norm"]) == rec.theta_norm

    def test_reproducible_apart_from_wall_time(self, tmp_path):
        a = run_experiment(quick_config(tmp_path, name="a"))
        b = run_experiment(quick_config(tmp_path, name="b"))

        def strip(path):
            with open(path) as fh:
                return [
                    {k: v for k, v in row.items() if k != "wall_time_s"}
                    for row in csv.DictReader(fh)
                ]

        assert strip(a.paths["records"]) == strip(b.paths["records"])
        assert (tmp_path / "a.theta.csv").read_text() == (tmp_path / "b.theta.csv").read_text()

    def test_output_collision_is_error(self, tmp_path):
        run_experiment(quick_config(tmp_path))
        with pytest.raises(ConfigError, match="exists"):
            run_experiment(quick_config(tmp_path))

    def test_crash_while_writing_leaves_nothing(self, tmp_path, monkeypatch):
        import polymkl.harness as harness_mod

        def failing(fh, theta_support):
            fh.write("degree,tu")
            raise OSError("disk full")

        monkeypatch.setattr(harness_mod, "_write_theta", failing)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(quick_config(tmp_path))
        assert os.listdir(tmp_path) == []
        monkeypatch.undo()
        out = run_experiment(quick_config(tmp_path))
        assert sorted(os.listdir(tmp_path)) == sorted(
            os.path.basename(p) for p in out.paths.values()
        )

    def test_taken_path_blocks_before_any_write(self, tmp_path):
        (tmp_path / "run.theta.csv").write_text("kept\n")
        with pytest.raises(ConfigError, match="exists"):
            run_experiment(quick_config(tmp_path))
        assert os.listdir(tmp_path) == ["run.theta.csv"]
        assert (tmp_path / "run.theta.csv").read_text() == "kept\n"

    def test_summary_mse_recomputable_from_artifacts(self, tmp_path):
        # rebuild theta from the persisted support, re-solve, and re-predict on
        # the raw test inputs: must reproduce the summary's test MSE
        config = quick_config(tmp_path)
        out = run_experiment(config)
        support = read_theta_csv(out.paths["theta"])
        theta = SparseTheta.from_dict(support)

        train_raw, test_raw, _ = gen_synthetic(config.synthetic)
        train, params = standardize(train_raw)
        test = params.apply(test_raw)
        ks = build_base_kernels(train, include_constant=False, D=config.D)
        rho = config.rho_schedule()
        state = solve_alpha(assemble_combined_gram(theta, ks, rho), train.targets)
        preds = predict(state, theta, train.inputs, test.inputs, rho)
        mse = float(np.mean((preds - test.targets) ** 2))
        assert mse == pytest.approx(out.summary["test_mse"], abs=1e-9)
        # the reported objective is likewise reproducible from the support file
        assert state.J_value == pytest.approx(out.summary["J_avg_iterate"], abs=1e-9)
        # the echoed step size matches the closed form from the logged start mass
        C0 = out.records[0].C_value
        assert out.summary["step"] == pytest.approx(1.0 / (C0 * np.sqrt(config.T)), rel=1e-12)

    def test_fullgrad_summary_below_stoch(self, tmp_path):
        stoch = run_experiment(quick_config(tmp_path, name="s", T=150))
        full = run_experiment(quick_config(tmp_path, name="f", algo="fullgrad", T=2000))
        assert full.summary["J_avg_iterate"] <= stoch.summary["J_avg_iterate"] + 1e-6

    def test_ucd_runs(self, tmp_path):
        out = run_experiment(quick_config(tmp_path, name="u", algo="ucd"))
        assert len(out.records) == 40

    def test_lambda_grid_selects_by_validation(self, tmp_path):
        config = quick_config(
            tmp_path, name="grid", lambda_grid=(1e-6, 1e-3, 1.0), synthetic_val=20
        )
        out = run_experiment(config)
        assert out.summary["lambda"] in (1e-6, 1e-3, 1.0)

    def test_lambda_grid_keeps_the_chosen_fit(self, tmp_path, monkeypatch):
        # one fit per grid value, and the chosen fit's artifacts are those of a
        # plain run at the chosen lambda; the grid in both orders, so that the
        # chosen value is not always the last one fitted
        import polymkl.optimizer as optimizer_mod

        real_run = optimizer_mod.run
        fitted = []

        def counting_run(config, *args, **kwargs):
            fitted.append(config.lam)
            return real_run(config, *args, **kwargs)

        monkeypatch.setattr(optimizer_mod, "run", counting_run)
        grid = (1e-6, 1e-3, 1.0)
        chosen = set()
        for name, order in (("up", grid), ("down", grid[::-1])):
            fitted.clear()
            out = run_experiment(
                quick_config(tmp_path, name=name, lambda_grid=order, synthetic_val=20)
            )
            assert fitted == list(order)
            chosen.add(out.summary["lambda"])
        assert len(chosen) == 1
        (lam,) = chosen
        fitted.clear()
        run_experiment(quick_config(tmp_path, name="plain", lam=lam, synthetic_val=20))
        assert fitted == [lam]

        def records(name):
            with open(tmp_path / f"{name}.records.csv") as fh:
                return [row[:1] + row[2:] for row in csv.reader(fh)]

        def summary(name):
            lines = (tmp_path / f"{name}.summary.txt").read_text().splitlines()
            return [line for line in lines if not line.startswith("total_wall_time_s:")]

        for name in ("up", "down"):
            assert records(name) == records("plain")
            assert summary(name) == summary("plain")
            assert (tmp_path / f"{name}.theta.csv").read_text() == (
                tmp_path / "plain.theta.csv"
            ).read_text()

    def test_lambda_grid_without_validation_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="validation"):
            run_experiment(quick_config(tmp_path, name="g2", lambda_grid=(1e-3, 1.0)))

    def test_partial_records_flushed_on_midrun_error(self, tmp_path, monkeypatch, capsys):
        # a failure mid-run must still leave the records gathered so far on disk
        import polymkl.harness as harness_mod
        import polymkl.optimizer as optimizer_mod

        real = optimizer_mod.solve_alpha
        calls = {"n": 0}

        def exploding(K, y):
            calls["n"] += 1
            if calls["n"] > 5:
                raise RuntimeError("synthetic mid-run failure")
            return real(K, y)

        monkeypatch.setattr(optimizer_mod, "solve_alpha", exploding)
        out = str(tmp_path / "boom")
        code = harness_mod.main(
            ["--algo", "stoch", "--synthetic", "r=2,train=10,test=5,terms=2,maxdeg=1",
             "--degree", "1", "--iters", "50", "--seed", "1", "--out", out]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "synthetic mid-run failure" in err and "partial records" in err
        with open(out + ".records.partial.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5

    def test_partial_records_never_overwrite_an_existing_file(
        self, tmp_path, monkeypatch, capsys
    ):
        import polymkl.harness as harness_mod
        import polymkl.optimizer as optimizer_mod

        real = optimizer_mod.solve_alpha
        calls = {"n": 0}

        def exploding(K, y):
            calls["n"] += 1
            if calls["n"] > 2:
                raise RuntimeError("synthetic failure")
            return real(K, y)

        monkeypatch.setattr(optimizer_mod, "solve_alpha", exploding)
        out = str(tmp_path / "boom")
        earlier = Path(out + ".records.partial.csv")
        earlier.write_text("an earlier run's partial records\n")
        code = harness_mod.main(
            ["--algo", "stoch", "--synthetic", "r=2,train=10,test=5,terms=2,maxdeg=1",
             "--degree", "1", "--iters", "5", "--seed", "1", "--out", out]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "synthetic failure" in err
        assert "already exists" in err and "flushed to" not in err
        assert earlier.read_text() == "an earlier run's partial records\n"

    def test_ill_conditioned_solve_fails_with_partial_records(self, tmp_path, capsys):
        # at lambda=1e-30 the support weights swamp n I, and the solve's
        # residual, not a silently wrong J or test MSE, ends the run
        out = str(tmp_path / "tiny")
        code = main(
            ["--synthetic", "r=3,train=40,test=10,terms=5", "--degree", "3", "--iters", "200",
             "--lambda", "1e-30", "--out", out]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "support solve residual" in err and "partial records" in err
        assert sorted(os.listdir(tmp_path)) == ["tiny.records.partial.csv"]

    def test_huge_lambda_completes(self, tmp_path, capsys):
        # C0 is about 1e-300 here, so C0^2 underflows to zero; the default
        # step must come without the square
        out = str(tmp_path / "huge")
        code = main(
            ["--synthetic", "r=3,train=40,test=10,terms=5", "--degree", "3", "--iters", "200",
             "--lambda", "1e300", "--out", out]
        )
        assert code == 0, capsys.readouterr().err
        summary = dict(
            line.split(": ", 1) for line in Path(out + ".summary.txt").read_text().splitlines()
        )
        step = float(summary["step"])
        assert 0.0 < step < float("inf")
        # J = y'alpha / 2 lies in (0, |y|^2 / (2n)], which is 1/2 for standardized y
        assert 0.0 < float(summary["J_avg_iterate"]) <= 0.5

    def test_csv_data_path(self, tmp_path):
        rng = np.random.default_rng(3)
        inputs = rng.normal(size=(60, 3))
        targets = inputs[:, 0] * inputs[:, 1] + inputs[:, 2]
        rows = "\n".join(
            ",".join(repr(float(v)) for v in list(x) + [t]) for x, t in zip(inputs, targets)
        )
        path = tmp_path / "data.csv"
        path.write_text(rows + "\n")
        config = RunConfig(
            algo="stoch",
            D=2,
            T=30,
            seed=2,
            lam=1e-3,
            include_constant=True,
            data_path=str(path),
            split_sizes=(40, 0, 20),
            out=str(tmp_path / "csvrun"),
        )
        out = run_experiment(config)
        assert np.isfinite(out.summary["test_mse"])


class TestRhoPriorTiltsDegreeSampling:
    """Raising the top degree's squared weight to 4 on the same data and seed.

    At any fixed iterate the top degree's sampling probability strictly drops
    (its mass carries the 1/4 factor directly). Over a whole adaptive run the
    aggregate draw counts move the other way on this instance: the damped
    coordinates fit their share of the signal more slowly, so their residual
    gradient mass survives across more iterations. Both effects are asserted;
    the aggregate direction is a frozen paired-run outcome, not a theorem.
    """

    def setup_method(self):
        spec = SyntheticSpec(r=3, n_train=40, n_test=5, n_terms=4, max_degree=3, seed=3)
        train_raw, _, _ = gen_synthetic(spec)
        self.data, _ = standardize(train_raw)
        self.ks = build_base_kernels(self.data, include_constant=False, D=3)

    def test_fixed_iterate_probability_strictly_drops(self):
        from polymkl.gradient import degree_masses

        alpha0 = self.data.targets / self.data.n  # the inner solve at theta = 0
        fractions = {}
        for name, rho_sq in (("flat", [1.0] * 4), ("tilted", [1.0, 1.0, 1.0, 4.0])):
            masses = degree_masses(alpha0, self.ks, RhoSchedule(np.asarray(rho_sq)))
            fractions[name] = masses.delta[3] / masses.total
        assert fractions["tilted"] < fractions["flat"]

    def test_aggregate_draw_counts_over_paired_runs(self):
        from polymkl.gradient import degree_masses, total_mass_C
        from polymkl.optimizer import OptimizerState, default_step_size
        from polymkl.sampler import SamplerWorkspace

        def count_top_degree_draws(rho_sq, T=250):
            rho = RhoSchedule(np.array(rho_sq)).scaled(1e-3)
            gen = np.random.default_rng([11, 1])
            state = OptimizerState(self.ks, rho)
            ws = SamplerWorkspace(self.ks, rho, gen)
            eta = None
            top = 0
            for _ in range(T):
                dual = solve_dense(state.combined_gram(), self.data.targets)
                masses = degree_masses(dual.alpha, self.ks, rho)
                if eta is None:
                    eta = default_step_size(total_mass_C(masses) ** 2, T)
                idx = ws.draw(masses)
                top += len(idx) == 3
                state.step(idx, -total_mass_C(masses), eta)
            return top

        flat = count_top_degree_draws([1.0, 1.0, 1.0, 1.0])
        tilted = count_top_degree_draws([1.0, 1.0, 1.0, 4.0])
        assert (flat, tilted) == (99, 137)  # frozen paired-run outcome, seed [11, 1]


def test_python_dash_m_runs_without_warning():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-W", "default", "-m", "polymkl", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert "usage: polymkl" in done.stdout
    assert "Warning" not in done.stderr, done.stderr
