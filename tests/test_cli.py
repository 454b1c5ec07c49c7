"""End-to-end command line behavior and exit codes."""

import dataclasses
import re

import numpy as np
import pytest

from irsgame import default_config, reduced_config, save_config
from irsgame.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from irsgame.dynamics import MAX_STEPS


@pytest.fixture
def reduced_file(tmp_path):
    path = tmp_path / "reduced.cfg"
    save_config(reduced_config(), path)
    return path


def test_run_writes_csv_and_prints_path(tmp_path, capsys):
    out = tmp_path / "data"
    code = main(
        ["run", "utilities-vs-time", "--out", str(out), "--horizon", "3", "--dt", "0.05"]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed == [str(out / "utilities_vs_time.csv")]
    assert (out / "utilities_vs_time.csv").exists()


def test_run_accepts_config_and_json_flag(tmp_path, capsys, reduced_file):
    out = tmp_path / "data"
    code = main(
        [
            "run",
            "utilities-vs-time",
            "--config",
            str(reduced_file),
            "--out",
            str(out),
            "--horizon",
            "3",
            "--dt",
            "0.05",
            "--json",
        ]
    )
    assert code == EXIT_OK
    assert (out / "utilities_vs_time.csv").exists()
    assert (out / "utilities_vs_time.json").exists()


@pytest.mark.parametrize("flag", ["--dt", "--horizon"])
def test_run_rejects_zero_step_or_horizon(tmp_path, capsys, flag):
    code = main(["run", "utilities-vs-time", "--out", str(tmp_path), flag, "0"])
    assert code == EXIT_CONFIG
    assert "integrator.%s must be positive" % flag[2:] in capsys.readouterr().err
    assert not (tmp_path / "utilities_vs_time.csv").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("mu", "nan", "scenario.mu must be positive and finite"),
        ("delta", "nan", "scenario.delta must be non-negative and finite"),
        ("noise_var", "inf", "scenario.noise_var must be positive and finite"),
        ("dt", "nan", "integrator.dt must be positive and finite"),
        ("horizon", "inf", "integrator.horizon must be positive and finite"),
        ("drift_tol", "nan", "integrator.drift_tol must be positive and finite"),
        ("drift_tol", "-1", "integrator.drift_tol must be positive and finite"),
        ("valuation", "nan", "scenario.valuation entries must be positive and finite"),
        ("p0", "nan, nan", "scenario.p0 must be non-negative and sum to 1"),
        ("n_users", "inf", "bad value for scenario.n_users"),
        ("seed", "-1", "scenario.seed must be non-negative"),
        ("d0", "nan", "pathloss.d0 must be positive and finite"),
        ("alpha_direct", "nan", "pathloss.alpha_direct must be non-negative and finite"),
        ("pl0_db", "inf", "pathloss.pl0_db must be finite"),
        ("price_irs", "nan", "sp.1.price_irs must be non-negative and finite"),
        ("price_power", "inf", "sp.1.price_power must be non-negative and finite"),
        ("bandwidth_mhz", "nan", "sp.1.bandwidth_mhz must be positive and finite"),
        ("power_levels_dbm", "nan", "sp.1.power_levels_dbm must be finite"),
        ("bs_position", "nan, 0", "sp.1.bs_position must be finite"),
        ("distance", "10, nan", "grids.distance must be finite"),
    ],
)
def test_validate_rejects_non_finite_values(tmp_path, capsys, reduced_file, key, value, message):
    # only the first line of the key changes: the one in the first section that
    # has it, in the order [scenario], [integrator], [pathloss], [sp.1], [grids]
    text = re.sub(r"^%s = .*$" % key, "%s = %s" % (key, value), reduced_file.read_text(), count=1, flags=re.M)
    path = tmp_path / "non_finite.cfg"
    path.write_text(text)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, entries, message",
    [
        ("mu", "-0.1, 0.2", "grids.mu entries must be positive and finite"),
        ("mu", "0, 0.2", "grids.mu entries must be positive and finite"),
        ("n_users", "0, 50", "grids.n_users entries must be at least 1"),
        ("delta", "-3, 30", "grids.delta entries must be non-negative and finite"),
        ("irs_elements_sp2", "-4, 8", "grids.irs_elements_sp2 entries must be at least 1"),
        ("price_irs_sp1", "-1, 0.1", "grids.price_irs_sp1 entries must be non-negative and finite"),
        ("distance", "0, 10", "grids.distance entries must be positive and finite"),
        ("distance", "-10, 10", "grids.distance entries must be positive and finite"),
    ],
)
def test_validate_rejects_out_of_range_grid_entries(tmp_path, capsys, reduced_file, key, entries, message):
    # each grid entry must lie in the range of the key it sweeps
    head, grids = reduced_file.read_text().split("[grids]")
    grids = re.sub(r"^%s = .*$" % key, "%s = %s" % (key, entries), grids, count=1, flags=re.M)
    path = tmp_path / "grid.cfg"
    path.write_text(head + "[grids]" + grids)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def _edited(reduced_file, tmp_path, **values):
    """A copy of reduced_file with the first line of each key set to its new value."""
    text = reduced_file.read_text()
    for key, value in values.items():
        text = re.sub(r"^%s = .*$" % key, "%s = %s" % (key, value), text, count=1, flags=re.M)
    path = tmp_path / "edited.cfg"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("power_levels_dbm", "4000", "sp.1.power_levels_dbm entries must be finite and below 3000 in magnitude"),
        ("pl0_db", "4000", "pathloss.pl0_db must be finite and below 3000 in magnitude"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "bound"])
def test_decibel_levels_that_overflow_are_rejected(tmp_path, capsys, reduced_file, command, key, value, message):
    # 10 ** (x / 10) of a level beyond 3000 dB is no float
    assert main([command, str(_edited(reduced_file, tmp_path, **{key: value}))]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, values, message",
    [
        (["bound"], {"noise_var": "1e-320"}, "payoff of group 1 (sp 1, subset 1, power level 1) is inf"),
        (["run", "utilities-vs-time"], {"valuation": "1e308"}, "payoff of group 1 (sp 1, subset 1, power level 1) is inf"),
        (["run", "convergence-speed"], {"price_irs": "1e308"}, "payoff of group 1 (sp 1, subset 1, power level 1) is -inf"),
        (["bound"], {"d0": "1e6", "alpha_bs_irs": "100"}, "path gain overflows at distance 50.0 m with exponent 100.0"),
    ],
)
def test_non_finite_payoffs_are_numeric_errors(tmp_path, capsys, reduced_file, command, values, message):
    path = _edited(reduced_file, tmp_path, **values)
    out = tmp_path / "data"
    if command[0] == "run":
        command = command + ["--config", str(path), "--out", str(out)]
    else:
        command = command + [str(path)]
    with np.errstate(all="ignore"):
        assert main(command) == EXIT_NUMERIC
    assert message in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_payoffs_whose_sum_overflows_are_numeric_errors(tmp_path, capsys, reduced_file, reduced_cfg, reduced_links):
    # each group earns about 1e308, a finite payoff; the two together do not
    rates = [sp.bandwidth_mhz * np.log2(1.0 + link.snr) for sp, link in zip(reduced_cfg.sps, reduced_links)]
    valuation = ", ".join(repr(float(1e308 / r)) for r in rates)
    assert main(["bound", str(_edited(reduced_file, tmp_path, valuation=valuation))]) == EXIT_NUMERIC
    assert "the payoffs of the 2 groups sum to inf" in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset, flag, value, message",
    [
        ("utilities-vs-time", "--mu", "nan", "scenario.mu must be positive and finite"),
        ("delay-sweep", "--horizon", "inf", "integrator.horizon must be positive and finite"),
    ],
)
def test_run_rejects_non_finite_overrides(tmp_path, capsys, reduced_file, preset, flag, value, message):
    out = tmp_path / "data"
    code = main(["run", preset, "--config", str(reduced_file), "--out", str(out), flag, value])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides", [["--dt", "1e-300"], ["--dt", "1e-200", "--horizon", "1e100"]])
def test_run_rejects_step_counts_above_the_cap(tmp_path, capsys, reduced_file, overrides):
    out = tmp_path / "data"
    code = main(["run", "utilities-vs-time", "--config", str(reduced_file), "--out", str(out)] + overrides)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "integrator.horizon / integrator.dt" in err and "exceeds the cap" in err
    assert not out.exists()


def test_run_rejects_unknown_preset():
    with pytest.raises(SystemExit):
        main(["run", "warp-speed"])


def test_run_missing_config_file(tmp_path, capsys):
    code = main(["run", "utilities-vs-time", "--config", str(tmp_path / "absent.cfg")])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_validate_ok(tmp_path, capsys):
    path = tmp_path / "scenario.cfg"
    save_config(default_config(), path)
    assert main(["validate", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "ok: 2 provider(s), 6 service group(s), 100 user(s)"


def test_validate_broken_file(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("not an ini file [\n")
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_bound_on_reduced_scenario(capsys, reduced_file):
    assert main(["bound", str(reduced_file)]) == EXIT_OK
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(21.095, rel=1e-3)


def test_bound_on_default_scenario(tmp_path, capsys):
    path = tmp_path / "full.cfg"
    save_config(default_config(), path)
    assert main(["bound", str(path)]) == EXIT_OK
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(46.841, rel=1e-4)


def test_bound_with_ruinous_prices(tmp_path, capsys):
    cfg = reduced_config()
    cfg = dataclasses.replace(
        cfg, sps=[dataclasses.replace(sp, price_irs=10.0) for sp in cfg.sps]
    )
    path = tmp_path / "ruinous.cfg"
    save_config(cfg, path)
    assert main(["bound", str(path)]) == EXIT_NUMERIC
    assert "numeric error" in capsys.readouterr().err


def test_convergence_speed_does_not_depend_on_the_horizon(tmp_path):
    # each point's equilibrium time comes from the exact solution, not from
    # samples up to the horizon; only the meta block records the horizon
    assert main(["run", "convergence-speed", "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["run", "convergence-speed", "--out", str(tmp_path / "b"), "--horizon", "1"]) == EXIT_OK

    def rows(d):
        lines = (d / "convergence_speed.csv").read_text().splitlines()
        return [line for line in lines if not line.startswith("#")]

    assert rows(tmp_path / "b") == rows(tmp_path / "a")
    assert len(rows(tmp_path / "a")) == 1 + 12


@pytest.mark.parametrize("preset", ["convergence-speed", "irs-size-sweep", "distance-price-sweep"])
def test_undelayed_sweeps_reject_a_delay(tmp_path, capsys, preset):
    assert main(["run", preset, "--out", str(tmp_path), "--delta", "5"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "scenario.delta" in err and "delay-sweep" in err
    assert not list(tmp_path.iterdir())


def test_convergence_speed_caps_the_equilibrium_index(tmp_path, capsys):
    # horizon / dt is within the cap, but the equilibrium index is not
    code = main(["run", "convergence-speed", "--out", str(tmp_path), "--dt", "1e-17", "--horizon", "1e-9"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "grid point mu=0.05 n_users=50" in err and str(MAX_STEPS) in err


def test_delay_sweep_with_ruinous_prices(tmp_path):
    # every group loses money: no delay bound, and the undelayed run still
    # ends on the simplex with a single surviving group
    cfg = reduced_config()
    cfg = dataclasses.replace(
        cfg,
        sps=[dataclasses.replace(sp, price_irs=10.0) for sp in cfg.sps],
        grids=dataclasses.replace(cfg.grids, delta=[0.0]),
    )
    path = tmp_path / "ruinous.cfg"
    save_config(cfg, path)
    out = tmp_path / "data"
    assert main(["run", "delay-sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
    (csv,) = out.glob("delay_sweep_delta*.csv")
    lines = csv.read_text().splitlines()
    assert "# stability_bound = not computable (aggregate utility term is not positive)" in lines
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in body[1:]])
    shares = rows[:, [i for i, col in enumerate(header) if col.startswith("p_")]]
    assert np.min(shares) >= 0.0
    assert np.max(np.abs(shares.sum(axis=1) - 1.0)) < 1e-12
    assert sorted(shares[-1]) == [0.0, 1.0]
