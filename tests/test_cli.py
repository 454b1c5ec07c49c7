"""End-to-end command line behavior and exit codes."""

import dataclasses
import re

import numpy as np
import pytest

from irsgame import default_config, reduced_config, save_config
from irsgame.cli import (
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
)


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
    ],
)
def test_validate_rejects_non_finite_values(tmp_path, capsys, reduced_file, key, value, message):
    # the first line of the key is the scalar in [scenario] or [integrator], not the grid
    text = re.sub(r"^%s = .*$" % key, "%s = %s" % (key, value), reduced_file.read_text(), count=1, flags=re.M)
    path = tmp_path / "non_finite.cfg"
    path.write_text(text)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


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


def test_bound_needs_one_service_per_provider(tmp_path, capsys):
    path = tmp_path / "full.cfg"
    save_config(default_config(), path)
    assert main(["bound", str(path)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_bound_with_ruinous_prices(tmp_path, capsys):
    cfg = reduced_config()
    cfg = dataclasses.replace(
        cfg, sps=[dataclasses.replace(sp, price_irs=10.0) for sp in cfg.sps]
    )
    path = tmp_path / "ruinous.cfg"
    save_config(cfg, path)
    assert main(["bound", str(path)]) == EXIT_NUMERIC
    assert "numeric error" in capsys.readouterr().err


def test_run_reports_non_convergence(tmp_path, capsys):
    code = main(
        ["run", "convergence-speed", "--out", str(tmp_path), "--horizon", "1"]
    )
    assert code == EXIT_NO_CONVERGENCE
    assert "did not converge" in capsys.readouterr().err


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
