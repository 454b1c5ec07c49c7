"""End-to-end command line behavior and exit codes."""

import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import irsgame
from irsgame import PRESETS, default_config, load_config, with_scalar_overrides
from irsgame.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from irsgame.config import OVERRIDES
from irsgame.dynamics import MAX_STEPS
from irsgame.experiments import PRESET_TABLE
from conftest import REDUCED_CFG
from oracle import config_to_text
from test_config import scenarios


@pytest.fixture
def reduced_file(tmp_path):
    path = tmp_path / "reduced.cfg"
    path.write_text(config_to_text(load_config(REDUCED_CFG)))
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
    "command, key, value, message",
    [
        # a provider's channel would not fit in memory: checked only through validate
        ("validate", "antennas", "1e300", "sp.1: antennas * irs_elements must be at most 1000000"),
        ("validate", "antennas", "1e10", "sp.1: antennas * irs_elements must be at most 1000000"),
        # float(n_users) would overflow
        ("validate", "n_users", "9" * 401, "scenario.n_users must be at least 1 and at most 2**53"),
        ("bound", "n_users", "9" * 401, "scenario.n_users must be at least 1 and at most 2**53"),
        # irs-size-sweep would give sp.2 a channel that does not fit
        ("validate", "irs_elements_sp2", "8, 1e300", "grids.irs_elements_sp2 entries must be multiples of sp.2"),
    ],
    ids=[
        "antennas-1e300",
        "antennas-1e10",
        "validate-n_users-401-digits",
        "bound-n_users-401-digits",
        "irs_elements_sp2-1e300",
    ],
)
def test_sizes_beyond_the_caps_are_rejected(tmp_path, capsys, reduced_file, command, key, value, message):
    assert main([command, str(_edited(reduced_file, tmp_path, **{key: value}))]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# overflowing inputs end in their exit-2 message alone, with no numpy RuntimeWarning before it
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, values, message",
    [
        (["bound"], {"noise_var": "1e-320"}, "payoff of group 1 (sp 1, subset 1, power level 1) is inf"),
        (["run", "utilities-vs-time"], {"valuation": "1e308"}, "payoff of group 1 (sp 1, subset 1, power level 1) is inf"),
        (["run", "convergence-speed"], {"price_irs": "1e308"}, "payoff of group 1 (sp 1, subset 1, power level 1) is -inf"),
        (["bound"], {"d0": "1e6", "alpha_bs_irs": "100"}, "path gain overflows at distance 50.0 m with exponent 100.0"),
        # 2 mu C+ underflows to 0, overflows, or pi over it overflows
        (["bound"], {"mu": "5e-324"}, "no positive finite delay bound pi / (2 mu C+) for mu = 5e-324, C+ = "),
        (["bound"], {"mu": "1e308"}, "no positive finite delay bound pi / (2 mu C+) for mu = 1e+308, C+ = "),
        (["bound"], {"mu": "1e-320"}, "no positive finite delay bound pi / (2 mu C+) for mu = 1e-320, C+ = "),
        # d / d0 underflows to 0, and 0.0 ** -2.0 is no float
        (
            ["bound"],
            {"d0": "1e300", "alpha_direct": "0", "alpha_bs_irs": "0", "user_position": "50.0, 1e-30"},
            "path gain overflows at distance 1e-30 m with exponent 2.0",
        ),
        # finite payoffs whose replicator rate mu * C overflows: the shares would be nan
        (
            ["run", "utilities-vs-time"],
            {"mu": "1e300", "price_irs": "1e300"},
            "the replicator rate mu * C is not finite for mu = 1e+300, C = ",
        ),
        # a user past the largest float: the link would have no path gain at all
        (["bound"], {"user_position": "1.7e308, 1.7e308"}, "link distance inf m is not finite"),
        (["run", "utilities-vs-time"], {"user_position": "1.7e308, 1.7e308"}, "link distance inf m is not finite"),
        # finite channel entries whose effective channel norm overflows
        (["run", "utilities-vs-time"], {"pl0_db": "2999", "noise_var": "1e10"}, "the effective channel's norm inf"),
        # a finite payoff over a share of one user: the utility, and u_bar with it, would be -inf
        (
            ["run", "utilities-vs-time"],
            {"n_users": "1", "price_irs": "1.5e307"},
            "a utility numer_g / (p_g * n_users) overflows a float",
        ),
    ],
)
def test_non_finite_payoffs_are_numeric_errors(tmp_path, capsys, reduced_file, command, values, message):
    path = _edited(reduced_file, tmp_path, **values)
    out = tmp_path / "data"
    if command[0] == "run":
        command = command + ["--config", str(path), "--out", str(out)]
    else:
        command = command + [str(path)]
    assert main(command) == EXIT_NUMERIC
    assert message in capsys.readouterr().err
    assert not list(out.glob("*"))


@pytest.mark.filterwarnings("error")
def test_payoffs_so_small_that_c_dt_underflows_run(tmp_path, capsys, reduced_file):
    # the payoffs are about 1e-300 and dt 1e-30: their product underflows in equilibrium_index
    text = re.sub(r"^(price_irs|price_power) = .*$", r"\1 = 0.0", reduced_file.read_text(), flags=re.M)
    reduced_file.write_text(text)
    path = _edited(reduced_file, tmp_path, valuation="1e-300", horizon="1e-22")
    out = tmp_path / "data"
    assert main(["run", "convergence-speed", "--config", str(path), "--out", str(out), "--dt", "1e-30"]) == EXIT_OK
    assert (out / "convergence_speed.csv").exists()


@pytest.mark.filterwarnings("error")
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
    with pytest.raises(SystemExit) as exc:
        main(["run", "warp-speed"])
    assert exc.value.code == EXIT_CONFIG


# argparse exits 2, the numeric-error code, unless told otherwise
@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "utilities-vs-time", "--seed"], "irsgame run: error: argument --seed: expected one argument"),
        (["run", "utilities-vs-time", "--n-users"], "argument --n-users: expected one argument"),
        (["run", "warp-speed"], "irsgame run: error: argument preset: invalid choice: 'warp-speed'"),
        (["run", "utilities-vs-time", "--warp"], "irsgame: error: unrecognized arguments: --warp"),
        (["validate"], "irsgame validate: error: the following arguments are required: config"),
        ([], "irsgame: error: the following arguments are required: command"),
    ],
)
def test_a_malformed_command_line_is_a_configuration_error(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage: irsgame") and message in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "abc", "bad value for scenario.seed: could not convert string to float: 'abc'"),
        ("--seed", "1e400", "bad value for scenario.seed: cannot convert float infinity to integer"),
        ("--n-users", "1.5", "bad value for scenario.n_users: expected an integer, got '1.5'"),
    ],
)
def test_a_flag_value_its_key_cannot_parse_is_a_configuration_error(tmp_path, capsys, monkeypatch, flag, value, message):
    # a flag reads its value as the key's config file line does, so the message names the key
    monkeypatch.chdir(tmp_path)
    assert main(["run", "utilities-vs-time", flag, value]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "configuration error: %s\n" % message
    assert not list(tmp_path.iterdir())


# values in config file syntax: spellings of numbers, and texts no key can parse
TEXTS = ["1e2", "7.0", " 3 ", "+2", "1_0", "0.25", "-1", "0"]
TEXTS += ["", "nan", "inf", "1e400", "1e-300", "0x10", "abc", "9" * 30]


# 100 examples take about 1.2 s on a 2-vCPU machine
@settings(max_examples=100, deadline=None)
@given(key=st.sampled_from(OVERRIDES), text=st.sampled_from(TEXTS))
@example(key="n_users", text="1e2")
def test_a_flag_reads_its_value_as_the_config_file_line_does(key, text):
    # the flag on a short reduced run, against the same text as the key's line of the file
    base = config_to_text(with_scalar_overrides(load_config(REDUCED_CFG), dt=0.05, horizon=2.0))
    edited = re.sub(r"^%s = .*$" % key, "%s = %s" % (key, text), base, count=1, flags=re.M)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg, flags in (("flag", base, ["--%s=%s" % (key.replace("_", "-"), text)]), ("file", edited, [])):
            path = Path(tmp) / (name + ".cfg")
            path.write_text(cfg)
            out = Path(tmp) / name
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["run", "utilities-vs-time", "--config", str(path), "--out", str(out)] + flags)
            files = {f.name: f.read_bytes() for f in out.glob("*")}
            runs.append((code, err.getvalue(), files))
    assert runs[0] == runs[1]
    assert runs[0][0] != EXIT_OK or runs[0][2]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: irsgame run")


def test_run_missing_config_file(tmp_path, capsys):
    code = main(["run", "utilities-vs-time", "--config", str(tmp_path / "absent.cfg")])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_run_to_an_unwritable_out_is_a_configuration_error(tmp_path, capsys, reduced_file):
    (tmp_path / "data" / "convergence_speed.csv").mkdir(parents=True)
    for out in (reduced_file, tmp_path / "data"):  # a file, then a directory holding a directory of the CSV's name
        assert main(["run", "convergence-speed", "--config", str(reduced_file), "--out", str(out)]) == EXIT_CONFIG
        assert "configuration error: cannot write %s" % out in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, pair",
    [
        ("irs_position", "0, -0", "sp.1.bs_position and sp.1.irs_position"),
        ("user_position", "0.0, 0.0", "sp.1.bs_position and sp.1.user_position"),
        ("user_position", "50, 0", "sp.1.irs_position and sp.1.user_position"),
    ],
)
def test_validate_rejects_coinciding_positions(tmp_path, capsys, reduced_file, key, value, pair):
    # a link of length 0 has no path loss
    assert main(["validate", str(_edited(reduced_file, tmp_path, **{key: value}))]) == EXIT_CONFIG
    assert "%s must be distinct points" % pair in capsys.readouterr().err


def test_validate_rejects_an_empty_list_value(tmp_path, capsys, reduced_file):
    assert main(["validate", str(_edited(reduced_file, tmp_path, power_levels_dbm=""))]) == EXIT_CONFIG
    assert "bad value for sp.1.power_levels_dbm: empty list" in capsys.readouterr().err


def test_validate_rejects_a_provider_section_without_a_number(tmp_path, capsys, reduced_file):
    path = tmp_path / "sp_x.cfg"
    path.write_text(reduced_file.read_text().replace("[sp.2]", "[sp.x]"))
    assert main(["validate", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown section [sp.x]; provider sections are numbered consecutively from [sp.1]" in err
    assert "Traceback" not in err


def test_distance_price_sweep_with_a_bs_to_surface_distance_past_a_float(tmp_path, capsys, reduced_file):
    # each position is a finite float, so validate passes; their distance is not
    path = _edited(reduced_file, tmp_path, bs_position="-1e308, 0.0", irs_position="1e308, 0.0")
    assert main(["validate", str(path)]) == EXIT_OK
    code = main(["run", "distance-price-sweep", "--config", str(path), "--out", str(tmp_path / "data")])
    assert code == EXIT_NUMERIC
    assert "sp.1 BS to surface distance inf m is not finite" in capsys.readouterr().err


def test_a_run_that_fails_before_its_first_table_leaves_no_out_directory(tmp_path, capsys, reduced_file):
    # the directory is made when the first table is written, so a failed run leaves nothing
    path = _edited(reduced_file, tmp_path, bs_position="-1e308, 0.0", irs_position="1e308, 0.0")
    out = tmp_path / "wide" / "out"
    assert main(["run", "distance-price-sweep", "--config", str(path), "--out", str(out)]) == EXIT_NUMERIC
    assert "is not finite" in capsys.readouterr().err
    assert not (tmp_path / "wide").exists()
    # a run that succeeds makes the directory, parents included
    assert main(["run", "convergence-speed", "--config", str(reduced_file), "--out", str(out)]) == EXIT_OK
    assert sorted(f.name for f in out.iterdir()) == ["convergence_speed.csv"]


def test_irs_size_sweep_of_one_provider_is_a_configuration_error(tmp_path, capsys):
    # reduced.cfg without its second provider: the sweep has no sp.2 to resize
    path = tmp_path / "one_sp.cfg"
    path.write_text(REDUCED_CFG.read_text().split("[sp.2]")[0])
    out = tmp_path / "data"
    assert main(["run", "irs-size-sweep", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "irs-size-sweep needs a second provider to resize" in err and "Traceback" not in err
    assert not out.exists()


def test_validate_ok(tmp_path, capsys):
    path = tmp_path / "scenario.cfg"
    path.write_text(config_to_text(default_config()))
    assert main(["validate", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "ok: 2 provider(s), 6 service group(s), 100 user(s)"


def test_validate_broken_file(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("not an ini file [\n")
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_validate_needs_a_provider_section(tmp_path, capsys):
    path = tmp_path / "no_providers.cfg"
    path.write_text("[scenario]\nn_users = 100\n")
    assert main(["validate", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[sp.N]" in err and "Traceback" not in err


def test_bound_on_reduced_scenario(capsys, reduced_file):
    assert main(["bound", str(reduced_file)]) == EXIT_OK
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(21.095, rel=1e-3)


def test_bound_with_a_user_so_far_that_the_channel_entries_are_near_1e_160(tmp_path, capsys, reduced_file):
    # sp.1's effective channel has entries whose squares are subnormal; its MRT beam keeps the power budget
    assert main(["bound", str(_edited(reduced_file, tmp_path, user_position="1e155, 0.0"))]) == EXIT_OK
    out, err = capsys.readouterr()
    assert float(out) == pytest.approx(51.710261199935452, rel=1e-12) and err == ""


def test_bound_on_default_scenario(tmp_path, capsys):
    path = tmp_path / "full.cfg"
    path.write_text(config_to_text(default_config()))
    assert main(["bound", str(path)]) == EXIT_OK
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(46.841, rel=1e-4)


def test_bound_with_ruinous_prices(tmp_path, capsys):
    cfg = load_config(REDUCED_CFG)
    cfg = dataclasses.replace(
        cfg, sps=[dataclasses.replace(sp, price_irs=10.0) for sp in cfg.sps]
    )
    path = tmp_path / "ruinous.cfg"
    path.write_text(config_to_text(cfg))
    assert main(["bound", str(path)]) == EXIT_NUMERIC
    assert "numeric error" in capsys.readouterr().err


def test_convergence_speed_does_not_depend_on_the_horizon(tmp_path, capsys):
    # each point's equilibrium time comes from the exact solution, not from
    # samples up to the horizon; only the meta block records the horizon
    path = tmp_path / "short.cfg"
    path.write_text(config_to_text(with_scalar_overrides(default_config(), horizon=1.0)))
    assert main(["run", "convergence-speed", "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["run", "convergence-speed", "--config", str(path), "--out", str(tmp_path / "b")]) == EXIT_OK
    # so the flag is rejected rather than written into the meta block
    assert main(["run", "convergence-speed", "--out", str(tmp_path / "c"), "--horizon", "1"]) == EXIT_CONFIG
    assert "convergence-speed does not read --horizon" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()

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


def test_the_presets_that_find_a_rest_import_no_masked_arrays(tmp_path):
    # np.unique imports numpy.ma on its first call, 8-11 ms: a fresh process shows whether a run
    # pays for it
    package = Path(irsgame.__file__).parent
    script = textwrap.dedent(
        """
        import sys
        from irsgame.cli import main
        out, data = sys.argv[1:]
        for cfg in ("default", "reduced"):
            for preset in ("convergence-speed", "delay-sweep"):
                argv = ["run", preset, "--config", "%s/%s.cfg" % (data, cfg), "--out", "%s/%s/%s" % (out, cfg, preset)]
                assert main(argv) == 0
        print("numpy.ma" in sys.modules)
        """
    )
    path = os.pathsep.join(filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", script, str(tmp_path), str(package / "data")]
    run = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_convergence_speed_caps_the_equilibrium_index(tmp_path, capsys):
    # horizon / dt is within the cap, but the equilibrium index is not
    path = tmp_path / "fine.cfg"
    path.write_text(config_to_text(with_scalar_overrides(default_config(), dt=1e-17, horizon=1e-9)))
    code = main(["run", "convergence-speed", "--config", str(path), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "grid point mu=0.05 n_users=50" in err and str(MAX_STEPS) in err


def test_delay_sweep_with_ruinous_prices(tmp_path):
    # every group loses money: no delay bound, and the undelayed run still
    # ends on the simplex with a single surviving group
    cfg = load_config(REDUCED_CFG)
    cfg = dataclasses.replace(
        cfg,
        sps=[dataclasses.replace(sp, price_irs=10.0) for sp in cfg.sps],
        grids=dataclasses.replace(cfg.grids, delta=[0.0]),
    )
    path = tmp_path / "ruinous.cfg"
    path.write_text(config_to_text(cfg))
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


def test_delay_sweep_states_why_the_bound_is_not_computable(tmp_path):
    cfg = load_config(REDUCED_CFG)
    cfg = dataclasses.replace(cfg, mu=5e-324, grids=dataclasses.replace(cfg.grids, delta=[0.0]))
    path = tmp_path / "frozen.cfg"
    path.write_text(config_to_text(cfg))
    out = tmp_path / "data"
    assert main(["run", "delay-sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
    lines = (out / "delay_sweep_delta0.csv").read_text().splitlines()
    (line,) = [line for line in lines if line.startswith("# stability_bound = ")]
    reason = "no positive finite delay bound pi / (2 mu C+) for mu = 5e-324, C+ = "
    assert line.startswith("# stability_bound = not computable (" + reason)


# the run flags each preset reads, and the grids it sweeps in place of the rest
READS = {
    "utilities-vs-time": (("mu", "delta", "dt", "horizon", "n_users", "seed", "json"), ""),
    "convergence-speed": (("dt", "seed"), "grids.mu and grids.n_users"),
    "delay-sweep": (("mu", "dt", "horizon", "n_users", "seed", "json"), "grids.delta"),
    "irs-size-sweep": (("mu", "n_users", "seed"), "grids.irs_elements_sp2"),
    "distance-price-sweep": (("mu", "n_users", "seed"), "grids.distance and grids.price_irs_sp1"),
}
FLAG_VALUES = {
    "mu": ["0.3"], "delta": ["5"], "dt": ["0.05"], "horizon": ["5"], "n_users": ["7"], "seed": ["3"], "json": []
}


def test_the_preset_table_lists_the_flags_each_preset_reads():
    assert {preset: reads for preset, (_, reads, _) in PRESET_TABLE.items()} == {
        preset: reads for preset, (reads, _) in READS.items()
    }


@pytest.mark.parametrize(
    "preset, flag",
    [(preset, flag) for preset, (reads, _) in READS.items() for flag in FLAG_VALUES if flag not in reads],
)
def test_a_flag_the_preset_does_not_read_is_rejected(tmp_path, capsys, reduced_file, preset, flag):
    out = tmp_path / "data"
    typed = "--" + flag.replace("_", "-")
    code = main(["run", preset, "--config", str(reduced_file), "--out", str(out), typed] + FLAG_VALUES[flag])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "%s does not read %s; it sweeps %s" % (preset, typed, READS[preset][1]) in err
    assert "Traceback" not in err
    assert not out.exists()


# values at the edges of the float range and of the key ranges
EXTREMES = ["0", "1", "-1", "5e-324", "1e-300", "1e10", "1e-10", "1e300", "1e308", "2999", "-2999"]
INT_EXTREMES = ["0", "1", "-1", "2999", "-2999", "10000000000", "1" + "0" * 300]
# keys whose value sizes an array: drawn small or beyond their caps, never in between
COUNT_KEYS = ("antennas", "irs_elements", "irs_modules", "irs_elements_sp2")
SMALL_ENTRIES, SMALL_STEPS = 16, 40


@st.composite
def invocations(draw):
    """argv of one `irsgame` call on a fuzzed scenario text, written to a file named {cfg}."""
    cfg = draw(st.sampled_from([load_config(REDUCED_CFG), default_config()]) | scenarios(max_entries=SMALL_ENTRIES))
    horizon = cfg.integrator.horizon
    if draw(st.integers(0, 3)) == 3:  # a step count beyond the cap
        dt = horizon / (10.0 * MAX_STEPS)
    else:
        dt = draw(st.floats(min_value=horizon / SMALL_STEPS, exclude_min=True, allow_infinity=False))
    lines = config_to_text(cfg).splitlines()
    lines[lines.index("dt = %r" % cfg.integrator.dt)] = "dt = %r" % dt
    keys = [i for i, line in enumerate(lines) if " = " in line and line.split(" = ")[0] not in ("dt", "horizon")]
    for i in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        key = lines[i].split(" = ")[0]
        pool = [v for v in EXTREMES if v != "2999"] if key in COUNT_KEYS else EXTREMES
        lines[i] = "%s = %s" % (key, draw(st.sampled_from(pool)))
    command = draw(st.sampled_from(PRESETS + ("bound",)))
    if command == "bound":
        return "\n".join(lines) + "\n", ["bound", "{cfg}"]
    argv = ["run", command, "--config", "{cfg}"]
    steps = {"dt": repr(dt), "horizon": repr(horizon)}  # the flags repeat the drawn step count
    for flag in draw(st.lists(st.sampled_from(PRESET_TABLE[command][1]), unique=True)):
        if flag == "json":
            argv.append("--json")
        else:
            value = steps.get(flag) or draw(st.sampled_from(EXTREMES + INT_EXTREMES + TEXTS))
            argv.append("--%s=%s" % (flag.replace("_", "-"), value))
    return "\n".join(lines) + "\n", argv


# 150 examples take about 3.5 s on a 2-vCPU machine
@settings(max_examples=150, deadline=None)
@given(invocation=invocations())
# mu * C underflows, so an extinction time overflows: the rest must still leave that group empty
@example(
    invocation=(
        config_to_text(default_config()),
        ["run", "distance-price-sweep", "--config", "{cfg}", "--seed", "1", "--mu", "5e-324"],
    )
)
def test_no_input_ends_in_a_traceback(invocation):
    text, argv = invocation
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as printed:
        path = Path(tmp) / "fuzzed.cfg"
        path.write_text(text)
        out = Path(tmp) / "data"
        argv = [str(path) if a == "{cfg}" else a for a in argv]
        code = main(argv + (["--out", str(out)] if argv[0] == "run" else []))
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)
        if code != EXIT_OK:
            return
        if argv[0] == "bound":
            assert 0.0 < float(printed.getvalue()) < np.inf
        for csv in out.glob("*.csv"):
            body = [line for line in csv.read_text().splitlines() if not line.startswith("#")]
            header = body[0].split(",")
            rows = np.array([[float(x) for x in line.split(",")] for line in body[1:]])
            shares = rows[:, [i for i, col in enumerate(header) if col.startswith(("p_", "share_"))]]
            assert np.all(np.isfinite(shares)) and np.all(shares >= 0.0)
            if "p_1" in header:  # the share_sp columns leave out a third provider
                assert np.max(np.abs(shares.sum(axis=1) - 1.0)) <= 1e-9
