"""Config parsing, validation messages and round-trip serialization."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsgame import (
    ConfigurationError,
    IntegratorSpec,
    PathLossModel,
    Position,
    ScenarioConfig,
    ServiceIndex,
    SpConfig,
    SweepGrids,
    dbm_to_watt,
    default_config,
    load_config,
    parse_config,
    with_scalar_overrides,
)
from irsgame.config import MAX_CHANNEL_ENTRIES, _keys
from irsgame.dynamics import MAX_STEPS
from oracle import config_to_text

MINIMAL = """
[sp.1]
antennas = 2
power_levels_dbm = 20
irs_elements = 4
irs_modules = 1
bs_position = 0, 0
irs_position = 10, 0
user_position = 20, 0
"""


def test_dbm_conversion():
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watt(15.0) == pytest.approx(10.0 ** -1.5, rel=1e-12)


def test_default_scenario_shape():
    cfg = default_config()
    assert len(cfg.sps) == 2
    assert cfg.n_users == 100
    assert cfg.mu == 0.1
    assert cfg.delta == 0.0
    assert cfg.seed == 42
    sp1, sp2 = cfg.sps
    assert sp1.antennas == 4 and sp2.antennas == 4
    assert sp1.irs_elements == 8 and sp2.irs_elements == 8
    assert sp1.irs_modules == 2 and sp2.irs_modules == 1
    assert sp1.power_levels_dbm == [15.0, 30.0]
    assert sp2.power_levels_dbm == [10.0, 20.0]
    assert cfg.n_groups == 6
    assert cfg.integrator.dt == 0.01
    assert cfg.integrator.horizon == 600.0
    # one noise floor for the unit bandwidth: -94 dBm
    assert cfg.noise_var * sp1.bandwidth_mhz == pytest.approx(dbm_to_watt(-94.0), rel=1e-9)


def test_default_grids():
    g = default_config().grids
    assert g.mu == [0.05, 0.1, 0.2, 0.4]
    assert g.n_users == [50, 100, 200]
    assert g.irs_elements_sp2 == [4, 8, 12, 16, 20, 24, 28, 32]
    assert g.distance == [float(d) for d in range(10, 101, 10)]
    assert g.price_irs_sp1 == [0.05, 0.1, 0.2]
    assert len(g.delta) >= 3 and g.delta[0] == 0.0


def test_reduced_scenario_shape(reduced_cfg):
    cfg = reduced_cfg
    assert cfg.n_groups == 2
    for sp in cfg.sps:
        assert sp.irs_modules == 1
        assert len(sp.power_levels_dbm) == 1


def test_service_index_order():
    cfg = default_config()
    svcs = cfg.service_indices()
    assert svcs == [
        ServiceIndex(1, 1, 1),
        ServiceIndex(1, 1, 2),
        ServiceIndex(1, 2, 1),
        ServiceIndex(1, 2, 2),
        ServiceIndex(2, 1, 1),
        ServiceIndex(2, 1, 2),
    ]
    assert cfg.groups_of_sp(1) == [0, 1, 2, 3]
    assert cfg.groups_of_sp(2) == [4, 5]


def test_initial_population():
    cfg = default_config()
    assert np.allclose(cfg.initial_population(), 1.0 / 6.0)
    explicit = dataclasses.replace(cfg, p0=np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1]))
    assert np.array_equal(
        explicit.initial_population(), [0.5, 0.1, 0.1, 0.1, 0.1, 0.1]
    )


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert len(cfg.sps) == 1
    assert cfg.n_groups == 1
    assert cfg.n_users == 100  # default
    assert cfg.sps[0].bandwidth_mhz == 1.0
    assert cfg.sps[0].bs_position.x == 0.0
    assert cfg.sps[0].user_position.x == 20.0


def test_round_trip_preserves_everything():
    cfg = default_config()
    cfg = dataclasses.replace(cfg, mu=1.0 / 3.0)  # exercise repr round-trip
    back = parse_config(config_to_text(cfg))
    assert back.flat_items() == cfg.flat_items()
    assert back.mu == cfg.mu


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
decibels = st.floats(min_value=-3000.0, max_value=3000.0, exclude_min=True, exclude_max=True)
positions = st.builds(Position, finite, finite)


def ascending(values):
    return st.lists(values, min_size=1, max_size=4, unique=True).map(sorted)


@st.composite
def providers(draw, max_entries=MAX_CHANNEL_ENTRIES):
    modules = draw(st.integers(1, 4))
    # within the channel cap: antennas * irs_elements <= max_entries <= MAX_CHANNEL_ENTRIES
    antennas = draw(st.integers(1, max_entries // modules))
    bs, irs, user = draw(st.lists(positions, min_size=3, max_size=3, unique=True))  # -0.0 == 0.0 here too
    return SpConfig(
        antennas=antennas,
        bandwidth_mhz=draw(positive),
        power_levels_dbm=draw(ascending(decibels)),
        price_irs=draw(non_negative),
        price_power=draw(non_negative),
        irs_elements=modules * draw(st.integers(1, max_entries // (antennas * modules))),
        irs_modules=modules,
        bs_position=bs,
        irs_position=irs,
        user_position=user,
    )


@st.composite
def scenarios(draw, max_entries=MAX_CHANNEL_ENTRIES):
    """Valid scenarios with at most max_entries channel entries per provider."""
    sps = draw(st.lists(providers(max_entries), min_size=1, max_size=3))
    horizon = draw(positive)
    n_groups = sum(sp.n_services for sp in sps)
    per_group = dict(min_size=n_groups, max_size=n_groups)
    weights = st.lists(st.floats(0.01, 1.0), **per_group).map(lambda w: np.array(w) / sum(w))
    surface_sizes = st.integers(min_value=1)
    if len(sps) > 1:  # irs-size-sweep gives each entry to sp.2 as its irs_elements
        m, top = sps[1].irs_modules, max_entries // sps[1].antennas
        surface_sizes = st.integers(1, top // m).map(lambda k: m * k)
    return ScenarioConfig(
        sps=sps,
        n_users=draw(st.integers(1, 10**9)),
        mu=draw(positive),
        delta=draw(non_negative),
        seed=draw(st.integers(0, 2**64)),
        valuation=draw(positive | st.lists(positive, **per_group)),
        noise_var=draw(positive),
        p0=draw(st.none() | weights),
        pathloss=PathLossModel(
            pl0_db=draw(decibels),
            d0=draw(positive),
            alpha_direct=draw(non_negative),
            alpha_bs_irs=draw(non_negative),
            alpha_irs_user=draw(non_negative),
        ),
        integrator=IntegratorSpec(
            # a dt above horizon / MAX_STEPS keeps the step count within the cap; near the
            # float limit, rounding the step count up may put the last sample time past it
            dt=draw(
                st.floats(min_value=horizon / MAX_STEPS, exclude_min=True, allow_infinity=False).filter(
                    lambda dt: math.ceil(horizon / dt - 1e-9) * dt < math.inf
                )
            ),
            horizon=horizon,
        ),
        grids=SweepGrids(
            mu=draw(ascending(positive)),
            n_users=draw(ascending(st.integers(1, 2**53))),
            delta=draw(ascending(non_negative)),
            irs_elements_sp2=draw(ascending(surface_sizes)),
            distance=draw(ascending(positive)),
            price_irs_sp1=draw(ascending(non_negative)),
        ),
    )


@settings(max_examples=200, deadline=None)
@given(cfg=scenarios())
def test_round_trip_of_random_scenarios(cfg):
    assert parse_config(config_to_text(cfg)).flat_items() == cfg.flat_items()


def test_written_keys_are_the_section_fields():
    written = {}
    for line in config_to_text(default_config()).splitlines():
        if line.startswith("["):
            keys = written.setdefault(line.strip("[]"), [])
        elif line:
            keys.append(line.split(" = ")[0])
    assert list(written) == ["scenario", "integrator", "pathloss", "sp.1", "sp.2", "grids"]

    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    sections = ("sps", "pathloss", "integrator", "grids")
    assert written["scenario"] == [n for n in names(ScenarioConfig) if n not in sections]
    assert written["integrator"] == names(IntegratorSpec)
    assert written["pathloss"] == names(PathLossModel)
    assert written["sp.1"] == written["sp.2"] == names(SpConfig)
    assert written["grids"] == names(SweepGrids)


def test_every_key_but_p0_has_a_range():
    # _field_errors checks a key only through its field's range metadata; p0
    # has validate's simplex rule instead
    sections = (ScenarioConfig, IntegratorSpec, PathLossModel, SpConfig, SweepGrids)
    keys = [f for cls in sections for f in _keys(cls)]
    assert {f.type for f in keys} >= {"int", "float", "list[int]", "list[float]", "float | list[float]"}
    assert [f.name for f in keys if "range" not in f.metadata] == ["p0"]


def test_save_and_load(tmp_path):
    cfg = default_config()
    path = tmp_path / "scenario.cfg"
    path.write_text(config_to_text(cfg))
    back = load_config(path)
    assert back.flat_items() == cfg.flat_items()


def test_load_missing_file():
    with pytest.raises(ConfigurationError):
        load_config("/nonexistent/scenario.cfg")


def test_unknown_key_and_section_rejected():
    with pytest.raises(ConfigurationError, match=r"unknown key.*sp\.1"):
        parse_config(MINIMAL + "beams = 3\n")
    # the reference integrate_ode is rk4 only; the stepping method is not a config key
    with pytest.raises(ConfigurationError, match=r"unknown key\(s\) in \[integrator\]: method"):
        parse_config(MINIMAL + "[integrator]\nmethod = rk4\n")
    # every step is projected onto the simplex; there is no key to turn that off
    with pytest.raises(ConfigurationError, match=r"unknown key\(s\) in \[integrator\]: renormalize"):
        parse_config(MINIMAL + "[integrator]\nrenormalize = false\n")
    # the per-step drift tolerance is dynamics.DRIFT_TOL, not a key
    with pytest.raises(ConfigurationError, match=r"unknown key\(s\) in \[integrator\]: drift_tol"):
        parse_config(MINIMAL + "[integrator]\ndrift_tol = 1e-6\n")
    with pytest.raises(ConfigurationError, match=r"unknown section"):
        parse_config(MINIMAL + "[turbo]\nx = 1\n")


def test_missing_required_key_names_the_path():
    broken = MINIMAL.replace("antennas = 2\n", "")
    with pytest.raises(ConfigurationError, match=r"sp\.1\.antennas"):
        parse_config(broken)


def test_sp_sections_must_be_consecutive():
    # the N provider sections must be [sp.1] ... [sp.N]: any other is an unknown section, named
    for sections, bad in (
        (["sp.2"], "sp.2"),
        (["sp.x"], "sp.x"),
        (["sp.01"], "sp.01"),
        (["sp.1", "sp.3"], "sp.3"),  # a gap
    ):
        text = "".join(MINIMAL.replace("[sp.1]", "[%s]" % name) for name in sections)
        message = r"unknown section \[%s\]; provider sections are numbered consecutively" % bad.replace(".", r"\.")
        with pytest.raises(ConfigurationError, match=message):
            parse_config(text)


def test_module_partition_invariant():
    bad = MINIMAL.replace("irs_modules = 1", "irs_modules = 3")
    with pytest.raises(ConfigurationError, match="not divisible"):
        parse_config(bad)
    # irs-size-sweep gives each grids.irs_elements_sp2 entry to sp.2 as its irs_elements
    two = MINIMAL + MINIMAL.replace("[sp.1]", "[sp.2]").replace("irs_modules = 1", "irs_modules = 2")
    assert parse_config(two + "[grids]\nirs_elements_sp2 = 2, 6\n").grids.irs_elements_sp2 == [2, 6]
    with pytest.raises(ConfigurationError, match=r"grids\.irs_elements_sp2 entries .* sp\.2\.irs_modules = 2"):
        parse_config(two + "[grids]\nirs_elements_sp2 = 2, 5\n")


def test_channel_size_cap():
    # MINIMAL has 4 surface elements; the cap holds before any channel is drawn
    at_cap = MINIMAL.replace("antennas = 2", "antennas = %d" % (MAX_CHANNEL_ENTRIES // 4))
    assert parse_config(at_cap).sps[0].antennas == MAX_CHANNEL_ENTRIES // 4
    for antennas in ("%d" % (MAX_CHANNEL_ENTRIES // 4 + 1), "1e10", "1e300"):
        with pytest.raises(ConfigurationError, match=r"sp\.1: antennas \* irs_elements must be at most 1000000"):
            parse_config(MINIMAL.replace("antennas = 2", "antennas = " + antennas))
    # and for every size irs-size-sweep gives sp.2 (2 antennas)
    two = MINIMAL + MINIMAL.replace("[sp.1]", "[sp.2]")
    at_cap = "[grids]\nirs_elements_sp2 = 4, %d\n" % (MAX_CHANNEL_ENTRIES // 2)
    assert parse_config(two + at_cap).grids.irs_elements_sp2 == [4, MAX_CHANNEL_ENTRIES // 2]
    with pytest.raises(ConfigurationError, match=r"grids\.irs_elements_sp2 .* sp\.2\.antennas \* entry at most 1000000"):
        parse_config(two + "[grids]\nirs_elements_sp2 = 4, %d\n" % (MAX_CHANNEL_ENTRIES // 2 + 1))


def test_population_size_cap():
    # float(n_users) is exact up to 2**53
    assert parse_config("[scenario]\nn_users = %d\n" % 2**53 + MINIMAL).n_users == 2**53
    for section, key in (("scenario", "scenario.n_users must"), ("grids", "grids.n_users entries must")):
        with pytest.raises(ConfigurationError, match=r"%s be at least 1 and at most 2\*\*53" % key):
            parse_config("[%s]\nn_users = %d\n" % (section, 2**53 + 1) + MINIMAL)


def test_power_levels_must_ascend():
    bad = MINIMAL.replace("power_levels_dbm = 20", "power_levels_dbm = 20, 10")
    with pytest.raises(ConfigurationError, match="ascending"):
        parse_config(bad)


def test_bad_scalar_values_name_the_key():
    with pytest.raises(ConfigurationError, match=r"sp\.1\.antennas"):
        parse_config(MINIMAL.replace("antennas = 2", "antennas = 2.5"))
    with pytest.raises(ConfigurationError, match=r"scenario\.mu"):
        parse_config(MINIMAL + "[scenario]\nmu = fast\n")
    with pytest.raises(ConfigurationError, match="position"):
        parse_config(MINIMAL.replace("bs_position = 0, 0", "bs_position = 0, 0, 0"))


def test_p0_validation():
    good = MINIMAL + "[scenario]\np0 = 0.4, 0.6\n"
    with pytest.raises(ConfigurationError, match="p0"):
        parse_config(good)  # one group, two shares
    cfg = parse_config(MINIMAL + "[scenario]\np0 = 1.0\n")
    assert np.array_equal(cfg.initial_population(), [1.0])


def test_valuation_forms():
    cfg = parse_config(MINIMAL + "[scenario]\nvaluation = 2.5\n")
    assert cfg.valuation == 2.5
    two_groups = MINIMAL.replace("power_levels_dbm = 20", "power_levels_dbm = 10, 20")
    cfg = parse_config(two_groups + "[scenario]\nvaluation = 1.0, 2.0\n")
    assert cfg.valuation == [1.0, 2.0]
    with pytest.raises(ConfigurationError, match="valuation"):
        parse_config(MINIMAL + "[scenario]\nvaluation = 1.0, 2.0\n")
    with pytest.raises(ConfigurationError, match="valuation"):
        parse_config(MINIMAL + "[scenario]\nvaluation = -1.0\n")


def test_grid_validation():
    with pytest.raises(ConfigurationError, match=r"grids\.mu"):
        parse_config(MINIMAL + "[grids]\nmu = 0.4, 0.2\n")


def test_an_empty_list_key_through_the_api_is_rejected(default_cfg):
    # a file cannot give an empty list (the parser rejects it), but a SweepGrids built in code can
    with pytest.raises(ConfigurationError, match=r"grids\.mu must not be empty"):
        dataclasses.replace(default_cfg, grids=SweepGrids(mu=[]))


def test_config_syntax_error():
    with pytest.raises(ConfigurationError, match="syntax"):
        parse_config("not an ini file [")


def test_scalar_overrides():
    cfg = default_config()
    out = with_scalar_overrides(cfg, mu=0.5, delta=3.0, dt=0.1, horizon=50.0, n_users=10, seed=7)
    assert out.mu == 0.5 and out.delta == 3.0
    assert out.integrator.dt == 0.1 and out.integrator.horizon == 50.0
    assert out.n_users == 10 and out.seed == 7
    assert cfg.mu == 0.1  # original untouched
    same = with_scalar_overrides(cfg)
    assert same is cfg
    with pytest.raises(ConfigurationError, match="unknown override 'n_user'"):
        with_scalar_overrides(cfg, n_user=7)
