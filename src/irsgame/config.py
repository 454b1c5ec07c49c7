"""Scenario description, INI-style config files and validation.

A scenario is two or more service providers (BS + reflecting surface +
price list), a shared user population, the economic parameters and the
integration settings.  Config files are plain key = value text grouped in
sections ([scenario], [integrator], [pathloss], [sp.1], [sp.2], ...,
[grids]); see data/default.cfg for the reference scenario.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Optional

import numpy as np

from .channel import PathLossModel, Position
from .dynamics import IntegratorSpec
from .errors import ConfigurationError
from .game import ServiceIndex


def dbm_to_watt(dbm: float) -> float:
    """Convert a dBm level to watts: 10 ** ((dbm - 30) / 10)."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass
class SpConfig:
    """One service provider: radio front end, surface partition, prices, geometry."""

    antennas: int = 4
    bandwidth_mhz: float = 1.0
    power_levels_dbm: list = field(default_factory=lambda: [15.0, 30.0])
    price_irs: float = 0.1  # per active surface element
    price_power: float = 0.1  # per watt
    irs_elements: int = 8
    irs_modules: int = 2
    bs_position: Optional[Position] = None
    irs_position: Optional[Position] = None
    user_position: Optional[Position] = None

    @property
    def irs_elements_per_module(self) -> int:
        return self.irs_elements // self.irs_modules

    @property
    def n_services(self) -> int:
        return self.irs_modules * len(self.power_levels_dbm)


_DEFAULT_GRIDS = {
    "mu": [0.05, 0.1, 0.2, 0.4],
    "n_users": [50, 100, 200],
    "delta": [0.0, 30.0, 60.0, 130.0],
    "irs_elements_sp2": [4, 8, 12, 16, 20, 24, 28, 32],
    "distance": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0],
    "price_irs_sp1": [0.05, 0.1, 0.2],
}


@dataclass
class SweepGrids:
    """Sweep axes used by the experiment presets."""

    mu: list = field(default_factory=lambda: list(_DEFAULT_GRIDS["mu"]))
    n_users: list = field(default_factory=lambda: list(_DEFAULT_GRIDS["n_users"]))
    delta: list = field(default_factory=lambda: list(_DEFAULT_GRIDS["delta"]))
    irs_elements_sp2: list = field(default_factory=lambda: list(_DEFAULT_GRIDS["irs_elements_sp2"]))
    distance: list = field(default_factory=lambda: list(_DEFAULT_GRIDS["distance"]))
    price_irs_sp1: list = field(default_factory=lambda: list(_DEFAULT_GRIDS["price_irs_sp1"]))


@dataclass
class ScenarioConfig:
    """Full description of one simulation scenario."""

    sps: list = field(default_factory=list)
    n_users: int = 100
    mu: float = 0.1  # selection adaptation rate
    delta: float = 0.0  # decision delay
    seed: int = 42
    valuation: object = 1.0  # scalar or per-group list: value per rate unit
    noise_var: float = 3.9810717055349694e-13  # per-MHz noise variance, -94 dBm over 1 MHz
    p0: Optional[np.ndarray] = None  # initial shares, None means uniform
    pathloss: PathLossModel = field(default_factory=PathLossModel)
    integrator: IntegratorSpec = field(default_factory=IntegratorSpec)
    grids: SweepGrids = field(default_factory=SweepGrids)

    def __post_init__(self):
        self.validate()

    # --- group bookkeeping -------------------------------------------------

    @property
    def n_groups(self) -> int:
        return sum(sp.n_services for sp in self.sps)

    def service_indices(self) -> list:
        """Flat group order: providers ascending, then subsets, then power levels."""
        out = []
        for m, sp in enumerate(self.sps, start=1):
            for k in range(1, sp.irs_modules + 1):
                for j in range(1, len(sp.power_levels_dbm) + 1):
                    out.append(ServiceIndex(sp=m, subset=k, power_level=j))
        return out

    def group_index(self, svc: ServiceIndex) -> int:
        g = 0
        for m, sp in enumerate(self.sps, start=1):
            if m == svc.sp:
                if not (1 <= svc.subset <= sp.irs_modules and 1 <= svc.power_level <= len(sp.power_levels_dbm)):
                    raise ConfigurationError("service %r does not exist in this scenario" % (svc,))
                return g + (svc.subset - 1) * len(sp.power_levels_dbm) + (svc.power_level - 1)
            g += sp.n_services
        raise ConfigurationError("service %r does not exist in this scenario" % (svc,))

    def initial_population(self) -> np.ndarray:
        if self.p0 is None:
            return np.full(self.n_groups, 1.0 / self.n_groups)
        return np.asarray(self.p0, dtype=float).copy()

    def groups_of_sp(self, m: int) -> list:
        return [g for g, svc in enumerate(self.service_indices()) if svc.sp == m]

    # --- validation ---------------------------------------------------------

    def validate(self) -> None:
        errors = []
        if not self.sps:
            errors.append("scenario needs at least one [sp.N] section")
        if self.n_users < 1:
            errors.append("scenario.n_users must be at least 1")
        # written so that NaN fails the checks too
        if not 0 < self.mu < math.inf:
            errors.append("scenario.mu must be positive and finite")
        if not 0 <= self.delta < math.inf:
            errors.append("scenario.delta must be non-negative and finite")
        if not 0 < self.noise_var < math.inf:
            errors.append("scenario.noise_var must be positive and finite")
        for m, sp in enumerate(self.sps, start=1):
            prefix = "sp.%d" % m
            if sp.antennas < 1:
                errors.append("%s.antennas must be at least 1" % prefix)
            if sp.bandwidth_mhz <= 0:
                errors.append("%s.bandwidth_mhz must be positive" % prefix)
            if sp.irs_elements < 1:
                errors.append("%s.irs_elements must be at least 1" % prefix)
            if sp.irs_modules < 1:
                errors.append("%s.irs_modules must be at least 1" % prefix)
            elif sp.irs_elements % sp.irs_modules != 0:
                errors.append(
                    "%s: irs_elements = %d is not divisible by irs_modules = %d"
                    " (irs_elements == irs_modules * elements_per_module)"
                    % (prefix, sp.irs_elements, sp.irs_modules)
                )
            if not sp.power_levels_dbm:
                errors.append("%s.power_levels_dbm must not be empty" % prefix)
            elif any(b <= a for a, b in zip(sp.power_levels_dbm, sp.power_levels_dbm[1:])):
                errors.append("%s.power_levels_dbm must be strictly ascending" % prefix)
            if sp.price_irs < 0 or sp.price_power < 0:
                errors.append("%s prices must be non-negative" % prefix)
        if not errors:
            v = np.asarray(self.valuation, dtype=float)
            if v.ndim not in (0, 1) or (v.ndim == 1 and v.shape != (self.n_groups,)):
                errors.append(
                    "scenario.valuation must be a scalar or %d comma-separated values" % self.n_groups
                )
            elif np.any(np.atleast_1d(v) <= 0):
                errors.append("scenario.valuation entries must be positive")
            if self.p0 is not None:
                p = np.asarray(self.p0, dtype=float)
                if p.shape != (self.n_groups,):
                    errors.append("scenario.p0 must have one share per group (%d)" % self.n_groups)
                elif np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-9:
                    errors.append("scenario.p0 must be non-negative and sum to 1 within 1e-9")
        for name in ("mu", "n_users", "delta", "irs_elements_sp2", "distance", "price_irs_sp1"):
            grid = getattr(self.grids, name)
            if not grid:
                errors.append("grids.%s must not be empty" % name)
            elif any(b <= a for a, b in zip(grid, grid[1:])):
                errors.append("grids.%s must be strictly increasing" % name)
        if errors:
            raise ConfigurationError("\n".join(errors))

    # --- serialization ------------------------------------------------------

    def flat_items(self) -> list:
        """(key, value) pairs of the fully resolved scenario, stable order."""
        items = [
            ("scenario.n_users", _fmt(self.n_users)),
            ("scenario.mu", _fmt(self.mu)),
            ("scenario.delta", _fmt(self.delta)),
            ("scenario.seed", _fmt(self.seed)),
            ("scenario.valuation", _fmt(self.valuation)),
            ("scenario.noise_var", _fmt(self.noise_var)),
            ("scenario.p0", _fmt(list(self.initial_population()))),
            ("integrator.method", self.integrator.method),
            ("integrator.dt", _fmt(self.integrator.dt)),
            ("integrator.horizon", _fmt(self.integrator.horizon)),
            ("integrator.renormalize", _fmt(self.integrator.renormalize)),
            ("integrator.drift_tol", _fmt(self.integrator.drift_tol)),
            ("pathloss.pl0_db", _fmt(self.pathloss.pl0_db)),
            ("pathloss.d0", _fmt(self.pathloss.d0)),
            ("pathloss.alpha_direct", _fmt(self.pathloss.alpha_direct)),
            ("pathloss.alpha_bs_irs", _fmt(self.pathloss.alpha_bs_irs)),
            ("pathloss.alpha_irs_user", _fmt(self.pathloss.alpha_irs_user)),
        ]
        for m, sp in enumerate(self.sps, start=1):
            prefix = "sp.%d" % m
            items += [
                (prefix + ".antennas", _fmt(sp.antennas)),
                (prefix + ".bandwidth_mhz", _fmt(sp.bandwidth_mhz)),
                (prefix + ".power_levels_dbm", _fmt(sp.power_levels_dbm)),
                (prefix + ".price_irs", _fmt(sp.price_irs)),
                (prefix + ".price_power", _fmt(sp.price_power)),
                (prefix + ".irs_elements", _fmt(sp.irs_elements)),
                (prefix + ".irs_modules", _fmt(sp.irs_modules)),
                (prefix + ".bs_position", _fmt([sp.bs_position.x, sp.bs_position.y])),
                (prefix + ".irs_position", _fmt([sp.irs_position.x, sp.irs_position.y])),
                (prefix + ".user_position", _fmt([sp.user_position.x, sp.user_position.y])),
            ]
        for name in ("mu", "n_users", "delta", "irs_elements_sp2", "distance", "price_irs_sp1"):
            items.append(("grids." + name, _fmt(getattr(self.grids, name))))
        return items


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple, np.ndarray)):
        return ", ".join(_fmt(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# --- parsing -----------------------------------------------------------------

_SCENARIO_KEYS = {"n_users", "mu", "delta", "seed", "valuation", "noise_var", "p0"}
_INTEGRATOR_KEYS = {"method", "dt", "horizon", "renormalize", "drift_tol"}
_PATHLOSS_KEYS = {"pl0_db", "d0", "alpha_direct", "alpha_bs_irs", "alpha_irs_user"}
_SP_KEYS = {
    "antennas",
    "bandwidth_mhz",
    "power_levels_dbm",
    "price_irs",
    "price_power",
    "irs_elements",
    "irs_modules",
    "bs_position",
    "irs_position",
    "user_position",
}
_GRID_KEYS = {"mu", "n_users", "delta", "irs_elements_sp2", "distance", "price_irs_sp1"}


class _Section:
    """Typed access to one config section with path-qualified errors."""

    def __init__(self, name: str, raw: dict, allowed: set):
        self.name = name
        self.raw = raw
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigurationError(
                "unknown key(s) in [%s]: %s" % (name, ", ".join(sorted(unknown)))
            )

    def _parse(self, key, conv, default):
        if key not in self.raw:
            if default is not _REQUIRED:
                return default
            raise ConfigurationError("missing required key %s.%s" % (self.name, key))
        try:
            return conv(self.raw[key])
        except (TypeError, ValueError) as exc:
            raise ConfigurationError("bad value for %s.%s: %s" % (self.name, key, exc)) from None

    def get_float(self, key, default=None):
        return self._parse(key, float, default)

    def get_int(self, key, default=None):
        return self._parse(key, _to_int, default)

    def get_str(self, key, default=None):
        return self._parse(key, str, default)

    def get_bool(self, key, default=None):
        return self._parse(key, _to_bool, default)

    def get_floats(self, key, default=None):
        return self._parse(key, lambda s: [float(x) for x in _split(s)], default)

    def get_ints(self, key, default=None):
        return self._parse(key, lambda s: [_to_int(x) for x in _split(s)], default)

    def get_position(self, key, default=None):
        def conv(s):
            parts = [float(x) for x in _split(s)]
            if len(parts) != 2:
                raise ValueError("a position needs exactly two coordinates")
            return Position(parts[0], parts[1])

        return self._parse(key, conv, default)


_REQUIRED = object()


def _split(s: str) -> list:
    parts = [p.strip() for p in str(s).split(",")]
    if parts == [""]:
        raise ValueError("empty list")
    return parts


def _to_int(s) -> int:
    f = float(s)
    i = int(f)
    if i != f:
        raise ValueError("expected an integer, got %r" % (s,))
    return i


def _to_bool(s) -> bool:
    v = str(s).strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ValueError("expected a boolean, got %r" % (s,))


def parse_config(text: str) -> ScenarioConfig:
    """Parse a config from its text form."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError("config syntax error: %s" % exc) from None
    known = {"scenario", "integrator", "pathloss", "grids"}
    sp_names = sorted(
        (s for s in cp.sections() if s.startswith("sp.")),
        key=lambda s: _sp_number(s),
    )
    for s in cp.sections():
        if s not in known and s not in sp_names:
            raise ConfigurationError("unknown section [%s]" % s)
    if not sp_names:
        raise ConfigurationError("config must define at least one [sp.N] section")
    expected = ["sp.%d" % i for i in range(1, len(sp_names) + 1)]
    if sp_names != expected:
        raise ConfigurationError(
            "provider sections must be numbered consecutively from sp.1, got %s" % sp_names
        )

    sec = lambda name, keys: _Section(name, dict(cp[name]) if cp.has_section(name) else {}, keys)

    sc = sec("scenario", _SCENARIO_KEYS)
    valuation_raw = sc.get_str("valuation", "1.0")
    valuation = (
        [float(x) for x in _split(valuation_raw)] if "," in valuation_raw else float(valuation_raw)
    )
    p0_raw = sc.get_floats("p0", None)

    it = sec("integrator", _INTEGRATOR_KEYS)
    integrator = IntegratorSpec(
        method=it.get_str("method", "rk4"),
        dt=it.get_float("dt", 0.01),
        horizon=it.get_float("horizon", 600.0),
        renormalize=it.get_bool("renormalize", True),
        drift_tol=it.get_float("drift_tol", 1e-6),
    )

    pl = sec("pathloss", _PATHLOSS_KEYS)
    pathloss = PathLossModel(
        pl0_db=pl.get_float("pl0_db", -30.0),
        d0=pl.get_float("d0", 1.0),
        alpha_direct=pl.get_float("alpha_direct", 6.0),
        alpha_bs_irs=pl.get_float("alpha_bs_irs", 2.0),
        alpha_irs_user=pl.get_float("alpha_irs_user", 2.0),
    )

    sps = []
    for name in sp_names:
        s = _Section(name, dict(cp[name]), _SP_KEYS)
        sps.append(
            SpConfig(
                antennas=s.get_int("antennas", _REQUIRED),
                bandwidth_mhz=s.get_float("bandwidth_mhz", 1.0),
                power_levels_dbm=s.get_floats("power_levels_dbm", _REQUIRED),
                price_irs=s.get_float("price_irs", 0.1),
                price_power=s.get_float("price_power", 0.1),
                irs_elements=s.get_int("irs_elements", _REQUIRED),
                irs_modules=s.get_int("irs_modules", _REQUIRED),
                bs_position=s.get_position("bs_position", _REQUIRED),
                irs_position=s.get_position("irs_position", _REQUIRED),
                user_position=s.get_position("user_position", _REQUIRED),
            )
        )

    gr = sec("grids", _GRID_KEYS)
    grids = SweepGrids(
        mu=gr.get_floats("mu", list(_DEFAULT_GRIDS["mu"])),
        n_users=gr.get_ints("n_users", list(_DEFAULT_GRIDS["n_users"])),
        delta=gr.get_floats("delta", list(_DEFAULT_GRIDS["delta"])),
        irs_elements_sp2=gr.get_ints("irs_elements_sp2", list(_DEFAULT_GRIDS["irs_elements_sp2"])),
        distance=gr.get_floats("distance", list(_DEFAULT_GRIDS["distance"])),
        price_irs_sp1=gr.get_floats("price_irs_sp1", list(_DEFAULT_GRIDS["price_irs_sp1"])),
    )

    return ScenarioConfig(
        sps=sps,
        n_users=sc.get_int("n_users", 100),
        mu=sc.get_float("mu", 0.1),
        delta=sc.get_float("delta", 0.0),
        seed=sc.get_int("seed", 42),
        valuation=valuation,
        noise_var=sc.get_float("noise_var", 3.9810717055349694e-13),
        p0=None if p0_raw is None else np.asarray(p0_raw, dtype=float),
        pathloss=pathloss,
        integrator=integrator,
        grids=grids,
    )


def load_config(path) -> ScenarioConfig:
    """Load and validate a scenario config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError("cannot read config %s: %s" % (path, exc)) from None
    return parse_config(text)


def config_to_text(cfg: ScenarioConfig) -> str:
    """Serialize the fully resolved scenario back to config text.

    parse_config(config_to_text(cfg)) reproduces cfg exactly: floats are
    written with round-trip precision and defaults are materialized.
    """
    out = io.StringIO()

    def section(name, pairs):
        out.write("[%s]\n" % name)
        for k, v in pairs:
            out.write("%s = %s\n" % (k, v))
        out.write("\n")

    section(
        "scenario",
        [
            ("n_users", _fmt(cfg.n_users)),
            ("mu", _fmt(cfg.mu)),
            ("delta", _fmt(cfg.delta)),
            ("seed", _fmt(cfg.seed)),
            ("valuation", _fmt(cfg.valuation)),
            ("noise_var", _fmt(cfg.noise_var)),
            ("p0", _fmt(list(cfg.initial_population()))),
        ],
    )
    section(
        "integrator",
        [
            ("method", cfg.integrator.method),
            ("dt", _fmt(cfg.integrator.dt)),
            ("horizon", _fmt(cfg.integrator.horizon)),
            ("renormalize", _fmt(cfg.integrator.renormalize)),
            ("drift_tol", _fmt(cfg.integrator.drift_tol)),
        ],
    )
    section(
        "pathloss",
        [
            ("pl0_db", _fmt(cfg.pathloss.pl0_db)),
            ("d0", _fmt(cfg.pathloss.d0)),
            ("alpha_direct", _fmt(cfg.pathloss.alpha_direct)),
            ("alpha_bs_irs", _fmt(cfg.pathloss.alpha_bs_irs)),
            ("alpha_irs_user", _fmt(cfg.pathloss.alpha_irs_user)),
        ],
    )
    for m, sp in enumerate(cfg.sps, start=1):
        section(
            "sp.%d" % m,
            [
                ("antennas", _fmt(sp.antennas)),
                ("bandwidth_mhz", _fmt(sp.bandwidth_mhz)),
                ("power_levels_dbm", _fmt(sp.power_levels_dbm)),
                ("price_irs", _fmt(sp.price_irs)),
                ("price_power", _fmt(sp.price_power)),
                ("irs_elements", _fmt(sp.irs_elements)),
                ("irs_modules", _fmt(sp.irs_modules)),
                ("bs_position", _fmt([sp.bs_position.x, sp.bs_position.y])),
                ("irs_position", _fmt([sp.irs_position.x, sp.irs_position.y])),
                ("user_position", _fmt([sp.user_position.x, sp.user_position.y])),
            ],
        )
    section("grids", [(k, _fmt(getattr(cfg.grids, k))) for k in
                      ("mu", "n_users", "delta", "irs_elements_sp2", "distance", "price_irs_sp1")])
    return out.getvalue()


def save_config(cfg: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_to_text(cfg))


def _sp_number(name: str) -> int:
    try:
        return int(name.split(".", 1)[1])
    except (IndexError, ValueError):
        raise ConfigurationError("bad provider section name [%s], expected [sp.N]" % name) from None


def default_config() -> ScenarioConfig:
    """The bundled reference scenario (two providers, six services)."""
    return parse_config(resources.files("irsgame").joinpath("data/default.cfg").read_text())


def reduced_config() -> ScenarioConfig:
    """The bundled reduced scenario: one service per provider, delay bound defined."""
    return parse_config(resources.files("irsgame").joinpath("data/reduced.cfg").read_text())


def with_scalar_overrides(cfg: ScenarioConfig, **kwargs) -> ScenarioConfig:
    """Copy cfg with CLI-style scalar overrides (mu, delta, dt, horizon, n_users, seed)."""
    cfg_kwargs = {}
    for key in ("mu", "delta", "n_users", "seed"):
        if kwargs.get(key) is not None:
            cfg_kwargs[key] = kwargs[key]
    integrator = {k: kwargs[k] for k in ("dt", "horizon") if kwargs.get(k) is not None}
    if integrator:
        cfg_kwargs["integrator"] = replace(cfg.integrator, **integrator)
    return replace(cfg, **cfg_kwargs) if cfg_kwargs else cfg
