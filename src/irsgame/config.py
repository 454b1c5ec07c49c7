"""Scenario description, INI-style config files and validation.

A scenario is two or more service providers (BS + reflecting surface +
price list), a shared user population, the economic parameters and the
integration settings.  Config files are plain key = value text grouped in
sections ([scenario], [integrator], [pathloss], [sp.1], [sp.2], ...,
[grids]); see data/default.cfg for the reference scenario.

Each key is a field of its section's dataclass (ScenarioConfig's scalars,
IntegratorSpec, PathLossModel, SpConfig, SweepGrids): it is parsed by its
annotation, defaults to its field default, and "required" field metadata
makes it mandatory.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from itertools import groupby
from typing import Optional

import numpy as np

from .channel import PathLossModel, Position, require_positions
from .dynamics import IntegratorSpec
from .errors import ConfigurationError

_REQUIRED = {"required": True}  # field metadata: a config file must set this key
# grid field metadata: the range of the key the grid sweeps, as a test and its wording
_POSITIVE = {"entries": (lambda x: x > 0, "positive and finite")}
_NON_NEGATIVE = {"entries": (lambda x: x >= 0, "non-negative and finite")}
_COUNT = {"entries": (lambda x: x >= 1, "at least 1")}


def dbm_to_watt(dbm: float) -> float:
    """Convert a dBm level to watts: 10 ** ((dbm - 30) / 10)."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class ServiceIndex:
    """Identifies one service: provider sp, surface subset k, power level j (all 1-based)."""

    sp: int
    subset: int
    power_level: int


@dataclass
class SpConfig:
    """One service provider: radio front end, surface partition, prices, geometry."""

    antennas: int = field(default=4, metadata=_REQUIRED)
    bandwidth_mhz: float = 1.0
    power_levels_dbm: list[float] = field(default_factory=lambda: [15.0, 30.0], metadata=_REQUIRED)
    price_irs: float = 0.1  # per active surface element
    price_power: float = 0.1  # per watt
    irs_elements: int = field(default=8, metadata=_REQUIRED)
    irs_modules: int = field(default=2, metadata=_REQUIRED)
    bs_position: Optional[Position] = field(default=None, metadata=_REQUIRED)
    irs_position: Optional[Position] = field(default=None, metadata=_REQUIRED)
    user_position: Optional[Position] = field(default=None, metadata=_REQUIRED)

    @property
    def irs_elements_per_module(self) -> int:
        return self.irs_elements // self.irs_modules

    @property
    def n_services(self) -> int:
        return self.irs_modules * len(self.power_levels_dbm)


@dataclass
class SweepGrids:
    """Sweep axes used by the experiment presets."""

    mu: list[float] = field(default_factory=lambda: [0.05, 0.1, 0.2, 0.4], metadata=_POSITIVE)
    n_users: list[int] = field(default_factory=lambda: [50, 100, 200], metadata=_COUNT)
    delta: list[float] = field(default_factory=lambda: [0.0, 30.0, 60.0, 130.0], metadata=_NON_NEGATIVE)
    irs_elements_sp2: list[int] = field(default_factory=lambda: [4, 8, 12, 16, 20, 24, 28, 32], metadata=_COUNT)
    distance: list[float] = field(
        default_factory=lambda: [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0], metadata=_POSITIVE
    )
    price_irs_sp1: list[float] = field(default_factory=lambda: [0.05, 0.1, 0.2], metadata=_NON_NEGATIVE)


@dataclass
class ScenarioConfig:
    """Full description of one simulation scenario."""

    sps: list[SpConfig] = field(default_factory=list)
    n_users: int = 100
    mu: float = 0.1  # selection adaptation rate
    delta: float = 0.0  # decision delay
    seed: int = 42
    valuation: float | list[float] = 1.0  # scalar or per-group list: value per rate unit
    noise_var: float = 3.9810717055349694e-13  # per-MHz noise variance, -94 dBm over 1 MHz
    # initial shares, None means uniform; written out resolved
    p0: Optional[np.ndarray] = field(default=None, metadata={"write": lambda cfg: cfg.initial_population()})
    pathloss: PathLossModel = field(default_factory=PathLossModel)
    integrator: IntegratorSpec = field(default_factory=IntegratorSpec)
    grids: SweepGrids = field(default_factory=SweepGrids)

    def __post_init__(self):
        self.validate()

    # --- group bookkeeping -------------------------------------------------

    @property
    def n_groups(self) -> int:
        return sum(sp.n_services for sp in self.sps)

    def service_indices(self) -> list[ServiceIndex]:
        """Flat group order: providers ascending, then subsets, then power levels."""
        out = []
        for m, sp in enumerate(self.sps, start=1):
            for k in range(1, sp.irs_modules + 1):
                for j in range(1, len(sp.power_levels_dbm) + 1):
                    out.append(ServiceIndex(sp=m, subset=k, power_level=j))
        return out

    def initial_population(self) -> np.ndarray:
        if self.p0 is None:
            return np.full(self.n_groups, 1.0 / self.n_groups)
        return np.asarray(self.p0, dtype=float).copy()

    def groups_of_sp(self, m: int) -> list:
        return [g for g, svc in enumerate(self.service_indices()) if svc.sp == m]

    # --- validation ---------------------------------------------------------

    def validate(self) -> None:
        # range checks are written so that NaN fails them too
        errors = []
        if not self.sps:
            errors.append("scenario needs at least one [sp.N] section")
        if self.n_users < 1:
            errors.append("scenario.n_users must be at least 1")
        if self.seed < 0:
            errors.append("scenario.seed must be non-negative")
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
            if not 0 < sp.bandwidth_mhz < math.inf:
                errors.append("%s.bandwidth_mhz must be positive and finite" % prefix)
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
            elif not all(math.isfinite(x) for x in sp.power_levels_dbm):
                errors.append("%s.power_levels_dbm must be finite" % prefix)
            elif any(b <= a for a, b in zip(sp.power_levels_dbm, sp.power_levels_dbm[1:])):
                errors.append("%s.power_levels_dbm must be strictly ascending" % prefix)
            for name in ("price_irs", "price_power"):
                if not 0 <= getattr(sp, name) < math.inf:
                    errors.append("%s.%s must be non-negative and finite" % (prefix, name))
            for name in ("bs_position", "irs_position", "user_position"):
                pos = getattr(sp, name)
                if pos is not None and not (math.isfinite(pos.x) and math.isfinite(pos.y)):
                    errors.append("%s.%s must be finite" % (prefix, name))
        if not errors:
            v = np.asarray(self.valuation, dtype=float)
            if v.ndim not in (0, 1) or (v.ndim == 1 and v.shape != (self.n_groups,)):
                errors.append(
                    "scenario.valuation must be a scalar or %d comma-separated values" % self.n_groups
                )
            elif not np.all((v > 0) & (v < math.inf)):
                errors.append("scenario.valuation entries must be positive and finite")
            if self.p0 is not None:
                p = np.asarray(self.p0, dtype=float)
                if p.shape != (self.n_groups,):
                    errors.append("scenario.p0 must have one share per group (%d)" % self.n_groups)
                elif not (np.all(p >= 0) and abs(float(p.sum()) - 1.0) <= 1e-9):
                    errors.append("scenario.p0 must be non-negative and sum to 1 within 1e-9")
        for f in fields(self.grids):
            grid = getattr(self.grids, f.name)
            if not grid:
                errors.append("grids.%s must not be empty" % f.name)
            elif not all(math.isfinite(x) for x in grid):
                errors.append("grids.%s must be finite" % f.name)
            elif any(b <= a for a, b in zip(grid, grid[1:])):
                errors.append("grids.%s must be strictly increasing" % f.name)
            elif "entries" in f.metadata and not f.metadata["entries"][0](grid[0]):  # the least entry
                errors.append("grids.%s entries must be %s" % (f.name, f.metadata["entries"][1]))
        if errors:
            raise ConfigurationError("\n".join(errors))

    # --- serialization ------------------------------------------------------

    def flat_items(self) -> list:
        """(section.key, value) pairs of the fully resolved scenario, in file order."""
        sections = [("scenario", self), ("integrator", self.integrator), ("pathloss", self.pathloss)]
        sections += [("sp.%d" % m, sp) for m, sp in enumerate(self.sps, start=1)]
        sections.append(("grids", self.grids))
        items = []
        for name, obj in sections:
            for f in _keys(type(obj)):
                value = f.metadata["write"](obj) if "write" in f.metadata else getattr(obj, f.name)
                items.append(("%s.%s" % (name, f.name), _fmt(value)))
        return items


def _fmt(value) -> str:
    if isinstance(value, Position):
        return _fmt([value.x, value.y])
    if isinstance(value, (list, tuple, np.ndarray)):
        return ", ".join(_fmt(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# --- parsing -----------------------------------------------------------------


def _split(s: str) -> list:
    parts = [p.strip() for p in str(s).split(",")]
    if parts == [""]:
        raise ValueError("empty list")
    return parts


def _to_int(s) -> int:
    if str(s).strip().lstrip("+-").isdigit():
        return int(s)  # exact beyond 2**53
    f = float(s)
    i = int(f)
    if i != f:
        raise ValueError("expected an integer, got %r" % (s,))
    return i


def _to_floats(s) -> list:
    return [float(x) for x in _split(s)]


def _to_position(s) -> Position:
    parts = _to_floats(s)
    if len(parts) != 2:
        raise ValueError("a position needs exactly two coordinates")
    return Position(parts[0], parts[1])


# parser of a config value, by the annotation string of its field
_PARSERS = {
    "int": _to_int,
    "float": float,
    "list[int]": lambda s: [_to_int(x) for x in _split(s)],
    "list[float]": _to_floats,
    "float | list[float]": lambda s: _to_floats(s) if "," in s else float(s),
    "Optional[Position]": _to_position,
    "Optional[np.ndarray]": lambda s: np.asarray(_to_floats(s), dtype=float),
}


def _keys(cls) -> list:
    """The fields of a section dataclass that are config keys: those with a parser."""
    return [f for f in fields(cls) if f.type in _PARSERS]


def _parse_section(cp: configparser.ConfigParser, name: str, cls) -> dict:
    """Parsed values of the keys section [name] sets, by field name, with path-qualified errors."""
    raw = dict(cp[name]) if cp.has_section(name) else {}
    keys = _keys(cls)
    unknown = set(raw) - {f.name for f in keys}
    if unknown:
        raise ConfigurationError("unknown key(s) in [%s]: %s" % (name, ", ".join(sorted(unknown))))
    values = {}
    for f in keys:
        if f.name not in raw:
            if f.metadata.get("required"):
                raise ConfigurationError("missing required key %s.%s" % (name, f.name))
            continue
        try:
            values[f.name] = _PARSERS[f.type](raw[f.name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError("bad value for %s.%s: %s" % (name, f.name, exc)) from None
    return values


def parse_config(text: str) -> ScenarioConfig:
    """Parse a config from its text form."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError("config syntax error: %s" % exc) from None
    known = {"scenario", "integrator", "pathloss", "grids"}
    sp_names = sorted((s for s in cp.sections() if s.startswith("sp.")), key=_sp_number)
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
    return ScenarioConfig(
        **_parse_section(cp, "scenario", ScenarioConfig),
        integrator=IntegratorSpec(**_parse_section(cp, "integrator", IntegratorSpec)),
        pathloss=PathLossModel(**_parse_section(cp, "pathloss", PathLossModel)),
        sps=[SpConfig(**_parse_section(cp, name, SpConfig)) for name in sp_names],
        grids=SweepGrids(**_parse_section(cp, "grids", SweepGrids)),
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
    """Serialize the fully resolved scenario back to config text: flat_items by section.

    parse_config(config_to_text(cfg)) reproduces cfg exactly: floats are
    written with round-trip precision and defaults are materialized.  An
    unset provider position raises ConfigurationError.
    """
    require_positions(cfg.sps)
    out = []
    for name, items in groupby(cfg.flat_items(), key=lambda item: item[0].rpartition(".")[0]):
        out.append("[%s]\n" % name)
        out += ["%s = %s\n" % (key.rpartition(".")[2], value) for key, value in items]
        out.append("\n")
    return "".join(out)


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
    """The bundled reduced scenario: one service per provider (two groups)."""
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
