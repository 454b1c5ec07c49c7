"""Scenario description, INI-style config files and validation.

A scenario is two or more service providers (BS + reflecting surface +
price list), a shared user population, the economic parameters and the
integration settings.  Config files are plain key = value text grouped in
sections ([scenario], [integrator], [pathloss], [sp.1], [sp.2], ...,
[grids]); see data/default.cfg for the reference scenario.

Each key is a field of its section's dataclass (ScenarioConfig's scalars,
IntegratorSpec, PathLossModel, SpConfig, SweepGrids, all defined here): it is
parsed by its annotation and defaults to its field default; a key without a
default is required.  Its valid range is its field's "range" metadata, a test
and its wording, which _field_errors applies to every section and _require to
API arguments; a key annotated int must also hold integers, as _require's kind
asks of an argument.  ScenarioConfig.validate adds only the rules that span keys.
"""

from __future__ import annotations

import configparser
import math
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from importlib import resources
from itertools import combinations
from typing import Optional

import numpy as np

from .errors import ConfigurationError


def _finite(x) -> bool:
    return abs(x) <= sys.float_info.max  # NaN fails, and so does an int that no float can hold


def _in(x, rng: dict) -> bool:
    """Whether x is a number in rng, a key's range metadata; a non-number fails."""
    return isinstance(x, numbers.Real) and rng["range"][0](x)


def _require(name: str, x, rng: dict, kind=numbers.Real):
    """x when it is of the kind and _in(x, rng), else a ConfigurationError naming it: an API argument's check."""
    if not (isinstance(x, kind) and _in(x, rng)):
        raise ConfigurationError("%s must be %s, got %r" % (name, rng["range"][1], x))
    return x


def _array(what: str, x, dtype=float) -> np.ndarray:
    """np.asarray(x, dtype), or a ConfigurationError naming what when x does not convert (an int past a float, say)."""
    try:
        return np.asarray(x, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError("%s must hold numbers that a float can hold: %s" % (what, exc)) from None


def _on_simplex(p: np.ndarray) -> bool:
    """The shares rule: no share negative (or NaN), and their sum within 1e-9 of 1."""
    return bool(np.all(p >= 0) and abs(float(p.sum()) - 1.0) <= 1e-9)


# field metadata: the range of a key (of each entry of a list key), as a test and its wording
_POSITIVE = {"range": (lambda x: 0 < x and _finite(x), "positive and finite")}
_NON_NEGATIVE = {"range": (lambda x: 0 <= x and _finite(x), "non-negative and finite")}
_COUNT = {"range": (lambda x: x >= 1, "at least 1")}
# a population size: float(n_users) must be exact
_USERS = {"range": (lambda x: 1 <= x <= 2**53, "at least 1 and at most 2**53")}
_FINITE = {"range": (_finite, "finite")}
# a level in dB: 10 ** (x / 10) must stay a float
_DB = {"range": (lambda x: abs(x) < 3000, "finite and below 3000 in magnitude")}

# Largest horizon / dt of a run: far above the longest run any preset or test
# makes (criterion 03's 600 000 steps), yet a run at the cap keeps 1.6 GB of
# samples (time and share; one group), so a mistyped dt
# or horizon ends as a configuration error before the sample grid is built.
MAX_STEPS = 10**8

# Largest antennas * irs_elements of a provider: its BS-surface channel then
# holds 16 MB of complex entries, so an oversized radio front end ends as a
# configuration error before any channel is drawn.
MAX_CHANNEL_ENTRIES = 10**6


def dbm_to_watt(dbm: float) -> float:
    """Convert a dBm level to watts: 10 ** ((dbm - 30) / 10)."""
    return 10.0 ** ((_require("dBm level", dbm, _DB) - 30.0) / 10.0)


@dataclass(frozen=True)
class ServiceIndex:
    """Identifies one service: provider sp, surface subset k, power level j (all 1-based)."""

    sp: int
    subset: int
    power_level: int


@dataclass(frozen=True)
class Position:
    """A point in the 2-D deployment plane, coordinates in meters."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)  # inf, without a warning, past a float


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss: gain(d) = g0 * (d / d0) ** (-alpha).

    g0 is the linear gain at the reference distance d0.  Each link type
    carries its own exponent; the direct base-station/user path is heavily
    obstructed while the two reflected hops see near free-space conditions.
    """

    pl0_db: float = field(default=-30.0, metadata=_DB)  # reference gain at d0, in dB
    d0: float = field(default=1.0, metadata=_POSITIVE)  # reference distance, meters
    alpha_direct: float = field(default=6.0, metadata=_NON_NEGATIVE)
    alpha_bs_irs: float = field(default=2.0, metadata=_NON_NEGATIVE)
    alpha_irs_user: float = field(default=2.0, metadata=_NON_NEGATIVE)

    def __post_init__(self):
        _raise(_field_errors(self, "pathloss"))


@dataclass
class IntegratorSpec:
    """Fixed-step integration parameters."""

    dt: float = field(default=0.01, metadata=_POSITIVE)
    horizon: float = field(default=600.0, metadata=_POSITIVE)

    def __post_init__(self):
        _raise(_field_errors(self, "integrator"))
        self.dt, self.horizon = float(self.dt), float(self.horizon)  # a numpy dt would warn on the overflows below
        if not self.horizon / self.dt <= MAX_STEPS:
            raise ConfigurationError(
                "integrator.horizon / integrator.dt = %.3g steps exceeds the cap of %d"
                % (self.horizon / self.dt, MAX_STEPS)
            )
        if not self.n_steps() * self.dt < np.inf:  # n_steps rounds up past a horizon near the float limit
            raise ConfigurationError(
                "integrator: the last sample time %d * %r is not a float" % (self.n_steps(), self.dt)
            )

    def n_steps(self) -> int:
        return max(1, int(np.ceil(self.horizon / self.dt - 1e-9)))


@dataclass(kw_only=True)
class SpConfig:
    """One service provider: radio front end, surface partition, prices, geometry."""

    antennas: int = field(metadata=_COUNT)
    bandwidth_mhz: float = field(default=1.0, metadata=_POSITIVE)
    power_levels_dbm: list[float] = field(metadata=_DB)  # an ascending axis
    price_irs: float = field(default=0.1, metadata=_NON_NEGATIVE)  # per active surface element
    price_power: float = field(default=0.1, metadata=_NON_NEGATIVE)  # per watt
    irs_elements: int = field(metadata=_COUNT)
    irs_modules: int = field(metadata=_COUNT)
    bs_position: Position = field(metadata=_FINITE)
    irs_position: Position = field(metadata=_FINITE)
    user_position: Position = field(metadata=_FINITE)

    @property
    def irs_elements_per_module(self) -> int:
        return self.irs_elements // self.irs_modules

    @property
    def n_services(self) -> int:
        return self.irs_modules * len(self.power_levels_dbm)


@dataclass
class SweepGrids:
    """Sweep axes used by the experiment presets; each entry lies in the range of the key it sweeps."""

    mu: list[float] = field(default_factory=lambda: [0.05, 0.1, 0.2, 0.4], metadata=_POSITIVE)
    n_users: list[int] = field(default_factory=lambda: [50, 100, 200], metadata=_USERS)
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
    n_users: int = field(default=100, metadata=_USERS)
    mu: float = field(default=0.1, metadata=_POSITIVE)  # selection adaptation rate
    delta: float = field(default=0.0, metadata=_NON_NEGATIVE)  # decision delay
    seed: int = field(default=42, metadata=_NON_NEGATIVE)
    # scalar or per-group list: value per rate unit
    valuation: float | list[float] = field(default=1.0, metadata=_POSITIVE)
    # per-MHz noise variance, -94 dBm over 1 MHz
    noise_var: float = field(default=3.9810717055349694e-13, metadata=_POSITIVE)
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

    def _sections(self) -> list:
        """(name, dataclass) of every config section, in file order."""
        sections = [("scenario", self), ("integrator", self.integrator), ("pathloss", self.pathloss)]
        sections += [("sp.%d" % m, sp) for m, sp in enumerate(self.sps, start=1)]
        return sections + [("grids", self.grids)]

    # --- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check every section's key ranges, then the rules that span keys."""
        errors = [e for name, obj in self._sections() for e in _field_errors(obj, name)]
        if not self.sps:
            errors.append("scenario needs at least one [sp.N] section")
        if errors:  # the rules below need keys of the right type and range
            _raise(errors)
        for m, sp in enumerate(self.sps, start=1):
            if sp.irs_elements % sp.irs_modules != 0:
                errors.append(
                    "sp.%d: irs_elements = %d is not divisible by irs_modules = %d"
                    " (irs_elements == irs_modules * elements_per_module)"
                    % (m, sp.irs_elements, sp.irs_modules)
                )
            # the three links join these points, and a link of length 0 has no path loss
            for a, b in combinations(("bs_position", "irs_position", "user_position"), 2):
                if getattr(sp, a) == getattr(sp, b):
                    errors.append("sp.%d.%s and sp.%d.%s must be distinct points" % (m, a, m, b))
            if sp.antennas * sp.irs_elements > MAX_CHANNEL_ENTRIES:
                errors.append("sp.%d: antennas * irs_elements must be at most %d" % (m, MAX_CHANNEL_ENTRIES))
            elif m == 2:  # irs-size-sweep gives sp.2 each grid entry as its irs_elements
                if any(k % sp.irs_modules or sp.antennas * k > MAX_CHANNEL_ENTRIES for k in self.grids.irs_elements_sp2):
                    errors.append(
                        "grids.irs_elements_sp2 entries must be multiples of sp.2.irs_modules = %d, each with"
                        " sp.2.antennas * entry at most %d" % (sp.irs_modules, MAX_CHANNEL_ENTRIES)
                    )
        if not errors:
            v = np.asarray(self.valuation, dtype=float)
            if v.ndim not in (0, 1) or (v.ndim == 1 and v.shape != (self.n_groups,)):
                errors.append(
                    "scenario.valuation must be a scalar or %d comma-separated values" % self.n_groups
                )
            if self.p0 is not None:
                p = _array("scenario.p0", self.p0)
                if p.shape != (self.n_groups,):
                    errors.append("scenario.p0 must have one share per group (%d)" % self.n_groups)
                elif not _on_simplex(p):
                    errors.append("scenario.p0 must be non-negative and sum to 1 within 1e-9")
        _raise(errors)

    # --- serialization ------------------------------------------------------

    def flat_items(self) -> list:
        """(section.key, value) pairs of the fully resolved scenario, in file order."""
        items = []
        for name, obj in self._sections():
            for f in _keys(type(obj)):
                value = f.metadata["write"](obj) if "write" in f.metadata else getattr(obj, f.name)
                items.append(("%s.%s" % (name, f.name), _fmt(value)))
        return items


def _field_errors(obj, section: str) -> list:
    """Range errors of one section's keys, each checked as its field's annotation says."""
    errors = []
    for f in fields(obj):
        if "range" not in f.metadata:
            continue
        rng, wording = f.metadata, f.metadata["range"][1]
        key, value = "%s.%s" % (section, f.name), getattr(obj, f.name)
        kind = numbers.Integral if f.type in ("int", "list[int]") else numbers.Real
        if f.type == "Position":
            if not (isinstance(value, Position) and _in(value.x, rng) and _in(value.y, rng)):
                errors.append("%s must be %s" % (key, wording))
        elif f.type.startswith("list"):  # an ascending axis
            if not isinstance(value, list):
                errors.append("%s must be a list of entries that are %s" % (key, wording))
            elif not value:
                errors.append("%s must not be empty" % key)
            elif not all(_in(x, _FINITE) for x in value):
                errors.append("%s must be finite" % key)
            elif any(b <= a for a, b in zip(value, value[1:])):
                errors.append("%s must be strictly ascending" % key)
            elif not all(_in(x, rng) for x in value):
                errors.append("%s entries must be %s" % (key, wording))
            elif not all(isinstance(x, kind) for x in value):
                errors.append("%s entries must be integers" % key)
        elif f.type == "float | list[float]":  # a scalar or one entry per group
            if not all(_in(x, rng) for x in np.ravel(value)):
                errors.append("%s entries must be %s" % (key, wording))
        elif not _in(value, rng):
            errors.append("%s must be %s" % (key, wording))
        elif not isinstance(value, kind):
            errors.append("%s must be an integer" % key)
    return errors


def _raise(errors: list) -> None:
    if errors:
        raise ConfigurationError("\n".join(errors))


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
    "Position": _to_position,
    "Optional[np.ndarray]": lambda s: np.asarray(_to_floats(s), dtype=float),
}


def _keys(cls) -> list:
    """The fields of a section dataclass that are config keys: those with a parser."""
    return [f for f in fields(cls) if f.type in _PARSERS]


def _parse_section(cp, name: str, cls) -> dict:
    """Parsed values of the keys section [name] of cp (a ConfigParser, or a dict of sections of key
    texts) sets, by field name, with path-qualified errors: the one parse site of files and run flags."""
    raw = dict(cp[name]) if name in cp else {}
    keys = _keys(cls)
    unknown = set(raw) - {f.name for f in keys}
    if unknown:
        raise ConfigurationError("unknown key(s) in [%s]: %s" % (name, ", ".join(sorted(unknown))))
    values = {}
    for f in keys:
        if f.name not in raw:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigurationError("missing required key %s.%s" % (name, f.name))
            continue
        try:
            values[f.name] = _PARSERS[f.type](raw[f.name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError("bad value for %s.%s: %s" % (name, f.name, exc)) from None
    return values


def parse_config(text: str) -> ScenarioConfig:
    """Parse a config from its text form: sections [scenario], [integrator], [pathloss], [grids] and,
    for N providers, exactly [sp.1] ... [sp.N]; any other name is an unknown section."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError("config syntax error: %s" % exc) from None
    sp_names = ["sp.%d" % m for m in range(1, sum(s.startswith("sp.") for s in cp.sections()) + 1)]
    for s in cp.sections():
        if s not in {"scenario", "integrator", "pathloss", "grids", *sp_names}:
            raise ConfigurationError("unknown section [%s]; provider sections are numbered consecutively from [sp.1]" % s)
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


def default_config() -> ScenarioConfig:
    """The bundled reference scenario (two providers, six services)."""
    return parse_config(resources.files("irsgame").joinpath("data/default.cfg").read_text())


# the scalar settings a run may override, one CLI flag each
OVERRIDES = ("mu", "delta", "dt", "horizon", "n_users", "seed")
_SPEC_KEYS = {f.name for f in fields(IntegratorSpec)}


def parse_override(key: str, text: str):
    """The value of the OVERRIDES key from text, parsed as its line in a config file is."""
    name, cls = ("integrator", IntegratorSpec) if key in _SPEC_KEYS else ("scenario", ScenarioConfig)
    return _parse_section({name: {key: text}}, name, cls)[key]


def with_scalar_overrides(cfg: ScenarioConfig, **kwargs) -> ScenarioConfig:
    """Copy cfg with scalar overrides named in OVERRIDES, each checked by its key's range."""
    for key in kwargs:
        if key not in OVERRIDES:
            raise ConfigurationError("unknown override %r, expected one of %s" % (key, ", ".join(OVERRIDES)))
    integrator = {k: kwargs.pop(k) for k in list(kwargs) if k in _SPEC_KEYS}
    if integrator:
        kwargs["integrator"] = replace(cfg.integrator, **integrator)
    return replace(cfg, **kwargs) if kwargs else cfg
