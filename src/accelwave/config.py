"""JSON scenario configs: material constants, optional simulation and sweep
blocks.  All values are SI.  Parsing is strict: unknown keys are rejected so
typos surface as config errors instead of silently-ignored settings.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .amplitude import MAX_POINTS
from .materials import (
    FluidParams,
    MaterialModel,
    MooneyRivlin,
    Newtonian,
    PowerLaw,
    QuadraticCubic,
    RegularizedPowerLaw,
    SolidParams,
)
from .wavefront import Grid, KinkIC, _outputs, _require_fits

__all__ = [
    "ConfigError",
    "SimConfig",
    "SweepConfig",
    "ScenarioConfig",
    "material_from_dict",
    "material_to_dict",
    "scenario_from_dict",
    "load_scenario",
    "bundled_config_path",
    "apply_sweep_value",
]


class ConfigError(ValueError):
    pass


def _number(block: dict, key: str, where: str, *, optional: bool = False):
    if key not in block:
        if optional:
            return None
        raise ConfigError(f"missing required key '{key}' in {where}")
    val = block[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or not math.isfinite(val):
        raise ConfigError(f"'{key}' in {where} must be a finite number, got {val!r}")
    return float(val)


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    extra = set(block) - allowed
    if extra:
        raise ConfigError(f"unknown key(s) {sorted(extra)} in {where}")


# The law classes each slot of a material dict accepts, by their 'kind'.  A
# slot named like a field of an enclosing law holds that nested part.
_LAWS = {
    "material": {cls.kind: cls for cls in (SolidParams, FluidParams)},
    "elastic": {cls.kind: cls for cls in (QuadraticCubic, MooneyRivlin)},
    "production": {cls.kind: cls for cls in (Newtonian, PowerLaw, RegularizedPowerLaw)},
}


def _law_from_dict(slot: str, d, where: str):
    """Build the law that d['kind'] names among those the slot accepts.

    A material keeps its fields in a block named after its kind; elastic and
    production parts are flat.  Absent fields that have defaults keep them.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    laws = _LAWS[slot]
    kind = d.get("kind")
    if kind not in laws:
        raise ConfigError(f"unknown {slot} kind {kind!r} (expected "
                          + " or ".join(map(repr, laws)) + ")")
    cls = laws[kind]
    names = {f.name for f in fields(cls)}
    if slot == "material":
        _check_keys(d, {"kind", kind}, where)
        d, where = d.get(kind), f"'{kind}'"
        if not isinstance(d, dict):
            raise ConfigError(f"{where} must be a JSON object")
    else:
        names.add("kind")
    _check_keys(d, names, where)
    kwargs = {}
    for f in fields(cls):
        if f.name not in d and (f.default is not MISSING
                                or f.default_factory is not MISSING):
            continue
        if f.name in _LAWS:
            kwargs[f.name] = _law_from_dict(f.name, d.get(f.name), f"'{f.name}'")
        else:
            kwargs[f.name] = _number(d, f.name, where)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"non-physical {kind} constants: {exc}") from exc


def _fields_dict(law, names) -> dict:
    """{name: value} over the named fields; nested parts in their flat form."""
    return {name: _part_dict(getattr(law, name)) if name in _LAWS else getattr(law, name)
            for name in names}


def _part_dict(part) -> dict:
    return {"kind": part.kind, **_fields_dict(part, [f.name for f in fields(part)])}


def material_from_dict(d: dict) -> MaterialModel:
    """Build a material model from its JSON dictionary form."""
    return _law_from_dict("material", d, "material config")


def material_to_dict(m: MaterialModel) -> dict:
    """Canonical JSON dictionary form of a material (round-trips exactly)."""
    return {"kind": m.kind, m.kind: _fields_dict(m, m.dict_keys)}


@dataclass(frozen=True)
class SimConfig:
    grid: Grid
    kink: KinkIC
    t_end: float
    output_every: float | None = None


@dataclass(frozen=True)
class SweepConfig:
    param: str        # dotted path into the material dict, e.g. "solid.tau0"
    min: float
    max: float
    count: int
    scale: str = "linear"   # or "log"


@dataclass(frozen=True)
class ScenarioConfig:
    material: MaterialModel
    sim: SimConfig | None = None
    sweep: SweepConfig | None = None
    pi0: float | None = None
    out: str | None = None


def _sim_from_dict(d: dict) -> SimConfig:
    """The flat 'sim' block: the fields of Grid and KinkIC, t_end and
    output_every.  ramp_width defaults to 10% of the domain."""
    grid_names = [f.name for f in fields(Grid)]
    kink_names = [f.name for f in fields(KinkIC)]
    names = [*grid_names, *kink_names, "t_end", "output_every"]
    _check_keys(d, set(names), "'sim'")
    optional = ("ramp_width", "output_every")
    values = {name: _number(d, name, "'sim'", optional=name in optional)
              for name in names if name != "n_cells"}
    values["n_cells"] = d.get("n_cells")   # Grid refuses all but an integer
    if values["ramp_width"] is None:
        values["ramp_width"] = 0.1 * (values["x_max"] - values["x_min"])
    try:
        grid = Grid(**{name: values[name] for name in grid_names})
        kink = KinkIC(**{name: values[name] for name in kink_names})
        _outputs(values["t_end"], values["output_every"])   # simulate's own checks, in order
        _require_fits(grid, kink)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'sim' block: {exc}") from exc
    return SimConfig(grid, kink, values["t_end"], values["output_every"])


def _sweep_from_dict(d: dict, material_dict: dict) -> SweepConfig:
    _check_keys(d, {"param", "min", "max", "count", "scale"}, "'sweep'")
    param = d.get("param")
    if not isinstance(param, str) or not param:
        raise ConfigError("'sweep' needs a string 'param'")
    count = d.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or not 1 <= count <= MAX_POINTS + 1:
        raise ConfigError(f"'count' in 'sweep' must be an integer in [1, {MAX_POINTS + 1}]")
    scale = d.get("scale", "linear")
    if scale not in ("linear", "log"):
        raise ConfigError(f"'scale' must be 'linear' or 'log', got {scale!r}")
    cfg = SweepConfig(param=param, min=_number(d, "min", "'sweep'"),
                      max=_number(d, "max", "'sweep'"), count=count, scale=scale)
    _resolve_param(material_dict, param)  # existence check
    if cfg.scale == "log" and (cfg.min <= 0.0 or cfg.max <= 0.0):
        raise ConfigError("log-scale sweeps need positive bounds")
    return cfg


def _resolve_param(material_dict: dict, dotted: str) -> tuple[dict, str]:
    node = material_dict
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"sweep parameter '{dotted}' not found in the material schema")
        parent, node = node, node[key]
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        raise ConfigError(f"sweep parameter '{dotted}' is not numeric")
    return parent, key


def apply_sweep_value(material_dict: dict, dotted: str, value: float) -> MaterialModel:
    """Material with the dotted parameter replaced by the given value."""
    patched = copy.deepcopy(material_dict)
    node, leaf = _resolve_param(patched, dotted)
    node[leaf] = value
    return material_from_dict(patched)


def scenario_from_dict(d: dict) -> ScenarioConfig:
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(d, {"kind", "solid", "fluid", "sim", "sweep", "pi0", "out"},
                "config")
    material_dict = {k: v for k, v in d.items() if k in ("kind", "solid", "fluid")}
    material = material_from_dict(material_dict)
    sim = _sim_from_dict(d["sim"]) if "sim" in d else None
    sweep = _sweep_from_dict(d["sweep"], material_dict) if "sweep" in d else None
    pi0 = _number(d, "pi0", "config", optional=True)
    out = d.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("'out' must be a string path")
    return ScenarioConfig(material=material, sim=sim, sweep=sweep, pi0=pi0, out=out)


def bundled_config_path(name: str) -> Path:
    """Path of a config that ships with the package (e.g. 'rubber.json')."""
    path = Path(__file__).with_name("configs") / name
    if not path.exists():
        raise ConfigError(f"no bundled config named {name!r}")
    return path


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load a scenario config from disk; bare bundled names are resolved."""
    p = Path(path)
    if not p.exists() and p.name == str(path):
        try:
            p = bundled_config_path(p.name)
        except ConfigError:
            pass
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(p, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {p}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:   # a directory, unreadable, not UTF-8
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    return scenario_from_dict(data)
