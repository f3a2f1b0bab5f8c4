"""JSON experiment configuration: parsing, validation, defaults, digest.

The config dataclasses are the schema.  A section's keys, defaults and value
types are read from its dataclass fields, and its bounds are checked as it is
built, by the dataclass's validate() (seeding.Checked), so an invalid config
cannot be constructed; an error reads `<key path>: <constraint>`.
Every number key must be finite, which the number codec checks before the
section is built.  Unknown keys are rejected.  config_to_dict walks the same
fields, so config_to_dict(parse_config(x)) is the fully-explicit canonical
form and emit_default_config() round-trips through parse_config unchanged.
"""

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from typing import Any, Callable, NamedTuple, get_args, get_origin

from .batch import BatchSection, BenchSection
from .race import (
    BettingClose,
    LogNormalSteps,
    RaceConfig,
    StepDistribution,
    UniformSteps,
)
from .seeding import Checked, FieldError, check_master_seed
from .session import SessionConfig, SessionSection


class ConfigError(ValueError):
    """Invalid configuration; message carries the key path and constraint."""


def _fail(path: str, constraint: str):
    raise ConfigError(f"{path}: {constraint}")


def _check_keys(obj, allowed, path: str) -> None:
    if not isinstance(obj, dict):
        _fail(path, f"must be an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        _fail(f"{path}.{unknown[0]}", f"unknown key (allowed: {', '.join(allowed)})")


def _scalar(typ, accepted, what: str):
    """Type check for one JSON scalar; a bool is never taken for a number."""

    def parse(v, path: str):
        if isinstance(v, bool) is not (typ is bool) or not isinstance(v, accepted):
            _fail(path, f"must be {what}, got {v!r}")
        return typ(v)

    return parse


_number = _scalar(float, (int, float), "a number")


def _num(v, path: str) -> float:
    """A finite number: JSON text also parses NaN, Infinity and 1e999 (inf)."""
    try:
        x = _number(v, path)
    except OverflowError:  # an int past the float range
        x = math.inf if v > 0 else -math.inf
    if not math.isfinite(x):
        _fail(path, f"must be a finite number, got {x!r}")
    return x


_int = _scalar(int, int, "an integer")
_bool = _scalar(bool, bool, "true or false")
_str = _scalar(str, str, "a string")


# -- where the config departs from the plain field walk ----------------------

#: Field name -> config key, where they differ.
_KEYS = {"cid": "id"}
#: Config defaults for fields the dataclass leaves required.
_DEFAULTS = {(RaceConfig, "track_length"): 2000.0}
_FAMILIES = {"uniform": UniformSteps, "lognormal": LogNormalSteps}
_FAMILY_OF = {cls: name for name, cls in _FAMILIES.items()}


def _parse_steps(obj, path: str):
    if not isinstance(obj, dict):
        _fail(path, f"must be an object, got {type(obj).__name__}")
    family = obj.get("family")
    if family not in _FAMILIES:
        _fail(f"{path}.family", f"must be 'uniform' or 'lognormal', got {family!r}")
    params = {k: v for k, v in obj.items() if k != "family"}
    return _parse(_FAMILIES[family], params, path)


def _dump_steps(steps) -> dict:
    return {"family": _FAMILY_OF[type(steps)], **_dump(steps)}


def _parse_close(v, path: str) -> BettingClose:
    if v in ("first", "last"):
        return BettingClose(v)
    if isinstance(v, dict):
        _check_keys(v, ("kth",), path)
        return BettingClose("kth", _int(v.get("kth"), f"{path}.kth"))
    _fail(path, f"must be 'first', 'last', or {{\"kth\": k}}, got {v!r}")


def _dump_close(close: BettingClose):
    return {"kth": close.k} if close.rule == "kth" else close.rule


#: Field type -> (parse, dump); dump None keeps the value as it is.
_CODECS: dict[Any, tuple[Callable, Callable | None]] = {
    float: (_num, None),
    int: (_int, None),
    bool: (_bool, None),
    str: (_str, None),
    StepDistribution: (_parse_steps, _dump_steps),
    BettingClose: (_parse_close, _dump_close),
}


# -- the field walk -----------------------------------------------------------


class _Field(NamedTuple):
    name: str
    key: str
    default: Any  # MISSING when the key is required
    parse: Callable[[Any, str], Any]
    dump: Callable[[Any], Any] | None


def _codec(typ) -> tuple[Callable, Callable | None]:
    if typ in _CODECS:
        return _CODECS[typ]
    if is_dataclass(typ):
        # The document's sections are named by their key alone.
        return (lambda v, path: _parse(typ, v, path.removeprefix("config."))), _dump
    if get_origin(typ) is tuple:  # tuple[item, ...] is a JSON list
        parse_item, dump_item = _codec(get_args(typ)[0])
        dump_item = dump_item or (lambda x: x)

        def parse_list(v, path: str) -> tuple:
            if not isinstance(v, list):
                _fail(path, f"must be a list, got {type(v).__name__}")
            return tuple(parse_item(x, f"{path}[{i}]") for i, x in enumerate(v))

        return parse_list, lambda items: [dump_item(x) for x in items]
    raise TypeError(f"no config codec for {typ!r}")


@cache
def _schema(cls) -> tuple[_Field, ...]:
    out = []
    for f in fields(cls):
        parse, dump = _codec(f.type)
        default = f.default if f.default_factory is MISSING else f.default_factory()
        default = _DEFAULTS.get((cls, f.name), default)
        out.append(_Field(f.name, _KEYS.get(f.name, f.name), default, parse, dump))
    return tuple(out)


def _parse(cls, obj, path: str):
    schema = _schema(cls)
    _check_keys(obj, [f.key for f in schema], path)
    kwargs = {}
    for f in schema:
        if f.key in obj:
            kwargs[f.name] = f.parse(obj[f.key], f"{path}.{f.key}")
        elif f.default is MISSING:
            _fail(f"{path}.{f.key}", "required")
        else:
            kwargs[f.name] = f.default
    try:
        return cls(**kwargs)
    except FieldError as exc:
        key = _KEYS.get(exc.field, exc.field)
        raise ConfigError(f"{path}.{key}: {exc.constraint}") from None


def _dump(value) -> dict:
    out = {}
    for name, key, _, _, dump in _schema(type(value)):
        v = getattr(value, name)
        out[key] = v if dump is None else dump(v)
    return out


# -- whole document -----------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(Checked):
    seed: int = 0
    race: RaceConfig
    session: SessionSection = field(default_factory=SessionSection)
    batch: BatchSection = field(default_factory=BatchSection)
    bench: BenchSection = field(default_factory=BenchSection)

    def validate(self) -> None:
        check_master_seed(self.seed)

    def session_config(
        self, master_seed: int | None = None, sentiment: bool | None = None
    ) -> SessionConfig:
        section = {f.name: getattr(self.session, f.name) for f in fields(SessionSection)}
        if sentiment is not None:
            section["sentiment"] = sentiment
        seed = self.seed if master_seed is None else master_seed
        return SessionConfig(race=self.race, master_seed=seed, **section)


def parse_config(doc) -> ExperimentConfig:
    """Parse a config document (dict or JSON text) with defaults applied."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _parse(ExperimentConfig, doc, "config")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Fully-explicit canonical dict form; inverse of parse_config."""
    return _dump(cfg)


def emit_default_config() -> dict:
    """The documented defaults: a 5-runner race plus one agent of each kind."""
    default = {
        "race": {
            "competitors": [
                {"id": f"c{i}", "steps": {"family": "uniform", "lo": 10.0, "hi": 20.0}}
                for i in range(1, 6)
            ]
        }
    }
    return config_to_dict(parse_config(default))


def config_digest(cfg: ExperimentConfig) -> str:
    """Stable sha256 hex digest of the canonical config form."""
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
