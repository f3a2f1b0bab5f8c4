import copy
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from racemarket.agents import AgentConfigError, AgentParams
from racemarket.batch import BatchConfig, BatchSection, BenchSection
from racemarket.config import (
    ConfigError,
    ExperimentConfig,
    config_digest,
    config_to_dict,
    emit_default_config,
    parse_config,
)
from racemarket.exchange import ExchangeError, MarketBook
from racemarket.race import (
    BettingClose,
    Competitor,
    LogNormalSteps,
    RaceConfig,
    RaceConfigError,
    Responsiveness,
    UniformSteps,
)
from racemarket.seeding import Checked, FieldError
from racemarket.session import SessionConfig, SessionConfigError, SessionSection

MINIMAL = {
    "race": {
        "competitors": [
            {"id": "c1", "steps": {"family": "uniform", "lo": 10, "hi": 20}},
            {"id": "c2", "steps": {"family": "lognormal", "mu": 1.0, "sigma": 0.5}},
        ]
    }
}


def test_minimal_config_gets_documented_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.seed == 0
    assert cfg.race.track_length == 2000.0
    assert cfg.race.dt == 1.0
    assert cfg.race.conditions == 0.5
    assert cfg.race.betting_close == BettingClose("last")
    assert cfg.race.tick_limit == 1_000_000
    assert cfg.race.competitors[0].steps == UniformSteps(10.0, 20.0)
    assert cfg.race.competitors[1].steps == LogNormalSteps(1.0, 0.5, 1.0)
    assert cfg.race.competitors[0].preference == 0.5
    assert cfg.race.competitors[0].theta == 0.0
    assert cfg.session.opening_period == 60.0
    assert cfg.session.commission_rate == 0.05
    assert cfg.session.grid_depth == 3
    assert cfg.session.sentiment is False
    assert [a.strategy for a in cfg.session.agents] == [
        "rp",
        "linex",
        "lw",
        "ud",
        "btf",
        "rb",
        "zi",
    ]
    assert cfg.batch.replications == 1000
    assert cfg.batch.workers == 1
    assert cfg.batch.target == "race"
    assert cfg.bench.n_competitors == (5, 10, 20, 40)


def test_parse_accepts_json_text_and_bytes():
    text = json.dumps(MINIMAL)
    assert parse_config(text) == parse_config(MINIMAL)
    assert parse_config(text.encode()) == parse_config(MINIMAL)
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")


def test_default_config_round_trips():
    default = emit_default_config()
    cfg = parse_config(default)
    assert config_to_dict(cfg) == default
    # canonical form is a fixed point
    assert config_to_dict(parse_config(config_to_dict(cfg))) == default


def test_race_section_is_required():
    with pytest.raises(ConfigError, match="config.race"):
        parse_config({})


def test_unknown_keys_are_rejected_with_paths():
    with pytest.raises(ConfigError, match="config.racing"):
        parse_config({"racing": {}, "race": MINIMAL["race"]})
    bad = {"race": dict(MINIMAL["race"], surface="dirt")}
    with pytest.raises(ConfigError, match="race.surface"):
        parse_config(bad)
    bad_comp = {
        "race": {
            "competitors": [
                {"id": "c1", "steps": {"family": "uniform", "lo": 1, "hi": 2}, "colour": "red"}
            ]
        }
    }
    with pytest.raises(ConfigError, match=r"race.competitors\[0\].colour"):
        parse_config(bad_comp)


def test_constraint_messages_name_the_key():
    bad = {"race": dict(MINIMAL["race"], track_length=-5)}
    with pytest.raises(ConfigError, match="race.track_length"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="config.seed"):
        parse_config(dict(MINIMAL, seed=-1))
    with pytest.raises(ConfigError, match="config.seed"):
        parse_config(dict(MINIMAL, seed=1.5))
    with pytest.raises(ConfigError, match="session.commission_rate"):
        parse_config(dict(MINIMAL, session={"commission_rate": 1.0}))
    with pytest.raises(ConfigError, match="batch.target"):
        parse_config(dict(MINIMAL, batch={"target": "bench"}))
    with pytest.raises(ConfigError, match="bench.n_competitors"):
        parse_config(dict(MINIMAL, bench={"n_competitors": []}))


def test_book_setting_bounds_read_alike_in_config_and_book():
    for key, value, constraint in (
        ("commission_rate", 1.0, "must be in [0, 1), got 1.0"),
        ("grid_depth", 0, "must be >= 1, got 0"),
    ):
        with pytest.raises(ConfigError) as config_error:
            parse_config(dict(MINIMAL, session={key: value}))
        assert str(config_error.value) == f"session.{key}: {constraint}"
        with pytest.raises(ExchangeError) as book_error:
            MarketBook(("c1", "c2"), **{key: value})
        assert str(book_error.value) == f"{key} {constraint}"


def test_step_family_parameter_mixups_are_caught():
    def steps(d):
        return {"race": {"competitors": [{"id": "c1", "steps": d}]}}

    with pytest.raises(ConfigError, match="steps.family"):
        parse_config(steps({"family": "normal", "lo": 1, "hi": 2}))
    with pytest.raises(ConfigError, match="steps.mu"):
        parse_config(steps({"family": "uniform", "lo": 1, "hi": 2, "mu": 0}))
    with pytest.raises(ConfigError, match="steps.lo"):
        parse_config(steps({"family": "lognormal", "mu": 0, "sigma": 1, "lo": 1}))
    with pytest.raises(ConfigError, match="steps.hi"):
        parse_config(steps({"family": "uniform", "lo": 1}))
    with pytest.raises(ConfigError, match="steps.sigma"):
        parse_config(steps({"family": "lognormal", "mu": 0}))
    with pytest.raises(ConfigError, match="steps.lo"):
        parse_config(steps({"family": "uniform", "lo": 0, "hi": 2}))


def test_competitor_id_rules():
    def comp(cid):
        return {
            "race": {
                "competitors": [
                    {"id": cid, "steps": {"family": "uniform", "lo": 1, "hi": 2}}
                ]
            }
        }

    with pytest.raises(ConfigError, match="id"):
        parse_config(comp(""))
    # the separators of outcome keys; the text is Competitor.validate's, at the key path
    message = "race.competitors[0].id: must not contain '-' or ',', got 'a-b'"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(comp("a-b"))
    with pytest.raises(ConfigError, match="id"):
        parse_config(comp("a,b"))
    parse_config(comp("hoof_7"))


def test_betting_close_forms():
    def close(v):
        return parse_config({"race": dict(MINIMAL["race"], betting_close=v)})

    assert close("first").race.betting_close == BettingClose("first")
    assert close("last").race.betting_close == BettingClose("last")
    assert close({"kth": 2}).race.betting_close == BettingClose("kth", 2)
    with pytest.raises(ConfigError, match="betting_close"):
        close("whenever")
    with pytest.raises(ConfigError, match="betting_close"):
        close({"kth": 3})  # only two competitors


def test_booleans_are_not_numbers():
    bad = {"race": dict(MINIMAL["race"], track_length=True)}
    with pytest.raises(ConfigError, match="track_length"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="sentiment"):
        parse_config(dict(MINIMAL, session={"sentiment": 1}))


def test_agent_group_parsing():
    doc = dict(
        MINIMAL,
        session={
            "agents": [
                {"strategy": "rp", "count": 3, "d": 25},
                {"strategy": "zi", "zi_odds_lo": 2.0, "zi_odds_hi": 10.0},
            ]
        },
    )
    cfg = parse_config(doc)
    assert len(cfg.session.agents) == 2
    assert cfg.session.agents[0].count == 3
    assert cfg.session.agents[0].d == 25
    assert cfg.session.agents[1].zi_odds_lo == 2.0
    with pytest.raises(ConfigError, match=r"agents\[0\]"):
        parse_config(dict(MINIMAL, session={"agents": [{"strategy": "psychic"}]}))
    with pytest.raises(ConfigError, match=r"agents\[1\].count"):
        parse_config(
            dict(
                MINIMAL,
                session={"agents": [{"strategy": "rp"}, {"strategy": "lw", "count": -1}]},
            )
        )


def test_session_config_wiring():
    doc = dict(
        MINIMAL,
        seed=99,
        session={
            "opening_period": 30.0,
            "commission_rate": 0.02,
            "grid_depth": 5,
            "agents": [{"strategy": "lw", "count": 2}],
        },
    )
    cfg = parse_config(doc)
    scfg = cfg.session_config()
    assert scfg.master_seed == 99
    assert scfg.opening_period == 30.0
    assert scfg.commission_rate == 0.02
    assert scfg.grid_depth == 5
    assert scfg.sentiment is False
    assert scfg.agents == cfg.session.agents
    override = cfg.session_config(master_seed=7, sentiment=True)
    assert override.master_seed == 7
    assert override.sentiment is True
    scfg.validate()


def test_config_digest_tracks_content():
    a = parse_config(MINIMAL)
    b = parse_config(json.dumps(MINIMAL))
    assert config_digest(a) == config_digest(b)
    assert len(config_digest(a)) == 64
    changed = parse_config(dict(MINIMAL, seed=1))
    assert config_digest(changed) != config_digest(a)
    # defaults made explicit do not change the digest
    explicit = dict(MINIMAL, batch={"replications": 1000, "workers": 1, "target": "race"})
    assert config_digest(parse_config(explicit)) == config_digest(a)


def _bounds_doc():
    doc = json.loads(json.dumps(MINIMAL))
    doc["session"] = {"agents": [{"strategy": "rp"}, {"strategy": "zi"}]}
    return doc


def _set(doc, path, value):
    """Set the value at a key path such as race.competitors[0].steps.lo."""
    keys = []
    for part in path.split(".")[1:] if path.startswith("config.") else path.split("."):
        name, _, index = part.partition("[")
        keys.append(name)
        if index:
            keys.append(int(index[:-1]))
    node = doc
    for key in keys[:-1]:
        if isinstance(key, str) and key not in node:
            node[key] = {}
        node = node[key]
    node[keys[-1]] = value


C0 = "race.competitors[0]"
C1 = "race.competitors[1]"  # lognormal steps
A1 = "session.agents[1]"
OUT_OF_RANGE = [
    ("config.seed", -1),
    ("race.track_length", 0.0),
    ("race.dt", 0.0),
    ("race.tick_limit", 0),
    ("race.betting_close.kth", 0),
    (f"{C0}.pref_sensitivity", -0.001),
    (f"{C0}.theta", -0.001),
    (f"{C0}.steps.lo", 0.0),
    (f"{C0}.steps.hi", 9.999),
    (f"{C1}.steps.sigma", -0.001),
    (f"{C1}.steps.scale", 0.0),
    (f"{C0}.responsiveness.early_mult", 0.0),
    (f"{C0}.responsiveness.late_mult", 0.0),
    (f"{C0}.responsiveness.breakpoint", -0.001),
    (f"{C0}.responsiveness.breakpoint", 1.001),
    ("session.opening_period", -0.001),
    ("session.commission_rate", -0.001),
    ("session.commission_rate", 1.0),
    ("session.grid_depth", 0),
    (f"{A1}.count", -1),
    (f"{A1}.d", -1),
    (f"{A1}.window", 0.0),
    (f"{A1}.gap_threshold", 0.0),
    (f"{A1}.gamma", 0.0),
    (f"{A1}.gamma", 1.001),
    (f"{A1}.base_stake", 0),
    (f"{A1}.max_stake", 0),
    (f"{A1}.zi_odds_lo", 1.009),
    (f"{A1}.zi_odds_hi", 1000.001),
    (f"{A1}.reevaluate_every", 0.0),
    (f"{A1}.wake_jitter", -0.001),
    (f"{A1}.starting_balance", -1),
    ("batch.replications", 0),
    ("batch.workers", 0),
    ("bench.n_competitors", [5, 0]),
    ("bench.replications", 0),
    ("bench.timing_reps", 0),
]


@pytest.mark.parametrize("path, value", OUT_OF_RANGE)
def test_each_bound_is_reported_at_its_key_path(path, value):
    doc = _bounds_doc()
    _set(doc, path, value)
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value).startswith(f"{path}: "), str(info.value)


NAN = float("nan")
REPORTED_AT_FIELD = [
    ("race.betting_close", {"kth": 3}, "race.betting_close.kth"),
    (f"{C1}.id", "c1", "race.competitors"),
    (f"{A1}.stake_multiples", [0], f"{A1}.stake_multiples"),
    (f"{A1}.stake_multiples", [30], f"{A1}.stake_multiples"),
    (f"{A1}.zi_odds_lo", 25.0, f"{A1}.zi_odds_hi"),
    ("race.track_length", NAN, "race.track_length"),
    (f"{C1}.steps.sigma", NAN, f"{C1}.steps.sigma"),
    (f"{C0}.responsiveness.breakpoint", NAN, f"{C0}.responsiveness.breakpoint"),
    (f"{A1}.gamma", NAN, f"{A1}.gamma"),
]


@pytest.mark.parametrize("path, value, reported", REPORTED_AT_FIELD)
def test_cross_field_and_nan_errors_name_the_field(path, value, reported):
    doc = _bounds_doc()
    _set(doc, path, value)
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value).startswith(f"{reported}: "), str(info.value)


DERBY = Path(__file__).resolve().parents[1] / "configs" / "derby.json"
NON_FINITE = [
    ("session.opening_period", "Infinity", "inf"),
    ("race.conditions", "NaN", "nan"),
    ("race.competitors[1].preference", "-Infinity", "-inf"),
    ("race.competitors[2].steps.mu", "1e999", "inf"),  # derby's lognormal runner
    ("race.track_length", "1e999", "inf"),
    ("race.dt", "1" + "0" * 400, "inf"),  # an int past the float range
]


@pytest.mark.parametrize("path, literal, shown", NON_FINITE, ids=[p for p, _, _ in NON_FINITE])
def test_non_finite_numbers_are_rejected_at_their_key_path(path, literal, shown):
    # json.loads takes NaN, Infinity and overflowing literals in config text
    doc = json.loads(DERBY.read_text())
    _set(doc, path, "@")
    text = json.dumps(doc).replace('"@"', literal)
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == f"{path}: must be a finite number, got {shown}"


# -- a config object that exists is a valid one -------------------------------

_COMP = Competitor("c1", UniformSteps(10.0, 20.0))
_RACE = RaceConfig(500.0, (_COMP, replace(_COMP, cid="c2")))
_UD = SessionConfig(race=_RACE, agents=(AgentParams("ud"),), master_seed=0)
#: (valid object, field, bad value, error class, the message validate() gives)
CHECKED_CASES = [
    (UniformSteps(10.0, 20.0), "lo", 0.0, RaceConfigError, "lo must be > 0, got 0.0"),
    (LogNormalSteps(1.0, 0.5), "sigma", -1.0, RaceConfigError, "sigma must be >= 0, got -1.0"),
    (Responsiveness(), "breakpoint", 1.5, RaceConfigError, "breakpoint must be in [0, 1], got 1.5"),
    (_COMP, "theta", -1.0, RaceConfigError, "theta must be >= 0, got -1.0"),
    (_COMP, "cid", "a-b", RaceConfigError, "cid must not contain '-' or ',', got 'a-b'"),
    (_RACE, "dt", 0.0, RaceConfigError, "dt must be > 0, got 0.0"),
    (_RACE, "competitors", (), RaceConfigError, "competitors must be non-empty"),
    (
        _RACE,
        "betting_close",
        BettingClose("kth", 3),
        RaceConfigError,
        "betting_close.kth must be in [1, 2], got 3",
    ),
    (AgentParams("rp"), "gamma", 0.0, AgentConfigError, "gamma must be in (0, 1], got 0.0"),
    (
        SessionSection(),
        "opening_period",
        -1.0,
        SessionConfigError,
        "opening_period must be >= 0, got -1.0",
    ),
    (_UD, "grid_depth", 0, SessionConfigError, "grid_depth must be >= 1, got 0"),
    (
        _UD,
        "race",
        replace(_RACE, competitors=(_COMP,)),
        SessionConfigError,
        "agents ud agents need at least two competitors",
    ),
    (
        BatchSection(),
        "target",
        "league",
        FieldError,
        "target must be 'race' or 'session', got 'league'",
    ),
    (BatchConfig(_RACE, 10, 0), "workers", 0, FieldError, "workers must be >= 1, got 0"),
    (BenchSection(), "timing_reps", 0, FieldError, "timing_reps must be >= 1, got 0"),
    (ExperimentConfig(race=_RACE), "seed", -1, FieldError, "seed must be >= 0, got -1"),
    (
        ExperimentConfig(race=_RACE),
        "seed",
        2**64,
        FieldError,
        "seed must be < 2**64, got 18446744073709551616",
    ),
]


def _case_ids(cases) -> list[str]:
    """Type.field, with the bad value after a field's first case."""
    ids = []
    for valid, name, bad, *_ in cases:
        case = f"{type(valid).__name__}.{name}"
        ids.append(f"{case}={bad!r}" if case in ids else case)
    return ids


@pytest.mark.parametrize(
    "valid, name, bad, error, message",
    CHECKED_CASES,
    ids=_case_ids(CHECKED_CASES),
)
def test_a_checked_config_cannot_be_built_invalid(valid, name, bad, error, message):
    unchecked = copy.copy(valid)  # built without __init__, so without the check
    object.__setattr__(unchecked, name, bad)
    with pytest.raises(error) as direct:
        unchecked.validate()
    with pytest.raises(error) as built:
        replace(valid, **{name: bad})
    assert type(built.value) is error
    assert str(built.value) == str(direct.value) == message


def _checked_classes(cls=Checked):
    for sub in cls.__subclasses__():
        yield sub
        yield from _checked_classes(sub)


def test_every_checked_class_has_an_invariant_case():
    covered = {type(valid) for valid, *_ in CHECKED_CASES}
    missing = sorted(c.__qualname__ for c in set(_checked_classes()) - covered)
    assert not missing, f"no CHECKED_CASES entry for {missing}"
