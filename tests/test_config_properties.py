"""Properties of configs: any JSON-shaped config parses to a RunConfig or
raises ConfigError, and a small valid verify, laplace, phi or oracle-compare
config runs to an exit status."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorzeros.cli import COMMANDS, CONFIG_KEYS, ConfigError, RunConfig, main
from rotorzeros.measures import MeasureValidation, RadialMeasure, validate_measure

HUGE = [10**400, -(10**400)]  # past the float range: float() overflows on them
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(HUGE),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(["nan", "inf", "1e400", "3", "0.5", "rational"]),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
# numbers as json reads them, edge values included
NUMBERS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 60), st.sampled_from(HUGE))
NUMBER_LISTS = st.lists(NUMBERS, min_size=1, max_size=3)

MEASURES = st.one_of(
    st.fixed_dictionaries({"kind": st.just("sphere"), "radius": NUMBERS}),
    st.fixed_dictionaries({"kind": st.just("density"), "f": NUMBER_LISTS, "g": NUMBER_LISTS}),
    st.fixed_dictionaries(
        {"kind": st.just("tabulated"), "samples": st.lists(st.lists(NUMBERS, min_size=2, max_size=2), max_size=4)}
    ),
)


@settings(max_examples=300, deadline=None)
@given(data=MEASURES, exact=st.booleans())
def test_validate_measure_returns_a_report(data, exact):
    # a warning, which the test settings turn into an error, fails it too
    try:
        measure = RadialMeasure.from_json(data, exact=exact)
    except (ValueError, OverflowError):  # MeasureError is a ValueError
        return
    assert isinstance(validate_measure(measure), MeasureValidation)


# a config close to a valid one, with numbers that may be anything json reads
NEAR_VALID = st.fixed_dictionaries(
    {
        "command": st.sampled_from(COMMANDS),
        "measure": MEASURES,
        "N": st.lists(st.integers(-1, 6), min_size=1, max_size=3),
        "D": st.lists(st.integers(-1, 6), min_size=1, max_size=3),
        "J": NUMBER_LISTS,
        "degreeLadder": st.lists(st.integers(-2, 60), min_size=1, max_size=3).map(sorted),
        "backend": st.sampled_from(["float64", "rational"]),
    },
    optional={
        "tolerances": st.fixed_dictionaries({}, optional={"axis": NUMBERS, "drift": NUMBERS}),
        "jobs": st.one_of(st.integers(-2, 4), NUMBERS),
        "y": NUMBER_LISTS,
        "seed": NUMBERS,
        "outputDir": st.text(max_size=6),
    },
)
# up to two keys, known or not, overwritten with any JSON value
KEYS = st.one_of(
    st.sampled_from(CONFIG_KEYS),
    st.text(max_size=6),
)
CONFIGS = st.builds(lambda base, over: {**base, **over}, NEAR_VALID, st.dictionaries(KEYS, JSON, max_size=2))


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(CONFIGS, JSON))
def test_from_dict_returns_config_or_raises_config_error(data):
    # parsing and validation only: no pipeline runs
    try:
        cfg = RunConfig.from_dict(data)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


RUNGS = st.integers(0, 8).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, 10)))


def small_configs(command, radii):
    """Small valid sphere configs of one command, in both backends."""
    return st.fixed_dictionaries(
        {
            "command": st.just(command),
            "measure": st.fixed_dictionaries(
                {"kind": st.just("sphere"), "radius": st.sampled_from(radii)}
            ),
            "N": st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True),
            "D": st.lists(st.sampled_from([2, 4]), min_size=1, max_size=2, unique=True),
            # one-decimal couplings in [-2, 2], 0 included
            "J": st.lists(st.integers(-20, 20).map(lambda k: k / 10), min_size=1, max_size=2, unique=True),
            "degreeLadder": RUNGS.map(list),
            "backend": st.sampled_from(["float64", "rational"]),
            "jobs": st.just(1),
        }
    )


def ends_in_a_status(data):
    # 0 completed or verified, 1 violated in the theorem regime, 3 a
    # recorded numeric failure; an exception escaping main (exit 4), or a
    # warning, which the test settings turn into one, is a bug
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({**data, "outputDir": str(Path(tmp) / "out")}))
        return main(["--config", str(path)]) in (0, 1, 3)


@settings(max_examples=20, deadline=None)
@given(data=small_configs("verify", [0.5, 1, 2, 1e6]))
def test_valid_verify_config_ends_in_a_status(data):
    assert ends_in_a_status(data)


# radius 1000 overflows the Funk-Hecke modal series that oracle-compare
# reads, and radius 1e6 the float chain
@pytest.mark.parametrize("command", ["laplace", "phi", "oracle-compare"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_valid_config_of_another_command_ends_in_a_status(command, data):
    assert ends_in_a_status(data.draw(small_configs(command, [0.5, 1, 2, 1000, 1e6])))


# phi^4, the quartic well exp(-(1 + a) s + 2 s^2 - s^3) at a few a, and (1 + 2 s) exp(-s^4)
DENSITIES = [
    {"kind": "density", "f": [1.0], "g": [0.0, 1.0, 0.5]},
    *({"kind": "density", "f": [1.0], "g": [0.0, 1.0 + a, -2.0, 1.0]} for a in (-3.0, -1.0, 0.0, 2.5)),
    {"kind": "density", "f": [1.0, 2.0], "g": [0.0, 0.0, 0.0, 0.0, 1.0]},
]
LONG_RUNGS = st.integers(0, 40).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, 60)))


@pytest.mark.parametrize("command", ["verify", "phi", "laplace"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_density_config_with_a_long_ladder_ends_in_a_status(command, data):
    config = {
        "command": command,
        "measure": data.draw(st.sampled_from(DENSITIES)),
        "N": data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True)),
        "D": [data.draw(st.integers(1, 4))],
        "J": [data.draw(st.integers(-20, 20)) / 10],
        "degreeLadder": list(data.draw(LONG_RUNGS)),
    }
    assert ends_in_a_status(config)
