"""Property: any JSON-shaped config parses to a RunConfig or raises ConfigError."""

from hypothesis import given, settings
from hypothesis import strategies as st

from rotorzeros.cli import COMMANDS, CONFIG_KEYS, ConfigError, RunConfig

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
