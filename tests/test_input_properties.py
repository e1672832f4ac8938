"""Property tests at the input boundaries: a config record or grid file either
builds with finite values or is refused with a ValueError, never another
exception or a silent inf/NaN."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from choquet_emv import cli
from choquet_emv.closedform import EMVSpec, MarketParams
from choquet_emv.distortion import BUILTIN_DISTORTIONS, get_distortion
from choquet_emv.market import SimConfig
from choquet_emv.policy import MODES
from choquet_emv.rl import TrainConfig

ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
# integers of every width and kind, and the floats and bools that are not integers
ANY_INTEGER = st.one_of(st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
                        st.integers(0, 2**64 - 1).map(np.uint64), ANY_FLOAT, st.booleans())
FAMILIES = st.sampled_from(sorted(BUILTIN_DISTORTIONS)).map(get_distortion)
GINI = get_distortion("gini")

# float-valued fields (derived ones included) that must come out finite
FINITE = {
    MarketParams: ("mu", "sigma", "r", "rho"),
    EMVSpec: ("T", "lam", "z", "x0"),
    SimConfig: ("dt", "horizon"),
    TrainConfig: ("lam", "z", "x0", "alpha", "decay", "grad_clip"),
}
# integer-valued fields that must come out as a plain int
INTEGER = {SimConfig: ("n_steps", "n_paths", "seed"), TrainConfig: ("episodes", "avg_window")}
VALID = {
    MarketParams: MarketParams(0.1, 0.2, 0.02),
    EMVSpec: EMVSpec(T=1.0, lam=0.1, z=1.4, x0=1.0, mode="log", h=GINI),
    SimConfig: SimConfig(n_steps=4, dt=0.25, n_paths=2),
    TrainConfig: TrainConfig(episodes=10, h=GINI, lam=0.1, mode="plain",
                             sim=SimConfig(4, 0.25), z=1.4),
}
ONE_FIELD = [(cls, name) for table in (FINITE, INTEGER) for cls, names in table.items()
             for name in names if name in {f.name for f in fields(cls)}]


def builds_finite_or_refuses(make):
    """The record from ``make()`` holds only finite values in its FINITE
    fields and plain ints in its INTEGER fields, or construction raises
    ValueError."""
    try:
        record = make()
    except ValueError:
        return
    for name in FINITE[type(record)]:
        value = getattr(record, name)
        assert value is None or math.isfinite(value), (name, value)
    for name in INTEGER.get(type(record), ()):
        assert type(getattr(record, name)) is int, (name, getattr(record, name))


@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("cls, name", ONE_FIELD, ids=[f"{c.__name__}.{n}" for c, n in ONE_FIELD])
@given(data=st.data())
def test_one_field_off_a_valid_record(cls, name, data):
    value = data.draw(ANY_INTEGER if name in INTEGER.get(cls, ()) else ANY_FLOAT)
    builds_finite_or_refuses(lambda: replace(VALID[cls], **{name: value}))


@settings(max_examples=300, deadline=None)
@given(mu=ANY_FLOAT, sigma=ANY_FLOAT, r=ANY_FLOAT)
def test_market_params(mu, sigma, r):
    builds_finite_or_refuses(lambda: MarketParams(mu, sigma, r))


@settings(max_examples=300, deadline=None)
@given(T=ANY_FLOAT, lam=ANY_FLOAT, z=ANY_FLOAT, x0=ANY_FLOAT, mode=st.sampled_from(MODES),
       h=FAMILIES)
def test_emv_spec(T, lam, z, x0, mode, h):
    builds_finite_or_refuses(lambda: EMVSpec(T, lam, z, x0, mode, h))


@settings(max_examples=300, deadline=None)
@given(n_steps=st.integers(-5, 10**4), dt=ANY_FLOAT, T=ANY_FLOAT)
def test_sim_config(n_steps, dt, T):
    builds_finite_or_refuses(lambda: SimConfig(n_steps, dt))
    builds_finite_or_refuses(lambda: SimConfig.from_horizon(T, n_steps))


@settings(max_examples=300, deadline=None)
@given(lam=ANY_FLOAT, z=ANY_FLOAT, x0=ANY_FLOAT, alpha=ANY_FLOAT, decay=ANY_FLOAT,
       grad_clip=st.none() | ANY_FLOAT, mode=st.sampled_from(MODES), h=FAMILIES)
def test_train_config(lam, z, x0, alpha, decay, grad_clip, mode, h):
    builds_finite_or_refuses(lambda: TrainConfig(
        episodes=10, h=h, lam=lam, mode=mode, sim=SimConfig(4, 0.25), z=z, x0=x0,
        alpha=alpha, decay=decay, grad_clip=grad_clip))


YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | ANY_FLOAT | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)
GRID_KEYS = [f.name for f in fields(cli.ExperimentGrid)]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=YAML_VALUES | st.dictionaries(st.sampled_from(GRID_KEYS), YAML_VALUES, max_size=6),
       with_lists=st.booleans())
def test_grid_file_of_mixed_types_loads_or_raises_value_error(raw, with_lists, tmp_path):
    if with_lists and isinstance(raw, dict):
        raw = {"mu_list": [0.1], "sigma_list": [0.2]} | raw
    path = tmp_path / "grid.yaml"
    path.write_text(yaml.safe_dump(raw))
    try:
        grid = cli.grid_from_file(str(path))
    except ValueError:
        return
    assert grid.n_steps >= 1 and list(grid.cells())
