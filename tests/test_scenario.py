"""Tests for scenario configuration parsing, validation, round-trip."""

import json
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from moonbeam.dust import mie_extinction_cross_section
from moonbeam.errors import ConfigError, ValidationError
from moonbeam.scenario import (
    CONFIG_KEYS,
    MAX_DISTANCE,
    MAX_PARTICLE_DIAMETER,
    NumericsConfig,
    OutputConfig,
    OUTPUT_DIR_ENV,
    Scenario,
    mapping_from_text,
    resolve_cext,
    scenario_from_mapping,
)

# Valid ranges of the numeric keys. Heights of at least 1 m with a
# panel and aperture of at most 1 m clear the ground; h_floor stays
# under the dust ceiling H.
VALID_RANGES = {
    "laser.P0": (1.0, 1e4),
    "laser.wavelength": (2e-7, 2e-6),
    "laser.w0": (0.01, 0.5),
    "laser.r_a": (0.01, 0.5),
    "laser.eta": (1.0, 1e3),
    "geometry.D": (1.0, MAX_DISTANCE),
    "geometry.h0": (1.0, 100.0),
    "geometry.hp": (1.0, 100.0),
    "geometry.L": (0.01, 1.0),
    "geometry.W": (0.01, 1.0),
    "dust.d_p": (1e-9, MAX_PARTICLE_DIAMETER),
    "dust.m_p": (1.0, 3.0),
    "dust.A": (1.0, 1e10),
    "dust.H": (1.0, 100.0),
    "dust.h_floor": (1e-4, 0.5),
    "dust.cext": (1e-20, 1e-10),
    "dust.calibration.reference_power": (1e-3, 1e4),
    "dust.calibration.D": (1.0, MAX_DISTANCE),
    "dust.calibration.h0": (1.0, 100.0),
    "dust.calibration.hp": (1.0, 100.0),
    "numerics.aperture_resolution": (8, 512),
    "numerics.target_rel": (1e-6, 0.05),
    "numerics.max_refinements": (1, 10),
    "numerics.workers": (1, 8),
}


def _value_strategy(key):
    if key.type is bool:
        base = st.booleans()
    elif key.choices is not None:
        base = st.sampled_from(list(key.choices))
    elif key.type is str:
        base = st.text(max_size=12)
    elif key.type is int:
        base = st.integers(*VALID_RANGES[key.name])
    else:
        base = st.floats(*VALID_RANGES[key.name])
    return st.none() | base if key.nullable else base


# Any subset of the keys, each with a value of its type in its range.
config_mappings = st.fixed_dictionaries(
    {}, optional={key.name: _value_strategy(key) for key in CONFIG_KEYS}
)


def test_defaults():
    s = scenario_from_mapping({})
    assert s.laser.P0 == 1000.0
    assert s.laser.wavelength == 1064e-9
    assert s.laser.w0 == 0.05 and s.laser.r_a == 0.05
    assert s.laser.eta == 377.0
    assert s.geometry.D == 5000.0
    assert s.geometry.h0 == 2.0 and s.geometry.hp == 2.0
    assert s.geometry.L == 0.5 and s.geometry.W == 0.5
    assert s.dust_enabled is False
    assert s.active_dust() is None
    assert s.dust.d_p == 175e-9 and s.dust.m_p == 1.733
    assert s.dust.A == 4.166e8 and s.dust.H == 8.68
    assert s.numerics.aperture_resolution is None
    assert s.numerics.workers == 1


def test_each_key_sets_its_own_field():
    # Distinct values, so that two keys with swapped targets would fail.
    s = scenario_from_mapping({
        "laser.P0": 900.0, "laser.wavelength": 1.1e-6, "laser.w0": 0.06,
        "laser.r_a": 0.07, "laser.eta": 370.0,
        "geometry.D": 6000.0, "geometry.h0": 3.0, "geometry.hp": 4.0,
        "geometry.L": 0.3, "geometry.W": 0.4,
        "dust.enabled": True, "dust.d_p": 2e-7, "dust.m_p": 1.6, "dust.A": 4e8,
        "dust.H": 9.0, "dust.h_floor": 2e-3, "dust.cext_source": "explicit", "dust.cext": 3e-14,
        "dust.calibration.reference_power": 800.0, "dust.calibration.D": 7000.0,
        "dust.calibration.h0": 5.0, "dust.calibration.hp": 6.0,
        "numerics.aperture_resolution": 48, "numerics.target_rel": 2e-3,
        "numerics.max_refinements": 3, "numerics.workers": 2,
        "outputs.directory": "out", "outputs.write_pgm": False,
    })
    laser, geom, dust, cal = s.laser, s.geometry, s.dust, s.calibration
    assert (laser.P0, laser.wavelength, laser.w0, laser.r_a, laser.eta) == (
        900.0, 1.1e-6, 0.06, 0.07, 370.0)
    assert (geom.D, geom.h0, geom.hp, geom.L, geom.W) == (6000.0, 3.0, 4.0, 0.3, 0.4)
    assert (s.dust_enabled, dust.d_p, dust.m_p, dust.A, dust.H, dust.h_floor) == (
        True, 2e-7, 1.6, 4e8, 9.0, 2e-3)
    assert (s.cext_source, dust.C_ext) == ("explicit", 3e-14)
    assert (cal.reference_power, cal.D, cal.h0, cal.hp) == (800.0, 7000.0, 5.0, 6.0)
    n = s.numerics
    assert (n.aperture_resolution, n.target_rel, n.max_refinements, n.workers) == (48, 2e-3, 3, 2)
    assert (s.outputs.directory, s.outputs.write_pgm) == ("out", False)


def test_overrides_applied():
    s = scenario_from_mapping({"geometry.D": 25000, "laser.P0": 500.0})
    assert s.geometry.D == 25000.0
    assert s.laser.P0 == 500.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config_mappings)
@example({
    "geometry.D": 20000,
    "dust.enabled": True,
    "dust.cext_source": "explicit",
    "dust.cext": 5e-14,
    "numerics.workers": 2,
})
def test_to_config_round_trip(mapping):
    source = mapping.get("dust.cext_source")
    assume(source is not None or not mapping.get("dust.enabled", False))
    assume(source != "explicit" or mapping.get("dust.cext", 0.0) > 0.0)
    assume(source != "calibrated"
           or mapping.get("dust.calibration.reference_power") is not None)
    s = scenario_from_mapping(mapping)
    config = s.to_config()
    assert list(config) == [key.name for key in CONFIG_KEYS]
    assert {name: config[name] for name in mapping} == mapping
    again = scenario_from_mapping(config)
    assert again == s
    assert again.config_hash() == s.config_hash()


def test_config_hash_tracks_values():
    a = scenario_from_mapping({})
    b = scenario_from_mapping({"geometry.D": 5000.0})
    c = scenario_from_mapping({"geometry.D": 5001.0})
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 16


def test_config_hash_pins():
    # Sweep manifests record config_hash; these values keep old manifests
    # comparable. The second config sets a key in every section and a
    # non-null value for several nullable keys.
    assert scenario_from_mapping({}).config_hash() == "e6366f5bedd486ed"
    s = scenario_from_mapping({
        "dust.enabled": True,
        "dust.cext_source": "calibrated",
        "dust.calibration.reference_power": 910.0,
        "dust.calibration.h0": 12.0,
        "outputs.directory": "out",
        "outputs.write_pgm": False,
        "numerics.aperture_resolution": 96,
    })
    assert s.config_hash() == "ef345d761030cbdb"


def test_with_updates_keeps_frozen_semantics():
    s = scenario_from_mapping({})
    t = s.with_updates(dust_enabled=True)
    assert t.dust_enabled and not s.dust_enabled
    assert t.active_dust() is t.dust


def test_mapping_from_text_empty_and_objects():
    assert mapping_from_text("") == {}
    assert mapping_from_text("  \n ") == {}
    assert mapping_from_text('{"geometry.D": 1000}') == {"geometry.D": 1000}


def test_mapping_from_text_reports_position():
    with pytest.raises(ConfigError, match=r"line 2, column"):
        mapping_from_text('{\n  "geometry.D": }')


def test_mapping_from_text_rejects_non_object():
    with pytest.raises(ConfigError, match="JSON object"):
        mapping_from_text("[1, 2]")


def test_parse_and_validate_defaults_on_empty():
    assert scenario_from_mapping(mapping_from_text("")) == scenario_from_mapping({})
    assert scenario_from_mapping(mapping_from_text('{"laser.P0": 2000}')).laser.P0 == 2000.0


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        scenario_from_mapping({"geometry.Q": 1.0})


def test_type_coercion_errors():
    with pytest.raises(ConfigError, match="boolean"):
        scenario_from_mapping({"dust.enabled": 1})
    with pytest.raises(ConfigError, match="string"):
        scenario_from_mapping({"dust.cext_source": 3})
    with pytest.raises(ConfigError, match="number"):
        scenario_from_mapping({"geometry.D": "far"})
    with pytest.raises(ConfigError, match="integer"):
        scenario_from_mapping({"numerics.workers": 1.5})
    with pytest.raises(ConfigError, match="null"):
        scenario_from_mapping({"geometry.D": None})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
@pytest.mark.parametrize(
    "name", [key.name for key in CONFIG_KEYS if key.type in (float, int)]
)
def test_non_finite_numbers_rejected(name, value):
    with pytest.raises(ConfigError, match="must be finite"):
        scenario_from_mapping({name: value})


def test_optional_keys_accept_null():
    s = scenario_from_mapping({"numerics.aperture_resolution": None})
    assert s.numerics.aperture_resolution is None


def test_guard_limits():
    with pytest.raises(ValidationError, match="model validity"):
        scenario_from_mapping({"dust.d_p": 20e-6})
    with pytest.raises(ValidationError, match="exceeds the supported"):
        scenario_from_mapping({"geometry.D": 2e5})


def test_panel_clearance():
    with pytest.raises(ValidationError, match="panel below minimum height"):
        scenario_from_mapping({"geometry.hp": 0.2})


def test_source_clearance():
    with pytest.raises(ValidationError, match="source below minimum height"):
        scenario_from_mapping({"geometry.h0": 0.04})


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("dust.calibration.D", 5e5, "dust.calibration.D=500000.0 m exceeds the supported"),
        ("dust.calibration.h0", 0.03, "source below minimum height: dust.calibration.h0=0.03"),
        ("dust.calibration.hp", 0.2, "panel below minimum height: dust.calibration.hp=0.2"),
    ],
)
def test_calibration_geometry_is_guarded(key, value, message):
    # The other calibration keys fall back to the valid geometry.*.
    with pytest.raises(ValidationError, match=message):
        scenario_from_mapping({
            "dust.enabled": True, "dust.cext_source": "calibrated",
            "dust.calibration.reference_power": 910.0, key: value,
        })


def test_dust_requires_cross_section_source():
    with pytest.raises(ValidationError, match="mie .*calibrated .*explicit"):
        scenario_from_mapping({"dust.enabled": True})


def test_explicit_source_requires_positive_cext():
    with pytest.raises(ValidationError, match="positive dust.cext"):
        scenario_from_mapping({
            "dust.enabled": True, "dust.cext_source": "explicit", "dust.cext": 0.0,
        })


def test_calibrated_source_requires_reference_power():
    with pytest.raises(ValidationError, match="reference_power"):
        scenario_from_mapping({"dust.enabled": True, "dust.cext_source": "calibrated"})


def test_unknown_cext_source_rejected():
    with pytest.raises(ValidationError, match="cext_source must be one of"):
        scenario_from_mapping({"dust.enabled": True, "dust.cext_source": "guess"})


def test_resolve_cext_noop_when_dust_off():
    s = scenario_from_mapping({})
    assert resolve_cext(s) is s


def test_resolve_cext_explicit_keeps_value():
    s = scenario_from_mapping({
        "dust.enabled": True, "dust.cext_source": "explicit", "dust.cext": 5e-14,
    })
    assert resolve_cext(s).dust.C_ext == 5e-14


def test_resolve_cext_mie_fills_cross_section():
    s = scenario_from_mapping({"dust.enabled": True, "dust.cext_source": "mie"})
    resolved = resolve_cext(s)
    expected = mie_extinction_cross_section(175e-9, 1064e-9, 1.733)
    assert resolved.dust.C_ext == pytest.approx(expected, rel=1e-12)


def test_numerics_validation():
    with pytest.raises(ValidationError, match="aperture_resolution"):
        NumericsConfig(aperture_resolution=4)
    with pytest.raises(ValidationError, match="target_rel"):
        NumericsConfig(target_rel=0.5)
    with pytest.raises(ValidationError, match="max_refinements"):
        NumericsConfig(max_refinements=0)
    with pytest.raises(ValidationError, match="workers"):
        NumericsConfig(workers=0)


def test_output_directory_resolution(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    assert OutputConfig().resolve_directory() == "."
    assert OutputConfig(directory="/tmp/out").resolve_directory() == "/tmp/out"
    monkeypatch.setenv(OUTPUT_DIR_ENV, "/tmp/env")
    assert OutputConfig().resolve_directory() == "/tmp/env"
    assert OutputConfig(directory="/tmp/out").resolve_directory() == "/tmp/out"


def test_config_serializes_to_json():
    s = scenario_from_mapping({})
    text = json.dumps(s.to_config())
    assert scenario_from_mapping(mapping_from_text(text)) == s
