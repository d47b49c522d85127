"""Configuration loaders: schema checks, symbolic resolution, roundtrips."""

import json
import math
from dataclasses import fields

import pytest

from qubicforge import ConfigError
from qubicforge.chipcfg import (
    ChannelAssignment,
    ChipConfig,
    GatePulseSpec,
    HardwareConfig,
    load_chip_config,
    load_gate_spec,
    load_hardware_config,
    parse_phase,
    standard_channel_map,
)

CHIP = {
    "qubits": {
        "Q6": {"drive_freq": 5.5e9, "readout_freq": 6.52e9},
        "Q7": {"drive_freq": 5.32e9, "readout_freq": 6.6e9},
    }
}

GATES = {
    "gates": {
        "Q6Y180": [
            {
                "dest": "Q6.qdrv",
                "t0": 0.0,
                "twidth": 96e-9,
                "fcarrier": "Q6.freq",
                "pcarrier": "pi/2",
                "amp": 0.873,
                "env": {"kind": "DRAG", "params": {"sigma_fraction": 0.25, "alpha": 0.5}},
            }
        ],
        "Q6read": [
            {
                "dest": "Q6.rdrv",
                "t0": 0.0,
                "twidth": 1e-6,
                "fcarrier": "Q6.readfreq",
                "pcarrier": 0.0,
                "amp": 0.25,
                "env": {"kind": "square"},
            },
            {
                "dest": "Q6.read",
                "t0": 0.0,
                "twidth": 1e-6,
                "fcarrier": "Q6.readfreq",
                "pcarrier": 0.0,
                "amp": 1.0,
                "env": {"kind": "square"},
            },
        ],
    }
}


class TestChipConfig:
    def test_load(self):
        chip = load_chip_config(json.dumps(CHIP))
        assert chip.qubits["Q6"].drive_freq == 5.5e9
        assert chip.qubits["Q6"].readout_freq == 6.52e9

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "chip.json"
        p.write_text(json.dumps(CHIP))
        chip = load_chip_config(str(p))
        assert "Q7" in chip.qubits

    def test_negative_frequency_rejected(self):
        bad = {"qubits": {"Q0": {"drive_freq": -5e9, "readout_freq": 6e9}}}
        with pytest.raises(ConfigError, match="drive_freq"):
            load_chip_config(json.dumps(bad))

    def test_missing_field_rejected(self):
        bad = {"qubits": {"Q0": {"drive_freq": 5e9}}}
        with pytest.raises(ConfigError, match="readout_freq"):
            load_chip_config(json.dumps(bad))

    def test_unknown_field_rejected(self):
        bad = {"qubits": {"Q0": {"drive_freq": 5e9, "readout_freq": 6e9, "anharm": -0.2}}}
        with pytest.raises(ConfigError, match="anharm"):
            load_chip_config(json.dumps(bad))

    def test_unknown_version_rejected(self):
        bad = dict(CHIP, version=99)
        with pytest.raises(ConfigError, match="version"):
            load_chip_config(json.dumps(bad))

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            load_chip_config("{not json")

    def test_symbolic_resolution(self):
        chip = load_chip_config(json.dumps(CHIP))
        assert chip.resolve_carrier("Q6.freq") == 5.5e9
        assert chip.resolve_carrier("Q6.readfreq") == 6.52e9
        assert chip.resolve_carrier(123.0) == 123.0

    def test_unresolved_reference(self):
        chip = load_chip_config(json.dumps(CHIP))
        with pytest.raises(ConfigError, match="Q9"):
            chip.resolve_carrier("Q9.freq")
        with pytest.raises(ConfigError, match="readfreq"):
            chip.resolve_carrier("Q6.anharm")

    def test_roundtrip(self):
        chip = load_chip_config(json.dumps(CHIP))
        again = load_chip_config(chip.to_json())
        assert again == chip


class TestPhaseParsing:
    def test_numeric(self):
        assert parse_phase(1.25) == 1.25

    def test_pi_expressions(self):
        assert parse_phase("pi/2") == pytest.approx(math.pi / 2)
        assert parse_phase("-pi/2") == pytest.approx(-math.pi / 2)
        assert parse_phase("numpy.pi/2") == pytest.approx(math.pi / 2)
        assert parse_phase("3*pi/4") == pytest.approx(3 * math.pi / 4)

    def test_rejects_arbitrary_code(self):
        with pytest.raises(ConfigError):
            parse_phase("__import__('os')")
        with pytest.raises(ConfigError):
            parse_phase("pi ** 2")

    @pytest.mark.parametrize("depth", [3000, 200000], ids=["recursion", "parser-stack"])
    def test_deeply_nested_expression_rejected(self, depth):
        with pytest.raises(ConfigError, match="cannot parse phase expression"):
            parse_phase("-" * depth + "1")


    @pytest.mark.parametrize(
        "text", ["1e308*10", "1e308*10-1e308*10", "1" + "0" * 400], ids=["inf", "nan", "huge-int"]
    )
    def test_non_finite_expression_rejected(self, text):
        with pytest.raises(ConfigError, match="^where: value must be finite$"):
            parse_phase(text, "where")


class TestGateSpec:
    def test_load_resolves_carriers(self):
        chip = load_chip_config(json.dumps(CHIP))
        spec = load_gate_spec(json.dumps(GATES), chip)
        (pulse,) = spec.pulses("Q6Y180")
        assert pulse.fcarrier == 5.5e9
        assert pulse.pcarrier == pytest.approx(math.pi / 2)
        assert pulse.amp == 0.873
        assert pulse.env.kind == "DRAG"

    def test_duration(self):
        chip = load_chip_config(json.dumps(CHIP))
        spec = load_gate_spec(json.dumps(GATES), chip)
        assert spec.duration("Q6Y180") == pytest.approx(96e-9)
        assert spec.duration("Q6read") == pytest.approx(1e-6)

    def test_zero_amp_is_valid(self):
        chip = load_chip_config(json.dumps(CHIP))
        gates = {
            "gates": {
                "null": [
                    {
                        "dest": "Q6.qdrv",
                        "twidth": 32e-9,
                        "fcarrier": 0.0,
                        "amp": 0.0,
                        "env": {"kind": "square"},
                    }
                ]
            }
        }
        spec = load_gate_spec(json.dumps(gates), chip)
        assert spec.pulses("null")[0].amp == 0.0

    def test_amp_above_one_rejected(self):
        chip = load_chip_config(json.dumps(CHIP))
        bad = json.loads(json.dumps(GATES))
        bad["gates"]["Q6Y180"][0]["amp"] = 1.2
        with pytest.raises(ConfigError, match="amp"):
            load_gate_spec(json.dumps(bad), chip)

    def test_negative_t0_rejected(self):
        chip = load_chip_config(json.dumps(CHIP))
        bad = json.loads(json.dumps(GATES))
        bad["gates"]["Q6Y180"][0]["t0"] = -1e-9
        with pytest.raises(ConfigError, match="t0"):
            load_gate_spec(json.dumps(bad), chip)

    def test_unresolvable_carrier_rejected(self):
        chip = load_chip_config(json.dumps(CHIP))
        bad = json.loads(json.dumps(GATES))
        bad["gates"]["Q6Y180"][0]["fcarrier"] = "Q99.freq"
        with pytest.raises(ConfigError, match="Q99"):
            load_gate_spec(json.dumps(bad), chip)

    def test_nan_custom_sample_rejected(self):
        chip = load_chip_config(json.dumps(CHIP))
        bad = json.loads(json.dumps(GATES))
        bad["gates"]["Q6Y180"][0]["env"] = {
            "kind": "custom_samples",
            "samples": [[0.5, 0], math.nan, [0, 0.5], 0.25],
        }
        with pytest.raises(ConfigError, match="custom samples must be finite"):
            load_gate_spec(json.dumps(bad), chip)

    def test_roundtrip_after_resolution(self):
        chip = load_chip_config(json.dumps(CHIP))
        spec = load_gate_spec(json.dumps(GATES), chip)
        again = load_gate_spec(spec.to_json(), chip)
        assert again == spec


class TestHardwareConfig:
    def test_defaults(self):
        hw = load_hardware_config("{}")
        assert hw.dac_sample_rate == 1e9
        assert hw.dsp_clock == 250e6
        assert hw.samples_per_cycle == 4
        assert hw.envelope_buffer_depth == 1024
        assert hw.command_buffer_depth == 65536

    def test_rate_ratio_must_be_integer(self):
        with pytest.raises(ConfigError, match="multiple"):
            load_hardware_config(json.dumps({"dac_sample_rate": 1e9, "dsp_clock": 300e6}))

    def test_envelope_depth_capped(self):
        with pytest.raises(ConfigError, match="envelope_buffer_depth"):
            load_hardware_config(json.dumps({"envelope_buffer_depth": 8192}))

    def test_destination_range_checked(self):
        cfg = {
            "n_dac_pairs": 2,
            "channel_map": {"Q0.qdrv": {"element": 0, "destination": 2, "direction": "up"}},
        }
        with pytest.raises(ConfigError, match="destination"):
            load_hardware_config(json.dumps(cfg))

    def test_down_element_index_space(self):
        # Down elements live above the up elements in one index space.
        cfg = {
            "n_processing_elements_up": 4,
            "n_processing_elements_down": 2,
            "channel_map": {"Q0.read": {"element": 4, "destination": 0, "direction": "down"}},
        }
        hw = load_hardware_config(json.dumps(cfg))
        assert hw.element_direction(4) == "down"
        assert hw.element_direction(0) == "up"
        bad = json.loads(json.dumps(cfg))
        bad["channel_map"]["Q0.read"]["element"] = 1
        with pytest.raises(ConfigError, match="down element"):
            load_hardware_config(json.dumps(bad))

    def test_roundtrip(self):
        cfg = {
            "dac_sample_rate": 2e9,
            "dsp_clock": 500e6,
            "channel_map": {"Q0.qdrv": {"element": 3, "destination": 1, "direction": "up"}},
        }
        hw = load_hardware_config(json.dumps(cfg))
        again = load_hardware_config(hw.to_json())
        assert again == hw

    def test_standard_channel_map(self):
        cmap = standard_channel_map(["Q6", "Q7"])
        assert cmap["Q6.qdrv"] == ChannelAssignment(0, 0, "up")
        assert cmap["Q7.qdrv"].element == 1
        assert cmap["Q6.read"].direction == "down"
        assert cmap["Q6.read"].element == 16
        # Readout channels share the last DAC/ADC pair.
        assert cmap["Q6.rdrv"].destination == cmap["Q7.read"].destination == 3
        hw_json = {"channel_map": {k: vars(v) for k, v in cmap.items()}}
        hw = load_hardware_config(json.dumps(hw_json))
        assert hw.channel("Q6.qdrv").element == 0


def hardware_error(**fields_):
    with pytest.raises(ConfigError) as info:
        load_hardware_config(json.dumps(fields_))
    return str(info.value)


class TestSchema:
    def test_unknown_key_before_missing_fields(self):
        # the first unknown key in data order, then missing fields in field order
        pulse = {"bogus": 1, "dest": "Q6.qdrv", "env": {"kind": "square"}, "late": 2}
        doc = json.dumps({"gates": {"G": [pulse]}})
        chip = load_chip_config(json.dumps(CHIP))
        with pytest.raises(ConfigError, match=r"^gates\.G\[0\]\.bogus: unknown field$"):
            load_gate_spec(doc, chip)
        del pulse["bogus"], pulse["late"]
        with pytest.raises(ConfigError, match=r"^gates\.G\[0\]\.twidth: missing field$"):
            load_gate_spec(json.dumps({"gates": {"G": [pulse]}}), chip)

    def test_top_level_keys_are_version_and_fields(self):
        with pytest.raises(ConfigError, match=r"^gate: unknown field$"):
            load_gate_spec(json.dumps({"version": 1, "gate": {}}), load_chip_config("{}"))
        with pytest.raises(ConfigError, match=r"^qubits\.Q6\.readout_freq: missing field$"):
            load_chip_config(json.dumps({"qubits": {"Q6": {"drive_freq": 1.0}}}))

    def test_gate_without_pulses_lasts_no_time(self):
        spec = load_gate_spec(json.dumps({"gates": {"G": []}}), load_chip_config("{}"))
        assert spec.duration("G") == 0.0

    def test_records_hold_only_their_fields(self):
        # their JSON objects are copies of their __dict__
        chip = load_chip_config(json.dumps(CHIP))
        spec = load_gate_spec(json.dumps(GATES), chip)
        hw = HardwareConfig(channel_map=standard_channel_map(["Q6"]))
        for record in (chip.qubits["Q6"], spec.gates["Q6Y180"][0], hw, hw.channel("Q6.qdrv")):
            assert list(vars(record)) == [f.name for f in fields(record)]

    def test_hardware_count_checks_keep_their_order(self):
        assert hardware_error(n_dac_pairs=5, n_processing_elements_up=300) == (
            "n_dac_pairs: n_dac_pairs 5 exceeds the 2-bit destination field (max 4)"
        )
        assert hardware_error(n_processing_elements_up=300, envelope_buffer_depth=5000) == (
            "n_processing_elements_up: element count exceeds the 8-bit element field"
        )
        assert hardware_error(envelope_buffer_depth=5000, acc_buffer_depth=0) == (
            "envelope_buffer_depth: envelope_buffer_depth 5000 exceeds the 12-bit start field"
            " (max 4096)"
        )
        assert hardware_error(command_buffer_depth=1.5) == (
            "command_buffer_depth: expected an integer, got 1.5"
        )


class TestFrozen:
    def test_mappings_are_read_only(self):
        chip = load_chip_config(json.dumps({**CHIP, "metadata": {"by": "me"}}))
        spec = load_gate_spec(json.dumps(GATES), chip)
        hw = load_hardware_config(json.dumps({"channel_map": {}}))
        for mapping in (chip.qubits, chip.metadata, spec.gates, hw.channel_map):
            with pytest.raises(TypeError):
                mapping["new"] = None

    def test_built_from_a_copy(self):
        channel_map = standard_channel_map(["Q6"])
        hw = HardwareConfig(channel_map=channel_map)
        channel_map.clear()
        assert set(hw.channel_map) == {"Q6.qdrv", "Q6.rdrv", "Q6.read"}
        assert ChipConfig() == ChipConfig(qubits={}, metadata={})
        assert GatePulseSpec().to_json_dict() == {"version": 1, "gates": {}}

    def test_json_unchanged(self):
        chip = load_chip_config(json.dumps({**CHIP, "metadata": {"by": "me"}}))
        assert json.loads(chip.to_json()) == {"version": 1, **CHIP, "metadata": {"by": "me"}}
        hw = HardwareConfig(channel_map=standard_channel_map(["Q6"]))
        assert json.loads(hw.to_json())["channel_map"]["Q6.read"] == {
            "element": 16,
            "destination": 3,
            "direction": "down",
        }
