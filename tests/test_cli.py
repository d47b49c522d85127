"""CLI behavior: exit codes, file outputs, path equivalence."""

import copy
import json
import os
import re
import subprocess
import sys
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubicforge import cli
from qubicforge.chipcfg import HardwareConfig, standard_channel_map
from qubicforge.cli import main
from qubicforge.compiler import CompiledProgram
from qubicforge.device import DeviceServer
from qubicforge.dspsim import Loopback

CHIP = {
    "qubits": {"Q6": {"drive_freq": 5.5e9, "readout_freq": 6.52e9}},
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
                "amp": 0.9,
                "env": {
                    "kind": "DRAG",
                    "params": {"sigma_fraction": 0.25, "alpha": 0.5},
                },
            }
        ],
        "Q6read": [
            {
                "dest": "Q6.rdrv",
                "t0": 0.0,
                "twidth": 256e-9,
                "fcarrier": "Q6.readfreq",
                "pcarrier": 0.0,
                "amp": 0.25,
                "env": {"kind": "cos_edge_square", "params": {"edge_fraction": 0.1}},
            },
            {
                "dest": "Q6.read",
                "t0": 0.0,
                "twidth": 256e-9,
                "fcarrier": "Q6.readfreq",
                "pcarrier": 0.0,
                "amp": 1.0,
                "env": {"kind": "square"},
            },
        ],
    },
}

CIRCUIT = {"ops": [{"gate": "Y180", "qubits": ["Q6"]}, {"gate": "read", "qubits": ["Q6"]}]}


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    paths = {}
    for name, blob in [
        ("chip", CHIP),
        ("gates", GATES),
        ("circuit", CIRCUIT),
        ("empty", {"ops": []}),
        ("bad_gate", {"ops": [{"gate": "Nope", "qubits": ["Q6"]}]}),
    ]:
        p = root / f"{name}.json"
        p.write_text(json.dumps(blob))
        paths[name] = str(p)
    return paths


def config_args(configs):
    return [
        "--circuit", configs["circuit"],
        "--chip", configs["chip"],
        "--gates", configs["gates"],
    ]


@pytest.fixture(scope="module")
def compiled(configs, tmp_path_factory):
    out = tmp_path_factory.mktemp("compiled")
    code = main(["compile", *config_args(configs), "--out", str(out)])
    assert code == 0
    return out


class TestParsing:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["compile", "--chip", "x.json"]) == 1

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        assert main(["compile", "--help"]) == 0

    def test_missing_file_is_config_error(self, configs, capsys):
        code = main(
            ["compile", "--circuit", "/no/such/file.json",
             "--chip", configs["chip"], "--gates", configs["gates"]]
        )
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_gate_is_compile_error(self, configs, tmp_path, capsys):
        code = main(
            ["compile", "--circuit", configs["bad_gate"],
             "--chip", configs["chip"], "--gates", configs["gates"],
             "--out", str(tmp_path)]
        )
        assert code == 3
        assert "compile error" in capsys.readouterr().err


class TestImport:
    def test_cli_import_leaves_scipy_unloaded(self):
        code = (
            "import sys, qubicforge.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestCompile:
    def test_outputs(self, compiled):
        blob = (compiled / "program.qfpb").read_bytes()
        program = CompiledProgram.deserialize(blob)
        assert len(program.image.commands) == 3

        tp = (compiled / "program.tp.txt").read_text()
        assert tp.splitlines()[0].startswith("# t(ns)")
        assert "DRAG" in tp and "1.5707963267948966" in tp

    def test_command_dump_row(self, compiled):
        # the rotation lowers to one command: 96 samples, quarter-turn phase
        lines = (compiled / "program.commands.txt").read_text().splitlines()
        rows = [ln.split() for ln in lines if not ln.startswith("#")]
        drive = [r for r in rows if r[2] == "0"]
        assert len(drive) == 1
        assert drive[0][6] == "4096" and drive[0][8] == "96"

    def test_simulate_binary_matches_configs(self, configs, compiled, tmp_path):
        common = ["--shots", "2", "--seed", "7", "--acq-length", "300",
                  "--acq-unit", "3", "--name", "s"]
        a = tmp_path / "frombin"
        b = tmp_path / "fromcfg"
        assert main(["simulate", "--program", str(compiled / "program.qfpb"),
                     "--out", str(a), *common]) == 0
        assert main(["simulate", *config_args(configs), "--out", str(b), *common]) == 0
        for stem in ("s.waveform.csv", "s.acc.csv", "s.acq.csv"):
            assert (a / stem).read_bytes() == (b / stem).read_bytes()

    def test_simulate_empty_circuit(self, configs, tmp_path, capsys):
        code = main(
            ["simulate", "--circuit", configs["empty"],
             "--chip", configs["chip"], "--gates", configs["gates"],
             "--out", str(tmp_path), "--name", "e"]
        )
        assert code == 0
        assert (tmp_path / "e.waveform.csv").read_bytes() == b"sample,pair,i,q\r\n"

    def test_simulate_needs_a_program_source(self, capsys):
        assert main(["simulate"]) == 2

    def test_seed_env_fallback(self, configs, tmp_path, monkeypatch):
        args = ["simulate", *config_args(configs), "--shots", "1",
                "--acq-length", "100", "--acq-unit", "3", "--name", "s"]
        monkeypatch.setenv("QUBIC_FORGE_SEED", "29")
        assert main([*args, "--out", str(tmp_path / "env")]) == 0
        monkeypatch.delenv("QUBIC_FORGE_SEED")
        assert main([*args, "--out", str(tmp_path / "flag"), "--seed", "29"]) == 0
        assert (tmp_path / "env" / "s.acq.csv").read_bytes() == (
            tmp_path / "flag" / "s.acq.csv"
        ).read_bytes()

    def test_bad_seed_env(self, configs, tmp_path, monkeypatch):
        monkeypatch.setenv("QUBIC_FORGE_SEED", "elephant")
        code = main(
            ["simulate", *config_args(configs), "--out", str(tmp_path)]
        )
        assert code == 2


class TestDumps:
    def test_dump_tp(self, configs, capsys):
        assert main(["dump-tp", *config_args(configs)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# t(ns)")
        assert "Q6.read" in out

    def test_dump_envelope(self, compiled, capsys):
        assert main(["dump-envelope", "--program", str(compiled / "program.qfpb"),
                     "--element", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "element,index,i,q"
        assert len(lines) == 1 + 96

    def test_dump_envelope_missing_element(self, compiled, capsys):
        code = main(["dump-envelope", "--program", str(compiled / "program.qfpb"),
                     "--element", "9"])
        assert code == 2

    def test_dump_envelope_rejects_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.qfpb"
        bad.write_bytes(b"QFPB" + b"\x00" * 40)
        assert main(["dump-envelope", "--program", str(bad)]) == 3

    def test_malformed_meta_block_is_a_compile_error(self, compiled, tmp_path, capsys):
        blob = (compiled / "program.qfpb").read_bytes()
        meta_len = int.from_bytes(blob[8:12], "big")
        body = blob[:8] + (9).to_bytes(4, "big") + b"{not json" + blob[12 + meta_len : -4]
        bad = tmp_path / "bad.qfpb"
        bad.write_bytes(body + zlib.crc32(body).to_bytes(4, "big"))
        assert main(["simulate", "--program", str(bad), "--out", str(tmp_path)]) == 3
        assert "malformed meta block" in capsys.readouterr().err


class TestRemote:
    def test_serve_and_run(self, compiled, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "qubicforge.cli", "serve",
             "--port", "0", "--duration", "20", "--seed", "5"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            banner = proc.stdout.readline()
            port = re.search(r":(\d+)\s*$", banner).group(1)
            code = main(
                ["run", "--program", str(compiled / "program.qfpb"),
                 "--port", port, "--shots", "3",
                 "--acq-length", "200", "--acq-unit", "3",
                 "--out", str(tmp_path), "--name", "r"]
            )
            assert code == 0
            acc = (tmp_path / "r.acc.csv").read_text().splitlines()
            assert acc[0] == "element,entry,i,q"
            assert len(acc) == 1 + 3  # one window per shot
        finally:
            proc.terminate()
            proc.wait(timeout=5)

    @pytest.fixture
    def emulator(self, compiled):
        program = CompiledProgram.deserialize((compiled / "program.qfpb").read_bytes())
        with DeviceServer(program.hw, wiring=Loopback(0), seed=5) as server:
            yield server

    def test_run_writes_what_simulate_writes(self, compiled, emulator, tmp_path):
        flags = ["--program", str(compiled / "program.qfpb"), "--shots", "3",
                 "--acq-length", "200", "--acq-unit", "3", "--name", "r"]
        run = ["run", *flags, "--port", str(emulator.port), "--out", str(tmp_path / "run")]
        assert main(run) == 0
        assert main(["simulate", *flags, "--seed", "5", "--out", str(tmp_path / "sim")]) == 0
        for name in ("r.acc.csv", "r.acq.csv"):
            assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "sim" / name).read_bytes()
        acq = (tmp_path / "run" / "r.acq.csv").read_text().splitlines()
        assert len(acq) == 1 + 200 and acq[1:] != ["0,0,0"] * 200

    @pytest.mark.parametrize(
        "flags",
        [
            ["--shots", "-1"],
            ["--acq-length", "100000"],
            ["--acq-length", "10", "--acq-unit", "9"],
            ["--acq-length", "10", "--acq-tap", "dlo", "--acq-unit", "2"],
            ["--acq-length", "10", "--acq-unit", "-1"],
        ],
        ids=["shots", "acq-length", "adc-unit", "dlo-unit", "negative-unit"],
    )
    def test_run_rejects_what_simulate_rejects(self, compiled, emulator, flags, tmp_path, capsys):
        common = ["--program", str(compiled / "program.qfpb"), *flags, "--out", str(tmp_path)]
        codes = []
        for argv in (["simulate", *common], ["run", *common, "--port", str(emulator.port)]):
            codes.append(main(argv))
            codes.append(capsys.readouterr().err)
        assert codes[0] == codes[2] == 5
        assert codes[1] == codes[3] and "verification failure" in codes[1]

    def test_run_rejects_shots_beyond_the_shots_register(self, compiled, emulator, capsys):
        argv = ["run", "--program", str(compiled / "program.qfpb"),
                "--port", str(emulator.port), "--shots", str(2**32)]
        assert main(argv) == 5
        assert "32-bit SHOTS register" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["1e7", "1e12"])
    def test_run_with_a_long_timeout(self, compiled, emulator, timeout, tmp_path):
        # half the timeout in ms overflows STATUS's u32 wait budget, and
        # 1e12 s overflows the socket timeout
        argv = ["run", "--program", str(compiled / "program.qfpb"),
                "--port", str(emulator.port), "--timeout", timeout, "--out", str(tmp_path)]
        assert main(argv) == 0

    def test_run_without_server(self, compiled, tmp_path, capsys):
        code = main(
            ["run", "--program", str(compiled / "program.qfpb"),
             "--port", "9399", "--shots", "1",
             "--timeout", "0.05", "--retries", "2", "--out", str(tmp_path)]
        )
        assert code == 4
        assert "transport error" in capsys.readouterr().err


class TestReports:
    def test_rb(self, tmp_path, capsys):
        code = main(
            ["rb", "--lengths", "2,4,8,16", "--sequences", "4",
             "--shots", "150", "--seed", "3", "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "rb.json").read_text())
        assert 0.9 < report["decay"] <= 1.0
        assert report["converged"] is True
        rows = (tmp_path / "rb.survival.csv").read_text().splitlines()
        assert len(rows) == 1 + 4

    def test_rb_two_qubit(self, tmp_path):
        code = main(
            ["rb", "--two-qubit", "--two-qubit-depol", "0.02",
             "--lengths", "2,4,8", "--sequences", "3", "--shots", "150",
             "--seed", "3", "--out", str(tmp_path), "--name", "rb2"]
        )
        assert code == 0
        report = json.loads((tmp_path / "rb2.json").read_text())
        assert report["dimension"] == 4

    def test_rc(self, tmp_path, capsys):
        code = main(
            ["rc", "--circuits", "5", "--depth", "3", "--variants", "4",
             "--shots", "400", "--seed", "11", "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "rc.json").read_text())
        assert "wilcoxon_pvalue" in report
        stages = (tmp_path / "rc.stages.csv").read_text().splitlines()
        assert [ln.split(",")[0] for ln in stages[1:]] == [
            "Compile", "Transpile", "Transfer", "SeqGen", "Run", "Acquire", "Process",
        ]
        tvd = (tmp_path / "rc.tvd.csv").read_text().splitlines()
        assert len(tvd) == 1 + 5

    def test_rc_independent_of_string_hashing(self, tmp_path):
        # the TVD sums must not follow the per-process order of a str set
        written = []
        for hashseed in ("0", "1"):
            out = tmp_path / hashseed
            subprocess.run(
                [sys.executable, "-m", "qubicforge.cli", "rc", "--circuits", "20",
                 "--variants", "4", "--shots", "400", "--seed", "11", "--out", str(out)],
                env={**os.environ, "PYTHONHASHSEED": hashseed},
                check=True, capture_output=True,
            )
            written.append((out / "rc.tvd.csv").read_bytes())
        assert written[0] == written[1]


# ---------------------------------------------------------------------------
# Malformed inputs


# Valid documents that reach every kind of field: versions, metadata,
# custom samples, every override and a pinned start time.
FUZZ_DOCS = {
    "--chip": {**copy.deepcopy(CHIP), "version": 1, "metadata": {"by": "test"}},
    "--gates": {
        "version": 1,
        "gates": {
            **copy.deepcopy(GATES["gates"]),
            "Q6X90": [
                {
                    "dest": "Q6.qdrv",
                    "twidth": 4e-9,
                    "fcarrier": 5.5e9,
                    "amp": 0.5,
                    "env": {"kind": "custom_samples", "samples": [[0.5, 0], 1, [0, 0.5], 0.25]},
                }
            ],
        },
    },
    "--hardware": HardwareConfig(channel_map=standard_channel_map(["Q6"])).to_json_dict(),
    "--circuit": {
        "version": 1,
        "ops": [
            {
                "gate": "Y180",
                "qubits": ["Q6"],
                "start_time": 0.0,
                "modify": {
                    "amp": 0.5,
                    "twidth": 64e-9,
                    "env_params": {"alpha": 0.3},
                    "pcarrier": "pi/4",
                    "fcarrier": "Q6.freq",
                },
            },
            {"virtual_z": {"qubit": "Q6", "phase": "pi/2"}},
            {"gate": "X90", "qubits": ["Q6"]},
            {"gate": "read", "qubits": ["Q6"]},
        ],
    },
}
# 10**400 and -10**400 are JSON integers beyond float range
WRONG_VALUES = [
    None, True, "x", [1], {}, 5, -1, 0, 1e300, -1e300, float("nan"), float("inf"),
    10**400, -10**400,
]


def _paths(node, path=()):
    """Every location in a JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_docs(draw):
    """The fuzz documents with one to three keys dropped, keys added or
    values swapped for a wrong type, NaN or a huge number."""
    docs = copy.deepcopy(FUZZ_DOCS)
    for _ in range(draw(st.integers(1, 3))):
        flag = draw(st.sampled_from(sorted(docs)))
        path = draw(st.sampled_from(list(_paths(docs[flag]))))
        kind = draw(st.sampled_from(["drop", "add", "swap"]))
        value = copy.deepcopy(draw(st.sampled_from(WRONG_VALUES)))
        parent, node = None, docs[flag]
        for key in path:
            parent, node = node, node[key]
        if kind == "add" and isinstance(node, dict):
            node["bogus"] = value
        elif kind == "drop" and parent is not None:
            del parent[path[-1]]
        elif parent is None:
            docs[flag] = value
        else:
            parent[path[-1]] = value
    return docs


def dump_tp_argv(docs):
    """dump-tp with each document given as JSON text; it writes no file."""
    return ["dump-tp", *(f"{flag}={json.dumps(doc)}" for flag, doc in docs.items())]


# Where a phase expression appears in the fuzz documents.
PHASE_SITES = {
    "gate-pcarrier": ("--gates", lambda d, t: d["gates"]["Q6Y180"][0].update(pcarrier=t)),
    "modify-pcarrier": ("--circuit", lambda d, t: d["ops"][0]["modify"].update(pcarrier=t)),
    "virtual-z": ("--circuit", lambda d, t: d["ops"][1]["virtual_z"].update(phase=t)),
}


class TestMalformedInputs:
    @given(docs=mutated_docs())
    @settings(max_examples=300, deadline=None)
    def test_dump_tp_exits_with_a_documented_code(self, docs):
        assert main(dump_tp_argv(docs)) in range(6)

    @pytest.mark.parametrize(
        "flag, edit, code",
        [
            pytest.param(
                "--gates",
                lambda d: d["gates"]["Q6X90"][0]["env"].update(samples=5),
                2,
                id="samples-number",
            ),
            pytest.param(
                "--gates",
                lambda d: d["gates"]["Q6X90"][0]["env"].update(samples=[[1, "a"]]),
                2,
                id="samples-text",
            ),
            pytest.param(
                "--circuit", lambda d: d["ops"][0]["modify"].update(amp="x"), 3, id="amp-text"
            ),
            pytest.param(
                "--circuit",
                lambda d: d["ops"][0]["modify"].update(twidth="x"),
                3,
                id="twidth-text",
            ),
            pytest.param(
                "--circuit",
                lambda d: d["ops"][0]["modify"].update(twidth=[1]),
                3,
                id="twidth-list",
            ),
            pytest.param(
                "--circuit",
                lambda d: d["ops"][0]["modify"].update(twidth=1e300),
                3,
                id="twidth-huge",
            ),
            pytest.param(
                "--circuit",
                lambda d: d["ops"][0]["modify"].update(env_params=5),
                3,
                id="env-params-number",
            ),
            pytest.param(
                "--circuit",
                lambda d: d["ops"][0].update(start_time=float("nan")),
                2,
                id="start-time-nan",
            ),
            pytest.param(
                "--circuit", lambda d: d["ops"][0].update(start_time=1e300), 3, id="start-time-huge"
            ),
            pytest.param("--circuit", lambda d: d.update(bogus=1), 2, id="circuit-unknown-key"),
            pytest.param(
                "--chip",
                lambda d: d["qubits"]["Q6"].update(drive_freq=10**400),
                2,
                id="drive-freq-huge-int",
            ),
            pytest.param(
                "--circuit",
                lambda d: d["ops"][0].update(start_time=10**400),
                2,
                id="start-time-huge-int",
            ),
            pytest.param(
                "--gates",
                lambda d: d["gates"]["Q6X90"][0]["env"].update(samples=[[10**400, 0]]),
                2,
                id="sample-huge-int",
            ),
            pytest.param(
                "--circuit",
                lambda d: d["ops"][0]["modify"].update(env_params={"alpha": -(10**400)}),
                3,
                id="env-params-huge-int",
            ),
            pytest.param(
                "--circuit",
                lambda d: d["ops"][1]["virtual_z"].update(phase="-" * 3000 + "1"),
                2,
                id="phase-deep-recursion",
            ),
            pytest.param(
                "--circuit",
                lambda d: d["ops"][0]["modify"].update(pcarrier="-" * 200000 + "1"),
                2,
                id="phase-parser-stack",
            ),
        ],
    )
    def test_malformed_field_is_a_package_error(self, flag, edit, code, capsys):
        docs = copy.deepcopy(FUZZ_DOCS)
        edit(docs[flag])
        assert main(dump_tp_argv(docs)) == code
        assert "error" in capsys.readouterr().err

    def test_nan_custom_sample_is_a_config_error(self, capsys):
        docs = copy.deepcopy(FUZZ_DOCS)
        docs["--gates"]["gates"]["Q6X90"][0]["env"]["samples"].insert(1, float("nan"))
        assert main(dump_tp_argv(docs)) == 2
        assert "custom samples must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("site", sorted(PHASE_SITES))
    @pytest.mark.parametrize("text", ["1e308*10", "1e308*10-1e308*10"], ids=["inf", "nan"])
    def test_non_finite_phase_is_a_config_error(self, site, text, capsys):
        docs = copy.deepcopy(FUZZ_DOCS)
        flag, edit = PHASE_SITES[site]
        edit(docs[flag], text)
        assert main(dump_tp_argv(docs)) == 2
        assert "value must be finite" in capsys.readouterr().err

# Malformed flags, for the commands that do bounded work: flags no
# parser knows (--no-dedup among them), dropped flags and values, and
# numeric flags given values that are not numbers.
STRAY_FLAGS = ["--no-dedup", "--bogus", "-x", "--", "--allocator", "--repeat-time", "--program"]
BAD_NUMBERS = ["x", "", "nan", "inf", "-1", "1e400", "0x10", "9" * 400, "--no-dedup"]
NUMERIC_FLAG = {"compile": "--repeat-time", "dump-tp": "--repeat-time", "dump-envelope": "--element"}


# Small runs of rb, rc and simulate, and the values their count, seed
# and model flags are given: malformed, zero, negative and non-finite,
# never huge, since a huge count is a legal request for a long run.
INT_VALUES = ["x", "", "0x10", "1.5", "nan", "0", "-1", "-5"]
FLOAT_VALUES = ["x", "", "0", "-1", "-0.5", "nan", "inf", "-inf", "1e400"]
SMALL_HEADS = {
    "rb": (
        ["rb"],
        ["--lengths", "1,2", "--sequences", "2", "--shots", "20"],
        {
            "--lengths": ["2,x", "2,-4", "0", "0,0", "", ",", "2,,4", "nan", "2;4"],
            **dict.fromkeys(["--sequences", "--shots", "--seed"], INT_VALUES),
            **dict.fromkeys(["--p-dep", "--delta", "--two-qubit-depol"], FLOAT_VALUES),
        },
    ),
    "rc": (
        ["rc"],
        ["--circuits", "2", "--depth", "2", "--variants", "2", "--shots", "20"],
        {
            **dict.fromkeys(
                ["--circuits", "--depth", "--variants", "--shots", "--seed"], INT_VALUES
            ),
            **dict.fromkeys(["--p-dep", "--delta", "--two-qubit-depol"], FLOAT_VALUES),
        },
    ),
    "simulate": (
        ["simulate"],
        ["--program", "{program}/program.qfpb", "--shots", "2", "--acq-length", "16"],
        {
            **dict.fromkeys(
                ["--shots", "--seed", "--loopback-delay", "--acq-unit", "--acq-length"],
                INT_VALUES,
            ),
            "--acq-tap": ["adc", "dac", "dlo", "x"],
        },
    ),
}


@pytest.fixture(scope="module")
def flag_out(tmp_path_factory):
    return str(tmp_path_factory.mktemp("flags"))


def bounded_argv(configs, compiled, out):
    """Each command's fixed head (compile always writes into ``out``)
    and valid flags for the property to mutate."""
    return {
        "compile": (
            ["compile", "--out", out],
            [*config_args(configs), "--allocator", "runc", "--repeat-time", "1e-6"],
        ),
        "dump-tp": (["dump-tp"], [*config_args(configs), "--repeat-time", "1e-6"]),
        "dump-envelope": (
            ["dump-envelope"],
            ["--program", str(compiled / "program.qfpb"), "--element", "0"],
        ),
    }


class TestMalformedFlags:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bounded_commands_exit_with_a_documented_code(
        self, configs, compiled, flag_out, data
    ):
        cmd = data.draw(st.sampled_from(sorted(NUMERIC_FLAG)))
        head, flags = bounded_argv(configs, compiled, flag_out)[cmd]
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(["stray", "drop", "number"]))
            at = data.draw(st.integers(0, len(flags)))
            if kind == "stray":
                flags.insert(at, data.draw(st.sampled_from(STRAY_FLAGS)))
            elif kind == "drop":
                del flags[at:at + 1]
            else:
                flags[at:at] = [NUMERIC_FLAG[cmd], data.draw(st.sampled_from(BAD_NUMBERS))]
        assert main(head + flags) in range(6)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_count_and_model_flags_exit_with_a_documented_code(
        self, compiled, flag_out, data
    ):
        cmd = data.draw(st.sampled_from(sorted(SMALL_HEADS)))
        head, flags, values = SMALL_HEADS[cmd]
        argv = [*head, "--out", flag_out] + [f.format(program=compiled) for f in flags]
        for _ in range(data.draw(st.integers(1, 3))):
            if data.draw(st.booleans()):
                at = data.draw(st.integers(0, len(argv)))
                argv.insert(at, data.draw(st.sampled_from(STRAY_FLAGS)))
            else:
                flag = data.draw(st.sampled_from(sorted(values)))
                argv += [flag, data.draw(st.sampled_from(values[flag]))]
        assert main(argv) in range(6)

    @pytest.mark.parametrize("cmd", ["serve", "run"])
    @pytest.mark.parametrize("port", ["70000", "65536", "-1", "x", "", "nan", "1.5"])
    def test_bad_port_is_a_usage_error(self, compiled, flag_out, cmd, port, capsys):
        head = {
            "serve": ["serve", "--duration", "0"],
            "run": ["run", "--program", str(compiled / "program.qfpb"), "--out", flag_out],
        }[cmd]
        assert main([*head, "--port", port]) == 1
        assert "argument --port" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--timeout", v) for v in ["nan", "inf", "-inf", "0", "-1", "x", ""]]
        + [("--retries", v) for v in ["-1", "1.5", "x"]],
    )
    def test_bad_timeout_or_retries_is_a_usage_error(
        self, compiled, flag_out, flag, value, capsys
    ):
        argv = ["run", "--program", str(compiled / "program.qfpb"), "--out", flag_out]
        assert main([*argv, flag, value]) == 1
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", ["nan", "inf", "-1", "x"])
    def test_bad_duration_is_a_usage_error(self, monkeypatch, duration, capsys):
        monkeypatch.setattr(cli, "DeviceServer", lambda *a, **k: pytest.fail("server started"))
        assert main(["serve", "--port", "0", "--duration", duration]) == 1
        assert "argument --duration" in capsys.readouterr().err

    @pytest.mark.parametrize("tap, unit", [("adc", "-1"), ("dlo", "99"), ("dlo", "0")])
    def test_capture_of_a_missing_unit_is_a_simulation_failure(
        self, compiled, flag_out, tap, unit, capsys
    ):
        argv = ["simulate", "--program", str(compiled / "program.qfpb"), "--out", flag_out,
                "--acq-tap", tap, "--acq-unit", unit, "--acq-length", "16"]
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("verification failure: no ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rb", "--lengths", "2,-4"], "sequence lengths must be >= 0"),
            (["rb", "--shots", "0"], "shots and sequences per length must be at least 1"),
            (["rb", "--sequences", "0"], "shots and sequences per length must be at least 1"),
            (["rb", "--delta", "inf"], "delta = inf is not finite"),
            (["rc", "--shots", "-5"], "shots must be at least 1"),
            (["rc", "--circuits", "0"], "need at least one circuit"),
            (["rc", "--delta", "nan"], "delta = nan is not finite"),
            (["simulate", "--shots", "-3"], "shots must be >= 0, got -3"),
        ],
    )
    def test_meaningless_counts_rejected(self, compiled, flag_out, argv, message, capsys):
        if argv[0] == "simulate":
            argv = [*argv, "--program", str(compiled / "program.qfpb")]
        assert main([*argv, "--out", flag_out]) == 5
        assert message in capsys.readouterr().err

    def test_malformed_length_list_is_a_usage_error(self, flag_out, capsys):
        assert main(["rb", "--lengths", "2,x", "--out", flag_out]) == 1
        assert "argument --lengths" in capsys.readouterr().err

    def test_removed_no_dedup_flag_is_a_usage_error(self, configs, capsys):
        assert main(["dump-tp", *config_args(configs), "--no-dedup"]) == 1
        assert "unrecognized arguments: --no-dedup" in capsys.readouterr().err
