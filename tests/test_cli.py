import contextlib
import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from qetsim.cli import main
from qetsim.errors import ValidationError
from qetsim.locc import open_listener

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

# One invocation of each command, all writing to stdout or --output.
COMMANDS = {
    "model": ["model", "--h", "3", "--k", "4"],
    "scan-alpha": ["scan-alpha", "--points", "10"],
    "run": ["run", "--h", "3", "--k", "4", "--latency", "0.5"],
    "sweep": ["sweep", "--h", "3", "--k", "4", "--latencies", "0:1:0.5"],
    "audit-minimal": ["audit", "minimal", "--alpha", "2", "--time", "0.25"],
    "audit-ion": ["audit", "ion", "--gamma", "0.5", "--zeta", "2", "--nu", "1",
                  "--time", "1"],
}


def run_cli(args, tmp_path, name="out"):
    path = tmp_path / name
    code = main([*args, "--output", str(path)])
    return code, path.read_bytes()


class TestUsage:
    def test_missing_params_exit_2(self, tmp_path, capsys):
        assert main(["model"]) == 2
        assert "error" in capsys.readouterr().err

    def test_both_param_styles_exit_2(self):
        assert main(["model", "--h", "3", "--k", "4", "--alpha", "1"]) == 2

    def test_incomplete_pair_exit_2(self):
        assert main(["model", "--h", "3"]) == 2

    def test_unknown_command_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["teleport"])
        assert err.value.code == 2

    def test_invalid_params_exit_2(self):
        assert main(["model", "--h", "-3", "--k", "4"]) == 2

    @pytest.mark.parametrize("alpha", ["1e-40", "0", "1e31"])
    @pytest.mark.parametrize(
        "command",
        [["model"], ["run", "--latency", "0.5"], ["sweep", "--latencies", "0:1:0.1"],
         ["audit", "minimal", "--time", "1"]],
        ids=["model", "run", "sweep", "audit-minimal"],
    )
    def test_alpha_out_of_range_names_alpha(self, command, alpha, capsys):
        # the message named h, a flag the user did not pass
        assert main([*command, "--alpha", alpha]) == 2
        assert capsys.readouterr().err == (
            "qetsim: error: alpha must be finite and >= 1e-30 and <= 1e+30\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            # printed e_a=inf with exit 0
            ["run", "--h", "1e300", "--k", "1", "--latency", "0"],
            # printed e_b=2.46519032882e-32 at t_c = 0 (true about 2.5e-601)
            ["sweep", "--h", "1e-300", "--k", "1", "--latencies", "0:1:0.5"],
        ],
    )
    def test_outside_the_stated_domain_exit_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "qetsim: error: h must be finite and >= 1e-30 and <= 1e+30\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--h", "3", "--k", "4", "--latency", "0.5"],
            ["sweep", "--h", "3", "--k", "4", "--latencies", "0:1:0.5"],
            ["run", "--h", "3", "--k", "4", "--latency", "0.5",
             "--wire", "alice", "--listen", "127.0.0.1:0"],
            ["run", "--h", "3", "--k", "4", "--latency", "0.5",
             "--wire", "bob", "--connect", "127.0.0.1:1"],
        ],
        ids=["run", "sweep", "wire-alice", "wire-bob"],
    )
    def test_fixed_angle_with_another_mode_exit_2(self, argv, monkeypatch, capsys):
        # printed the family's fixed-angle row under --mode full, with exit 0
        from qetsim import locc

        monkeypatch.setattr(locc, "WIRE_TIMEOUT", 0.3)
        assert main([*argv, "--policy", "closed-form-theta", "--mode", "full"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "qetsim: error: policy 'closed-form-theta' takes only mode 'family', "
            "not 'full'\n"
        )

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
    def test_unwritable_output_exit_2(self, argv, target, tmp_path, capsys):
        # each gave a traceback and exit 1 (FileNotFoundError, IsADirectoryError)
        path = {"missing-directory": tmp_path / "missing" / "out",
                "directory": tmp_path}[target]
        assert main([*argv, "--output", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"qetsim: error: cannot write {path}: ")
        assert captured.err.count("\n") == 1

    def test_numeric_failure_exit_3(self, monkeypatch, capsys):
        from qetsim import cli, locc
        from qetsim.errors import NumericError

        def boom(*args, **kwargs):
            raise NumericError("synthetic")

        monkeypatch.setattr(locc, "run_once", boom)
        assert cli.main(["run", "--h", "3", "--k", "4", "--latency", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qetsim: numeric failure: synthetic\n"


class TestImports:
    @staticmethod
    def loaded(code, which, flags=()):
        """sorted(`which`), a set expression over `new`: the top-level modules
        that `code` loads in a fresh interpreter started with `flags`; those
        loaded at start-up (site hooks) don't count."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        script = (
            "import sys; before = set(sys.modules); assert 'numpy' not in before\n"
            f"{code}\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            f"print(sorted({which}))"
        )
        out = subprocess.run(
            [sys.executable, *flags, "-c", script], env=env, capture_output=True,
            text=True, check=True,
        )
        return out.stdout.strip()

    # The top-level third-party modules (qetsim aside) among `new`.
    THIRD_PARTY = "new - set(sys.stdlib_module_names) - {'qetsim'}"

    def third_party_modules(self, code):
        return self.loaded(code, self.THIRD_PARTY)

    def wire_stack_loaded(self, code):
        """Which of socket and hashlib `code` loads."""
        return self.loaded(code, "new & {'socket', 'hashlib'}")

    def test_cli_import_adds_no_third_party_module(self):
        assert self.third_party_modules("import qetsim.cli") == "[]"

    def test_cli_import_loads_errors_and_model_only(self):
        # the parser's --policy choices live in qetsim.model, so the CLI
        # loads no module that only some commands run
        which = "{m for m in set(sys.modules) - before if m.startswith('qetsim')}"
        assert self.loaded("import qetsim.cli", which, flags=["-S"]) == (
            "['qetsim', 'qetsim.cli', 'qetsim.errors', 'qetsim.model']"
        )

    def test_locc_import_adds_no_third_party_module(self):
        # rounds and sweeps are scalar closed forms; numpy never loads here
        assert self.third_party_modules("import qetsim.locc") == "[]"

    @pytest.mark.parametrize("latency", ["1", "Fraction(1, 2)"])
    def test_latency_of_another_real_type_loads_no_numpy(self, latency):
        # a latency of another real type is checked without numpy, in a round
        # and in a sweep
        code = (
            "from fractions import Fraction\n"
            "from qetsim.locc import run_once, sweep_latency\n"
            "from qetsim.model import ModelParams\n"
            f"row = run_once(ModelParams(3, 4), {latency})\n"
            f"assert sweep_latency(ModelParams(3, 4), [0, {latency}])[1] == row"
        )
        assert self.third_party_modules(code) == "[]"

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["audit", "minimal", "--alpha", "2", "--time", "0.25"],
                id="audit-minimal",
            ),
            pytest.param(
                ["audit", "ion", "--gamma", "0.5", "--zeta", "2", "--nu", "1",
                 "--time", "1"],
                id="audit-ion",
            ),
            pytest.param(["run", "--alpha", "2", "--latency", "0.1"], id="run"),
            pytest.param(
                ["run", "--alpha", "2", "--latency", "0.1", "--mode", "full"],
                id="run-full",
            ),
            pytest.param(
                ["run", "--alpha", "2", "--latency", "0.1",
                 "--policy", "closed-form-theta"],
                id="run-closed-form-theta",
            ),
            pytest.param(
                ["sweep", "--alpha", "2", "--latencies", "0:1:0.5"], id="sweep",
            ),
            pytest.param(
                ["sweep", "--alpha", "2", "--latencies", "0:1:0.5", "--mode", "full"],
                id="sweep-full",
            ),
            pytest.param(
                ["sweep", "--alpha", "2", "--latencies", "0:1:0.5",
                 "--policy", "closed-form-theta"],
                id="sweep-closed-form-theta",
            ),
            pytest.param(["model", "--h", "3", "--k", "4"], id="model"),
            pytest.param(["scan-alpha", "--points", "10"], id="scan-alpha"),
        ],
    )
    def test_command_loads_numpy_only_for_linear_algebra(self, argv):
        # qetsim has no runtime dependency (pyproject.toml): audits, the
        # f(alpha) scan, a round and a sweep are scalar closed forms, and the
        # model report's numeric side is plain math on the two parity blocks.
        # Outside wire mode no command loads socket, nor hashlib, which only
        # ProtocolTrace.digest() uses
        which = self.THIRD_PARTY + " | new & {'socket', 'hashlib'}"
        assert self.loaded(self.main_code(argv), which) == "[]"

    @staticmethod
    def main_code(argv):
        """Code that runs `qetsim argv` in-process, its stdout discarded."""
        return (
            "import contextlib, io; from qetsim.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0"
        )

    # Cold start: no command needs dataclasses' generated code, nor inspect,
    # which dataclasses loads, nor typing, whose names no annotation
    # evaluates; a round and a sweep need neither the audit module nor
    # json, the model report's default table needs no json, and only a
    # round and a sweep evaluate E_B (qetsim.extraction).  The CLI sends
    # floats, so the scalar check's type test for other values (numbers,
    # collections.abc) never loads in a round, a sweep or a model report,
    # and a scan's int `points` loads no numbers in the audits and scans.
    # The child runs without site (-S), whose hooks may load any of these
    # first.
    COLD = ["dataclasses", "inspect", "typing"]
    NO_E_B = [*COLD, "qetsim.extraction"]
    LAZY = ["numbers", "collections.abc"]
    ROUND = [*COLD, *LAZY, "json", "qetsim.audit"]
    MODEL = [*NO_E_B, *LAZY]
    AUDIT = [*NO_E_B, "numbers"]

    @pytest.mark.parametrize(
        "argv, unwanted",
        [
            pytest.param(["model", "--h", "3", "--k", "4"], [*MODEL, "json"],
                         id="model"),
            pytest.param(["model", "--h", "3", "--k", "4", "--format", "json"],
                         MODEL, id="model-json"),
            pytest.param(["scan-alpha", "--points", "100"], AUDIT,
                         id="scan-alpha"),
            pytest.param(["audit", "minimal", "--alpha", "2", "--time", "0.25"],
                         AUDIT, id="audit-minimal"),
            pytest.param(["audit", "ion", "--gamma", "0.5", "--zeta", "2", "--nu",
                          "1", "--time", "1"], AUDIT, id="audit-ion"),
            pytest.param(["run", "--alpha", "2", "--latency", "0.1"], ROUND,
                         id="run"),
            pytest.param(["run", "--alpha", "2", "--latency", "0.1",
                          "--policy", "closed-form-theta"], ROUND,
                         id="run-closed-form-theta"),
            pytest.param(["sweep", "--alpha", "2", "--latencies", "0:1:0.1"], ROUND,
                         id="sweep"),
            pytest.param(["sweep", "--alpha", "2", "--latencies", "0:1:0.1",
                          "--mode", "full"], ROUND, id="sweep-full"),
            pytest.param(["sweep", "--alpha", "2", "--latencies", "0:1:0.1",
                          "--policy", "closed-form-theta"], ROUND,
                         id="sweep-closed-form-theta"),
            pytest.param(None, COLD, id="import-locc"),
        ],
    )
    def test_command_loads_only_what_it_runs(self, argv, unwanted):
        code = "import qetsim.locc" if argv is None else self.main_code(argv)
        which = f"(set(sys.modules) - before) & set({unwanted!r})"
        assert self.loaded(code, which, flags=["-S"]) == "[]"

    # Alice in a thread and Bob through the CLI, in one interpreter
    WIRE_PAIR = (
        "import contextlib, io, threading\n"
        "from qetsim import locc\n"
        "from qetsim.cli import main\n"
        "from qetsim.model import ModelParams\n"
        "listener = locc.open_listener('127.0.0.1:0')\n"
        "port = listener.getsockname()[1]\n"
        "box = {}\n"
        "alice = threading.Thread(target=lambda: box.update(\n"
        "    trace=locc.wire_alice(listener, ModelParams(3, 4), 0.5)))\n"
        "alice.start()\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = main(['run', '--h', '3', '--k', '4', '--latency', '0.5',\n"
        "                 '--wire', 'bob', '--connect', f'127.0.0.1:{port}'])\n"
        "alice.join(timeout=30)\n"
        "listener.close()\n"
        "assert code == 0 and not alice.is_alive()\n"
        "row = box['trace'].csv_row()\n"
        "assert out.getvalue() == f'{locc.TRACE_CSV_HEADER}\\n{row}\\n'"
    )

    def test_wire_pair_loads_no_numpy(self):
        assert self.third_party_modules(self.WIRE_PAIR) == "[]"

    def test_wire_pair_and_digest_load_no_typing(self):
        code = f"{self.WIRE_PAIR}\nbox['trace'].digest()"
        assert self.loaded(code, "new & {'typing'}", flags=["-S"]) == "[]"

    def test_wire_round_and_digest_load_the_wire_stack(self):
        assert self.wire_stack_loaded(self.WIRE_PAIR) == "['socket']"
        digest = (
            "from qetsim.locc import run_once; from qetsim.model import ModelParams\n"
            "run_once(ModelParams(3, 4), 0.5).digest()"
        )
        assert self.wire_stack_loaded(digest) == "['hashlib']"

    def test_policy_choices_are_the_protocol_policies(self):
        from qetsim import cli, extraction, model

        commands = cli.build_parser()._subparsers._group_actions[0].choices
        for name in ("run", "sweep"):
            (policy,) = [a for a in commands[name]._actions if a.dest == "policy"]
            assert policy.choices is model.POLICIES
        # defined once, in qetsim.model, and the same tuples in qetsim.extraction
        assert extraction.POLICIES is model.POLICIES
        assert extraction.MODES is model.MODES


@pytest.mark.parametrize(
    ("argv", "code"),
    [
        (COMMANDS["run"], 0),
        (["teleport"], 2),
        ([*COMMANDS["run"], "--policy", "closed-form-theta", "--mode", "full"], 2),
        ([*COMMANDS["run"], "--output", "."], 2),  # the working directory
        (["scan-alpha", "--points", "100000"], 2),  # stdout's reader gone
        (["audit", "ion", "--gamma", "1", "--zeta", "1e-300", "--nu", "1e300",
          "--time", "1"], 3),
    ],
    ids=["golden-run", "unknown-command", "fixed-angle-full", "unwritable-output",
         "closed-stdout", "ion-maximum-out-of-range"],
)
def test_process_exit_code_is_mains(argv, code, tmp_path):
    # `python -m qetsim.cli` runs entry(), whose exit code is main's.  The
    # scan's 2 MB are far past a pipe's buffer; with the pipe's read end
    # closed, its write gave a traceback and exit 1.
    stdout = subprocess.PIPE
    if "scan-alpha" in argv:
        read_end, stdout = os.pipe()
        os.close(read_end)
    with subprocess.Popen(
        [sys.executable, "-m", "qetsim.cli", *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=stdout,
        stderr=subprocess.PIPE,
    ) as proc:
        if stdout != subprocess.PIPE:
            os.close(stdout)
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == code
    assert b"Traceback" not in err
    if code == 0:
        assert out == (GOLDEN / "run_h3_k4_t0.5.csv").read_bytes()
    else:
        assert not out
        assert err.startswith((b"qetsim: ", b"usage: qetsim"))


class TestGolden:
    def test_model_h3_k4(self, tmp_path):
        code, got = run_cli(["model", "--h", "3", "--k", "4"], tmp_path)
        assert code == 0
        assert got == (GOLDEN / "model_h3_k4.txt").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_model_h3_k4_formats(self, fmt, tmp_path):
        argv = ["model", "--h", "3", "--k", "4", "--format", fmt]
        code, got = run_cli(argv, tmp_path)
        assert code == 0
        assert got == (GOLDEN / f"model_h3_k4.{fmt}").read_bytes()

    def test_scan_alpha_100(self, tmp_path):
        code, got = run_cli(["scan-alpha", "--points", "100"], tmp_path)
        assert code == 0
        assert got == (GOLDEN / "scan_alpha_100.csv").read_bytes()

    def test_audit_minimal(self, tmp_path):
        code, got = run_cli(
            ["audit", "minimal", "--alpha", "2", "--time", "0.25"], tmp_path
        )
        assert code == 0
        assert got == (GOLDEN / "audit_minimal.json").read_bytes()

    def test_audit_ion(self, tmp_path):
        code, got = run_cli(
            ["audit", "ion", "--gamma", "0.5", "--zeta", "2", "--nu", "1",
             "--time", "1"],
            tmp_path,
        )
        assert code == 0
        assert got == (GOLDEN / "audit_ion.json").read_bytes()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["run", "--h", "3", "--k", "4", "--latency", "0.5"],
             "run_h3_k4_t0.5.csv"),
            (["run", "--h", "3", "--k", "4", "--latency", "0.5", "--mode", "full"],
             "run_h3_k4_t0.5_full.csv"),
            (["run", "--h", "3", "--k", "4", "--latency", "0.5",
              "--policy", "closed-form-theta"],
             "run_h3_k4_t0.5_theta.csv"),
            (["sweep", "--h", "3", "--k", "4", "--latencies", "0:1:0.1"],
             "sweep_h3_k4.csv"),
            (["sweep", "--h", "3", "--k", "4", "--latencies", "0:1:0.1",
              "--mode", "full"],
             "sweep_h3_k4_full.csv"),
            (["sweep", "--h", "3", "--k", "4", "--latencies", "0:1:0.1",
              "--policy", "closed-form-theta"],
             "sweep_h3_k4_theta.csv"),
        ],
        ids=["run", "run-full", "run-closed-form-theta", "sweep", "sweep-full",
             "sweep-closed-form-theta"],
    )
    def test_round_and_sweep(self, argv, name, tmp_path):
        # a round is a one-point sweep; each (policy, mode) loop of the
        # sweep is pinned through the command
        code, got = run_cli(argv, tmp_path)
        assert code == 0
        assert got == (GOLDEN / name).read_bytes()

    def test_repeat_invocations_byte_identical(self, tmp_path):
        _, first = run_cli(["model", "--h", "3", "--k", "4"], tmp_path, "a")
        _, second = run_cli(["model", "--h", "3", "--k", "4"], tmp_path, "b")
        assert first == second


class TestModelCommand:
    def test_alpha_mode(self, tmp_path):
        code, got = run_cli(["model", "--alpha", "1"], tmp_path)
        assert code == 0
        text = got.decode()
        # E_B / k at alpha = 1: (3/sqrt(2))(sqrt(10/9) - 1)
        assert "0.11474763394" in text
        assert "status                  ok" in text

    def test_json_format(self, tmp_path):
        code, got = run_cli(
            ["model", "--h", "3", "--k", "4", "--format", "json"], tmp_path
        )
        assert code == 0
        payload = json.loads(got)
        assert payload["status"] == "ok"
        by_name = {c["quantity"]: c for c in payload["checks"]}
        assert by_name["e_a"]["closed"] == pytest.approx(1.8)
        assert by_name["e_b"]["closed"] == pytest.approx(0.344003745318, rel=1e-11)

    def test_csv_format(self, tmp_path):
        code, got = run_cli(
            ["model", "--h", "3", "--k", "4", "--format", "csv"], tmp_path
        )
        assert code == 0
        assert got.decode().splitlines()[0] == "quantity,closed,numeric,residual,tolerance"

    def test_e_b_row_holds_at_extreme_alpha(self, tmp_path):
        # the numeric e_b read 1e-08 against 5e-09; the energy rows, measured
        # in units of 4s, hold at E_A = 1e8 as well
        code, got = run_cli(["model", "--alpha", "1e8", "--format", "json"], tmp_path)
        assert code == 0
        payload = json.loads(got)
        assert payload["status"] == "ok"
        by_name = {c["quantity"]: c for c in payload["checks"]}
        assert by_name["e_b"]["residual"] <= by_name["e_b"]["tolerance"]

    def test_degenerate_ground_level_exit_3(self, capsys):
        # the two lowest levels are 1e-16 apart at alpha = 1e-8: a numeric
        # failure with one stderr line, never a traceback (the e_a row's
        # cancellation fails the report there, tests/test_report.py)
        assert main(["model", "--alpha", "1e-8"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("qetsim: numeric failure: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "h, k, ratio",
        [("1e-4", "1", "x11.6"), ("1e-30", "1e30", "x2.81e+114")],
    )
    def test_failure_prints_the_worst_ratio_to_3_digits(self, h, k, ratio, capsys):
        # the e_a row's cancellation fails alpha = 1e-4, and the far corner
        # by 114 orders of magnitude (ROADMAP item 4 (c))
        assert main(["model", "--h", h, "--k", k]) == 3
        assert capsys.readouterr().err == (
            "qetsim: numeric failure: model cross-check residual above "
            f"tolerance ({ratio})\n"
        )


class TestScanCommand:
    def test_exact_row_count(self, tmp_path):
        code, got = run_cli(
            ["scan-alpha", "--points", "1000", "--max-alpha", "20"], tmp_path
        )
        assert code == 0
        lines = got.decode().splitlines()
        assert len(lines) == 1002  # header + 1000 rows + summary comment
        assert lines[0] == "alpha,f_alpha"
        assert lines[-1].startswith("#")

    def test_summary_within_bracket(self, tmp_path):
        _, got = run_cli(["scan-alpha", "--points", "1000"], tmp_path)
        summary = got.decode().splitlines()[-1]
        value = float(summary.split("max_value=")[1].split(",")[0])
        assert 0.10 < value < 0.16

    @pytest.mark.parametrize("points", ["100000000000", "1", "-5"])
    def test_points_out_of_range_exit_2(self, points, capsys):
        # rejected before the grid is allocated
        assert main(["scan-alpha", "--points", points]) == 2
        assert "grid points" in capsys.readouterr().err

    @pytest.mark.parametrize("low", ["1e100", "1e200"])
    def test_alpha_past_the_domain_exit_2(self, low, capsys):
        # (a^2+2)^2 overflows past alpha = 1.2e77, and a^2 past 1.3e154
        argv = ["scan-alpha", "--points", "2", "--min-alpha", low]
        assert main([*argv, "--max-alpha", f"{10 * float(low):g}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "qetsim: error: alpha_min must be finite and >= 1e-60 and <= 1e+60\n"
        )


class TestRunCommand:
    def test_zero_latency(self, tmp_path):
        code, got = run_cli(
            ["run", "--h", "3", "--k", "4", "--latency", "0"], tmp_path
        )
        assert code == 0
        lines = got.decode().splitlines()
        assert lines[0] == "h,k,t_c,e_a,e_b,product,verdict"
        fields = lines[1].split(",")
        assert fields[4] == "0.344003745318"
        assert fields[6] == "unobservable"

    def test_full_mode_at_positive_delay(self, tmp_path):
        # an iterative SU(2) search fails to converge at this point
        code, got = run_cli(
            ["run", "--h", "0.3", "--k", "2", "--latency", "0.05", "--mode", "full"],
            tmp_path,
        )
        assert code == 0
        assert len(got.decode().splitlines()) == 2

    def wire_pair(self, tmp_path, host):
        """Alice in a thread, Bob through the CLI, both ends over `host`."""
        listener = open_listener(f"{host}:0")
        port = listener.getsockname()[1]
        out_alice = tmp_path / "alice.csv"
        out_bob = tmp_path / "bob.csv"
        box = {}

        def serve():
            from qetsim.locc import TRACE_CSV_HEADER, wire_alice
            from qetsim.model import ModelParams

            trace = wire_alice(listener, ModelParams(3, 4), 0.5)
            out_alice.write_text(f"{TRACE_CSV_HEADER}\n{trace.csv_row()}\n")
            box["done"] = True

        thread = threading.Thread(target=serve)
        thread.start()
        code = main(
            ["run", "--h", "3", "--k", "4", "--latency", "0.5",
             "--wire", "bob", "--connect", f"{host}:{port}",
             "--output", str(out_bob)]
        )
        thread.join(timeout=30)
        listener.close()
        assert code == 0
        assert box.get("done")
        assert out_alice.read_bytes() == out_bob.read_bytes()

    def test_wire_pair_identical_output(self, tmp_path):
        self.wire_pair(tmp_path, "127.0.0.1")

    def test_wire_pair_over_ipv6(self, tmp_path):
        self.wire_pair(tmp_path, "[::1]")

    def test_wire_needs_endpoint(self):
        assert main(["run", "--h", "3", "--k", "4", "--latency", "0",
                     "--wire", "alice"]) == 2

    @pytest.mark.parametrize(
        ("flags", "flag"),
        [
            (["--listen", "127.0.0.1:7777"], "--listen"),
            (["--connect", "127.0.0.1:7777"], "--connect"),
            (["--wire", "alice", "--listen", "127.0.0.1:0",
              "--connect", "127.0.0.1:7777"], "--connect"),
            (["--wire", "bob", "--connect", "127.0.0.1:7777",
              "--listen", "127.0.0.1:0"], "--listen"),
        ],
        ids=["listen-alone", "connect-alone", "alice-connect", "bob-listen"],
    )
    def test_endpoint_of_another_role_exit_2(self, flags, flag, capsys):
        # each once ran the round in process, or ignored the flag, and exited 0
        argv = ["run", "--h", "3", "--k", "4", "--latency", "0.5", *flags]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    WIRE_BOB = ["run", "--h", "3", "--k", "4", "--latency", "0.5", "--wire", "bob"]

    def test_wire_refused_connect_exit_2(self, capsys):
        # a bound socket that does not listen refuses the connection
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            port = closed.getsockname()[1]
            assert main([*self.WIRE_BOB, "--connect", f"127.0.0.1:{port}"]) == 2
        assert "refused" in capsys.readouterr().err

    def test_wire_port_out_of_range_exit_2(self, capsys):
        argv = ["run", "--h", "3", "--k", "4", "--latency", "0.5", "--wire", "alice"]
        assert main([*argv, "--listen", "127.0.0.1:99999"]) == 2
        assert "port out of range" in capsys.readouterr().err

    def test_wire_port_not_a_number_exit_2(self, capsys):
        assert main([*self.WIRE_BOB, "--connect", "localhost:http"]) == 2
        assert "bad port" in capsys.readouterr().err

    def test_wire_silent_peer_exit_2(self, monkeypatch, capsys):
        from qetsim import locc

        monkeypatch.setattr(locc, "WIRE_TIMEOUT", 0.3)
        # the kernel completes the connection; nobody ever answers the hello
        with socket.create_server(("127.0.0.1", 0)) as silent:
            port = silent.getsockname()[1]
            assert main([*self.WIRE_BOB, "--connect", f"127.0.0.1:{port}"]) == 2
        assert "timed out" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "endpoint", [["--wire", "bob", "--connect", "127.0.0.1:1"],
                     ["--wire", "alice", "--listen", "127.0.0.1:0"]],
        ids=["bob", "alice"],
    )
    def test_wire_bad_latency_exit_2(self, endpoint, monkeypatch, capsys):
        # the round is computed before any connect or accept: Bob reported a
        # refused connection and Alice waited for a peer that never came
        from qetsim import locc

        monkeypatch.setattr(locc, "WIRE_TIMEOUT", 0.3)
        argv = ["run", "--h", "3", "--k", "4", "--latency", "-1", *endpoint]
        assert main(argv) == 2
        assert "latencies must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("reply", "message"),
        [
            (lambda hello: b"", "closed mid-protocol"),
            (lambda hello: hello[:20], "malformed frame"),
            (lambda hello: hello.replace(b'"h":3.0', b'"h":"3"'), "handshake rejected"),
            (
                lambda hello: hello + b'{"kind":"outcome","mu":0,"sent_at":0.0,"del',
                "malformed frame",
            ),
            (lambda hello: b"\xff\xfe\xfd\n", "malformed frame"),
            (
                lambda hello: hello
                + b'{"kind":"outcome","mu":1,"sent_at":0.0,"deliver_at":0.5}\n',
                "outcome frame",
            ),
            (
                lambda hello: hello
                + b'{"kind":"outcome","mu":0,"sent_at":0.0,"deliver_at":0.25}\n',
                "outcome frame",
            ),
            # Bob buffered a line of any length: 200 MB cost him 400 MB
            (lambda hello: b"0" * (1 << 22), "malformed frame: longer than 512 bytes"),
        ],
        ids=["early-close", "truncated-hello", "string-field", "truncated-outcome",
             "non-utf8", "outcome-out-of-order", "outcome-wrong-latency",
             "endless-line"],
    )
    def test_wire_bad_peer_exit_2(self, reply, message, capsys):
        # a scripted peer reads Bob's hello, answers with `reply` and closes;
        # Bob may close first, while a long reply is still being written
        with socket.create_server(("127.0.0.1", 0)) as server:
            port = server.getsockname()[1]

            def peer():
                conn, _ = server.accept()
                with contextlib.suppress(OSError), conn, conn.makefile("rwb") as stream:
                    stream.write(reply(stream.readline()))
                    stream.flush()

            thread = threading.Thread(target=peer)
            thread.start()
            code = main([*self.WIRE_BOB, "--connect", f"127.0.0.1:{port}"])
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("alpha", "e_a", "e_b"),
        [("1e-8", "1e-16", "2.5e-17"), ("1e8", "100000000", "5e-09")],
    )
    def test_extreme_alpha_keeps_its_digits(self, alpha, e_a, e_b, capsys):
        # full mode printed 5e-17 and 2.7795539809e-08 through a Kabsch SVD,
        # and the fixed angle 5.00000019166e-17 and 9.99999993923e-09
        for control in ([], ["--mode", "full"], ["--policy", "closed-form-theta"]):
            assert main(["run", "--alpha", alpha, "--latency", "0", *control]) == 0
            fields = capsys.readouterr().out.splitlines()[1].split(",")
            assert fields[3] == e_a
            assert fields[4] == e_b


class TestSweepCommand:
    def test_eleven_rows(self, tmp_path):
        code, got = run_cli(
            ["sweep", "--alpha", "2", "--latencies", "0:1:0.1"], tmp_path
        )
        assert code == 0
        lines = got.decode().splitlines()
        assert len(lines) == 12  # header + 11 rows
        products = [float(line.split(",")[5]) for line in lines[1:]]
        # teleportation regime rows stay far below threshold; the
        # re-optimised boundary row t_c = 1/k crosses it (ordinary
        # transport), which the verdict column records
        assert all(value < 1.0 for value in products[:10])
        assert products[10] == pytest.approx(1.00732, abs=5e-4)
        verdicts = [line.split(",")[6] for line in lines[1:]]
        assert verdicts[:10] == ["unobservable"] * 10
        assert verdicts[10] == "observable"

    def test_comma_grid(self, tmp_path):
        code, got = run_cli(
            ["sweep", "--h", "3", "--k", "4", "--latencies", "0,0.1,0.2"], tmp_path
        )
        assert code == 0
        assert len(got.decode().splitlines()) == 4

    def test_bad_grid_exit_2(self):
        assert main(["sweep", "--h", "3", "--k", "4", "--latencies", "1:0:0.1"]) == 2

    @pytest.mark.parametrize(
        "spec",
        ["abc", "0:1", "0:1:0.1:2", "1,,2", pytest.param("", id="empty"), "0:1:x"],
    )
    def test_unparsable_grid_exit_2(self, spec, capsys):
        assert main(["sweep", "--alpha", "1", "--latencies", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qetsim: error: cannot parse latency grid {spec!r}\n"

    @pytest.mark.parametrize(
        "spec", ["0:inf:1", "nan:1:0.1", "0:1e308:1e-308", "0:1e-300:1e-310"]
    )
    def test_unbounded_grid_exit_2(self, spec, capsys):
        # rejected before the grid list is built: no overflow, no allocation
        assert main(["sweep", "--alpha", "1", "--latencies", spec]) == 2
        assert "latency range" in capsys.readouterr().err

    def test_grid_point_limit_is_inclusive(self, monkeypatch):
        from qetsim import cli

        assert cli.MAX_LATENCY_POINTS == 10**6
        monkeypatch.setattr(cli, "MAX_LATENCY_POINTS", 11)
        assert len(cli._parse_latencies("0:1:0.1")) == 11
        with pytest.raises(ValidationError):
            cli._parse_latencies("0:1.1:0.1")

    @pytest.mark.parametrize(
        "spec, rows",
        [
            ("0:1:0.6", 2),
            ("0:2.4999:0.00025", 10_000),
            ("0:1:0.1", 11),
            ("0:0.3:0.1", 4),
            ("0:2.5:0.025", 101),
            ("0:249.99:0.00025", 999_961),
        ],
    )
    def test_range_never_passes_its_stop(self, spec, rows):
        from qetsim import cli

        start, stop, step = map(float, spec.split(":"))
        grid = cli._parse_latencies(spec)
        assert len(grid) == rows
        # nothing passes stop by more than the slack, and one more step would
        assert max(grid) <= stop + 1e-9 * step < grid[-1] + step


class TestAuditCommand:
    def test_minimal_values(self, tmp_path):
        _, got = run_cli(
            ["audit", "minimal", "--alpha", "2", "--time", "0.25"], tmp_path
        )
        payload = json.loads(got)
        assert payload["product"] == pytest.approx(0.0362863879366, rel=1e-11)
        assert payload["verdict"] == "unobservable"

    def test_minimal_observable_regime(self, tmp_path):
        _, got = run_cli(
            ["audit", "minimal", "--alpha", "2", "--time", "100"], tmp_path
        )
        payload = json.loads(got)
        assert payload["product"] == pytest.approx(14.5145551746, rel=1e-11)
        assert payload["verdict"] == "observable"

    def test_minimal_extreme_alpha_keeps_its_digits(self, capsys):
        assert main(["audit", "minimal", "--alpha", "1e8", "--time", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["energy"] == 5e-09

    def test_ion_values(self, tmp_path):
        _, got = run_cli(
            ["audit", "ion", "--gamma", "0.5", "--zeta", "2", "--nu", "1",
             "--time", "1"],
            tmp_path,
        )
        payload = json.loads(got)
        assert payload["product"] == pytest.approx(0.0676676416183, rel=1e-11)
        assert payload["verdict"] == "unobservable"

    def test_ion_has_no_phi_option(self, capsys):
        # the audit bounds the output at sin^2(2*phi) = 1, so phi changed nothing
        argv = ["audit", "ion", "--gamma", "0.5", "--zeta", "2", "--nu", "1"]
        with pytest.raises(SystemExit) as err:
            main([*argv, "--time", "1", "--phi", "1.3"])
        assert err.value.code == 2
        assert "unrecognized arguments: --phi" in capsys.readouterr().err

    def test_ion_flagged_regime(self, tmp_path):
        _, got = run_cli(
            ["audit", "ion", "--gamma", "1", "--zeta", "0.1", "--nu", "1",
             "--time", "1"],
            tmp_path,
        )
        payload = json.loads(got)
        assert "flagged" in payload["notes"]
        assert payload["verdict"] == "unobservable"

    def test_ion_flagged_note_names_an_overflow(self, capsys):
        argv = ["audit", "ion", "--gamma", "1", "--zeta", "1e-10", "--nu", "1e290"]
        assert main([*argv, "--time", "1e9"]) == 0
        notes = json.loads(capsys.readouterr().out)["notes"]
        assert "would exceed the float range" in notes
        assert "inf" not in notes

    def test_ion_maximum_out_of_range_exit_3(self, capsys):
        argv = ["audit", "ion", "--gamma", "1", "--zeta", "1e-10", "--nu", "1e300"]
        assert main([*argv, "--time", "1e-300"]) == 3
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["minimal", "--h", "1e30", "--k", "1e30"],
            ["ion", "--gamma", "1", "--zeta", "0.5", "--nu", "1e300"],
        ],
    )
    def test_product_overflow_exit_2(self, argv, capsys):
        # exit 0 with "product": Infinity, which is not JSON
        assert main(["audit", *argv, "--time", "1e300"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "energy*time must be finite" in err

    def test_exit_zero_either_verdict(self, tmp_path):
        code_a, _ = run_cli(
            ["audit", "minimal", "--alpha", "2", "--time", "100"], tmp_path, "a"
        )
        code_b, _ = run_cli(
            ["audit", "minimal", "--alpha", "2", "--time", "0.1"], tmp_path, "b"
        )
        assert code_a == 0 and code_b == 0
