"""End-to-end tests for the command-line front end.

Each test drives ``delaymon.cli.main`` with real argument vectors and trace
files and checks the printed verdict blocks, exit codes, CSV output, and the
delay-injection replay mode.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delaymon.monitor as monitor_module
from delaymon.automata import parse_tba
from delaymon.cli import main
from delaymon.dbm import INF, parse_scaled
from delaymon.monitor import DelayBounds, Monitor

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"

DEADLINE_ARGS = [
    "--spec", str(FIXTURES / "deadline_spec.txt"),
    "--complement", str(FIXTURES / "deadline_complement.txt"),
    "--scale", "1",
]

GEAR_ARGS = [
    "--spec", str(FIXTURES / "gear_spec.txt"),
    "--complement", str(FIXTURES / "gear_complement.txt"),
    "--scale", "1", "--mode", "test",
    "--in-latency", "10", "50", "--in-jitter", "10",
    "--out-latency", "60", "100", "--out-jitter", "10",
]


def write_trace(tmp_path: Path, text: str) -> str:
    path = tmp_path / "trace.txt"
    path.write_text(text)
    return str(path)


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenSession:
    """The two-observation worked session, reproduced byte for byte."""

    # [DERIVED] each block restates the monitor worked-example zones:
    # after (a, 173) the positive latencies are [71,100]; after (b, 275)
    # they tighten to [71,75) and the verdict stays inconclusive.
    GOLDEN = """\
Input: @173 a

Verdict: INCONCLUSIVE
Positive:
Consistent latencies: {[71,100]}
Jitter bound: 2
Negative:
Consistent latencies: {[0,100]}
Jitter bound: 2

Input: @275 b

Verdict: INCONCLUSIVE
Positive:
Consistent latencies: {[71,75)}
Jitter bound: 2
Negative:
Consistent latencies: {[0,100]}
Jitter bound: 2

"""

    def test_golden_output_and_exit_code(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "@173 a\n@275 b\n")
        code, out, _ = run(capsys, DEADLINE_ARGS + [
            "--latency", "0", "100", "--jitter", "2", "--trace", trace])
        assert out == self.GOLDEN
        assert code == 2

    def test_comments_and_blanks_are_ignored(self, capsys, tmp_path):
        trace = write_trace(
            tmp_path, "# header\n\n@173 a  # stimulus\n\n@275 b\n")
        _, out, _ = run(capsys, DEADLINE_ARGS + [
            "--latency", "0", "100", "--jitter", "2", "--trace", trace])
        assert out == self.GOLDEN


class TestExitCodes:
    def test_violation_exits_one(self, capsys, tmp_path):
        # [DERIVED] with unbounded latency and jitter 2 the response at 271
        # cannot be explained: every consistent ground time puts the response
        # before the 100-tick deadline has passed, yet after the reward
        # window.
        trace = write_trace(tmp_path, "@173 a\n@271 b\n")
        code, out, _ = run(capsys, DEADLINE_ARGS + [
            "--latency", "0", "inf", "--jitter", "2", "--trace", trace])
        assert code == 1
        assert "Verdict: FALSE" in out

    def test_empty_trace_prints_initial_block(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "# nothing yet\n")
        code, out, _ = run(capsys, DEADLINE_ARGS + [
            "--latency", "0", "100", "--jitter", "2", "--trace", trace])
        assert code == 2
        assert out.splitlines()[0] == "Verdict: INCONCLUSIVE"
        assert "Consistent latencies: {[0,100]}" in out

    def test_decreasing_timestamps_exit_three(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "@173 a\n@100 b\n")
        code, _, err = run(capsys, DEADLINE_ARGS + [
            "--latency", "0", "100", "--trace", trace])
        assert code == 3
        assert err.startswith("error: ")

    def test_malformed_line_reports_line_number(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "@50 a\n275 b\n")
        code, _, err = run(capsys, DEADLINE_ARGS + ["--trace", trace])
        assert code == 3
        assert "trace line 2" in err

    def test_too_precise_timestamp_rejected(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "@173.5 a\n")
        code, _, err = run(capsys, DEADLINE_ARGS + ["--trace", trace])
        assert code == 3
        assert "precision" in err

    def test_unknown_symbol_exits_three(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "@10 zzz\n")
        code, _, err = run(capsys, DEADLINE_ARGS + ["--trace", trace])
        assert code == 3
        assert "zzz" in err

    def test_missing_spec_file(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "@10 a\n")
        code, _, err = run(capsys, [
            "--spec", str(tmp_path / "nope.txt"),
            "--complement", str(FIXTURES / "deadline_complement.txt"),
            "--trace", trace])
        assert code == 3
        assert "cannot read" in err

    def test_missing_trace_file(self, capsys):
        code, _, err = run(capsys, DEADLINE_ARGS + [
            "--trace", "/does/not/exist.txt"])
        assert code == 3
        assert "cannot read" in err

    def test_bad_argument_exits_three(self, capsys):
        code, _, err = run(capsys, DEADLINE_ARGS + ["--mode", "turbo"])
        assert code == 3
        assert "error: " in err

    @pytest.mark.parametrize("argv", [
        ["--mode", "classic", "--latency", "0", "10"],
        ["--mode", "classic", "--jitter", "1"],
        ["--mode", "monitor", "--in-latency", "0", "10"],
        ["--mode", "test", "--latency", "0", "10"],
    ])
    def test_mode_flag_mismatches(self, capsys, tmp_path, argv):
        trace = write_trace(tmp_path, "@10 a\n")
        code, _, err = run(capsys, DEADLINE_ARGS + argv + ["--trace", trace])
        assert code == 3
        assert "mode" in err

    def test_negative_scale_rejected(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "@10 a\n")
        code, _, err = run(capsys, [
            "--spec", str(FIXTURES / "deadline_spec.txt"),
            "--complement", str(FIXTURES / "deadline_complement.txt"),
            "--scale", "0", "--trace", trace])
        assert code == 3
        assert "--scale" in err

    def test_inverted_latency_bounds_rejected(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "@10 a\n")
        code, _, err = run(capsys, DEADLINE_ARGS + [
            "--latency", "50", "10", "--trace", trace])
        assert code == 3


class TestCsvOutput:
    def test_monitor_csv_columns(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "@173 a\n@275 b\n")
        csv_path = tmp_path / "out.csv"
        code, _, _ = run(capsys, DEADLINE_ARGS + [
            "--latency", "0", "100", "--jitter", "2",
            "--trace", trace, "--csv", str(csv_path)])
        assert code == 2
        lines = csv_path.read_text().splitlines()
        assert lines[0] == (
            "obs,pos_in_low,pos_in_high,pos_out_low,pos_out_high,"
            "pos_sum_low,pos_sum_high,neg_in_low,neg_in_high,"
            "neg_out_low,neg_out_high,neg_sum_low,neg_sum_high")
        # Monitor mode has one channel; only the output columns are filled.
        assert lines[1] == "1,,,71,100,,,,,0,100,,"
        # A strict upper endpoint carries the "s" suffix.
        assert lines[2] == "2,,,71,75s,,,,,0,100,,"

    def test_tester_csv_fills_all_columns(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "@100 ReqNewGear\n@810 NewGear\n")
        csv_path = tmp_path / "out.csv"
        run(capsys, GEAR_ARGS + ["--trace", trace, "--csv", str(csv_path)])
        lines = csv_path.read_text().splitlines()
        row1 = lines[1].split(",")
        assert row1[0] == "1"
        assert all(cell for cell in row1[1:])


class TestInjectReplay:
    GROUND = "@100 ReqNewGear\n@800 NewGear\n"

    def observed_times(self, out: str) -> list[str]:
        return [line for line in out.splitlines()
                if line.startswith("Input: ")]

    def test_pure_shift_without_jitter(self, capsys, tmp_path):
        trace = write_trace(tmp_path, self.GROUND)
        # Zero-jitter bounds make the replay a deterministic shift.
        args = [
            "--spec", str(FIXTURES / "gear_spec.txt"),
            "--complement", str(FIXTURES / "gear_complement.txt"),
            "--scale", "1", "--mode", "test",
            "--in-latency", "10", "50", "--out-latency", "60", "100",
            "--trace", trace, "--inject", "din:20,dout:70,seed:5",
        ]
        _, out, _ = run(capsys, args)
        assert self.observed_times(out) == [
            "Input: @80 ReqNewGear", "Input: @870 NewGear"]

    def test_same_seed_is_deterministic(self, capsys, tmp_path):
        trace = write_trace(tmp_path, self.GROUND)
        argv = GEAR_ARGS + [
            "--trace", trace, "--inject", "din:20,dout:70,seed:42"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_different_seed_changes_jitter(self, capsys, tmp_path):
        trace = write_trace(tmp_path, self.GROUND)

        def times(seed: int) -> list[str]:
            _, out, _ = run(capsys, GEAR_ARGS + [
                "--trace", trace,
                "--inject", f"din:20,dout:70,seed:{seed}"])
            return self.observed_times(out)

        observed = {tuple(times(seed)) for seed in range(8)}
        assert len(observed) > 1

    def test_assigned_latency_outside_bounds(self, capsys, tmp_path):
        trace = write_trace(tmp_path, self.GROUND)
        code, _, err = run(capsys, GEAR_ARGS + [
            "--trace", trace, "--inject", "din:500,dout:70,seed:1"])
        assert code == 3
        assert "outside the declared bounds" in err

    def test_reordering_shift_rejected(self, capsys, tmp_path):
        # The response's forward shift overtakes the next stimulus's
        # backward shift, which no causal channel can produce.
        trace = write_trace(
            tmp_path, "@100 ReqNewGear\n@110 NewGear\n@120 ReqNewGear\n")
        code, _, err = run(capsys, GEAR_ARGS + [
            "--trace", trace, "--inject", "din:50,dout:100,seed:1"])
        assert code == 3
        assert "reorder" in err

    def test_monitor_mode_shifts_every_event(self, capsys, tmp_path):
        # Outside test mode the spec's inputs are ordinary events on the
        # one output channel: they move forward with the outputs.
        trace = write_trace(tmp_path, "@1000 ReqNewGear\n@1700 NewGear\n")
        _, out, _ = run(capsys, GEAR_ARGS[:6] + [
            "--mode", "monitor", "--latency", "0", "100", "--trace", trace,
            "--inject", "dout:50,seed:1"])
        assert self.observed_times(out) == [
            "Input: @1050 ReqNewGear", "Input: @1750 NewGear"]

    @pytest.mark.parametrize("mode", ["classic", "monitor"])
    def test_din_rejected_outside_test_mode(self, capsys, tmp_path, mode):
        trace = write_trace(tmp_path, "@1000 ReqNewGear\n@1700 NewGear\n")
        latency = ["--latency", "0", "100"] if mode == "monitor" else []
        code, out, err = run(capsys, GEAR_ARGS[:6] + [
            "--mode", mode, *latency, "--trace", trace,
            "--inject", "din:30,dout:0,seed:1"])
        assert code == 3
        assert err == (f"error: --inject: din applies to test mode only; "
                       f"{mode} mode delays every event by dout\n")
        assert out == ""

    def test_unknown_inject_key(self, capsys, tmp_path):
        trace = write_trace(tmp_path, self.GROUND)
        code, _, err = run(capsys, GEAR_ARGS + [
            "--trace", trace, "--inject", "delay:5"])
        assert code == 3
        assert "unknown key" in err

    @pytest.mark.parametrize("schedule, message", [
        ("din:20,dout:70,dout:80", "dout given twice"),
        ("din:20,seed:1,dout:70,seed:2", "seed given twice"),
        ("din:20,dout:70,seed:1_0", "bad seed '1_0'"),
        ("din:20,dout:70,seed:\u0663", "bad seed '\u0663'"),
        ("din:20,dout:70,seed:+-3", "bad seed '+-3'"),
        ("din:20,dout:70,seed:", "bad seed ''"),
    ])
    def test_malformed_schedule_refused(self, capsys, tmp_path, schedule,
                                        message):
        trace = write_trace(tmp_path, self.GROUND)
        code, out, err = run(capsys, GEAR_ARGS + [
            "--trace", trace, "--inject", schedule])
        assert (code, out, err) == (3, "", f"error: --inject: {message}\n")

    @pytest.mark.parametrize("seed", [" 7", "+7", "7 "])
    def test_seed_is_stripped_and_may_be_signed(self, capsys, tmp_path,
                                                seed):
        trace = write_trace(tmp_path, self.GROUND)
        expected = run(capsys, GEAR_ARGS + [
            "--trace", trace, "--inject", "din:20,dout:70,seed:7"])
        assert run(capsys, GEAR_ARGS + [
            "--trace", trace, "--inject", f"din:20,dout:70,seed:{seed}"]
        ) == expected


class TestTesterBlock:
    def test_block_shape(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "@100 ReqNewGear\n@810 NewGear\n")
        code, out, _ = run(capsys, GEAR_ARGS + ["--trace", trace])
        assert code == 2
        block = out.strip().split("\n\n")[-1].splitlines()
        assert block[0] == "Verdict: INCONCLUSIVE"
        assert block[1] == "Positive:"
        assert block[2].startswith("Consistent input latencies: {")
        assert block[3].startswith("Consistent output latencies: {")
        assert block[4].startswith("Consistent combined latencies: {")
        assert block[5] == "Negative:"
        assert block[9] == "Input jitter bound: 10"
        assert block[10] == "Output jitter bound: 10"

    def test_alternation_violation_exits_three(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "@100 NewGear\n")
        code, _, err = run(capsys, GEAR_ARGS + ["--trace", trace])
        assert code == 3
        assert "input" in err


class TestOneReportPerObservation:
    """The verdict block and the CSV row of an observation render one
    latency report, and a run computes none past a conclusive verdict; the
    output stays byte for byte what the benchmark recorded."""

    FIXTURE = FIXTURES / "gear_narrow_trace.txt"  # refuted at observation 22
    AFTER = ["@9000 ReqNewGear", "@9800 NewGear"]

    def session(self, capsys, monkeypatch, tmp_path, trace, flags):
        """Exit code, stdout, CSV bytes and the number of polarities whose
        latency unions were computed."""
        sides = []
        compute = monitor_module._latencies

        def counted(side, measures):
            sides.append(side)
            return compute(side, measures)
        monkeypatch.setattr(monitor_module, "_latencies", counted)
        csv_path = tmp_path / "bounds.csv"
        code, out, _ = run(capsys, GEAR_ARGS + flags + [
            "--trace", trace, "--csv", str(csv_path)])
        return code, out, csv_path.read_bytes(), len(sides)

    def test_gear_session(self, capsys, monkeypatch, tmp_path):
        code, out, csv, computed = self.session(
            capsys, monkeypatch, tmp_path, str(self.FIXTURE), [])
        assert code == 1
        assert computed == 2 * 22  # one per polarity per observation
        # perfbench/reference.json digests this session as cli/narrow
        reference = json.loads(
            (SRC.parent / "perfbench" / "reference.json").read_text())
        digest = hashlib.blake2b(out.encode() + b"\0" + csv + b"\0" + b"1",
                                 digest_size=8).hexdigest()
        assert digest == reference["cli-sessions"]["any"]["cli/narrow"]

        trace = write_trace(tmp_path, self.FIXTURE.read_text()
                            + "".join(f"{line}\n" for line in self.AFTER))
        code, kept, kept_csv, computed = self.session(
            capsys, monkeypatch, tmp_path, trace, ["--keep-going"])
        assert code == 1
        assert computed == 2 * 22  # none past the verdict
        # each later event reprints the last block and row
        block = out[out.rindex("Verdict: "):]
        assert kept == out + "".join(
            f"Input: {line}\n\n{block}" for line in self.AFTER)
        row = csv.splitlines(keepends=True)[-1].partition(b",")[2]
        assert kept_csv == csv + b"".join(
            b"%d,%s" % (k, row) for k in range(23, 23 + len(self.AFTER)))


class TestRunsInOneProcess:
    """The rendered texts of the last report stay in the process between
    runs of ``main``; each run's stdout and CSV bytes are those of the same
    run in a process of its own.  The deadline runs at scales 1 and 10 make
    reports of equal value that print differently."""

    RUNS = {  # argument vector and trace
        "monitor": (DEADLINE_ARGS + ["--latency", "0", "100", "--jitter", "2",
                                     "--keep-going"],
                    "@173 a\n@180 a\n@190 a\n@271 b\n@400 a\n"),
        "test": (GEAR_ARGS, (FIXTURES / "gear_narrow_trace.txt").read_text()),
        "scale_1": (DEADLINE_ARGS + ["--latency", "0", "1000", "--jitter",
                                     "2"], "@50 a\n@60 a\n@70 a\n"),
        # the last --scale given is the one that holds
        "scale_10": (DEADLINE_ARGS + ["--scale", "10", "--latency", "0",
                                      "100", "--jitter", "0.2"],
                     "@5 a\n@6 a\n@7 a\n"),
    }

    def argv(self, tmp_path, name: str, csv: Path) -> list[str]:
        flags, trace = self.RUNS[name]
        path = tmp_path / f"{name}_trace.txt"
        path.write_text(trace)
        return flags + ["--trace", str(path), "--csv", str(csv)]

    @pytest.mark.parametrize("names", [["monitor", "test"],
                                       ["scale_1", "scale_10"],
                                       ["scale_10", "scale_1"]])
    def test_each_run_as_alone(self, capsys, tmp_path, names):
        alone = []
        for name in names:
            csv = tmp_path / f"{name}_alone.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "delaymon.cli",
                 *self.argv(tmp_path, name, csv)],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
            alone.append((proc.returncode, proc.stdout, csv.read_bytes()))
        together = []
        for name in names:
            csv = tmp_path / f"{name}.csv"
            code, out, _ = run(capsys, self.argv(tmp_path, name, csv))
            together.append((code, out, csv.read_bytes()))
        assert together == alone
        assert all(out.count("Verdict: ") >= 3 for _, out, _ in together)


class TestStreamControl:
    FALSE_TRACE = "@173 a\n@271 b\n@400 a\n"

    def test_early_stop_at_conclusive_verdict(self, capsys, tmp_path):
        trace = write_trace(tmp_path, self.FALSE_TRACE)
        code, out, _ = run(capsys, DEADLINE_ARGS + [
            "--latency", "0", "inf", "--jitter", "2", "--trace", trace])
        assert code == 1
        assert out.count("Input: ") == 2

    def test_keep_going_processes_everything(self, capsys, tmp_path):
        trace = write_trace(tmp_path, self.FALSE_TRACE)
        code, out, _ = run(capsys, DEADLINE_ARGS + [
            "--latency", "0", "inf", "--jitter", "2", "--trace", trace,
            "--keep-going"])
        assert code == 1
        assert out.count("Input: ") == 3

    def test_benchmark_summary(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "@173 a\n@275 b\n")
        _, out, _ = run(capsys, DEADLINE_ARGS + [
            "--latency", "0", "100", "--jitter", "2", "--trace", trace,
            "--benchmark"])
        lines = out.splitlines()
        assert "Events: 2" in lines
        assert any(ln.startswith("Max response time (us): ")
                   for ln in lines)
        assert any(ln.startswith("Mean response time (us): ")
                   for ln in lines)
        assert any(ln.startswith("Max symbolic states: ") for ln in lines)

    def test_benchmark_counts_states_per_polarity(self, capsys, tmp_path):
        # Both polarities read one reach set of 3 states; the count sums
        # the two polarities, as it did when each stepped its own.
        trace = write_trace(tmp_path, "@173 a\n@275 b\n")
        _, out, _ = run(capsys, DEADLINE_ARGS + [
            "--latency", "0", "100", "--jitter", "2", "--trace", trace,
            "--benchmark"])
        assert "Max symbolic states: 6" in out.splitlines()

    def test_csv_run_memory_does_not_grow(self, tmp_path):
        # Rows go to the file as they are made and the response times are
        # kept as running figures, so a longer run holds no more memory.
        def peak(events: int) -> int:
            trace = tmp_path / f"{events}.txt"
            trace.write_text("".join(f"@{100 * k} a\n"
                                     for k in range(1, events + 1)))
            argv = DEADLINE_ARGS + [
                "--mode", "classic", "--keep-going", "--benchmark",
                "--trace", str(trace), "--csv", str(tmp_path / "out.csv")]
            gc.collect()  # the garbage of an earlier run is not this one's
            tracemalloc.reset_peak()
            with open(os.devnull, "w") as null, redirect_stdout(null):
                assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]

        tracemalloc.start()
        try:
            small, large = peak(1_000), peak(10_000)
        finally:
            tracemalloc.stop()
        assert large - small < 64 * 1024, (small, large)

    def test_fractional_scale_round_trip(self, capsys, tmp_path):
        # With the default scale of 10 the wire times may carry one
        # fractional digit, and the report echoes them back in decimal.
        trace = write_trace(tmp_path, "@17.3 a\n")
        _, out, _ = run(capsys, [
            "--spec", str(FIXTURES / "deadline_spec.txt"),
            "--complement", str(FIXTURES / "deadline_complement.txt"),
            "--latency", "0", "10", "--jitter", "0.2", "--trace", trace])
        assert "Input: @17.3 a" in out
        assert "Jitter bound: 0.2" in out

    def test_large_scale_prints_parseable_decimals(self, capsys, tmp_path):
        # A float renderer printed 1e-05 here, which the parser rejects.
        scale = 100000
        trace = write_trace(tmp_path, "@0.00001 a\n")
        csv_path = tmp_path / "out.csv"
        code, out, _ = run(capsys, [
            "--spec", str(FIXTURES / "deadline_spec.txt"),
            "--complement", str(FIXTURES / "deadline_complement.txt"),
            "--scale", str(scale), "--latency", "0", "0.00005",
            "--jitter", "0.00002", "--trace", trace, "--csv", str(csv_path)])
        assert code == 2

        def value(text: str) -> int:
            return INF if text == "inf" else parse_scaled(text, scale, text)

        monitor = Monitor(
            *(parse_tba((FIXTURES / name).read_text(), scale)
              for name in ("deadline_spec.txt", "deadline_complement.txt")),
            DelayBounds(0, 5, 2))
        monitor.observe("a", 1)
        rep = monitor.latency_report()
        want = [[(iv.lo, iv.hi) for iv in ivs]
                for ivs in (rep.positive, rep.negative)]
        assert any(0 < v < 10 for ends in want for iv in ends for v in iv)

        assert [value(t) for t in re.findall(r"Input: @(\S+) ", out)] == [1]
        assert [value(t) for t in re.findall(r"Jitter bound: (\S+)", out)
                ] == [2, 2]
        unions = re.findall(r"Consistent latencies: \{(.*)\}", out)
        assert [[(value(lo), value(hi))
                 for lo, hi in re.findall(r"[\[(]([^,]+),([^)\]]+)", u)]
                for u in unions] == want
        row = csv_path.read_text().splitlines()[1].split(",")
        assert [[(value(lo.rstrip("s")), value(hi.rstrip("s")))
                 for lo, hi in zip(row[k].split(";"), row[k + 1].split(";"))]
                for k in (3, 9)] == want


class TestFailuresExitThree:
    """Every bad input or environment ends in ``error: ...`` and exit 3,
    never in a traceback or an exit code that reads as a verdict."""

    def test_unwritable_csv(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "@173 a\n")
        code, _, err = run(capsys, DEADLINE_ARGS + [
            "--latency", "0", "100", "--trace", trace,
            "--csv", str(tmp_path / "missing" / "bounds.csv")])
        assert code == 3
        assert err.startswith("error: cannot write ")

    def test_rows_before_an_error_stay_in_the_csv(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "@1 a\n@3 a\n@2 a\n")
        csv_path = tmp_path / "out.csv"
        code, _, err = run(capsys, DEADLINE_ARGS + [
            "--trace", trace, "--csv", str(csv_path)])
        assert code == 3
        assert err.startswith("error: ")
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("obs,")
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]

    @pytest.mark.parametrize("late,message", [
        ("@3 a", "observation at 3 precedes 5"),
        ("@6 zzz", "symbol 'zzz' not in alphabet"),
    ])
    def test_bad_event_after_the_verdict(self, capsys, tmp_path, late,
                                         message):
        # Once its verdict is FALSE the engine steps no more events but
        # still checks each one, so --keep-going refuses a bad one.
        trace = write_trace(tmp_path, f"@5 b\n{late}\n@7 a\n")
        code, out, err = run(capsys, DEADLINE_ARGS + [
            "--mode", "classic", "--keep-going", "--trace", trace])
        assert code == 3
        assert err == f"error: {message}\n"
        assert out.count("Verdict: FALSE") == 1
        assert out.endswith(f"Input: {late}\n\n")

    def test_alternation_checked_after_the_verdict(self, capsys, tmp_path):
        # The narrow gear session is refuted at its last observation, 22.
        # The input after it is taken; a second input in a row is refused,
        # as it would be before the verdict.
        narrow = (FIXTURES / "gear_narrow_trace.txt").read_text()
        trace = write_trace(tmp_path, narrow + (
            "@100000 ReqNewGear\n@100001 ReqNewGear\n@100002 NewGear\n"))
        code, out, err = run(capsys, GEAR_ARGS + [
            "--keep-going", "--trace", trace])
        assert code == 3
        assert err == (
            "error: observation 24 ('ReqNewGear') must be an output\n")
        assert out.count("Verdict: FALSE") == 2

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that is always full")
    def test_csv_on_a_full_device(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "@173 a\n")
        code, _, err = run(capsys, DEADLINE_ARGS + [
            "--trace", trace, "--csv", "/dev/full"])
        assert code == 3
        assert err.startswith("error: cannot write /dev/full: ")

    @pytest.mark.parametrize("which", ["--spec", "--trace"])
    def test_file_that_is_not_utf8(self, capsys, tmp_path, which):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"@173 \xffa\n")
        argv = DEADLINE_ARGS + ["--trace", write_trace(tmp_path, "@173 a\n")]
        argv[argv.index(which) + 1] = str(bad)
        code, _, err = run(capsys, argv)
        assert code == 3
        assert err.startswith(f"error: cannot read {bad}: ")

    def test_closed_stdout(self, tmp_path):
        # Like `delaymon ... | head -2`, but the reader is gone before the
        # first write, so the outcome does not depend on timing.
        trace = write_trace(tmp_path, "@173 a\n@271 b\n")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "delaymon.cli", *DEADLINE_ARGS,
                 "--latency", "0", "100", "--trace", trace],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(SRC)},
                timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: standard output closed before the run ended\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that is always full")
    def test_full_stdout(self, tmp_path):
        trace = write_trace(tmp_path, "@173 a\n@271 b\n")
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "delaymon.cli", *DEADLINE_ARGS,
                 "--latency", "0", "100", "--trace", trace],
                stdout=full, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(SRC)},
                timeout=60)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: cannot write standard output: ")
        assert proc.stderr.count("\n") == 1  # no traceback

    def test_injected_stimulus_before_time_zero(self, capsys, tmp_path):
        trace = write_trace(tmp_path, "@5 ReqNewGear\n@700 NewGear\n")
        code, out, err = run(capsys, GEAR_ARGS + [
            "--trace", trace, "--inject", "din:40,dout:70,seed:1"])
        assert code == 3
        assert "before time 0" in err
        assert "Input: " not in out

    @pytest.mark.parametrize("which", ["--trace", "--spec"])
    def test_csv_naming_an_input_is_refused(self, capsys, tmp_path, which):
        spec = tmp_path / "spec.txt"
        spec.write_bytes((FIXTURES / "deadline_spec.txt").read_bytes())
        argv = DEADLINE_ARGS + ["--trace", write_trace(tmp_path, "@173 a\n")]
        argv[argv.index("--spec") + 1] = str(spec)
        target = argv[argv.index(which) + 1]
        before = Path(target).read_bytes()
        # another spelling of the same path
        csv = os.path.join(tmp_path, ".", Path(target).name)
        code, out, err = run(capsys, argv + ["--csv", csv])
        assert code == 3
        assert err == f"error: --csv {csv} is also an input file\n"
        assert out == ""
        assert Path(target).read_bytes() == before

    def test_trace_file_is_closed(self, capsys, tmp_path, monkeypatch):
        import delaymon.cli

        opened = []

        def spy(*args, **kwargs):
            f = open(*args, **kwargs)
            opened.append(f)
            return f

        monkeypatch.setattr(delaymon.cli, "open", spy, raising=False)
        trace = write_trace(tmp_path, "@173 a\n@271 b\n@400 a\n")
        code, _, _ = run(capsys, DEADLINE_ARGS + [
            "--latency", "0", "inf", "--jitter", "2", "--trace", trace])
        assert code == 1  # stopped early, before the end of the file
        assert trace in [f.name for f in opened]
        assert all(f.closed for f in opened)

    def test_liveness_failure(self, capsys, tmp_path, monkeypatch):
        import delaymon.liveness

        monkeypatch.setattr(delaymon.liveness, "MAX_INSERTIONS", 0)
        trace = write_trace(tmp_path, "@173 a\n")
        code, _, err = run(capsys, DEADLINE_ARGS + ["--trace", trace])
        assert code == 3
        assert err.startswith("error: ") and "budget" in err

    def test_timestamp_at_inf_rejected(self, capsys, tmp_path):
        # 2**62 used to alias INF: echoed as "@inf" with verdict FALSE
        trace = write_trace(tmp_path, "@4611686018427387904 a\n")
        code, out, err = run(capsys, DEADLINE_ARGS + ["--trace", trace])
        assert code == 3
        assert "too large" in err
        assert "inf" not in out

    def test_guard_constant_at_inf_rejected(self, capsys, tmp_path):
        spec = (FIXTURES / "deadline_spec.txt").read_text().replace(
            "x>200", "x>4611686018427387904")
        (tmp_path / "spec.txt").write_text(spec)
        trace = write_trace(tmp_path, "@173 a\n")
        code, _, err = run(capsys, [
            "--spec", str(tmp_path / "spec.txt"),
            "--complement", str(FIXTURES / "deadline_complement.txt"),
            "--scale", "1", "--trace", trace])
        assert code == 3
        assert "too large" in err

    @pytest.mark.parametrize("clauses, column, message", [
        ("reset", 21, "reset needs a clock"),
        ("reset # x", 21, "reset needs a clock"),
        ("when x<5 when x<9", 30, "duplicate edge clause 'when'"),
        ("reset x reset x", 29, "duplicate edge clause 'reset'"),
        ("whenever x<5", 21, "unexpected edge clause 'whenever'"),
    ])
    def test_malformed_edge_clause(self, capsys, tmp_path, clauses, column,
                                   message):
        spec = (FIXTURES / "deadline_spec.txt").read_text().replace(
            "edge q0 -> bad on b\n", f"edge q0 -> bad on b {clauses}\n")
        (tmp_path / "spec.txt").write_text(spec)
        code, out, err = run(capsys, [
            "--spec", str(tmp_path / "spec.txt"),
            "--complement", str(FIXTURES / "deadline_complement.txt"),
            "--scale", "1", "--trace", write_trace(tmp_path, "@173 a\n")])
        assert code == 3 and out == ""
        assert err == f"error: line 13, column {column}: {message}\n"

    @pytest.mark.parametrize("scale", ["3", "20"])
    def test_scale_not_a_power_of_ten(self, capsys, tmp_path, scale):
        trace = write_trace(tmp_path, "@10 a\n")
        code, out, err = run(capsys, [
            "--spec", str(FIXTURES / "deadline_spec.txt"),
            "--complement", str(FIXTURES / "deadline_complement.txt"),
            "--scale", scale, "--trace", trace])
        assert code == 3
        assert err.startswith("error: ") and "--scale" in err
        assert out == ""

    @pytest.mark.parametrize("stamp", ["1e999999999", "1/2", "inf"])
    def test_non_decimal_timestamp_rejected(self, capsys, tmp_path, stamp):
        trace = write_trace(tmp_path, f"@{stamp} a\n")
        code, _, err = run(capsys, DEADLINE_ARGS + ["--trace", trace])
        assert code == 3
        assert "not a number" in err


class TestTimesAsWritten:
    """An error message quotes each time as the trace writes it, not in
    units of ``1/scale``."""

    DEADLINE = DEADLINE_ARGS[:4] + ["--scale", "10"]
    GEAR = GEAR_ARGS[:4] + [
        "--scale", "10", "--mode", "test",
        "--in-latency", "1", "5", "--out-latency", "6", "10"]

    @pytest.mark.parametrize("argv, trace, message", [
        (DEADLINE + ["--mode", "classic"], "@5 a\n@3 a\n",
         "observation at 3 precedes 5"),
        (DEADLINE + ["--latency", "1", "2"], "@0.5 a\n",
         "first observation at 0.5 is earlier than the minimum latency 1"),
        (GEAR, "@10 ReqNewGear\n@11 NewGear\n",
         "output observed 1 after the input; the channels need at least 7"),
        (GEAR + ["--inject", "din:5,dout:10,seed:1"],
         "@10 ReqNewGear\n@11 NewGear\n@12 ReqNewGear\n",
         "injected delays would reorder the observation at ground-truth "
         "time 12"),
        (GEAR + ["--inject", "din:1,dout:10,seed:1"],
         "@0.5 ReqNewGear\n@7 NewGear\n",
         "injected delays would send the stimulus at ground-truth time 0.5 "
         "before time 0"),
    ], ids=["order", "first", "gap", "reorder", "before-zero"])
    def test_error_at_scale_ten(self, capsys, tmp_path, argv, trace,
                                message):
        code, _, err = run(capsys, argv + [
            "--trace", write_trace(tmp_path, trace)])
        assert code == 3
        assert err == f"error: {message}\n"


# -- fuzzing -----------------------------------------------------------------

FUZZ_CASES = {
    "deadline": (
        "deadline_spec.txt", "deadline_complement.txt",
        "@173 a\n@275 b\n@400 a\n",
        ["--scale", "1", "--latency", "0", "100", "--jitter", "2"]),
    "gear": (
        "gear_spec.txt", "gear_complement.txt",
        "@100 ReqNewGear\n@810 NewGear\n@870 ReqNewGear\n@1500 NewGear\n",
        GEAR_ARGS[4:]),
}
FUZZ_NUMBERS = ["0", "-1", "0.5", "1e3", "1/2", "inf", "1125899906842623",
                "1125899906842624", "4611686018427387904", "9" * 40]


@st.composite
def near_valid_inputs(draw):
    """A fixture session with one to three mutations: a dropped token, a
    replaced number, or two swapped lines, in any of the three files."""
    name = draw(st.sampled_from(sorted(FUZZ_CASES)))
    spec, comp, trace, flags = FUZZ_CASES[name]
    files = {"spec": (FIXTURES / spec).read_text(),
             "complement": (FIXTURES / comp).read_text(),
             "trace": trace}
    for _ in range(draw(st.integers(1, 3))):
        which = draw(st.sampled_from(sorted(files)))
        lines = files[which].splitlines()
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "number", "swap"]))
        if op == "drop":
            words = lines[i].split()
            if words:
                del words[draw(st.integers(0, len(words) - 1))]
            lines[i] = " ".join(words)
        elif op == "number":
            number = draw(st.sampled_from(FUZZ_NUMBERS)
                          | st.integers(0, 2000).map(str))
            lines[i] = re.sub(r"\d+", number, lines[i], count=1)
        else:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        files[which] = "\n".join(lines) + "\n"
    return files, flags


class TestFuzz:
    @given(near_valid_inputs())
    @settings(max_examples=150, deadline=None)
    def test_near_valid_inputs_end_cleanly(self, case):
        files, flags = case
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for key, text in files.items():
                paths[key] = Path(tmp) / f"{key}.txt"
                paths[key].write_text(text)
            argv = ["--spec", str(paths["spec"]),
                    "--complement", str(paths["complement"]),
                    "--trace", str(paths["trace"])] + flags
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2, 3)
        if code == 3:
            assert err.getvalue().startswith("error: ")
        else:
            assert err.getvalue() == ""
