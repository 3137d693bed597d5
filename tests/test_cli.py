import contextlib
import json
import math
import os
import sys
import threading
import time
from pathlib import Path

import pytest

from forestcount import cli, solver, verify
from forestcount.cli import main
from forestcount.formulas import (asymptotic_estimate, asymptotic_log,
                                  codim1_count, flat_count, simple_count)
from forestcount.solver import cached_solution
from forestcount.tables import CountTable

GOLDEN = Path(__file__).with_name("cli_golden.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_golden_outputs_after_covering_box_is_cached(capsys):
    """Exact stdout and exit code of every command and format.

    `cli_golden.json` holds the recorded output of each invocation.  The
    (8, 8) solutions cached first cover every solver box asked below, so
    a command that rendered the cached box instead of the requested one
    would show here.
    """
    for name in ("odd", "linear"):
        cached_solution(name, 8, 8)
    for case in json.loads(GOLDEN.read_text(encoding="utf-8")):
        code = main(case["argv"])
        out = capsys.readouterr().out
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


def test_count_agreeing_routes(capsys):
    code, out = run(capsys, "count", "--codim", "0", "--degree", "3")
    assert code == 0
    assert "22" in out
    assert "routes agree" in out


def test_count_codim1(capsys):
    code, out = run(capsys, "count", "--codim", "1", "--degree", "2")
    assert code == 0
    assert "4" in out


def test_count_above_support_bound(capsys):
    code, out = run(capsys, "count", "--codim", "4", "--degree", "2")
    assert code == 0
    assert "0" in out


def test_count_convention_disagreement_exits_2(capsys):
    code, out = run(capsys, "count", "--codim", "4", "--degree", "4")
    assert code == 2
    assert "DISAGREE" in out


def test_count_json_payload_matches_text(capsys):
    code, out = run(capsys, "count", "--codim", "0", "--degree", "3",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert set(doc["values"].values()) == {"22"}


def test_usage_error_exits_1(capsys):
    code = main(["count", "--codim", "-1", "--degree", "2"])
    assert code == 1
    code = main(["count", "--codim", "1"])
    assert code == 1
    code = main(["table", "--cmax", "2", "--dmax", "2",
                 "--route", "closed-form", "--format", "csv"])
    assert code == 1


def test_resource_guard_exits_3(monkeypatch, capsys):
    monkeypatch.setenv("FORESTCOUNT_MAX_CELLS", "10")
    code = main(["table", "--cmax", "10", "--dmax", "10", "--format", "csv"])
    assert code == 3


def test_asymptotics_guard_exits_3(monkeypatch, capsys):
    # the cell ceiling of count at (c, d), checked before any work
    assert main(["asymptotics", "--codim", "1", "--degree", "1000000"]) == 3
    monkeypatch.setenv("FORESTCOUNT_MAX_CELLS", "10")
    assert main(["asymptotics", "--codim", "1", "--degree", "50"]) == 3
    assert "resource guard" in capsys.readouterr().err


def test_table_csv_golden(capsys):
    code, out = run(capsys, "table", "--cmax", "1", "--dmax", "3",
                    "--format", "csv", "--convention", "odd")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert lines[0] == "# family=n1 route=solver convention=odd"
    assert lines[1] == "c\\d,0,1,2,3"
    assert lines[2] == "0,1,1,4,22"
    assert lines[3] == "1,0,0,4,48"


def test_table_single_cell(capsys):
    code, out = run(capsys, "table", "--cmax", "0", "--dmax", "0",
                    "--format", "csv", "--convention", "odd")
    assert code == 0
    assert "0,1" in out


def test_table_json_round_trips(capsys):
    code, out = run(capsys, "table", "--cmax", "2", "--dmax", "4",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    tables = [CountTable.from_json_dict(t) for t in doc["tables"]]
    assert {t.convention for t in tables} == {"odd", "linear"}
    for t in tables:
        assert t.value(0, 3) == 22
        assert t.support_violations() == []


def test_table_dp_route(capsys):
    code, out = run(capsys, "table", "--cmax", "1", "--dmax", "3",
                    "--route", "dp", "--format", "csv")
    assert code == 0
    assert "0,1,1,4,22" in out


def test_simple_command(capsys):
    code, out = run(capsys, "simple", "--cmax", "3", "--dmax", "8",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["solver_matches_closed_form"] is True
    table = CountTable.from_json_dict(doc["table"])
    assert table.value(1, 2) == 4


def test_asymptotics_command(capsys):
    code, out = run(capsys, "asymptotics", "--codim", "1", "--degree", "200",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert 0.9 <= doc["exact_over_estimate"] <= 1.1


@contextlib.contextmanager
def int_digit_limit(limit):
    """Run the block under CPython's int-to-str digit limit `limit`
    (0 lifts it), restoring the old limit after."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="no int-to-str digit limit before CPython 3.10.7")


@needs_digit_limit
def test_asymptotics_prints_a_count_past_the_digit_limit(capsys):
    # simple_count(1, 4500) has 4,394 digits, above the default 4,300
    limit = sys.get_int_max_str_digits()
    for fmt in ("text", "json"):
        code, out = run(capsys, "asymptotics", "--codim", "1",
                        "--degree", "4500", "--format", fmt)
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        with int_digit_limit(0):
            exact = str(simple_count(1, 4500))
            if fmt == "json":
                assert json.loads(out)["exact"] == exact
            else:
                assert f"exact simple count  {exact}\n" in out


@needs_digit_limit
def test_table_prints_counts_past_the_digit_limit(capsys):
    # a closed-form table to dmax 4500 takes seconds to compute, so the
    # limit is lowered to its minimum, 640 digits, which codim1_count(d)
    # passes from d = 658 on and flat_count(d) from d = 661 on
    with int_digit_limit(640):
        code, out = run(capsys, "table", "--route", "closed-form",
                        "--cmax", "1", "--dmax", "700", "--format", "json")
        assert code == 0
        assert sys.get_int_max_str_digits() == 640
    with int_digit_limit(0):
        values = json.loads(out)["tables"][0]["values"]
    assert values == [[flat_count(d) for d in range(701)],
                      [codim1_count(d) for d in range(701)]]


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


def test_every_json_document_is_strict_json(tmp_path, capsys):
    # every --format json or jsonl invocation of the golden file that is
    # not a usage error (those write nothing to stdout), plus the
    # documents written with --dump or --artifact and the estimates that
    # leave the float range (codim 1 from about degree 310 on)
    argvs = [case["argv"] for case in
             json.loads(GOLDEN.read_text(encoding="utf-8"))
             if {"json", "jsonl"} & set(case["argv"]) and case["exit"] != 1]
    dump = tmp_path / "dump.json"
    argvs += [["oracle", "--degree", "2", "--dump", str(dump),
               "--format", "json"],
              ["table", "--route", "dp", "--cmax", "2", "--dmax", "4",
               "--format", "json"],
              ["asymptotics", "--codim", "1", "--degree", "400",
               "--format", "json"],
              ["asymptotics", "--codim", "0", "--degree", "1200",
               "--format", "json"]]
    for argv in argvs:
        main(argv)
        out = capsys.readouterr().out
        docs = out.splitlines() if "jsonl" in argv else [out]
        assert [strict_json(doc) for doc in docs], argv
    assert strict_json(dump.read_text(encoding="utf-8"))
    code, out = run(capsys, "verify", "--only", "cross-routes", "--format",
                    "jsonl", "--artifact", "-")
    report, artifact = out.split("\n", 1)
    assert strict_json(report)["check"] == "cross-routes"
    assert strict_json(artifact)
    doc = strict_json(run(capsys, "asymptotics", "--codim", "1", "--degree",
                          "400", "--format", "json")[1])
    assert doc["estimate"] is None
    assert doc["log_estimate"] == asymptotic_log(1, 400)


def test_asymptotics_text_past_the_float_range(capsys):
    code, out = run(capsys, "asymptotics", "--codim", "1", "--degree", "400")
    assert code == 0
    assert "inf" not in out
    line = next(s for s in out.splitlines() if s.startswith("asymptotic"))
    mantissa, exponent = line.split()[-1].split("e+")
    assert int(exponent) == math.floor(asymptotic_log(1, 400) / math.log(10))
    assert 1 <= float(mantissa) < 10
    # the text form of a finite estimate is unchanged
    code, out = run(capsys, "asymptotics", "--codim", "1", "--degree", "200")
    assert f"asymptotic estimate {asymptotic_estimate(1, 200):.6e}\n" in out


def test_asymptotics_degenerate_input(capsys):
    code = main(["asymptotics", "--codim", "3", "--degree", "2"])
    assert code == 1


def test_asymptotics_degree_zero_keeps_the_output_file(tmp_path, capsys):
    # refused as a usage error before --output is opened
    target = tmp_path / "f.json"
    target.write_text("keep\n")
    code = main(["asymptotics", "--codim", "0", "--degree", "0",
                 "--output", str(target)])
    assert code == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert target.read_text() == "keep\n"


def test_oracle_command(capsys):
    code, out = run(capsys, "oracle", "--degree", "3")
    assert code == 0
    assert "22" in out


def test_oracle_guard_exits_3(capsys):
    code = main(["oracle", "--degree", "9"])
    assert code == 3


def test_oracle_dump(tmp_path, capsys):
    target = tmp_path / "diagrams.json"
    code, _ = run(capsys, "oracle", "--degree", "2", "--dump", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert len(doc) == 4


def spy_on(monkeypatch, module, name):
    """Replace module.name by a wrapper; return the list of its calls."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_json_output_builds_no_csv(monkeypatch, capsys):
    # the CSV text is built only when it is written
    calls = spy_on(monkeypatch, CountTable, "to_csv")
    commands = [["table", "--cmax", "1", "--dmax", "6", "--route", route]
                for route in ("solver", "dp", "closed-form")]
    commands.append(["simple", "--cmax", "2", "--dmax", "6"])
    for argv in commands:
        assert run(capsys, *argv, "--format", "json")[0] == 0
        assert calls == [], argv
        assert run(capsys, *argv, "--format", "csv")[0] == 0
        assert calls, argv
        calls.clear()


def test_oracle_dump_to_unwritable_path_is_an_error(tmp_path, monkeypatch,
                                                    capsys):
    # the path is opened before the diagrams are enumerated
    calls = spy_on(monkeypatch, cli, "enumerate_flat")
    code = main(["oracle", "--degree", "2",
                 "--dump", str(tmp_path / "missing" / "diagrams.json")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert calls == []


def test_two_outputs_to_one_file_are_a_usage_error(tmp_path, monkeypatch,
                                                   capsys):
    # one output would overwrite the other: refused before either path is
    # opened or any work runs; the same file under another spelling too
    monkeypatch.chdir(tmp_path)
    calls = spy_on(monkeypatch, cli, "enumerate_flat")
    for argv in (["oracle", "--degree", "2", "--dump", "same.json",
                  "--output", "same.json"],
                 ["verify", "--only", "q-factor", "--output", "v.json",
                  "--artifact", str(tmp_path / "v.json")]):
        code = main(argv)
        assert code == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: "), argv
        assert captured.out == ""
    assert calls == []
    assert list(tmp_path.iterdir()) == []
    # '-' may repeat: both go to standard output
    code, out = run(capsys, "oracle", "--degree", "1", "--dump", "-",
                    "--output", "-")
    assert code == 0 and out


def test_verify_only_growth_constant(capsys):
    code, out = run(capsys, "verify", "--only", "growth-constant")
    assert code == 0
    assert "25.3268" in out or "25.3269" in out


def test_verify_only_oracle(capsys):
    code, out = run(capsys, "verify", "--only", "oracle",
                    "--oracle-degree", "3")
    assert code == 0
    assert "PASS" in out


def test_verify_row_sum_dmax_below_one_is_usage_error(capsys):
    # a one-row box has no successive ratio to judge: rejected before any
    # check runs, while a box too small to stabilise still fails (exit 2)
    assert main(["verify", "--only", "row-sum", "--row-sum-dmax", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --row-sum-dmax")
    code, out = run(capsys, "verify", "--only", "row-sum",
                    "--row-sum-dmax", "6")
    assert code == 2
    assert "FAIL  row-sum" in out


def test_verify_row_sum_guard_only_when_row_sum_runs(monkeypatch, capsys):
    monkeypatch.setenv("FORESTCOUNT_MAX_CELLS", "10")
    code, out = run(capsys, "verify", "--only", "growth-constant")
    assert code == 0
    assert "PASS" in out
    assert main(["verify", "--only", "row-sum"]) == 3


def test_verify_guards_every_user_sized_box(monkeypatch, tmp_path):
    monkeypatch.setenv("FORESTCOUNT_MAX_CELLS", "10")
    for argv in (["--only", "system-equation", "--box", "12"],
                 ["--only", "min-poly", "--box", "12"],
                 ["--only", "cross-routes", "--cross-cmax", "4",
                  "--cross-dmax", "4"]):
        assert main(["verify", *argv]) == 3, argv
    target = tmp_path / "route_agreement.json"
    assert main(["verify", "--only", "growth-constant",
                 "--artifact", str(target)]) == 3
    assert not target.exists()


def test_verify_oracle_degree_guard_exits_3(capsys):
    assert main(["verify", "--only", "oracle", "--oracle-degree", "9"]) == 3
    assert main(["verify", "--oracle-degree", "9"]) == 3


def test_verify_jsonl_schema(capsys):
    code, out = run(capsys, "verify", "--only", "q-factor",
                    "--format", "jsonl")
    assert code == 0
    doc = json.loads(out.splitlines()[0])
    for key in ("schema", "check", "status", "offending_cells", "details"):
        assert key in doc


def test_verify_unknown_check(tmp_path, monkeypatch, capsys):
    # the parser refuses the name before any path is opened or check runs
    monkeypatch.chdir(tmp_path)
    calls = spy_on(monkeypatch, cli, "run_suite")
    code = main(["verify", "--only", "bogus", "--output", "o.json"])
    assert code == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "o.json").exists()
    assert calls == []


def test_verify_artifact_written(tmp_path, capsys):
    target = tmp_path / "route_agreement.json"
    code, _ = run(capsys, "verify", "--only", "cross-routes",
                  "--cross-cmax", "5", "--cross-dmax", "6",
                  "--artifact", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["dp_matches_conventions"] == ["odd"]


def test_verify_artifact_to_unwritable_path_is_an_error(tmp_path, capsys):
    # the path is opened before any check runs, so nothing is reported
    code = main(["verify", "--only", "cross-routes", "--cross-cmax", "5",
                 "--cross-dmax", "6", "--artifact", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_verify_artifact_dash_writes_stdout(tmp_path, monkeypatch, capsys):
    # '-' means standard output, as for --output and oracle --dump
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "route_agreement.json"
    argv = ["verify", "--only", "cross-routes", "--cross-cmax", "5",
            "--cross-dmax", "6", "--format", "jsonl"]
    code, _ = run(capsys, *argv, "--artifact", str(target))
    assert code == 0
    code, out = run(capsys, *argv, "--artifact", "-")
    assert code == 0
    assert not (tmp_path / "-").exists()
    report, artifact = out.split("\n", 1)
    assert json.loads(report)["check"] == "cross-routes"
    assert artifact == target.read_text(encoding="utf-8")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code = main(["table", "--cmax", "0", "--dmax", "2", "--format", "csv",
                 "--convention", "odd", "--output", str(target)])
    assert code == 0
    assert "0,1,1,4" in target.read_text()


def test_table_output_to_unwritable_path_fails_before_solving(
        tmp_path, monkeypatch, capsys):
    # an empty cache, so any table query would reach solve_system
    monkeypatch.setattr(solver, "_cache", {})
    calls = spy_on(monkeypatch, solver, "solve_system")
    code = main(["table", "--cmax", "6", "--dmax", "4", "--format", "json",
                 "--output", str(tmp_path / "missing" / "x.json")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert calls == []


def test_output_to_unwritable_path_is_an_error(tmp_path, capsys):
    # a missing directory and a directory in place of a file
    for target in (tmp_path / "missing" / "x", tmp_path):
        code = main(["count", "--codim", "1", "--degree", "2",
                     "--output", str(target)])
        assert code == 1, target
        assert capsys.readouterr().err.startswith("error: "), target


# above the fork crossover, and both conventions: solved side by side
BIG_TABLE = ["table", "--cmax", "48", "--dmax", "24", "--convention", "both",
             "--format", "json"]
BIG_COUNT = ["count", "--codim", "48", "--degree", "24", "--format", "json"]
# the benchmark's suite: its checks are cut in the middle, this process
# doing flat-row .. q-factor and the worker system-equation .. row-sum
SUITE = ["verify", "--row-sum-dmax", "24", "--oracle-degree", "4",
         "--format", "jsonl"]
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")


def two_cpus(monkeypatch, cpus=(0, 1)):
    """Spy on os.fork, with os.sched_getaffinity reporting `cpus`; return
    the list of fork calls."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus),
                        raising=False)
    return spy_on(monkeypatch, os, "fork")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("argv", [BIG_TABLE, BIG_COUNT, SUITE,
                                  SUITE[:-1] + ["text"]],
                         ids=["table", "count", "verify-jsonl", "verify-text"])
def test_forked_and_serial_runs_print_the_same(monkeypatch, capsys, argv):
    forks = two_cpus(monkeypatch)
    forked = run(capsys, *argv)
    assert forked[0] == 0 and len(forks) == 1
    assert_no_child_left()
    two_cpus(monkeypatch, cpus=(0,))
    assert run(capsys, *argv) == forked
    assert len(forks) == 1


def test_no_fork_below_the_crossover_beside_a_thread_or_without_fork(
        monkeypatch, capsys):
    forks = two_cpus(monkeypatch)
    assert run(capsys, "table", "--cmax", "20", "--dmax", "10",
               "--format", "json")[0] == 0
    assert run(capsys, "count", "--codim", "20", "--degree", "10")[0] == 0
    assert not cli._fork_pays(20, 10) and cli._fork_pays(48, 24)
    # one check is one item: nothing to share
    assert run(capsys, "verify", "--only", "flat-row")[0] == 0
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not cli._fork_pays(48, 24) and not cli._can_fork()
        assert run(capsys, *BIG_COUNT)[0] == 0
    finally:
        release.set()
        thread.join()
    monkeypatch.delattr(os, "fork", raising=False)
    assert not cli._fork_pays(48, 24) and not cli._can_fork()
    assert run(capsys, *BIG_COUNT)[0] == 0
    assert forks == []


def failing(monkeypatch, name, fail):
    """Make the solve of convention `name`, in table and count, call
    fail() instead."""
    # where each takes the convention: (name, cmax, dmax) and (c, d, name)
    for attr, at in (("cached_solution", 0), ("count_configurations", 2)):
        real = getattr(cli, attr)

        def solve(*args, real=real, at=at):
            return fail() if args[at] == name else real(*args)

        monkeypatch.setattr(cli, attr, solve)


def boom():
    raise ValueError("boom")


@needs_fork
@pytest.mark.parametrize("argv", [BIG_TABLE, BIG_COUNT],
                         ids=["table", "count"])
def test_a_failing_worker_fails_as_the_serial_loop(monkeypatch, capsys, argv):
    failing(monkeypatch, "linear", boom)
    forks = two_cpus(monkeypatch)
    forked = main(argv), capsys.readouterr()
    assert forks
    assert_no_child_left()
    two_cpus(monkeypatch, cpus=(0,))
    assert (main(argv), capsys.readouterr()) == forked
    assert forked[0] == 1 and forked[1] == ("", "error: boom\n")


def failing_checks(monkeypatch, *names):
    """Make each named verify check raise ValueError("<name> boom")."""
    for name in names:
        def fail(name=name, **kwargs):
            raise ValueError(f"{name} boom")

        monkeypatch.setitem(verify.CHECKS, name, fail)


@needs_fork
@pytest.mark.parametrize("names", [["row-sum"], ["flat-row"],
                                   ["flat-row", "row-sum"]],
                         ids=["worker", "parent", "both"])
def test_failing_checks_fail_as_the_serial_suite(monkeypatch, capsys, names):
    # flat-row is the parent's first check, row-sum the worker's last
    failing_checks(monkeypatch, *names)
    forks = two_cpus(monkeypatch)
    forked = main(SUITE), capsys.readouterr()
    assert forks
    assert_no_child_left()
    two_cpus(monkeypatch, cpus=(0,))
    assert (main(SUITE), capsys.readouterr()) == forked
    assert forked == (1, ("", f"error: {names[0]} boom\n"))


@needs_fork
def test_a_failing_parent_kills_and_reaps_its_worker(monkeypatch, capsys):
    failing(monkeypatch, "odd", boom)
    failing(monkeypatch, "linear", lambda: time.sleep(60))
    forks = two_cpus(monkeypatch)
    start = time.perf_counter()
    assert main(BIG_TABLE) == 1
    assert time.perf_counter() - start < 30
    assert forks and capsys.readouterr().err == "error: boom\n"
    assert_no_child_left()


@needs_fork
def test_a_worker_that_dies_is_an_error(monkeypatch, capsys):
    failing(monkeypatch, "linear", lambda: os._exit(0))
    two_cpus(monkeypatch)
    assert main(BIG_COUNT) == 1
    assert "worker for convention linear" in capsys.readouterr().err
    assert_no_child_left()


def dying_worker(monkeypatch, check):
    """Make the forked worker leave by os._exit(0) when it reaches the
    named check."""
    parent = os.getpid()
    real = verify.CHECKS[check]

    def run(**kwargs):
        if os.getpid() != parent:
            os._exit(0)
        return real(**kwargs)

    monkeypatch.setitem(verify.CHECKS, check, run)


@needs_fork
@pytest.mark.parametrize("check", ["system-equation", "row-sum"])
def test_a_verify_worker_that_dies_is_an_error(monkeypatch, capsys, check):
    # the worker's first and last checks: the error names the check it
    # was on, since it sends back each report as it is done
    dying_worker(monkeypatch, check)
    forks = two_cpus(monkeypatch)
    start = time.perf_counter()
    assert main(SUITE) == 1
    assert time.perf_counter() - start < 30
    captured = capsys.readouterr()
    assert forks and captured.out == ""
    assert captured.err == (f"error: the worker for check {check} "
                            "ended without a result\n")
    assert_no_child_left()


@needs_fork
def test_a_failed_fork_solves_in_the_parent(monkeypatch, capsys):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    for argv in (BIG_COUNT, SUITE):
        two_cpus(monkeypatch)
        monkeypatch.setattr(os, "fork", no_fork)
        unforked = run(capsys, *argv)
        two_cpus(monkeypatch, cpus=(0,))
        assert run(capsys, *argv) == unforked and unforked[0] == 0


@needs_fork
def test_a_worker_payload_larger_than_a_pipe_buffer(monkeypatch):
    forks = two_cpus(monkeypatch)
    # about 480 KB pickled, against a pipe buffer of 64 KiB on Linux
    rows = [[10 ** 40 + c * d for c in range(400)] for d in range(60)]
    got = cli._fork_map(["odd", "linear"], lambda name: rows, True,
                        "convention")
    assert forks and got == [rows, rows]
    assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("n", [2, 3, 15, 400])
def test_the_front_half_is_done_here_and_the_back_half_by_the_worker(
        monkeypatch, n):
    parent = os.getpid()

    def work(i):
        if os.getpid() == parent:
            time.sleep(0.001)   # a slow parent does not hand items over
        return i, os.getpid()

    forks = two_cpus(monkeypatch)
    got = cli._fork_map(list(range(n)), work, True, "item")
    assert forks and [i for i, _ in got] == list(range(n))
    pids = [pid for _, pid in got]
    mine = (n + 1) // 2
    worker = pids[-1]
    assert pids[:mine] == [parent] * mine and worker != parent
    assert pids[mine:] == [worker] * (n - mine)
    assert_no_child_left()
