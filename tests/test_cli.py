"""End-to-end command-line runs: exit codes, reports, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import rbsde_lab
from rbsde_lab import random_scenario, scenario_from_dict, solve_rbsde
from rbsde_lab.cli import main
from rbsde_lab.report import SOLUTION_ROW_HEADER

TRIVIAL = {
    "version": "v1",
    "steps": 2,
    "dt": 0.5,
    "lower": {"kind": "constant", "value": -1.0},
    "upper": {"kind": "constant", "value": 1.0},
    "terminal": {"kind": "constant", "value": 0.0},
    "driver": {"kind": "constant", "value": 0.0},
}

# dt * mu = 1.5: the implicit step has no unique root, and the call exits 1
ILL_POSED = dict(TRIVIAL, dt=1.0, driver={"kind": "linear", "y_coef": 1.5})


def _write(tmp_path, data, name="case.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_verify_trivial_scenario(tmp_path, capsys):
    rc = main(["verify", _write(tmp_path, TRIVIAL)])
    rep = _json_out(capsys)
    assert rc == 0 and rep["passed"]
    assert rep["y0"] == 0.0
    assert rep["dynamics"]["max_step_residual"] == 0.0
    assert rep["minimality"]["max_product"] == 0.0
    assert rep["witness"]["separated"] and rep["witness"]["cut_count"] == 2
    assert rep["game_oracle"]["checked"] and rep["game_oracle"]["identity_applicable"]
    assert rep["snell"]["ordering_ok"]


def test_oracle_on_generated_scenario(tmp_path, capsys):
    path = _write(tmp_path, random_scenario(5, n_steps=2).data)
    rc = main(["oracle", path])
    rep = _json_out(capsys)
    assert rc == 0 and rep["passed"]
    assert rep["identity_applicable"]
    assert rep["max_extended_gap"] < 1e-8
    assert len(rep["thetas"]) >= 1


def test_oracle_plain_mode_reports_flags(tmp_path, capsys):
    sc = random_scenario(6, n_steps=2, lower_right_usc=True, upper_right_lsc=True)
    rc = main(["oracle", _write(tmp_path, sc.data), "--mode", "plain"])
    rep = _json_out(capsys)
    assert rc == 0 and rep["passed"]
    assert rep["plain"]["gap_to_y_asserted"]
    assert rep["plain"]["gap_to_y"] < 1e-8


def test_game_respects_enum_bound(tmp_path, capsys):
    path = _write(tmp_path, random_scenario(2, n_steps=3).data)
    rc = main(["game", path, "--enum-bound", "2"])
    rep = _json_out(capsys)
    assert rc == 1 and not rep["passed"]
    assert "enumeration bound exceeded" in rep["error"]


def _child_env():
    # one BLAS thread: each thread reserves address space, which a child's
    # RLIMIT_AS counts
    src = str(Path(rbsde_lab.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


@pytest.mark.parametrize("where", ["flag", "tolerance"])
@pytest.mark.parametrize("command", ["game", "verify"])
def test_enumeration_past_the_budget_exits_2(tmp_path, command, where):
    # the CLI runs in a child limited to 1.5 GB of address space, so a
    # missing guard fails on its (15131, 15131, 16) pair arrays instead of
    # allocating them
    data = random_scenario(3, n_steps=4).data
    if where == "tolerance":
        data = dict(data, tolerances={"enum_bound": 4})
    argv = [command, _write(tmp_path, data)] + (["--enum-bound", "4"] if where == "flag" else [])
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000)); "
            "from rbsde_lab.cli import main; sys.exit(main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", code, *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr[-2000:]
    rep = json.loads(done.stdout)
    assert not rep["passed"] and done.stderr == ""
    assert rep["error"] == ("enumeration budget exceeded: the strategy pairs of a depth-4 subgame make "
                            "3,663,154,576 elements, above the budget of 4,194,304; "
                            "lower --enum-bound (or /tolerances/enum_bound) to 3")


def test_game_matches_solver_value(tmp_path, capsys):
    path = _write(tmp_path, random_scenario(12, n_steps=2).data)
    rc = main(["game", path, "--theta-step", "1", "--theta-node", "1"])
    rep = _json_out(capsys)
    assert rc == 0 and rep["passed"]
    assert rep["gap_to_y"] < 1e-8
    assert rep["theta"] == {"step": 1, "node": 1}


@pytest.mark.parametrize("command", ["game", "saddle"])
@pytest.mark.parametrize("step, node, message", [
    ("1", "5", "--theta-node 5 is outside [0, 1] at --theta-step 1"),
    ("1", "-1", "--theta-node -1 is outside [0, 1] at --theta-step 1"),
    ("2", "0", "--theta-step 2 is outside [0, 1]"),
    ("-1", "0", "--theta-step -1 is outside [0, 1]"),
])
def test_a_theta_outside_the_scenario_exits_2(tmp_path, capsys, command, step, node, message):
    path = _write(tmp_path, random_scenario(12, n_steps=2).data)
    rc = main([command, path, "--theta-step", step, "--theta-node", node])
    rep = _json_out(capsys)
    assert rc == 2 and not rep["passed"] and rep["error"] == message


def test_verify_solves_a_shallow_scenario_once(tmp_path, capsys, monkeypatch):
    from rbsde_lab import cli, games

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].n_steps)
        return solve_rbsde(*args, **kwargs)

    for module in (cli, games):
        monkeypatch.setattr(module, "solve_rbsde", counted)
    for depth in (2, 5):  # with and without the game oracle
        calls.clear()
        assert main(["verify", _write(tmp_path, random_scenario(3, n_steps=depth).data)]) == 0
        assert calls == [depth]
        capsys.readouterr()


@pytest.mark.parametrize("depth, bound, thetas", [(2, 1, 2), (3, 1, 4), (3, 2, 6)])
def test_verify_under_a_low_enumeration_bound_skips_brute_classification(tmp_path, capsys, depth, bound,
                                                                         thetas):
    path = _write(tmp_path, random_scenario(7, n_steps=depth, driver_kind="linear").data)
    rc = main(["verify", path, "--enum-bound", str(bound)])
    rep = _json_out(capsys)
    assert rc == 0 and rep["passed"]
    assert all("brute" not in rep["snell"][label] for label in ("neg_lower_envelope", "upper_envelope"))
    assert rep["game_oracle"]["thetas"] == thetas


def test_csv_format_requires_out_dir(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", _write(tmp_path, TRIVIAL), "--format", "csv"])
    assert exc.value.code == 2


def test_malformed_file_exits_2_with_json_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    rc = main(["solve", str(p), "--out", str(tmp_path / "out")])
    rep = _json_out(capsys)
    assert rc == 2
    assert not rep["passed"] and "not valid JSON" in rep["error"]


_UNREADABLE = {
    # a UTF-16 byte order mark, FF FE, once ended the command with a UnicodeDecodeError
    "undecodable": (json.dumps(TRIVIAL).encode("utf-16"), "/: not UTF-8 text: "),
    # parsed, then a RecursionError in the finiteness scan
    "600-deep": (json.dumps(dict(TRIVIAL, name=0)).replace('"name": 0', '"name": ' + "[" * 600 + "]" * 600).encode(),
                 "/: arrays and objects nest too deeply to read"),
    # a RecursionError in the parser itself
    "200000-deep": (b"[" * 200_000 + b"]" * 200_000, "/: arrays and objects nest too deeply to read"),
}


@pytest.mark.parametrize("content", sorted(_UNREADABLE))
@pytest.mark.parametrize("role", ["scenario", "solution"])
def test_an_unreadable_file_exits_2_and_later_scenarios_still_run(tmp_path, capsys, role, content):
    data, error = _UNREADABLE[content]
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    good = _write(tmp_path, dict(TRIVIAL, name="good"), "good.json")
    if role == "scenario":
        rc = main(["verify", str(bad), good, "--out", str(tmp_path / "out")])
        refused, rest = _cli_output(capsys)
        assert rest == "ok good (verify)\n"
    else:
        rc = main(["verify", good, "--solution", str(bad)])
        refused, error = _json_out(capsys), f"{bad}: {error}"
    assert rc == 2 and not refused["passed"]
    assert refused["error"].startswith(error)


def _reports(out):
    """The JSON reports a multi-file run printed, one after another."""
    return json.loads("[" + out.strip().replace("\n}\n{", "\n},\n{") + "]")


@pytest.mark.parametrize("name", ["../escaped", "sub/dir/x", "a\\b", "nul\x00x", "tab\tx", "del\x7fx",
                                  "c1\x85x", ".", ".."])
def test_a_name_that_is_no_plain_file_name_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, name):
    # the name picks the report's file: "../escaped" once wrote outside
    # --out, and "sub/dir/x" made directories under it
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    rc = main(["verify", _write(tmp_path, dict(TRIVIAL, name=name)), "--out", "out"])
    rep = _json_out(capsys)
    assert rc == 2 and not rep["passed"] and rep["error"].startswith(f"/name: {name!r} is not a plain file name")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["case.json", "work"]


@pytest.mark.parametrize("blocked", ["report", "table"])
def test_a_report_that_cannot_be_written_exits_2_and_later_scenarios_still_run(tmp_path, capsys, blocked):
    # --out naming a file once ended the run in a FileExistsError traceback
    out = tmp_path / "out"
    if blocked == "report":
        out.write_text("")
    else:  # a directory where the CSV table goes
        for name in ("a", "b"):
            (out / f"{name}.solve.solution.csv").mkdir(parents=True)
    paths = [_write(tmp_path, dict(TRIVIAL, name=name), f"{name}.json") for name in ("a", "b")]
    rc = main(["solve", *paths, "--out", str(out), "--format", "csv"])
    reports = _reports(capsys.readouterr().out)
    assert rc == 2 and [r["scenario"] for r in reports] == ["a", "b"]
    assert all(not r["passed"] and str(out) in r["error"] for r in reports)
    assert out.is_file() if blocked == "report" else sorted(p.name for p in out.iterdir()) == [
        "a.solve.json", "a.solve.solution.csv", "b.solve.json", "b.solve.solution.csv"]


def test_reports_are_ascii_whatever_the_locale(tmp_path):
    # under the C locale, without UTF-8 mode, stdout and file names are
    # ASCII: a scenario named "café" once died mid-report with a
    # UnicodeEncodeError, and its report file could not be created
    path = _write(tmp_path, dict(random_scenario(3, n_steps=2, driver_kind="linear").data, name="café"))
    env = dict(_child_env(), LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    env.pop("PYTHONIOENCODING", None)
    cli = [sys.executable, "-m", "rbsde_lab.cli", "verify", path]
    done = subprocess.run(cli, env=env, capture_output=True, timeout=120)
    assert done.returncode == 0 and done.stderr == b"", done.stderr[-2000:]
    assert done.stdout.isascii() and b'"scenario": "caf\\u00e9"' in done.stdout
    assert json.loads(done.stdout)["scenario"] == "café"
    # the file system cannot encode the report's file name: an error report
    done = subprocess.run(cli + ["--out", str(tmp_path / "out")], env=env, capture_output=True, timeout=120)
    assert done.returncode == 2 and done.stderr == b"", done.stderr[-2000:]
    rep = json.loads(done.stdout.decode("ascii"))
    assert rep["scenario"] == "café" and not rep["passed"] and "can't encode" in rep["error"]
    assert not any((tmp_path / "out").iterdir())


def test_status_lines_are_ascii_and_later_scenarios_still_run(tmp_path):
    # a status line once printed the raw name: on an ASCII stdout over a
    # UTF-8 file system, "café" wrote its report, then died in print with
    # exit 1, and "b" never ran
    cafe = _write(tmp_path, dict(random_scenario(3, n_steps=2, driver_kind="linear").data, name="café"), "c.json")
    b = _write(tmp_path, dict(random_scenario(4, n_steps=2, driver_kind="linear").data, name="b"), "b.json")
    out = tmp_path / "out"
    env = dict(_child_env(), PYTHONIOENCODING="ascii", PYTHONUTF8="1")
    done = subprocess.run([sys.executable, "-m", "rbsde_lab.cli", "verify", cafe, b, "--out", str(out)],
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0 and done.stderr == b"", done.stderr[-2000:]
    assert done.stdout == b"ok caf\\u00e9 (verify)\nok b (verify)\n"
    assert sorted(p.name for p in out.iterdir()) == ["b.verify.json", "café.verify.json"]


def test_a_process_writes_the_bytes_main_writes(tmp_path, capsys):
    # the process ends without interpreter teardown once its output is
    # flushed: a report of many pipe buffers still arrives whole, its tail
    # from stdout's buffer
    path = _write(tmp_path, random_scenario(6, n_steps=14, driver_kind="linear").data)
    assert main(["solve", path]) == 0
    expected = capsys.readouterr().out.encode("ascii")
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-m", "rbsde_lab.cli", "solve", path], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0 and done.stderr == b"", done.stderr[-2000:]
    assert len(expected) > 2**21 and done.stdout == expected


@pytest.mark.parametrize("case, code", [("passed", 0), ("check failed", 1), ("unloadable", 2),
                                        ("flag refused", 2)])
def test_a_process_exits_with_the_code_main_returns(tmp_path, capsys, case, code):
    path = _write(tmp_path, random_scenario(3, n_steps=4, driver_kind="linear").data)
    argv = {"passed": ["approx", path],
            "check failed": ["approx", path, "--n-max", "1", "--m-max", "1"],
            "unloadable": ["verify", _write(tmp_path, {"version": "v1"}, "bad.json")],
            "flag refused": ["verify", path, "--max-iter", "5"]}[case]
    done = subprocess.run([sys.executable, "-m", "rbsde_lab.cli", *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code
    if case == "flag refused":
        # argparse exits inside main, before the process can be ended
        assert done.stdout == "" and "unrecognized arguments: --max-iter 5" in done.stderr
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert done.stderr == "" and json.loads(done.stdout)["passed"] is (code == 0)
        assert main(argv) == code


class _Ended(Exception):
    pass


@pytest.mark.parametrize("flush_fails", [False, True])
def test_run_ends_the_process_after_a_flush_or_exits_when_a_flush_fails(monkeypatch, flush_fails):
    from rbsde_lab import cli

    flushed = []

    class Stream(io.StringIO):
        def flush(self):
            flushed.append(self)
            if flush_fails:
                raise BrokenPipeError(32, "Broken pipe")

    def end(code):
        raise _Ended(code)

    monkeypatch.setattr(sys, "argv", ["rbsde-lab", "verify", "case.json"])
    monkeypatch.setattr(cli, "_execute", lambda args, workers: 1)
    monkeypatch.setattr(cli.os, "_exit", end)
    monkeypatch.setattr(sys, "stdout", Stream())
    monkeypatch.setattr(sys, "stderr", Stream())
    with pytest.raises(SystemExit if flush_fails else _Ended) as exc:
        cli.run()
    assert exc.value.args == (1,)
    assert flushed == ([sys.stdout] if flush_fails else [sys.stdout, sys.stderr])



def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _fanned_and_serial(capsys, argv, workers, prepare):
    """(exit code, stdout, files under --out) of the call on ``workers``
    processes and of serial ``main``; ``prepare`` resets --out before each."""
    from rbsde_lab import cli

    out = Path(argv[argv.index("--out") + 1])
    runs = []
    for call in (lambda: cli._execute(cli._parse(argv), workers), lambda: main(argv)):
        prepare()
        code = call()
        runs.append((code, capsys.readouterr().out, _files(out) if out.is_dir() else out.read_bytes()))
    return runs


@pytest.mark.parametrize("blocked_out", [False, True])
@pytest.mark.parametrize("workers", [2, 3])
def test_a_call_on_several_workers_matches_a_serial_run(tmp_path, capsys, workers, blocked_out):
    # each outcome a call reports: passing draws, a scenario that exits 1,
    # an unloadable file and a non-ASCII name; with blocked_out, --out is a
    # file and every scenario reports an error
    paths = [_write(tmp_path, random_scenario(seed, n_steps=depth, driver_kind="linear").data, f"{seed}.json")
             for seed, depth in ((1, 4), (2, 1), (3, 6), (4, 2), (5, 3))]
    paths[1:1] = [_write(tmp_path, dict(ILL_POSED, name="ill-posed"), "ill-posed.json"),
                  _write(tmp_path, {"version": "v1"}, "bad.json"),
                  _write(tmp_path, dict(TRIVIAL, name="café"), "cafe.json")]
    out = tmp_path / "out"

    def prepare():
        shutil.rmtree(out, ignore_errors=True)
        if blocked_out:
            out.write_text("")

    fanned, serial = _fanned_and_serial(capsys, ["solve", *paths, "--out", str(out), "--format", "csv"],
                                        workers, prepare)
    assert fanned == serial
    code, stdout, files = serial
    # the ill-posed scenario fails before it writes; with blocked_out, every
    # other one reports an error, else only the unloadable file
    assert code == 2 and stdout.isascii() and "FAIL ill-posed (solve)\n" in stdout
    assert stdout.count('"error": ') == (7 if blocked_out else 1)
    if not blocked_out:
        assert "ok caf\\u00e9 (solve)\n" in stdout
        names = ["café", *(f"random-{seed}" for seed in range(1, 6))]
        assert sorted(files) == sorted(f"{name}.solve.{kind}" for name in names for kind in ("json", "solution.csv"))


def test_a_name_declared_twice_keeps_the_later_report_on_disk(tmp_path, capsys):
    # on two workers, scenarios 0 and 2 run in this process and 1 in the
    # forked one; 0 is the slowest, so its report is the last one written.
    # The serial run leaves 1's report: 2 fails before it writes
    data = [random_scenario(1, n_steps=12, driver_kind="linear").data,
            random_scenario(2, n_steps=1, driver_kind="linear").data, ILL_POSED]
    paths = [_write(tmp_path, dict(d, name="dup"), f"{i}.json") for i, d in enumerate(data)]
    out = tmp_path / "out"
    fanned, serial = _fanned_and_serial(capsys, ["solve", *paths, "--out", str(out), "--format", "csv"], 2,
                                        lambda: shutil.rmtree(out, ignore_errors=True))
    assert fanned == serial
    assert serial[:2] == (1, "ok dup (solve)\nok dup (solve)\nFAIL dup (solve)\n")
    assert json.loads(serial[2]["dup.solve.json"])["solution"]["steps"] == 1


def _worker_script(body: str, workers: int) -> str:
    """A process that patches ``cli._run_one`` with ``body``'s ``patched``,
    then runs its arguments after the first on ``workers`` processes."""
    return ("import os, sys, time\nfrom rbsde_lab import cli\nparent, run_one = os.getpid(), cli._run_one\n"
            + body + f"cli._run_one = patched\nsys.exit(cli._execute(cli._parse(sys.argv[2:]), {workers}))\n")


@pytest.mark.parametrize("end", ["raises", "dies"])
def test_a_worker_that_fails_ends_the_call_non_zero_naming_what_it_did_not_report(tmp_path, end):
    # the second forked worker takes scenarios 2 and 5, and fails at 5:
    # one that raises still reports 2; one that is killed reports nothing
    paths = [_write(tmp_path, dict(TRIVIAL, name=f"s{i}"), f"s{i}.json") for i in range(6)]
    body = ("def patched(path, args):\n"
            "    if path == sys.argv[1]:\n"
            "        os.kill(os.getpid(), 9) if '{end}' == 'dies' else 1 / 0\n"
            "    return run_one(path, args)\n").format(end=end)
    done = subprocess.run([sys.executable, "-c", _worker_script(body, 3), paths[5], "solve", *paths,
                           "--out", str(tmp_path / "out")],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    missing = [5] if end == "raises" else [2, 5]
    assert done.returncode == 1
    assert done.stdout == "".join(f"ok s{i} (solve)\n" for i in range(6) if i not in missing)
    assert f"rbsde-lab: a worker ended without reporting {', '.join(paths[i] for i in missing)}\n" in done.stderr
    assert ("ZeroDivisionError" in done.stderr) is (end == "raises")


def test_a_worker_stops_before_its_next_scenario_once_its_parent_is_gone(tmp_path):
    # the forked worker starts scenario 1, the parent ends, and the worker
    # finishes 1 but starts no other; capture_output waits for the
    # worker too, since it holds the same pipes
    paths = [_write(tmp_path, dict(TRIVIAL, name=f"s{i}"), f"s{i}.json") for i in range(9)]
    started, ran = tmp_path / "started", tmp_path / "ran"
    body = ("def patched(path, args):\n"
            "    deadline = time.monotonic() + 60\n"
            "    if os.getpid() == parent:\n"
            "        while not os.path.exists(sys.argv[1] + '/started') and time.monotonic() < deadline:\n"
            "            time.sleep(0.01)\n"
            "        os._exit(3)\n"
            "    open(sys.argv[1] + '/started', 'a').close()\n"
            "    while os.getppid() == parent and time.monotonic() < deadline:\n"
            "        time.sleep(0.01)\n"
            "    with open(sys.argv[1] + '/ran', 'a') as log:\n"
            "        log.write(path + '\\n')\n"
            "    return run_one(path, args)\n")
    done = subprocess.run([sys.executable, "-c", _worker_script(body, 2), str(tmp_path), "solve", *paths,
                           "--out", str(tmp_path / "out")],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 3 and done.stdout == ""
    assert started.exists() and ran.read_text() == paths[1] + "\n"

def test_invalid_scenario_reports_pointer(tmp_path, capsys):
    data = dict(TRIVIAL)
    del data["dt"]
    rc = main(["verify", _write(tmp_path, data)])
    rep = _json_out(capsys)
    assert rc == 2 and "'dt' is a required property" in rep["error"]


def test_ill_posed_step_is_refused_by_solve_and_verify(tmp_path, capsys):
    path = _write(tmp_path, ILL_POSED)
    errors = []
    for command in ("solve", "verify"):
        rc = main([command, path])
        rep = _json_out(capsys)
        assert rc == 1 and not rep["passed"]
        errors.append(rep["error"])
    assert errors[0] == errors[1]
    assert errors[0].startswith("implicit step ill-posed")


def test_misdeclared_driver_exits_2_at_load(tmp_path, capsys):
    # 3y + 10z declared with lambda_z = 0 and mu = -1
    driver = {"kind": "polynomial", "terms": [[1, 0, 3.0], [0, 1, 10.0]], "lambda_z": 0, "mu": -1}
    rc = main(["solve", _write(tmp_path, dict(TRIVIAL, driver=driver))])
    rep = _json_out(capsys)
    assert rc == 2 and rep["error"].startswith("/driver: ")
    assert "lipschitz_z" in rep["error"]


def test_non_finite_number_exits_2_with_pointer(tmp_path, capsys):
    text = json.dumps(TRIVIAL).replace('"value": 0.0}}', '"value": NaN}}')
    assert "NaN" in text
    path = tmp_path / "nan.json"
    path.write_text(text)
    rc = main(["verify", str(path)])
    rep = _json_out(capsys)
    assert rc == 2 and rep["error"] == "/driver/value: NaN is not a finite number"


def _main_quietly(argv):
    """Exit code of ``main`` and every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, caught


def test_number_that_overflows_a_double_exits_2_with_pointer(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(TRIVIAL, steps=1)).replace('"value": 1.0}', '"value": 1e400}'))
    rc, caught = _main_quietly(["verify", str(path)])
    out = capsys.readouterr()
    assert rc == 2 and json.loads(out.out)["error"] == "/upper/value: 1e400 is not a finite number"
    assert out.err == "" and not caught


@pytest.mark.parametrize("power", [40000, 1e300])
def test_driver_that_overflows_exits_2_at_load(tmp_path, capsys, power):
    driver = {"kind": "polynomial", "terms": [[power, 0, 1.0]], "lambda_z": 0, "mu": 0}
    rc, caught = _main_quietly(["verify", _write(tmp_path, dict(TRIVIAL, driver=driver))])
    out = capsys.readouterr()
    assert rc == 2 and json.loads(out.out)["error"].startswith("/driver: ")
    assert out.err == "" and not caught


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    path = _write(tmp_path, random_scenario(13, n_steps=2, driver_kind="cubic").data)
    name = random_scenario(13, n_steps=2, driver_kind="cubic").name
    outs = []
    for d in ("a", "b"):
        rc = main(["solve", path, "--out", str(tmp_path / d), "--format", "csv"])
        assert rc == 0
        outs.append({
            "json": (tmp_path / d / f"{name}.solve.json").read_bytes(),
            "csv": (tmp_path / d / f"{name}.solve.solution.csv").read_bytes(),
        })
    assert outs[0] == outs[1]
    assert capsys.readouterr().out.splitlines() == [f"ok {name} (solve)"] * 2


def test_csv_solution_table_layout(tmp_path):
    path = _write(tmp_path, TRIVIAL)
    rc = main(["solve", path, "--out", str(tmp_path / "out"), "--format", "csv"])
    assert rc == 0
    lines = (tmp_path / "out" / "case.solve.solution.csv").read_text().splitlines()
    assert lines[0] == ",".join(SOLUTION_ROW_HEADER)
    assert len(lines) > 1


def test_solution_roundtrip_through_verify(tmp_path, capsys):
    sc = random_scenario(21, n_steps=2, driver_kind="linear")
    path = _write(tmp_path, sc.data)
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    dumped = json.loads((tmp_path / "out" / f"{sc.name}.solve.json").read_text())
    sol_path = tmp_path / "solution.json"
    sol_path.write_text(json.dumps(dumped["solution"]))
    rc = main(["verify", path, "--solution", str(sol_path)])
    rep = _json_out(capsys)
    assert rc == 0 and rep["passed"]
    assert rep["round_trip"]["passed"]
    assert rep["round_trip"]["value_drift"] == 0.0


def test_verify_accepts_full_solve_report_as_solution(tmp_path, capsys):
    sc = random_scenario(22, n_steps=2, driver_kind="linear")
    path = _write(tmp_path, sc.data)
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    report_path = tmp_path / "out" / f"{sc.name}.solve.json"
    rc = main(["verify", path, "--solution", str(report_path)])
    rep = _json_out(capsys)
    assert rc == 0 and rep["round_trip"]["passed"]
    assert rep["round_trip"]["value_drift"] == 0.0


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_verify_refuses_a_non_finite_literal_in_a_solution(tmp_path, capsys, literal):
    path = _write(tmp_path, TRIVIAL)
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "case.solve.json").read_text())
    report["solution"]["z"][0][0] = "EDITED"
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(report).replace('"EDITED"', literal))
    rc = main(["verify", path, "--solution", str(edited)])
    rep = _json_out(capsys)
    assert rc == 2 and not rep["passed"]
    assert rep["error"] == f"{edited}: /solution/z/0/0: {literal} is not a finite number"


def test_verify_refuses_a_number_that_overflows_in_a_solution(tmp_path, capsys):
    path = _write(tmp_path, TRIVIAL)
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "case.solve.json").read_text())
    report["solution"]["y"]["at"][0][0] = "EDITED"
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(report).replace('"EDITED"', "-1e400"))
    rc, caught = _main_quietly(["verify", path, "--solution", str(edited)])
    out = capsys.readouterr()
    assert rc == 2 and not json.loads(out.out)["passed"]
    assert json.loads(out.out)["error"] == f"{edited}: /solution/y/at/0/0: -1e400 is not a finite number"
    assert out.err == "" and not caught


def test_verify_rejects_malformed_solution_cleanly(tmp_path, capsys):
    path = _write(tmp_path, TRIVIAL)
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"solution": "nope"}')
    rc = main(["verify", path, "--solution", str(bogus)])
    rep = _json_out(capsys)
    assert rc == 2 and not rep["passed"]
    assert "not a solution document" in rep["error"]
    missing = str(tmp_path / "absent.json")
    assert main(["verify", path, "--solution", missing]) == 2


@pytest.mark.parametrize("cut, error", [
    # once an IndexError traceback that ended the command
    (lambda z: z[:2], "z has 2 rows, expected 3"),
    # once broadcast, and reported as a failed dynamics check
    (lambda z: [z[0], z[1][:1], z[2]], "z[1] has shape (1,), expected (2,)"),
], ids=["rows", "row-shape"])
def test_a_solution_with_malformed_z_exits_2_and_later_scenarios_still_run(tmp_path, capsys, cut, error):
    scn = random_scenario(5, n_steps=3, driver_kind="linear", name="three")
    path = _write(tmp_path, scn.data)
    assert main(["solve", path, "--out", str(tmp_path / "solved")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "solved" / "three.solve.json").read_text())
    report["solution"]["z"] = cut(report["solution"]["z"])
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(report))
    # the later scenario is on a depth-2 grid, so it is refused in turn
    later = _write(tmp_path, dict(TRIVIAL, name="later"), "later.json")
    rc = main(["verify", path, later, "--solution", str(edited), "--out", str(tmp_path / "out")])
    refused, rest = _cli_output(capsys)
    assert rc == 2 and not refused["passed"]
    assert refused["error"] == f"{edited} is not a solution document: {error}"
    assert json.loads(rest)["error"] == (f"{edited}: solution grid (steps 3, dt {scn.data['dt']!r}) "
                                         "does not match the scenario's (steps 2, dt 0.5)")


def test_saddle_with_epsilon_sweep(tmp_path, capsys):
    path = _write(tmp_path, random_scenario(31, n_steps=2).data)
    rc = main(["saddle", path, "--epsilon", "0.1", "0.05"])
    rep = _json_out(capsys)
    assert rc == 0 and rep["passed"]
    assert [e["epsilon"] for e in rep["epsilon"]] == [0.1, 0.05]
    for entry in rep["epsilon"]:
        assert entry["structural_ok"]
        assert entry["residual_up"] <= entry["epsilon"] + 1e-10


def test_approx_with_explicit_cut_step(tmp_path, capsys):
    path = _write(tmp_path, random_scenario(9, n_steps=2, driver_kind="cubic").data)
    rc = main(["approx", path, "--cut-step", "1"])
    rep = _json_out(capsys)
    assert rc == 0 and rep["passed"]
    assert rep["cut_step"] == 1
    assert rep["n_gaps"][-1] <= 1e-8


@pytest.mark.parametrize("flag", ["--n-max", "--m-max", "--cut-step", "--enum-bound"])
@pytest.mark.parametrize("value", ["0", "-2", "1.5"])
def test_count_flags_below_one_are_refused_before_any_file_is_read(tmp_path, capsys, flag, value):
    # the scenario path does not exist: a refusal after loading would
    # return a report with exit code 2 instead of leaving through argparse
    missing = str(tmp_path / "missing.json")
    with pytest.raises(SystemExit) as exc:
        main(["approx", missing, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected an integer >= 1, got '{value}'" in captured.err


def test_the_root_solver_round_cap_is_no_flag(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(SystemExit) as exc:
        main(["verify", missing, "--max-iter", "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --max-iter 5" in captured.err


def test_count_flags_of_one_run_the_ladder(tmp_path, capsys):
    path = _write(tmp_path, random_scenario(9, n_steps=2, driver_kind="cubic").data)
    rc = main(["approx", path, "--n-max", "1", "--m-max", "1", "--cut-step", "1"])
    rep = _json_out(capsys)
    assert rc == (0 if rep["passed"] else 1)
    assert rep["n_max"] == rep["m_max"] == 1 and rep["cut_step"] == 1
    assert rep["n_gaps"] == rep["m_gaps"] == [0]


def test_ladder_above_the_budget_exits_2_naming_the_level(tmp_path, capsys):
    path = _write(tmp_path, random_scenario(6, n_steps=12, driver_kind="cubic").data)
    rc = main(["approx", path])
    rep = _json_out(capsys)
    assert rc == 2 and not rep["passed"]
    assert "level n_max=135, m_max=135" in rep["error"] and "--n-max/--m-max" in rep["error"]

def test_multiple_scenarios_one_line_each(tmp_path, capsys):
    p1 = _write(tmp_path, random_scenario(1, n_steps=1).data, "one.json")
    p2 = _write(tmp_path, random_scenario(2, n_steps=2).data, "two.json")
    rc = main(["solve", p1, p2])
    out = capsys.readouterr().out
    decoder = json.JSONDecoder()
    reports, pos = [], 0
    while pos < len(out.rstrip()):
        rep, end = decoder.raw_decode(out, pos)
        reports.append(rep)
        pos = end + 1  # the newline between documents
    assert rc == 0 and len(reports) == 2
    assert [r["scenario"] for r in reports] == ["random-1", "random-2"]
    assert all(r["passed"] for r in reports)


# a depth-10 scenario whose report bytes need no random draw and no libm
# call: dt = 1/16 makes the walk step 0.25 exact, and affine data with a
# linear driver take the closed-form step; both barriers reflect
GOLDEN = {
    "version": "v1", "name": "golden", "steps": 10, "dt": 0.0625,
    "lower": {"kind": "affine", "intercept": -0.5, "slope": 0.5, "time_coef": 0.5},
    "upper": {"kind": "affine", "intercept": 0.5, "slope": 0.5, "time_coef": -0.5},
    "terminal": {"kind": "affine", "intercept": 0.0, "slope": 0.5},
    "driver": {"kind": "linear", "const": 0.25, "y_coef": 4.0, "z_coef": 0.25},
}
GOLDEN_SHA256 = {
    "golden.solve.json": "04bf4f2ac00fb5cc73718241023a2986192591addf4ab390b7aec4d4460132cd",
    "golden.solve.solution.csv": "847d29654ec8d086cd95c861912cd8d4c1fc23d929568bea2174fbbc6676d57e",
    "golden.verify.json": "bc98dffc8a40efd00e280c0a9891218cc2eae0a657530a23826193cfb4818ac8",
}


def test_golden_report_digests(tmp_path, capsys):
    path = _write(tmp_path, GOLDEN)
    out = tmp_path / "out"
    assert main(["solve", path, "--out", str(out), "--format", "csv"]) == 0
    assert main(["verify", path, "--solution", str(out / "golden.solve.json"), "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256


# a depth-3 scenario, libm-free for the same reasons as GOLDEN, shallow
# enough that verify runs the game oracle and the brute Snell
# classification; y_coef = 8 pushes Y out of the band on both sides, so
# R+ and R- both act
SHALLOW_GOLDEN = {
    "version": "v1", "name": "shallow", "steps": 3, "dt": 0.0625,
    "lower": {"kind": "affine", "intercept": -0.5, "slope": 0.5, "time_coef": 0.5},
    "upper": {"kind": "affine", "intercept": 0.5, "slope": 0.5, "time_coef": -0.5},
    "terminal": {"kind": "affine", "intercept": 0.0, "slope": 1.0},
    "driver": {"kind": "linear", "const": 0.0, "y_coef": 8.0, "z_coef": 0.25},
}
SHALLOW_GOLDEN_SHA256 = {
    "shallow.verify.json": "2081aa95d3ffc155383a3467f367d869dce43dbf70d2a556fd4dfd9790e28ad2",
    "shallow.oracle.json": "537237c6b09adcff549670c8d1ef74338228161c9b4b39e0da41d457d8cef399",
    "shallow.game.json": "91bab445a6af8ded6d38068697f0c616d74ad79c9ae1b7501f0e5640942026b0",
    "shallow.saddle.json": "77efef06a560957917e7acb30afcec07e9767e47bb8ba0b8180717145a5297ba",
}


def test_shallow_golden_pins_the_games_layer(tmp_path, capsys):
    path = _write(tmp_path, SHALLOW_GOLDEN)
    out = str(tmp_path / "out")
    scn = scenario_from_dict(SHALLOW_GOLDEN)
    sol = solve_rbsde(scn.tree, scn.barriers, scn.driver)
    assert sol.r_plus.total_variation() > 0 and sol.r_minus.total_variation() > 0
    for argv in (["verify"], ["oracle", "--mode", "plain"], ["game"],
                 ["saddle", "--epsilon", "0.1", "0.05"]):
        assert main([argv[0], path, "--out", out] + argv[1:]) == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in SHALLOW_GOLDEN_SHA256}
    assert digests == SHALLOW_GOLDEN_SHA256


def test_cli_import_loads_neither_jsonschema_nor_numpy_random():
    # each one cost every CLI process import time or resident memory
    src = str(Path(rbsde_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import rbsde_lab.cli, sys; "
            "print([m for m in ('jsonschema', 'numpy.random') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_games_is_imported_only_where_a_game_is_solved(tmp_path):
    # solve, approx and a verify too deep for the game oracle leave the
    # games module unloaded; a shallow verify loads it and writes its
    # golden bytes
    deep = _write(tmp_path, random_scenario(3, n_steps=5, driver_kind="linear").data, "deep.json")
    shallow = _write(tmp_path, SHALLOW_GOLDEN, "shallow.json")
    out = str(tmp_path / "out")
    runs = [[command, deep, "--out", out] for command in ("solve", "approx", "verify")]
    runs.append(["verify", shallow, "--out", out])
    code = ("import json, sys; from rbsde_lab import cli; "
            "print(json.dumps(['rbsde_lab.games' in sys.modules] + "
            "[[cli.main(argv), 'rbsde_lab.games' in sys.modules] for argv in json.loads(sys.argv[1])]))")
    done = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1]) == [False, [0, False], [0, False], [0, False], [0, True]]
    digest = hashlib.sha256((tmp_path / "out" / "shallow.verify.json").read_bytes()).hexdigest()
    assert digest == SHALLOW_GOLDEN_SHA256["shallow.verify.json"]


def _cli_output(capsys):
    """The error report a refused scenario prints, and the status lines after it."""
    out = capsys.readouterr().out
    end = out.index("\n}\n") + 3
    return json.loads(out[:end]), out[end:]


@pytest.mark.parametrize("case", ["deeper", "coarser"])
def test_a_solution_on_another_grid_exits_2_and_later_scenarios_still_run(tmp_path, capsys, case):
    small = random_scenario(5, n_steps=2, driver_kind="linear", name="small")
    dt = small.data["dt"]
    if case == "deeper":
        # a depth-4 solution for a depth-2 scenario once ended the command
        # with an IndexError traceback
        solved, target, grid = random_scenario(5, n_steps=4, driver_kind="linear", name="deep").data, small.data, 4
    else:
        # the same depth at twice the dt once ran and failed its dynamics check
        solved, target, grid = small.data, dict(small.data, name="coarse", dt=2 * dt), 2
    solved_path = _write(tmp_path, solved, "solved.json")
    assert main(["solve", solved_path, "--out", str(tmp_path / "solved")]) == 0
    report = str(tmp_path / "solved" / f"{solved['name']}.solve.json")
    capsys.readouterr()
    rc = main(["verify", _write(tmp_path, target, "target.json"), solved_path,
               "--solution", report, "--out", str(tmp_path / "out")])
    refused, rest = _cli_output(capsys)
    assert rc == 2 and not refused["passed"]
    want = (f"steps {grid}, dt {dt!r}", f"steps 2, dt {target['dt']!r}")
    assert refused["error"] == f"{report}: solution grid ({want[0]}) does not match the scenario's ({want[1]})"
    assert rest == f"ok {solved['name']} (verify)\n"
    assert json.loads((tmp_path / "out" / f"{solved['name']}.verify.json").read_text())["round_trip"]["passed"]


def test_a_solution_grid_is_checked_before_the_solution_is_built(tmp_path, capsys, monkeypatch):
    # solution files have no depth cap: steps 40 would allocate 2**41 floats
    from rbsde_lab import cli

    def refuse(_data):
        raise AssertionError("the solution was built")

    monkeypatch.setattr(cli, "solution_from_dict", refuse)
    sol = tmp_path / "deep.json"
    sol.write_text(json.dumps({"steps": 40, "dt": 0.5}))
    rc = main(["verify", _write(tmp_path, TRIVIAL), "--solution", str(sol)])
    rep = _json_out(capsys)
    assert rc == 2
    assert rep["error"] == f"{sol}: solution grid (steps 40, dt 0.5) does not match the scenario's (steps 2, dt 0.5)"


@pytest.mark.parametrize("value", ["0", "-1", "-0.5", "nan", "inf", "1e400", "x"])
def test_an_epsilon_that_is_not_a_finite_positive_number_is_refused_before_any_file_is_read(
        tmp_path, capsys, value):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(SystemExit) as exc:
        main(["saddle", missing, "--epsilon", "0.1", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --epsilon: expected a finite number > 0, got '{value}'" in captured.err


@pytest.mark.parametrize("flag, value", [("--tol-root", "nan"), ("--tol-game", "inf"),
                                         ("--tol-comp", "-1e-9"), ("--tol-conv", "x")])
def test_tolerance_flags_out_of_range_are_refused_before_any_file_is_read(tmp_path, capsys, flag, value):
    # --tol-game inf once passed every game, and --tol-root nan failed a check
    missing = str(tmp_path / "missing.json")
    with pytest.raises(SystemExit) as exc:
        main(["verify", missing, f"{flag}={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected a finite number >= 0, got '{value}'" in captured.err


@pytest.mark.parametrize("name, value", [("enum_bound", -2), ("enum_bound", 0), ("enum_bound", 2.7),
                                         ("tol_root", -1e-9)])
@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_scenario_tolerances_out_of_range_exit_2_with_a_pointer(tmp_path, capsys, name, value, command):
    # at depth 4 an enumeration bound below one once checked no node and passed
    data = dict(random_scenario(3, n_steps=4, driver_kind="linear").data, tolerances={name: value})
    rc = main([command, _write(tmp_path, data)])
    rep = _json_out(capsys)
    rule = ("is not of type 'integer'" if value == 2.7
            else f"is less than the minimum of {1 if name == 'enum_bound' else 0}")
    assert rc == 2 and not rep["passed"] and rep["error"] == f"/tolerances/{name}: {value} {rule}"


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_a_root_solver_round_cap_in_a_scenario_exits_2(tmp_path, capsys, command):
    data = dict(random_scenario(3, n_steps=2, driver_kind="linear").data, tolerances={"max_iter": 200})
    rc = main([command, _write(tmp_path, data)])
    rep = _json_out(capsys)
    assert rc == 2 and not rep["passed"]
    assert rep["error"] == "/tolerances: Additional properties are not allowed ('max_iter' was unexpected)"
