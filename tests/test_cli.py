import argparse
import contextlib
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from math import gcd
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from twobridge import casson_gordon, cli, enumeration
from twobridge.casson_gordon import SigmaTerm, cg_condition, weighted_count
from twobridge.cli import execute

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, argv):
    code = execute(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sigma_single_r(capsys):
    code, out, _ = run(capsys, ["sigma", "11", "46", "--r", "1"])
    assert code == 0
    assert out == "r=1 area=23 int=23.25 sigma=-1\n"


def test_sigma_all_r(capsys):
    code, out, _ = run(capsys, ["sigma", "11", "46"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[1] == "r=2 area=92 int=91.75 sigma=1"


@pytest.mark.parametrize("p, q", [(4, 3), (11, 46), (60, 1001), (570, 1001), (571, 1000)])
def test_sigma_all_r_above_p_half_equal_the_single_r_output(capsys, p, q):
    # the all-r output counts by the block pass; --r counts each r by the floor sum
    code, out, _ = run(capsys, ["sigma", str(p), str(q)])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == p - 1
    for r in range(p // 2, p):
        assert run(capsys, ["sigma", str(p), str(q), "--r", str(r)]) == (0, lines[r - 1] + "\n", ""), r


def test_sigma_half_integer_area(capsys):
    code, out, _ = run(capsys, ["sigma", "5", "3", "--r", "1"])
    assert code == 0
    assert out.startswith("r=1 area=1.5 ")


def test_sigma_json(capsys):
    code, out, _ = run(capsys, ["sigma", "11", "46", "--r", "2", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [{"r": 2, "area": "184/2", "int": "367/4", "sigma": 1}]


@pytest.mark.parametrize("p, q", [(0, 1), (-3, 1), (1, 1)])
def test_sigma_without_r_validates_p_and_q(capsys, p, q):
    code, out, err = run(capsys, ["sigma", str(p), str(q)])
    assert code == 2 and out == ""
    assert err == f"error: need p >= 2, got {p}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["1", "0"], "need p >= 2, got 1"),
        (["9", "3"], "need gcd(q, p) = 1, got q=3, p=9"),
        (["5", "25"], "need 0 < q < p^2, got q=25, p=5"),
        (["5", "3", "--r", "0"], "need 1 <= r <= p-1, got r=0, p=5"),
        (["5", "3", "--r", "5"], "need 1 <= r <= p-1, got r=5, p=5"),
    ],
)
def test_sigma_refuses_bad_input(capsys, argv, message):
    code, out, err = run(capsys, ["sigma", *argv, "--format", "json"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("p", [2**63 + 1, 99999999999999999999])
@pytest.mark.parametrize("command", ["sigma", "cg-check"])
def test_a_report_of_every_r_refuses_a_p_no_list_holds(capsys, command, p):
    code, out, err = run(capsys, [command, str(p), "2"])
    assert (code, out) == (2, "")
    assert err == f"error: need p < {sys.maxsize // 8} for the terms at every r, got p={p}\n"
    # a single r is one floor sum, at any p
    code, out, _ = run(capsys, ["sigma", str(p), "2", "--r", "1"])
    assert code == 0 and out.startswith("r=1 ")


def test_cg_check_failure_exits_1(capsys):
    code, out, _ = run(capsys, ["cg-check", "5", "2"])
    assert code == 1
    assert "r=1" in out and "sigma=-5" in out


def test_cg_check_pass_exits_0(capsys):
    code, out, _ = run(capsys, ["cg-check", "3", "4"])
    assert code == 0 and out.startswith("PASS")


def test_cg_check_json_round_trips(capsys):
    code, out, _ = run(capsys, ["cg-check", "11", "46", "--format", "json"])
    obj = json.loads(out)
    assert obj["passes"] is True and obj["first_failure"] is None
    assert obj["terms"][0] == {"r": 1, "area": "46/2", "int": "93/4", "sigma": -1}


def test_member_json_schema(capsys):
    code, out, _ = run(capsys, ["member", "5", "18", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "p": 5,
        "q": 18,
        "member": True,
        "families": ["1", "2"],
        "conditions": [
            {"id": "ii", "sign": "+", "n": 3},
            {"id": "iii", "sign": "+", "n": 3},
            {"id": "iv", "sign": "-", "n": 2, "d": 3},
        ],
        "partial": "5/2",
    }


def test_member_det_flag(capsys):
    code, out, _ = run(capsys, ["member", "--det", "25", "18", "--format", "json"])
    assert code == 0 and json.loads(out)["member"] is True
    code, _, err = run(capsys, ["member", "--det", "24", "5"])
    assert code == 2 and "odd perfect square" in err
    code, _, err = run(capsys, ["member", "--det", "-9", "1"])
    assert code == 2 and "odd perfect square" in err
    code, _, err = run(capsys, ["partial", "--det", "-25", "2"])
    assert code == 2 and "odd perfect square" in err


def test_member_non_member(capsys):
    code, out, _ = run(capsys, ["member", "5", "2", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["member"] is False and obj["partial"] is None


def test_partial_text(capsys):
    code, out, _ = run(capsys, ["partial", "11", "84"])
    assert code == 0
    assert out == "partial knot: 11/3 (determinant 11, crossing 6)\n"


def test_partial_non_member_is_domain_error(capsys):
    code, _, err = run(capsys, ["partial", "5", "2"])
    assert code == 2 and "not in the known ribbon families" in err


def test_generate_text(capsys):
    code, out, _ = run(capsys, ["generate", "--family", "0", "--params", "2"])
    assert code == 0 and out == "C(2,4) = 9/4\n"


def test_generate_link_tagged(capsys):
    code, out, _ = run(capsys, ["generate", "--family", "0", "--params", "3"])
    assert code == 0 and out == "C(3,5) = 16/5 (link)\n"


def test_generate_rejects_zero_parameter(capsys):
    code, _, err = run(capsys, ["generate", "--family", "1", "--params", "0,1"])
    assert code == 2 and "a, b != 0" in err


def test_eval_and_expand(capsys):
    code, out, _ = run(capsys, ["eval", "C(2,1,3)"])
    assert code == 0 and out == "11/4\n"
    code, out, _ = run(capsys, ["expand", "11/4"])
    assert code == 0 and out == "C(2,1,3)\n"
    code, out, _ = run(capsys, ["eval", "C(2,1,-2)"])
    assert code == 0 and out == "4/1 (link)\n"


def test_table_csv(capsys):
    code, out, _ = run(capsys, ["table", "--max-crossing", "19", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "crossing,family0,family1,family2,total"
    assert len(lines) == 18  # header + 17 data rows
    assert "12,5,2,1,8" in lines
    assert "19,0,3,0,3" in lines


def test_table_json(capsys):
    code, out, _ = run(capsys, ["table", "--max-crossing", "6", "--format", "json"])
    rows = json.loads(out)
    assert rows[3] == {"crossing": 6, "family0": 1, "family1": 0, "family2": 0, "total": 1}


def test_scan_json_lines(capsys):
    code, out, err = run(capsys, ["scan", "--min-p", "3", "--max-p", "9", "--jobs", "1", "--format", "json"])
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["p"] for r in recs] == [3, 5, 7, 9]
    assert all(r["non_family"] == [] for r in recs)
    lines = err.splitlines()  # progress goes to the error stream
    assert [line.split(" done at ")[0] for line in lines[:-1]] == [
        f"scan: p={p}" for p in (3, 5, 7, 9)
    ]
    assert lines[-1] == "scan: 33 knots tested, 12 pass the obstruction, 0 outside the families"


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_scan_rejects_a_non_positive_job_count(capsys, jobs):
    code, out, err = run(capsys, ["scan", "--min-p", "3", "--max-p", "5", "--jobs", jobs])
    assert code == 2 and out == ""
    assert "usage:" in err and "argument --jobs: need a positive integer" in err


def test_scan_parallel_stdout_equals_serial(capsys):
    argv = ["scan", "--min-p", "3", "--max-p", "21", "--format", "json", "--jobs"]
    _, serial, _ = run(capsys, argv + ["1"])
    code, parallel, err = run(capsys, argv + ["2"])
    assert code == 0 and parallel == serial
    # progress follows completion order; stdout stays ascending
    done = sorted(int(line.split()[1][2:]) for line in err.splitlines()[:-1])
    assert done == list(range(3, 22, 2))


# the patch reaches the workers only as they fork; every process the scan runs
# appends its pid to the file argv[1] before it scans a p
DYING_WORKER = """
import multiprocessing, os, sys
from twobridge import cli, enumeration

real = enumeration._scan_single_p

def dying(p):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    if p == 9:
        os._exit(3)
    return real(p)

enumeration._scan_single_p = dying
code = cli.execute(sys.argv[2:])
print(multiprocessing.active_children())
sys.exit(code)
"""


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched _scan_single_p reaches the workers only when they fork",
)
def test_a_dead_worker_stops_the_scan(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    pids = tmp_path / "pids"
    argv = ["scan", "--min-p", "3", "--max-p", "41", "--jobs", "2"]
    # a session of its own, so that a hung scan and its workers can all be killed
    proc = subprocess.Popen(
        [sys.executable, "-c", DYING_WORKER, str(pids), *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the scan hung after a worker died")
    assert proc.returncode == 2 and out == "[]\n"
    assert err.splitlines()[-1] == "internal error: the scan worker for p = 9 died (exit code 3)"
    workers = {int(pid) for pid in pids.read_text().split()}
    assert len(workers) == 2 and proc.pid not in workers
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.parametrize("affinity, expected", [({0}, 1), ({0, 3, 5}, 3), (None, 8)])
def test_scan_jobs_default_to_the_usable_cpus(capsys, monkeypatch, affinity, expected):
    # an 8-core machine; the process may use only some cores (as under
    # `taskset`), or the platform has no affinity call (None)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    real, seen = enumeration.conjecture_scan, []

    def recording_scan(*args, jobs, **kwargs):
        seen.append(jobs)
        return real(*args, **kwargs)

    monkeypatch.setattr(enumeration, "conjecture_scan", recording_scan)
    argv = ["scan", "--min-p", "3", "--max-p", "5", "--format", "json"]
    assert run(capsys, argv)[0] == 0
    assert run(capsys, argv + ["--jobs", "2"])[0] == 0
    assert seen == [expected, 2]


def _sigma_document(p, q, rs):
    terms = [SigmaTerm.of(q, r, weighted_count(p, q, r)).to_json_dict() for r in rs]
    return {"p": p, "q": q, "terms": terms}


def test_term_documents_are_json_dumps_byte_for_byte(capsys):
    # sigma and cg-check lay their JSON out by hand; json.dumps(..., indent=2)
    # of the public dict form is the reference, and both commands' terms agree
    for p in range(2, 26):
        for q in (q for q in range(1, p * p) if gcd(q, p) == 1):
            sigma_doc = _sigma_document(p, q, range(1, p))
            code, out, _ = run(capsys, ["sigma", str(p), str(q), "--format", "json"])
            assert (code, out) == (0, json.dumps(sigma_doc, indent=2) + "\n")
            if p % 2:
                report = cg_condition(p, q).to_json_dict()
                assert report["terms"] == sigma_doc["terms"]
                code, out, _ = run(capsys, ["cg-check", str(p), str(q), "--format", "json"])
                assert (code, out) == (0 if report["passes"] else 1, json.dumps(report, indent=2) + "\n")
    code, out, _ = run(capsys, ["sigma", "11", "46", "--r", "2", "--format", "json"])
    assert (code, out) == (0, json.dumps(_sigma_document(11, 46, [2]), indent=2) + "\n")


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "twobridge"]
    done = subprocess.run(cmd + ["eval", "C(2,1,3)"], capture_output=True, text=True, env=env)
    assert done.returncode == 0 and done.stdout == "11/4\n"
    done = subprocess.run(cmd + ["bogus"], capture_output=True, text=True, env=env)
    assert done.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", "571", "1000", "--format", "json"],  # 59 kB: fails inside the command
        ["eval", "C(2,1,3)"],  # one short line: fails at the final flush
    ],
)
def test_a_closed_stdout_exits_141_without_a_traceback(argv):
    # the reader end is closed before the command starts, as when `| head`
    # has already exited, so every write to stdout fails with EPIPE
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "twobridge", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


def test_scan_text_summary(capsys):
    code, out, _ = run(capsys, ["scan", "--min-p", "3", "--max-p", "5", "--jobs", "1"])
    assert code == 0
    assert out.splitlines()[-1] == "no counterexample candidates for p = 3..5"


def test_crosscheck_text(capsys):
    code, out, _ = run(capsys, ["crosscheck", "--max-crossing", "8"])
    assert code == 0
    assert out.splitlines()[0] == "c=4: amphicheiral=1, family0(c+2)=1, equal=yes"


def test_crosscheck_csv(capsys):
    code, out, _ = run(capsys, ["crosscheck", "--max-crossing", "6", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "crossing,amphicheiral,family0_at_crossing_plus_2,equal"


def test_domain_error_exits_2(capsys):
    code, _, err = run(capsys, ["sigma", "4", "2", "--r", "1"])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("command", ["sigma", "cg-check"])
def test_a_p_too_large_for_memory_exits_2(capsys, command):
    # the terms at every r need lists of p items: at p near 10^18 the first
    # allocation fails at once (far beyond any address space)
    code, out, err = run(capsys, [command, "1000000000000000001", "2"])
    assert (code, out, err) == (2, "", "error: out of memory for this input\n")


def test_unknown_command_exits_2(capsys):
    assert execute(["bogus"]) == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    assert execute(["table", "--max-crossing", "6", "--wat"]) == 2
    assert execute(["scan", "--min-p", "3", "--max-p", "3", "--audit"]) == 2
    capsys.readouterr()


def test_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, ["table", "--max-crossing", "16", "--format", "csv"])
    _, second, _ = run(capsys, ["table", "--max-crossing", "16", "--format", "csv"])
    assert first == second
    _, first, _ = run(capsys, ["member", "11", "84", "--format", "json"])
    _, second, _ = run(capsys, ["member", "11", "84", "--format", "json"])
    assert first == second


# the least valid argv of each command
_MINIMAL_ARGV = {
    "sigma": ["sigma", "5", "2"],
    "cg-check": ["cg-check", "5", "2"],
    "member": ["member", "5", "2"],
    "partial": ["partial", "5", "4"],
    "generate": ["generate", "--family", "1", "--params", "1,1"],
    "eval": ["eval", "C(2,1)"],
    "expand": ["expand", "5/2"],
    "table": ["table", "--max-crossing", "6"],
    "scan": ["scan", "--min-p", "3", "--max-p", "5"],
    "crosscheck": ["crosscheck", "--max-crossing", "6"],
}


def test_format_choices_per_command(capsys):
    parser = cli.build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands) == list(_MINIMAL_ARGV)
    for name, argv in _MINIMAL_ARGV.items():
        code, out, err = run(capsys, argv + ["--format", "xml"])
        assert code == 2 and out == "" and "invalid choice: 'xml'" in err, name
        if name in ("table", "crosscheck"):
            assert parser.parse_args(argv + ["--format", "csv"]).format == "csv"
        else:
            code, out, err = run(capsys, argv + ["--format", "csv"])
            assert code == 2 and out == "" and "invalid choice: 'csv'" in err, name
        lines = commands[name].format_help().splitlines()
        assert [line.split()[0] for line in lines if line.startswith("  -")][-1] == "--format", name


_REUSE_SEQUENCE = [
    ["member", "11", "84", "--format", "json"],
    ["sigma", "5", "3", "--r", "1"],
    ["table", "--max-crossing", "6", "--wat"],  # usage error, exit 2
    ["member", "11", "46"],
    ["cg-check", "7", "--format", "json"],  # usage error, exit 2
    ["partial", "121", "84", "--det", "--format", "json"],
    ["cg-check", "11", "46"],
    ["sigma", "4", "2", "--r", "1"],  # domain error, exit 2
    ["expand", "169/70"],
]


def test_reused_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    reused = [run(capsys, argv) for argv in _REUSE_SEQUENCE]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(capsys, argv) for argv in _REUSE_SEQUENCE]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 2, 0, 0, 2, 0]


def test_scan_resume_of_an_audit_checkpoint_exits_2(capsys, tmp_path):
    # p = 21: an audit tested all 21 * phi(21) = 252 coprime q
    path = tmp_path / "ck.jsonl"
    path.write_bytes(b'{"p": 21, "q_tested": 252, "cg_passing": [20, 22], "non_family": []}\n')
    before = path.read_bytes()
    argv = ["scan", "--min-p", "21", "--max-p", "21", "--jobs", "1", "--checkpoint", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "cannot resume a scan" in err
    assert path.read_bytes() == before


@pytest.mark.parametrize(
    "content",
    [
        b"scan notes\nresume from p = 11\n",
        b"[3, 5, 7]\n",
        # p = 3's real record with compact separators
        b'{"p":3,"q_tested":2,"cg_passing":[2],"non_family":[]}\n',
    ],
)
def test_scan_refuses_a_checkpoint_it_did_not_write(capsys, tmp_path, content):
    path = tmp_path / "notes.txt"
    path.write_bytes(content)
    argv = ["scan", "--min-p", "3", "--max-p", "11", "--jobs", "2", "--checkpoint", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "cannot resume a scan" in err
    assert path.read_bytes() == content


def test_scan_resumed_past_a_huge_p_line_matches_a_fresh_scan(capsys, tmp_path):
    argv = ["scan", "--min-p", "3", "--max-p", "11", "--jobs", "1", "--checkpoint"]
    fresh, resumed = tmp_path / "fresh.jsonl", tmp_path / "resumed.jsonl"
    assert run(capsys, argv + [str(fresh)])[0] == 0
    # p = 10^15 + 1, far above the int64 guard: the line ends the valid prefix
    prefix = b"".join(fresh.read_bytes().splitlines(keepends=True)[:2])
    huge = b'{"p": 1000000000000001, "q_tested": 1, "cg_passing": [], "non_family": []}\n'
    resumed.write_bytes(prefix + huge)
    assert run(capsys, argv + [str(resumed)])[0] == 0
    assert resumed.read_bytes() == fresh.read_bytes()


def test_scan_above_the_int64_guard_exits_2(capsys, tmp_path):
    path = tmp_path / "ck.jsonl"
    path.write_bytes(b'{"p": 3, "q_te')
    argv = ["scan", "--min-p", "3", "--max-p", "46341", "--jobs", "1", "--checkpoint", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "INT64_MAX_P" in err
    assert path.read_bytes() == b'{"p": 3, "q_te'


def test_scan_refusal_names_the_public_limit(capsys):
    # both routes are exact far above the limit (to p = 2,097,151), so the line
    # names it as the scan's public limit, not as an int64 bound
    code, out, err = run(capsys, ["scan", "--min-p", "46339", "--max-p", "46342"])
    assert (code, out) == (2, "")
    assert err == "error: need p_max <= INT64_MAX_P = 46340, the scan's public limit, got 46341\n"


def test_scan_reports_a_counterexample_candidate(capsys, monkeypatch):
    real = enumeration.family_reps

    def family_reps(p):  # the family knot 121/46 left out
        return real(p) - {46} if p == 11 else real(p)

    monkeypatch.setattr(enumeration, "family_reps", family_reps)
    argv = ["scan", "--min-p", "3", "--max-p", "11", "--jobs", "1"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert "  p=11 q=46  (inspect with: twobridge cg-check 11 46)" in out.splitlines()
    assert err.splitlines()[-1].endswith(", 1 outside the families")
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 1
    assert json.loads(out.splitlines()[-1])["non_family"] == [46]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_execute_scan_keeps_the_callers_allocator(capsys, monkeypatch, jobs):
    # workers may call it in their own processes; the caller's is never touched
    calls = []
    monkeypatch.setattr(enumeration, "_keep_freed_memory", lambda: calls.append(os.getpid()))
    argv = ["scan", "--min-p", "3", "--max-p", "31", "--jobs", jobs, "--format", "json"]
    assert run(capsys, argv)[0] == 0
    assert calls == []


def test_main_keeps_freed_memory_before_it_executes(monkeypatch):
    order = []
    monkeypatch.setattr(enumeration, "_keep_freed_memory", lambda: order.append("keep"))
    monkeypatch.setattr(cli, "execute", lambda: order.append("execute") or 0)
    with pytest.raises(SystemExit) as caught:
        cli.main()
    assert caught.value.code == 0 and order == ["keep", "execute"]


def test_internal_error_exits_2(capsys, monkeypatch):
    real = casson_gordon._scan_windows

    def scan_windows(p):  # loses the ribbon knot p^2/(p-1)
        for tested, q in real(p):
            yield tested, q[q != p - 1]

    monkeypatch.setattr(casson_gordon, "_scan_windows", scan_windows)
    code, out, err = run(capsys, ["scan", "--min-p", "3", "--max-p", "5", "--jobs", "1"])
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("internal error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--max-crossing", "2"],
        ["crosscheck", "--max-crossing", "25"],
        ["generate", "--family", "0", "--params", "1,,2"],
        # beyond Python's int-string digit limit
        ["eval", "C(" + "9" * 5000 + ")"],
        ["expand", "9" * 5000 + "/2"],
    ],
)
def test_bad_bounds_and_parameters_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_scan_exits_2_when_the_checkpoint_cannot_be_rewritten(capsys, tmp_path):
    # the temp file the checkpoint is rewritten through is a directory: the
    # scan stops before its first p and creates no checkpoint
    path = tmp_path / "ck.jsonl"
    (tmp_path / "ck.jsonl.tmp").mkdir()
    argv = ["scan", "--min-p", "3", "--max-p", "9", "--jobs", "1", "--format", "json"]
    code, out, err = run(capsys, argv + ["--checkpoint", str(path)])
    assert code == 2 and out == ""
    assert "cannot write checkpoint" in err and "scan: p=" not in err
    assert not path.exists()


def test_scan_refuses_an_empty_checkpoint_path(capsys, monkeypatch, tmp_path):
    # "" asks for a checkpoint, so the scan may not run without one; it stops
    # before its first p and writes nothing, not even a temp file
    monkeypatch.chdir(tmp_path)
    argv = ["scan", "--min-p", "3", "--max-p", "7", "--jobs", "1", "--checkpoint", ""]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert os.listdir(tmp_path) == []


def test_a_failed_final_rewrite_keeps_every_appended_record(capsys, monkeypatch, tmp_path):
    real = enumeration._write_checkpoint
    calls = []

    def fails_when_the_scan_ends(path, records):
        if calls:  # the rewrite before the scan went through
            os.mkdir(path + ".tmp")
        calls.append(path)
        real(path, records)

    monkeypatch.setattr(enumeration, "_write_checkpoint", fails_when_the_scan_ends)
    path = tmp_path / "ck.jsonl"
    argv = ["scan", "--min-p", "3", "--max-p", "9", "--jobs", "1", "--format", "json"]
    code, out, err = run(capsys, argv + ["--checkpoint", str(path)])
    assert code == 2 and out == ""
    assert "cannot write checkpoint" in err and len(calls) == 2
    # every record was appended as its p completed, before the rewrite failed
    _, expected, _ = run(capsys, argv)
    assert path.read_text() == expected


def test_a_failed_checkpoint_append_exits_2_without_a_traceback(tmp_path):
    resource = pytest.importorskip("resource")
    limit = 3072  # bytes: the appends stop after a few records of p = 3..99

    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails with EFBIG
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    path = tmp_path / "ck.jsonl"
    env = dict(os.environ, PYTHONPATH=SRC)
    # -B: the limit holds for every file the process writes, .pyc files included;
    # stdout and stderr are pipes, which it does not limit
    argv = ["scan", "--min-p", "3", "--max-p", "99", "--jobs", "2", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "twobridge", *argv, "--checkpoint", str(path)],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit_file_size,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith(f"error: cannot write checkpoint {path}: ")
    # every record whose append finished is in the file, and only a torn line follows
    fresh = {rec.p: rec.to_json_line() for rec in enumeration.conjecture_scan(3, 99)}
    *whole, torn = path.read_text().split("\n")
    progress = [line for line in proc.stderr.splitlines() if line.startswith("scan: p=")]
    done = [int(line.split()[1].removeprefix("p=")) for line in progress]
    assert len(done) > 1 and whole == [fresh[p] for p in done]
    assert len(path.read_bytes()) == limit and "\n" not in torn


# ------------------------------------------------------------------ fuzzing

_NUMBER = st.integers(-500, 500).map(str)
_INTEGERS = st.lists(st.integers(-500, 500), max_size=6).map(lambda xs: ",".join(map(str, xs)))
_TEXT = st.text(max_size=10)
# positional arguments and options of each cheap command, well-formed or not
_ARGUMENTS = {
    "sigma": st.tuples(_NUMBER, _NUMBER, st.sampled_from([[], ["--r", "1"], ["--r", "7"], ["--r", "-2"]])),
    "cg-check": st.tuples(_NUMBER, _NUMBER),
    "member": st.tuples(_NUMBER, st.integers(-250_000, 250_000).map(str), st.sampled_from([[], ["--det"]])),
    "partial": st.tuples(_NUMBER, st.integers(-250_000, 250_000).map(str), st.sampled_from([[], ["--det"]])),
    "generate": st.tuples(
        st.just("--family"), st.sampled_from(["0", "1", "2", "3"]), st.just("--params"), _INTEGERS | _TEXT
    ),
    "eval": st.tuples(_INTEGERS.map(lambda xs: f"C({xs})") | _TEXT),
    "expand": st.tuples(st.tuples(_NUMBER, _NUMBER).map("/".join) | _TEXT),
}
_STRAY = st.sampled_from(["--format", "json", "text", "csv", "--det", "--r", "5", "--help", "x", ""]) | _TEXT


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_cheap_commands_exit_0_1_or_2_and_never_raise(data):
    # integers stay within |500| (q within p^2), so no example runs long
    command = data.draw(st.sampled_from(sorted(_ARGUMENTS)))
    argv = [command]
    for arg in data.draw(_ARGUMENTS[command]):
        argv += arg if isinstance(arg, list) else [arg]
    argv += data.draw(st.sampled_from([[], ["--format", "json"], ["--format", "csv"]]))
    argv += data.draw(st.lists(_STRAY, max_size=2))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = execute(argv)
    assert code in (0, 1, 2), argv
