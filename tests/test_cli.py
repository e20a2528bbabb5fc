import hashlib
import io
import json
import sys
import weakref

import pytest

from twobridge import cli, reflections

from twobridge.cli import main
from twobridge.reflections import Reflection
from twobridge.slopes import Slope


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_word_verb(capsys):
    code, out, _ = run_cli(capsys, "word", "4/7")
    assert code == 0
    assert out == "u = abABabAbaBAbaB\nuhat = bABabA\n"


def test_word_verb_infinity(capsys):
    code, out, _ = run_cli(capsys, "word", "inf")
    assert code == 0
    assert out == "u = 1\n"


def test_seq_verb(capsys):
    code, out, _ = run_cli(capsys, "seq", "10/37")
    assert code == 0
    assert "T = (3,2,2,3,2,2)" in out
    assert "S1 = (4,4,4)" in out
    assert "S2 = (3,4,4,3,4,4,3)" in out
    assert "r1 = 7/26" in out
    assert "r2 = 3/11" in out


def test_null_verb(capsys):
    code, out, _ = run_cli(capsys, "null", "1/1", "0/1")
    assert code == 0
    assert "null-homotopic = false" in out

    code, out, _ = run_cli(capsys, "null", "1/6", "1/3")
    assert code == 0
    assert "null-homotopic = true" in out


def test_answers_not_in_exit_codes(capsys):
    assert run_cli(capsys, "null", "1/1", "0/1")[0] == 0
    assert run_cli(capsys, "epi", "1/2", "1/3")[0] == 0


def test_epi_verb(capsys):
    code, out, _ = run_cli(capsys, "epi", "1/6", "1/3")
    assert code == 0 and "epimorphism = true" in out
    code, out, _ = run_cli(capsys, "epi", "1/2", "1/3")
    assert code == 0 and "epimorphism = false" in out


def test_reduce_verb(capsys):
    code, out, _ = run_cli(capsys, "reduce", "1/6", "1/3", "--trace")
    assert code == 0
    assert "representative = inf" in out
    assert "(1,0;6,-1) -> inf" in out


def test_reduce_agrees_with_null_for_any_r(capsys):
    # reduce folds r into [0, 1] the same way null does, so r outside
    # (0, 1) is answered, with null's representative and trace.
    for s, r in (("1/3", "7/3"), ("1/3", "2/1")):
        code, reduced, _ = run_cli(capsys, "reduce", s, r, "--trace")
        assert code == 0, (s, r)
        code, null, _ = run_cli(capsys, "null", s, r, "--trace")
        assert code == 0
        null_lines = null.splitlines()
        assert reduced.splitlines() == null_lines[1:2] + null_lines[3:], (s, r)


def test_scan_verb(capsys):
    code, out, _ = run_cli(capsys, "scan", "1/3", "--max-den", "6")
    assert code == 0
    assert out.strip() == "1/6 1/3 inf"


def test_equiv_verb(capsys):
    code, out, _ = run_cli(capsys, "equiv", "1/3", "2/3")
    assert code == 0 and "equivalent = true" in out
    code, out, _ = run_cli(capsys, "equiv", "1/3", "1/5")
    assert code == 0 and "equivalent = false" in out


def test_json_output_round_trips(capsys):
    code, out, _ = run_cli(capsys, "--json", "null", "1/6", "1/3")
    assert code == 0
    obj = json.loads(out)
    assert obj["answer"] is True
    assert obj["representative"] == "inf"
    assert obj["trace"]["steps"][0]["matrix"] == [1, 0, 6, -1]

    code, out, _ = run_cli(capsys, "--json", "seq", "8/35")
    obj = json.loads(out)
    assert obj["t"] == [1, 2, 2, 1, 2, 2]
    assert obj["s1"] == [5, 4, 5]


def test_malformed_input_exits_2(capsys):
    code, _, err = run_cli(capsys, "null", "1/x", "1/3")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "seq", "inf")
    assert code == 2
    code, _, err = run_cli(capsys, "word", "3/2")
    assert code == 2
    code, out, err = run_cli(capsys, "scan", "1/3", "--max-den", "0")
    assert code == 2 and out == "" and err == "error: max_den must be >= 1\n"


def test_oversized_slope_exits_2(capsys):
    code, out, err = run_cli(capsys, "null", "1/99999999999999999999", "1/3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    # A slope inside the bound is answered even where a fold matrix
    # leaves the bound (x ↦ 2n - x with 2n = 2^63).
    code, out, err = run_cli(capsys, "epi", str(2**63 - 1), "1/3")
    assert code == 0 and err == ""
    assert out == run_cli(capsys, "epi", "1", "1/3")[1]


def test_large_in_bound_slopes_are_answered(capsys):
    # Near 2^61 denominators: the pivot fold's matrix has entries near
    # 2^120, far beyond the bound that every slope keeps.
    s = "1520283919093591604/2459871053643326447"
    r = "1100087778366101931/1779979416004714189"
    code, out, err = run_cli(capsys, "--json", "null", s, r)
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["answer"] is False
    cur = Slope(*map(int, s.split("/")))
    for step in obj["trace"]["steps"]:
        a, b, c, d = step["matrix"]
        cur = Slope(a * cur.num + b * cur.den, c * cur.num + d * cur.den)
        assert str(cur) == step["image"]
    assert str(cur) == obj["representative"] == obj["trace"]["result"]
    code, out, _ = run_cli(capsys, "null", str(2**63 - 1), "1/3")
    assert code == 0 and "null-homotopic = false" in out
    # Only r is folded, never s, so s stays in bound however far r is
    # from [0, 1]; an integer r decides by the parity vertex of s.
    code, out, err = run_cli(capsys, "null", "1/3", str(2**62 + 1))
    assert code == 0 and err == ""
    assert out.splitlines() == ["null-homotopic = true", "representative = 1/1",
                                "route = R_INTEGER"]


def test_seq_of_large_terms(capsys):
    # S(1/2000000) = (2000000, 2000000): terms beyond any character code.
    code, out, err = run_cli(capsys, "seq", "1/2000000")
    assert code == 0 and err == ""
    assert "CS = ((2000000,2000000))" in out
    assert "S2 = (2000000)" in out


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-den", "6")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "--max-den", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert {c["name"] for c in obj["checks"]} >= {"worked-examples",
                                                  "decision-oracle"}


def test_identical_runs_identical_output(capsys):
    first = run_cli(capsys, "scan", "2/5", "--max-den", "8")
    second = run_cli(capsys, "scan", "2/5", "--max-den", "8")
    assert first == second


def test_negative_slopes_parse_without_separator(capsys):
    for verb, *slopes in (["seq", "-1/3"], ["null", "-1/3", "1/2"],
                          ["epi", "-inf", "1/3"], ["reduce", "-7/3", "-2/5"]):
        separated = run_cli(capsys, verb, "--", *slopes)
        assert run_cli(capsys, verb, *slopes) == separated, (verb, slopes)
    assert run_cli(capsys, "null", "-1/3", "1/2") == (
        0, "null-homotopic = false\nrepresentative = 1/1\nroute = GENERIC\n", "")
    assert run_cli(capsys, "epi", "-inf", "1/3")[:2] == (0, "epimorphism = true\n")


# null and reduce on cusp, generic, integer and ∞ r, and one request over
# the round cap, in every combination of --json and --trace.
TRACE_PAIRS = (("1/6", "1/3"), ("1/3001", "1/3"), ("2999/3001", "2/3"),
               ("-1/19999", "1/2"), ("19997/10000", "1/2"), ("5/13", "2/7"),
               ("1/3", "4"), ("3/5", "inf"), ("1/20003", "1/2"), ("7/3", "7/3"))
#: sha256 of the JSON list of [argv, exit code, stdout, stderr] of every
#: TRACE_PAIRS request, computed before the cusp runs and the one-rendering
#: output of null and reduce were introduced.
TRACE_OUTPUT_DIGEST = "506e2f4d53f38dec21adc63abc976e2e4183d39a9f9dac7dc193c610625cd0f0"


def test_trace_output_unchanged(capsys, monkeypatch):
    # The digest was taken at a round cap of 10^4, where 1/20003 at 1/2 is
    # the request over the cap.
    monkeypatch.setattr(reflections, "MAX_FOLD_ROUNDS", 10000)
    rows = []
    for verb in ("null", "reduce"):
        for s, r in TRACE_PAIRS:
            for pre in ([], ["--json"]):
                for post in ([], ["--trace"]):
                    argv = pre + [verb] + post + ["--", s, r]
                    rows.append([argv, *run_cli(capsys, *argv)])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == TRACE_OUTPUT_DIGEST


def test_json_trace_builds_no_text(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("a reflection was rendered as text under --json")

    monkeypatch.setattr(Reflection, "__str__", refuse)
    for verb in ("null", "reduce"):
        code, out, err = run_cli(capsys, "--json", verb, "--trace", "1/3001", "1/3")
        assert code == 0 and err == ""
        assert len(json.loads(out)["trace"]["steps"]) == 1000


#: sha256 of the JSON list of [argv, exit code, stdout, stderr] of seq on
#: SEQ_SLOPES with and without --json, computed before the continued
#: fraction became a plain tuple and seq built its cyclic S-sequence from
#: the S-sequence it prints.  Slopes >= 1 run the T-sequence branch
#: without the splitting.
SEQ_SLOPES = ("1", "1/2", "10/37", "3/2", "5/3", "7/3")
SEQ_OUTPUT_DIGEST = "a682dcd20b9a7321806d586f47ab74943f6cdc2d1f7acd17cc90f62311545c74"


def test_seq_output_unchanged(capsys):
    rows = []
    for r in SEQ_SLOPES:
        for pre in ([], ["--json"]):
            argv = pre + ["seq", r]
            rows.append([argv, *run_cli(capsys, *argv)])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SEQ_OUTPUT_DIGEST


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_resource_errors_exit_3(capsys, monkeypatch, error):
    def exhausted(r):
        raise error()

    monkeypatch.setattr(cli, "relator", exhausted)
    code, out, err = run_cli(capsys, "word", "1/3")
    # One line, named after the error, since it carries no message; no traceback.
    assert (code, out, err) == (3, "", f"internal error: {error.__name__}\n")


def test_internal_error_line_written_after_the_failed_call_is_freed(monkeypatch):
    # The frames of a call that ran out of memory hold what it allocated
    # until the handler ends; writing the error line before then can run
    # out of memory again.  Here stderr fails while the scan's frame lives.
    class Held:
        pass

    held = []

    def exhausted(r, max_den, mode):
        partial = Held()
        held.append(weakref.ref(partial))
        raise MemoryError

    class Stderr(io.StringIO):
        def write(self, text):
            if held[0]() is not None:
                raise MemoryError
            return super().write(text)

    monkeypatch.setattr(cli, "scan", exhausted)
    monkeypatch.setattr(sys, "stderr", Stderr())
    assert main(["scan", "1/2", "--max-den", "5"]) == 3
    assert sys.stderr.getvalue() == "internal error: MemoryError\n"
