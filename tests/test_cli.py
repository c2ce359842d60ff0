import io
import runpy
import sys
from fractions import Fraction

import pytest

from sumfree.cli import CHECK_FAILED, USAGE_ERROR, run
from sumfree.constructions import construct_extremal, random_sum_free
from sumfree.discrete import DEFAULT_BUDGET
from sumfree.intervals import IntervalSet
from sumfree.lemmas import CheckRecord
from sumfree.optimize import optimize

NOT_SUM_FREE = "(0,1/4)|(2/3,1)"  # 1/8 + 1/8 = 3 * 1/12


class TestSumFreeViolation:
    @pytest.mark.parametrize("verb", ["verify", "lemmas", "trace", "extremal"])
    def test_exits_check_failed_with_witness(self, verb, capsys):
        assert run([verb, NOT_SUM_FREE]) == CHECK_FAILED
        out = capsys.readouterr().out
        assert "3-sum-free: NO; witness x=1/8, y=1/8, z=1/12" in out

    def test_records_format(self, capsys):
        assert run(["lemmas", "--format", "records", NOT_SUM_FREE]) == CHECK_FAILED
        assert capsys.readouterr().out == "sum-free\tk=3\tx=1/8,y=1/8,z=1/12\tfail\n"

    def test_trace_witness_is_in_the_input(self, capsys):
        # sup 1/2: the witness comes from the set as given, not its rescaling
        assert run(["trace", "(0,1/8)|(1/3,1/2)"]) == CHECK_FAILED
        assert "witness x=1/16, y=1/16, z=1/24" in capsys.readouterr().out


class TestUsageErrors:
    def test_other_precondition_is_usage_error(self, capsys):
        assert run(["lemmas", "[-1,-1]|[1,1]"]) == USAGE_ERROR
        assert "inside [0, +inf)" in capsys.readouterr().err

    def test_containment_outside_the_unit_interval_is_usage_error(self, capsys):
        assert run(["extremal", "(1,3/2)"]) == USAGE_ERROR
        assert capsys.readouterr().err == (
            "error: containment check requires A inside [0, 1]\n")

    def test_parse_error(self, capsys):
        assert run(["lemmas", "(0,1"]) == USAGE_ERROR
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing", "."], ids=["missing-file", "directory"])
    def test_unreadable_set_file_is_usage_error(self, name, tmp_path, capsys):
        assert run(["measure", f"@{tmp_path / name}"]) == USAGE_ERROR
        assert capsys.readouterr().err.startswith("error: ")


def test_lemmas_passes_on_extremal_set(capsys):
    assert run(["lemmas", "(8/177,4/59)|(28/177,14/59)|(2/3,1)"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_lemmas_records_on_extremal_set(capsys):
    assert run(["lemmas", "--format", "records", "(8/177,4/59)|(28/177,14/59)|(2/3,1)"]) == 0
    assert capsys.readouterr().out == (
        "extent-bound\t77/177\t173/354\tpass\n"
        "top-window-bound\t77/177\t1/2\tpass\n"
        "tail-bound[small-eps1]\t1/3\t1/3\tpass\n"
        "tail-equality-rigidity\t0\t0\tpass\n"
        "dense-tail-bound\t1/3\t1/3\tpass\n"
        "sumset-min-bound(S,S)\t77/59\t265/177\tpass\n"
        "sumset-min-bound(R,A1)\t77/177\t31/59\tpass\n"
    )


def test_module_entry_point(monkeypatch, capsys):
    # run the module fresh, as `python -m sumfree.cli` does
    monkeypatch.delitem(sys.modules, "sumfree.cli")
    monkeypatch.setattr(sys, "argv", ["sumfree", "verify", NOT_SUM_FREE])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("sumfree.cli", run_name="__main__")
    assert exc.value.code == CHECK_FAILED
    assert "witness" in capsys.readouterr().out


def test_set_free_verb_takes_common_options(capsys):
    assert run(["density", "-k", "4", "-n", "20", "--format", "records", "--decimal", "3"]) == 0
    assert capsys.readouterr().out == (
        "search-ratio\t3/5 ~0.600\t-\tpass\n"
        "asymptotic-density\t63/110 ~0.573\t-\tpass\n"
    )


def test_discrete_max(capsys):
    assert run(["discrete", "max", "-n", "20", "-k", "3"]) == 0
    assert capsys.readouterr().out == "n=20 k=3: max size 10, 4 extremal set(s), 148 nodes\n"


@pytest.mark.parametrize("args,budget", [([], DEFAULT_BUDGET), (["--budget", "10"], 10)],
                         ids=["default-budget", "explicit-budget"])
def test_discrete_max_budget(args, budget, capsys):
    assert run(["discrete", "max", "-n", str(budget + 1), *args]) == USAGE_ERROR
    assert f"exceeds the exhaustive budget ({budget})" in capsys.readouterr().err


A0 = "(8/177,4/59)|(28/177,14/59)|(2/3,1)"


@pytest.mark.parametrize("argv,out", [
    (["optimize", "-m", "1", "--iters", "300", "--format", "records"],
     "optimize\t1/3\t77/177\tpass\n(2/3,1]\n"),
    (["optimize", "-m", "1", "--iters", "300"],
     "best set: (2/3,1]\nmeasure: 1/3\n"
     "nodes 1, pivots 2, pruned leaves 0, proved: no set of at most 1 components measures more\n"),
    # two nodes of 19: the incumbent A0, closed, and no proof
    (["optimize", "-m", "3", "--iters", "2"],
     "best set: (8/177,4/59]|(28/177,14/59]|(2/3,1]\nmeasure: 77/177\n"
     "nodes 2, pivots 7, pruned leaves 0, not proved: the node budget ran out\n"),
    (["construct", "a3"], "[8/177,4/59)|(28/177,14/59]|(2/3,1]\n"),
    (["measure", A0], "77/177\n"),
    (["measure", "--decimal", "4", "(0,1/3)"], "1/3 ~0.3333\n"),
    (["gen", "--seed", "1"], "[1/9,1/6)|(97/177,97/118]\n"),
    (["forbidden", "(2/3,1)"], "[0,0]|(1/3,2/3)|(1,7/3)\n"),
    (["extremal", "--format", "records", "[8/177,4/59)|(28/177,14/59]|(2/3,1]"],
     "extremal-measure\t77/177\t77/177\tpass\n"
     "sym-diff-zero\t-\t-\tpass\n"
     "containment\tA3\t-\tpass\n"),
    (["extremal", A0],
     "extremal: measure 77/177\n"
     "symmetric difference with base set has measure zero: True\n"
     "contained in a1 (all containers: a1, a2, a3, a4, a5, a6, a7)\n"),
    (["extremal", "(2/3,1)"], "not extremal: measure 1/3 != 77/177\n"),
    # a set below the ceiling passes it; only extremal sets get the other rows
    (["extremal", "--format", "records", "--decimal", "4", "(2/3,1)"],
     "extremal-measure\t1/3 ~0.3333\t77/177 ~0.4350\tpass\n"),
    (["verify", "(2/3,1)"], "3-sum-free: yes\n"),
    (["verify", "--format", "records", "(2/3,1)"], "sum-free\tk=3\t-\tpass\n"),
    (["discrete", "max", "-n", "20", "-k", "3", "--format", "records"],
     "max-size\t10\t-\tpass\nextremal-count\t4\t-\tpass\n"),
    (["discrete", "max", "-n", "12", "-k", "4", "--all"],
     "n=12 k=4: max size 7, 3 extremal set(s), 30 nodes\n"
     "{1,6,7,8,9,10,11}\n{1,7,8,9,10,11,12}\n{2,7,8,9,10,11,12}\n"),
    (["discrete", "max", "-n", "12", "-k", "4", "--all", "--format", "records"],
     "max-size\t7\t-\tpass\nextremal-count\t3\t-\tpass\n"
     "{1,6,7,8,9,10,11}\n{1,7,8,9,10,11,12}\n{2,7,8,9,10,11,12}\n"),
    (["trace", "--format", "records", A0],
     "window-2/3-mass\t0\t0\tpass\n"
     "window-4/9-mass\t0\t0\tpass\n"
     "window-1/3-mass\t0\t0\tpass\n"
     "tail-bound[small-eps1]\t1/3\t1/3\tpass\n"
     "dense-tail-bound\t1/3\t1/3\tpass\n"
     "head-split\t77/177\t77/177\tpass\n"
     "head-window-cap\t6/59\t34/177\tpass\n"
     "head-tail-bound[small-eps1]\t1/3\t1/3\tpass\n"
     "head-split-again\t6/59\t6/59\tpass\n"
     "head2-extent-bound\t4/177\t4/177\tpass\n"
     "head2-room\t4/177\t4/177\tpass\n"
     "head2-sup-cap\t4/59\t4/59\tpass\n"
     "head-combined\t6/59\t6/59\tpass\n"
     "measure-linear\t77/177\t77/177\tpass\n"
     "linear-vs-ceiling\t77/177\t77/177\tpass\n"
     "final-vs-ceiling\t77/177\t77/177\tpass\n"),
], ids=["optimize-records", "optimize-text", "optimize-unproved", "construct", "measure",
        "measure-decimal", "gen", "forbidden", "extremal-records", "extremal-text",
        "extremal-not-extremal", "extremal-not-extremal-records", "verify-text",
        "verify-records", "discrete-records", "discrete-all", "discrete-all-records",
        "trace-records"])
def test_passing_verbs(argv, out, capsys):
    assert run(argv) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("m", range(1, 7))
def test_optimize_reports_the_search(m, capsys):
    # the default budget of 2000 nodes proves every m <= 6; the line
    # reports the library's search, and the records pass the ceiling
    s = optimize(m, 0, 2000).search
    assert run(["optimize", "-m", str(m)]) == 0
    assert capsys.readouterr().out.splitlines()[2] == (
        f"nodes {s.nodes}, pivots {s.pivots}, pruned leaves {s.pruned}, "
        f"proved: no set of at most {m} components measures more")
    assert run(["optimize", "-m", str(m), "--format", "records"]) == 0
    assert capsys.readouterr().out.split("\t")[3].startswith("pass")


@pytest.mark.parametrize("argv", [
    ["measure", "--format", "records", "(0,1)"],
    ["verify", "--decimal", "3", "(0,1)"],
    ["construct", "a0", "--format", "records"],
    ["construct", "a0", "--decimal", "3"],
    ["forbidden", "--format", "records", "(2/3,1)"],
    ["forbidden", "--decimal", "3", "(2/3,1)"],
    ["gen", "--seed", "1", "--format", "records"],
    ["gen", "--seed", "1", "--decimal", "3"],
    ["discrete", "max", "-n", "10", "--decimal", "3"],
    ["optimize", "-m", "1", "--seed", "1"],
    ["lemmas", "--raw", A0],
    ["trace", "--raw", A0],
], ids=" ".join)
def test_verb_rejects_an_option_it_does_not_read(argv, capsys):
    assert run(argv) == USAGE_ERROR
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["measure", A0],
    *([verb, *fmt, A0] for verb in ("lemmas", "trace", "extremal")
      for fmt in ([], ["--format", "records"])),
    *(["optimize", "-m", "1", "--iters", "1", *fmt] for fmt in ([], ["--format", "records"])),
    *(["density", "-k", "4", "-n", "10", *fmt] for fmt in ([], ["--format", "records"])),
], ids=" ".join)
def test_negative_decimal_is_a_usage_error_on_every_verb(argv, capsys):
    # rejected as the arguments are parsed, before any cell is formatted
    assert run([*argv, "--decimal", "-1"]) == USAGE_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(": error: argument --decimal: places must be >= 0\n")


def test_a_decimal_that_is_not_an_int_is_a_usage_error(capsys):
    assert run(["measure", "--decimal", "abc", "(0,1)"]) == USAGE_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(": error: argument --decimal: invalid int value: 'abc'\n")


def test_trace_prints_the_context_of_an_early_exit(capsys):
    assert run(["trace", "(2/3,1)"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["case: early-exit",
                                                        "a=2/3 eps1=0 eps2=0"]


A0_HALF = "(4/177,2/59)|(14/177,7/59)|(1/3,1/2)"
# reached by the optimizer; R0 = R & [a, 2r/9 + a/3] is empty
R0_EMPTY = ("[640/3357,952/3357]|(2860/10071,2876/10071)"
            "|(8633/30213,2878/10071)|(2/3,1)")


class TestSetSources:
    """A set is given as text, as ``@file`` or as ``@-`` for stdin."""

    def test_at_file(self, tmp_path, capsys):
        path = tmp_path / "set.txt"
        path.write_text(A0 + "\n", encoding="ascii")
        assert run(["measure", f"@{path}"]) == 0
        assert capsys.readouterr().out == "77/177\n"

    def test_at_stdin(self, capsys):
        assert run(["verify", "--format", "records", "@-"], io.StringIO(A0 + "\n")) == 0
        assert capsys.readouterr().out == "sum-free\tk=3\t-\tpass\n"


def test_lemmas_reports_the_rescaling(capsys):
    assert run(["lemmas", A0_HALF]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        f"rescaled by 1/sup to {A0}", "context: a=8/177 eps1=0 eps2=0"]


def test_trace_prints_the_rescaling_and_the_heads(capsys):
    # R0 is nonempty, so its line follows R's
    assert run(["trace", A0_HALF]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:5] == [
        f"rescaled by 1/sup to {A0}",
        "case: Case1-R0-nonempty",
        "a=8/177 eps1=0 eps2=0",
        "R=(8/177,4/59)|(28/177,14/59)  r=14/59  eta1=0  eta2=0",
        "R0=(8/177,4/59)  b=4/59",
    ]
    assert lines[-1] == "measure 77/177 <= certified bound 77/177 (attained with equality)"


def test_trace_prints_no_r0_line_when_r0_is_empty(capsys):
    text = ("[640/3357,952/3357]|(2860/10071,2876/10071)"
            "|(8633/30213,2878/10071)|(2/3,1)")
    assert run(["trace", text]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "case: Case1-R0-empty",
        "a=640/3357 eps1=0 eps2=0",
        "R=[640/3357,952/3357]|(2860/10071,2876/10071)|(8633/30213,2878/10071)"
        "  r=2878/10071  eta1=2/4317  eta2=17/8634",
    ]
    assert lines[3] == "[PASS] window-2/3-mass: 0 <= 0"


A0_LEMMAS = """\
extent-bound	77/177	173/354	pass
top-window-bound	77/177	1/2	pass
tail-bound[small-eps1]	1/3	1/3	pass
tail-equality-rigidity	0	0	pass
dense-tail-bound	1/3	1/3	pass
sumset-min-bound(S,S)	77/59	265/177	pass
sumset-min-bound(R,A1)	77/177	31/59	pass
"""

A0_TRACE = """\
window-2/3-mass	0	0	pass
window-4/9-mass	0	0	pass
window-1/3-mass	0	0	pass
tail-bound[small-eps1]	1/3	1/3	pass
dense-tail-bound	1/3	1/3	pass
head-split	77/177	77/177	pass
head-window-cap	6/59	34/177	pass
head-tail-bound[small-eps1]	1/3	1/3	pass
head-split-again	6/59	6/59	pass
head2-extent-bound	4/177	4/177	pass
head2-room	4/177	4/177	pass
head2-sup-cap	4/59	4/59	pass
head-combined	6/59	6/59	pass
measure-linear	77/177	77/177	pass
linear-vs-ceiling	77/177	77/177	pass
final-vs-ceiling	77/177	77/177	pass
"""

R0_EMPTY_LEMMAS = """\
extent-bound	12928/30213	3037/6714	pass
top-window-bound	12928/30213	1/2	pass
tail-bound[small-eps1]	1/3	1/3	pass
tail-equality-rigidity	0	0	pass
dense-tail-bound	1/3	1/3	pass
sumset-min-bound(S,S)	37381/30213	38831/30213	pass
sumset-min-bound(R,A1)	12928/30213	4315/10071	pass
"""

R0_EMPTY_TRACE = """\
window-2/3-mass	0	0	pass
window-4/9-mass	0	0	pass
window-1/3-mass	0	0	pass
tail-bound[small-eps1]	1/3	1/3	pass
dense-tail-bound	1/3	1/3	pass
head-split	12928/30213	12928/30213	pass
head-window-cap	2857/30213	958/10071	pass
head-tail-bound[small-eps1]	2857/8634	4316/12951	pass
head-split-again	2857/30213	2878/30213	pass
head-cap-combined	2857/30213	958/10071	pass
head-cap-linear	2857/30213	958/10071	pass
head-cap-constant	958/10071	2/21	pass
final-vs-ceiling	12928/30213	77/177	pass
"""


@pytest.mark.parametrize("verb,text,out", [
    ("lemmas", A0, A0_LEMMAS),
    ("trace", A0, A0_TRACE),
    ("lemmas", A0_HALF, A0_LEMMAS),
    ("trace", A0_HALF, A0_TRACE),
    ("lemmas", R0_EMPTY, R0_EMPTY_LEMMAS),
    ("trace", R0_EMPTY, R0_EMPTY_TRACE),
], ids=["lemmas-A0", "trace-A0", "lemmas-A0-half", "trace-A0-half", "lemmas-R0-empty",
        "trace-R0-empty"])
def test_pinned_records(verb, text, out, capsys):
    # every line of the records format, each side in lowest terms
    assert run([verb, "--format", "records", text]) == 0
    assert capsys.readouterr().out == out


class TestFailedCheck:
    """A failed verdict is printed in either format, and the exit code is 1.

    No 3-sum-free set fails a check, so each test makes one fail.
    """

    @pytest.mark.parametrize("verb,checker", [
        ("lemmas", "sumfree.lemmas.check_extent_bound"),
        ("trace", "sumfree.trace.check_dense_tail_bound"),
    ])
    def test_a_failed_inequality(self, verb, checker, monkeypatch, capsys):
        monkeypatch.setattr(checker, lambda ctx: CheckRecord("patched", 1, 0))
        assert run([verb, A0]) == CHECK_FAILED
        lines = capsys.readouterr().out.splitlines()
        assert "[FAIL] patched: 1 <= 0" in lines
        assert lines[-1] == "1 CHECK(S) FAILED"
        assert run([verb, "--format", "records", A0]) == CHECK_FAILED
        assert "patched\t1\t0\tfail" in capsys.readouterr().out.splitlines()

    def test_an_extremal_set_in_no_container(self, monkeypatch, capsys):
        # with A1..A7 emptied, A0 is still A0 but lies in none of them
        base = construct_extremal(0)
        monkeypatch.setattr("sumfree.trace.construct_extremal",
                            lambda i: base if i == 0 else IntervalSet.empty())
        assert run(["extremal", A0]) == CHECK_FAILED
        assert capsys.readouterr().out.splitlines()[-1] == (
            "CONTAINED IN NO MAXIMAL SET (inconsistent!)")
        assert run(["extremal", "--format", "records", A0]) == CHECK_FAILED
        assert capsys.readouterr().out == (
            "extremal-measure\t77/177\t77/177\tpass\n"
            "sym-diff-zero\t-\t-\tpass\n"
            "containment\t-\t-\tfail\n")

    def test_an_optimum_above_the_ceiling(self, monkeypatch, capsys):
        # the optimize row compares the measure with 77/177
        result = optimize(1, 0, 300)
        result.measure = Fraction(1, 2)
        monkeypatch.setattr("sumfree.cli.optimize", lambda m, seed, iterations: result)
        assert run(["optimize", "-m", "1", "--format", "records"]) == CHECK_FAILED
        assert capsys.readouterr().out == "optimize\t1/2\t77/177\tfail\n(2/3,1]\n"


EXIT_RULE_SETS = ([str(construct_extremal(i)) for i in range(8)]
                  + [str(random_sum_free(s, 4)) for s in range(20)]
                  + [NOT_SUM_FREE, "(0,1/8)|(1/3,1/2)"])


@pytest.mark.parametrize("argv", [
    *([verb, s] for verb in ("verify", "lemmas", "trace", "extremal") for s in EXIT_RULE_SETS),
    ["optimize", "-m", "2", "--iters", "300"],
    ["discrete", "max", "-n", "12", "-k", "4", "--all"],
    ["density", "-k", "4", "-n", "20"],
], ids=" ".join)
def test_exit_code_is_one_exactly_when_a_record_fails(argv, capsys):
    code = run([*argv, "--format", "records"])
    failed = any(line.endswith("\tfail") for line in capsys.readouterr().out.splitlines())
    assert code == (CHECK_FAILED if failed else 0)
    assert run(argv) == code
