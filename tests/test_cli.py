import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import frobcirc
from frobcirc import _kernels, classifier, cli, gamma
from frobcirc.circulant import Circulant
from frobcirc.cli import build_parser, main, signed_form
from frobcirc.numtheory import factorize

SRC = os.path.dirname(os.path.dirname(frobcirc.__file__))
with open(os.path.join(os.path.dirname(__file__), "golden", "cli.json")) as fh:
    GOLDEN = json.load(fh)  # recorded by golden/capture.py


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestSignedForm:
    def test_low_half(self):
        assert signed_form(3122, 6253) == "+[3122]"

    def test_high_half(self):
        assert signed_form(5507, 6253) == "-[746]"

    def test_minus_one(self):
        assert signed_form(6252, 6253) == "-[1]"


class TestClassify:
    def test_6253_rows(self):
        code, text = run(["classify", "6253", "--format", "json"])
        assert code == 0
        records = json.loads(text)
        assert len(records) == 9
        by_h = {r["h_signed"]: r for r in records}
        assert by_h["-[746]"]["d"] == 4
        assert by_h["+[3122]"]["connection_pairs"] == [1, 695, 1543, 1544, 2436, 3122]

    def test_9_single_cycle(self):
        code, text = run(["classify", "9", "--format", "json"])
        assert code == 0
        records = json.loads(text)
        assert len(records) == 1
        assert records[0]["d"] == 2
        assert records[0]["connection_set"] == [1, 8]

    def test_15_only_cycle(self):
        code, text = run(["classify", "15", "--format", "json"])
        assert code == 0
        records = json.loads(text)
        assert [r["d"] for r in records] == [2]

    def test_even_n_exit_1(self):
        code, _ = run(["classify", "8"])
        assert code == 1

    def test_bad_degree_exit_1(self):
        code, _ = run(["classify", "6253", "--degree", "8"])
        assert code == 1

    def test_bad_n_exit_2(self):
        code, _ = run(["classify", "1"])
        assert code == 2

    def test_deterministic(self):
        a = run(["classify", "6253", "--format", "json"])
        b = run(["classify", "6253", "--format", "json"])
        assert a == b

    def test_formats_carry_identical_data(self):
        _, js = run(["classify", "6253", "--format", "json"])
        _, cs = run(["classify", "6253", "--format", "csv"])
        _, tb = run(["classify", "6253", "--format", "table"])
        records = json.loads(js)
        rows = list(csv.DictReader(io.StringIO(cs)))
        assert len(rows) == len(records)
        for rec, row in zip(records, rows):
            assert int(row["h"]) == rec["h"]
            assert row["h_signed"] == rec["h_signed"]
            assert [int(x) for x in row["connection_pairs"].split(",")] == rec[
                "connection_pairs"
            ]
        table_lines = tb.strip().splitlines()
        assert len(table_lines) == len(records) + 1  # header
        for rec, line in zip(records, table_lines[1:]):
            assert str(rec["h"]) in line
            assert rec["h_signed"] in line

    def test_large_prime_needs_no_bfs(self, monkeypatch):
        # connectivity is decided by gcd(n, S), so classify never searches;
        # the class K_10007 once cost 1.6 GB in a frontier BFS
        def no_bfs(*args):
            raise AssertionError("classify ran a BFS")

        monkeypatch.setattr(_kernels, "bfs_distances", no_bfs)
        code, text = run(["classify", "10007", "--format", "json"])
        assert code == 0
        assert [r["d"] for r in json.loads(text)] == [2, 10006]

    def test_oracle_flag(self):
        code, text = run(["classify", "91", "--oracle", "--format", "json"])
        assert code == 0
        assert all(r["frobenius"] for r in json.loads(text))

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("flag", [[], ["--oracle"], ["--no-oracle"]])
    def test_builds_no_circulant(self, monkeypatch, fmt, flag):
        # the report reads S off the class, so no Circulant is built per class
        def no_circulant(self):
            raise AssertionError("classify built a Circulant")

        monkeypatch.setattr(Circulant, "__post_init__", no_circulant)
        for n in ["91", "1105", "1999"]:
            code, _ = run(["classify", n, "--format", fmt, *flag])
            assert code == 0

    def test_oracle_needs_no_modulus_cap(self, capsys):
        # one gcd per element of S, so --oracle is bounded by SEARCH_LIMIT
        # alone: the cycle class of a prime near 10^9, S = {1, n - 1}, is Frobenius
        argv = ["classify", "999999937", "--degree", "2", "--oracle", "--format", "json"]
        code, text = run(argv)
        assert code == 0
        (record,) = json.loads(text)
        assert record["connection_set"] == [1, 999999936]
        assert record["frobenius"] is True
        assert capsys.readouterr().err == ""


INTS = st.lists(st.integers(), max_size=6)
INT_LIST = INTS | INTS.map(tuple)  # the writers print a tuple as a list, as json.dumps does
CLASS_RECORD = st.fixed_dictionaries(
    {
        "n": st.integers(),
        "d": st.integers(),
        "m_vector": INT_LIST,
        "h": st.integers(min_value=-(10**30), max_value=10**30),
        "h_signed": st.text(),
        "connection_set": INT_LIST,
        "connection_pairs": INT_LIST,
        "rotational": st.booleans(),
        "frobenius": st.booleans(),
        "gossip_bound": st.integers(),
    }
)
QUOTED = {
    "n": -7,
    "d": 0,
    "m_vector": [],
    "h": 10**40,
    "h_signed": 'a"b\\c\u00e9\u2203\U0001d4b5\n\t',
    "connection_set": (-1, 0, 10**25),
    "connection_pairs": [],
    "rotational": True,
    "frobenius": False,
    "gossip_bound": -(10**20),
}


@given(st.lists(CLASS_RECORD, max_size=4))
@example([])
@example([QUOTED])
def test_json_writer_matches_json_dumps(records):
    # a list, and an iterator, which is true even when it is empty
    for drawn in (records, iter(records)):
        out = io.StringIO()
        cli.render_records(drawn, "json", out)
        assert out.getvalue() == json.dumps(records, indent=2) + "\n"


FORMATS = ("table", "json", "csv")


def first_record_written(text, fmt):
    """What a streaming writer has written of `text`, the whole output in
    `fmt`, once it has written the first record."""
    if fmt == "json":
        return json.dumps(json.loads(text)[:1], indent=2)[: -len("\n]")]
    return "".join(text.splitlines(keepends=True)[:2])  # the header and one row


class TestStream:
    """classify holds one class at a time: each record is written before the
    next class's S is walked, and no class keeps its S."""

    @staticmethod
    def traced_peak(argv):
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as sink:
                assert main(argv, out=sink) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_peak_is_that_of_the_largest_class(self, fmt):
        # p - 1 = 55440 has 96 even divisors, one class each; S sums to 224,640
        # elements over all of them, against 55,440 for the largest alone
        largest = self.traced_peak(["classify", "55441", "--degree", "55440", "--format", fmt])
        every = self.traced_peak(["classify", "55441", "--format", fmt])
        assert every < 1.5 * largest, (every, largest)

    @staticmethod
    def spy_walks(monkeypatch, events, fail_at=None):
        """Log each walk of S in `events`; the walk number `fail_at` raises
        MemoryError."""
        walk = classifier.subgroup_of

        def spy(h, n):
            events.append(("walk", h))
            if sum(kind == "walk" for kind, _ in events) == fail_at:
                raise MemoryError
            return walk(h, n)

        monkeypatch.setattr(classifier, "subgroup_of", spy)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_first_record_written_before_the_second_walk(self, monkeypatch, fmt):
        _, text = run(["classify", "91", "--format", fmt])  # three classes
        events = []
        self.spy_walks(monkeypatch, events)

        class Out(io.StringIO):
            def write(self, s):
                events.append(("write", s))
                return super().write(s)

        assert main(["classify", "91", "--format", fmt], out=Out()) == 0
        second_walk = [e for e in events if e[0] == "walk"][1]
        before = "".join(s for kind, s in events[: events.index(second_walk)] if kind == "write")
        assert before == first_record_written(text, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_failure_after_the_first_record(self, monkeypatch, capsys, fmt):
        _, text = run(["classify", "91", "--format", fmt])
        self.spy_walks(monkeypatch, [], fail_at=2)
        code, written = run(["classify", "91", "--format", fmt])
        assert code == 2
        assert capsys.readouterr().err == "error: out of memory: allocation failed\n"
        # the table writes nothing until every row is rendered
        assert written == ("" if fmt == "table" else first_record_written(text, fmt))

    def test_closed_pipe_exits_141_without_a_traceback(self):
        argv = [sys.executable, "-m", "frobcirc.cli", "classify", "999983", "--format", "csv"]
        env = {**os.environ, "PYTHONPATH": SRC}
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            assert proc.stdout.read(100).startswith(b"n,d,m_vector")
            proc.stdout.close()  # the 3.4 MB CSV fills the pipe long before its end
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert code == 141
        assert "Traceback" not in err and "Exception ignored" not in err


class TestVerify:
    def test_tl19(self):
        code, text = run(["verify", "19", "1,7,8,11,12,18"])
        assert code == 0
        assert "connected: yes" in text
        assert "[8, 12]" in text
        assert "rotational first-kind Frobenius: yes" in text
        assert "exact value 3" in text

    def test_not_rotational(self):
        code, text = run(["verify", "8", "1,2,6,7"])
        assert code == 0
        assert "complete rotations: none" in text
        assert "rotational first-kind Frobenius: no" in text

    def test_disconnected(self):
        code, text = run(["verify", "27", "3,6,9,12,15,18,21,24"])
        assert code == 1
        assert "connected: no" in text

    def test_malformed_set(self):
        code, _ = run(["verify", "19", "1,x,18"])
        assert code == 2

    def test_asymmetric_set(self):
        code, _ = run(["verify", "19", "1,2"])
        assert code == 2

    @pytest.mark.parametrize("n", ["0", "-5", "2"])
    def test_modulus_refused_before_the_set(self, capsys, n):
        # the modulus is named, not an entry of S that no modulus below 3 admits
        code, _ = run(["verify", n, "1"])
        assert code == 2
        assert capsys.readouterr().err == f"error: modulus {n} must be >= 3\n"

    @pytest.mark.parametrize(
        "argv, reported",
        [
            (["verify", "19", "1,7,8,11,12,18"], [(19, 8)]),
            (["verify", "27", "1,8,10,17,19,26"], [(27, 8)]),  # 8 has fixed points
        ],
    )
    def test_each_rotation_reported_once(self, report_calls, argv, reported):
        # one order_steps call per query, the certificate's: it tests the
        # order of the rotation and reads its steps (find_all_rotations
        # filters T by its own cofactor powers)
        code, _ = run(argv)
        assert code == 0
        assert report_calls == reported

    @pytest.mark.parametrize(
        "argv, misses",
        [
            # |S| = 6, factored by find_all_rotations; the certificate's
            # order test reads it from the cache
            (["verify", "19", "1,7,8,11,12,18"], 1),
            (["verify", "27", "1,8,10,17,19,26"], 1),
            # 1009 * 2017: n, its 24 admissible degrees and phi(2017) = 2016;
            # phi(1009) = 1008 is a degree
            (["classify", "2035153", "--format", "csv"], 26),
        ],
    )
    def test_degree_factored_once(self, argv, misses):
        factorize.cache_clear()
        code, _ = run(argv)
        assert code == 0
        assert factorize.cache_info().misses == misses


class TestGamma:
    def test_cut_instance(self):
        code, text = run(["gamma", "3", "3", "1"])
        assert code == 0
        assert "F IS a vertex-cut" in text
        assert "witness: vertex 4" in text

    def test_non_cut_instance(self):
        code, text = run(["gamma", "3", "3", "0"])
        assert code == 0
        assert "NOT a vertex-cut" in text
        assert "gossip bound 2" in text

    def test_counterexample_family(self):
        code, text = run(["gamma", "3", "5", "1"])
        assert code == 0
        assert "F IS a vertex-cut" in text

    def test_bad_exponent(self):
        code, _ = run(["gamma", "3", "2", "0"])
        assert code == 2

    def test_out_of_memory_exits_2(self, monkeypatch, capsys):
        # gamma 3 10 0 once asked numpy for 11.5 GiB and ended in a traceback
        def no_memory(*args):
            raise MemoryError("Unable to allocate 11.5 GiB")

        monkeypatch.setattr(_kernels, "bfs_distances", no_memory)
        code, text = run(["gamma", "3", "4", "0"])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 11.5 GiB\n"

    @pytest.mark.parametrize("r", ["0", "1"])
    def test_q_59049(self, r):
        # once out of memory: the BFS asked numpy for 11.5 GiB
        code, text = run(["gamma", "3", "10", r])
        assert code == 0
        assert text.endswith("dichotomy (vertex-cut iff r >= 1): ok\n")

    def test_q_above_limit(self, monkeypatch, capsys):
        monkeypatch.setattr(gamma, "Circulant", None)  # never built
        code, text = run(["gamma", "127", "3", "0"])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == (
            "error: q = 127^3 exceeds the supported limit 2000000\n"
        )

    def test_composite_p(self, capsys):
        code, text = run(["gamma", "9", "3", "0"])
        assert code == 2
        assert text == ""
        assert "odd prime" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["gamma", "1000000007", "3", "0"],
                "q = 1000000007^3 exceeds the supported limit 2000000",
            ),
            (["gamma", "1000000007", "1", "0"], "e = 1; the family needs e >= 3"),
        ],
    )
    def test_large_p_refused_before_factoring(self, monkeypatch, capsys, argv, message):
        # p is factored last, once q <= SEARCH_LIMIT bounds it: a large p is
        # refused for its e or its q, not for the factoring cap
        def refused(*args):
            raise AssertionError("p factored")

        monkeypatch.setattr(gamma, "factorize", refused)
        code, text = run(argv)
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == f"error: {message}\n"


class TestHarts:
    def test_k3(self):
        code, text = run(["harts", "3"])
        assert code == 0
        assert "multiplication by 9" in text
        assert "mesh diameter: 2" in text
        assert "diameter 2" in text  # TL_19 has diameter 2

    def test_k2_note(self):
        code, text = run(["harts", "2"])
        assert code == 0
        assert "K_7" in text

    def test_k1_error(self):
        code, _ = run(["harts", "1"])
        assert code == 2


def run_in_process(argv):
    """(exit code, stdout, stderr) of main(argv) in this interpreter."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_fresh(args):
    """(exit code, stdout, stderr) of `python *args` in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    def test_parser_built_once_and_not_at_import(self):
        assert build_parser() is build_parser()
        code, out, _ = run_fresh(
            ["-c", "import frobcirc.cli as c; print(c.build_parser.cache_info().currsize)"]
        )
        assert (code, out) == (0, "0\n")

    def test_mixed_sequence_matches_fresh_processes(self):
        sequence = [
            ["classify", "91", "--format", "json"],
            ["verify", "19", "1,7,8,11,12,18"],
            ["classify", "x"],  # argparse: not an integer
            ["gamma", "9", "3", "0"],  # composite p
            ["harts", "3"],
            ["verify", "19"],  # argparse: missing connection set
            ["frobnicate"],  # argparse: unknown subcommand
            ["classify", "91", "--format", "csv", "--degree", "6"],
            ["verify", "8", "1,2,6,7"],
            ["gamma", "3", "3", "1"],
            ["classify", "91"],
        ]
        for argv in sequence:
            assert run_in_process(argv) == run_fresh(["-m", "frobcirc.cli", *argv]), argv


GOLDEN_BY_ARGV = {tuple(r["argv"]): r for r in GOLDEN}

# Runs main on each argv of the JSON list in sys.argv[1]; prints, as JSON,
# whether numpy was loaded after the import and after each query, and each
# query's (exit code, stdout, stderr).
NUMPY_PROBE = """
import contextlib, io, json, sys
import frobcirc.cli as cli
loaded, runs = ["numpy" in sys.modules], []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv, out=out)
    loaded.append("numpy" in sys.modules)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps([loaded, runs]))
"""


def numpy_probe(queries):
    code, out, err = run_fresh(["-c", NUMPY_PROBE, json.dumps(queries)])
    assert code == 0, err
    return json.loads(out)


class TestNumpyOnFirstUse:
    """numpy loads with the first array kernel, never at import: `harts`,
    `classify` with or without the oracle and `verify` with an empty fixed
    point set run no kernel."""

    TL300 = ["verify", "270901", "1,901,902,269999,270000,270900"]
    PRIME = ["verify", "100000007", "1,100000006"]
    FORMATS = ("table", "json", "csv")

    def test_closed_form_commands_never_load_numpy(self):
        golden = [
            ["harts", "5"],
            self.TL300,
            ["classify", "91", "--format", "table"],
            ["classify", "2039", "--oracle"],
            ["verify", "18446744073709551617", "1,18446744073709551616"],  # n is never factored
        ]
        classify = [["classify", "6253", "--no-oracle", "--format", f] for f in self.FORMATS]
        queries = [*golden, self.PRIME, *classify]
        loaded, runs = numpy_probe(queries)
        assert loaded == [False] * (len(queries) + 1)
        for argv, got in zip(golden, runs):
            want = GOLDEN_BY_ARGV[tuple(argv)]
            assert got == [want["code"], want["stdout"], want["stderr"]], argv
        prime = runs[len(golden)]
        assert prime[0] == 0
        assert "fixed points of 100000006: empty\n" in prime[1]
        assert prime[1].endswith("gossip certificate: holds, exact value 50000003\n")
        for f, got in zip(self.FORMATS, runs[len(golden) + 1 :]):
            # the golden records let the oracle switch itself off, with a warning
            want = GOLDEN_BY_ARGV[("classify", "6253", "--format", f)]
            assert got == [want["code"], want["stdout"], ""], f

    # verify 8 1,7: the rotation 7 fixes 4, so the certificate runs the kernels
    @pytest.mark.parametrize("argv", [["gamma", "7", "4", "0"], ["verify", "8", "1,7"]])
    def test_array_kernels_load_numpy(self, argv):
        loaded, runs = numpy_probe([argv])
        assert loaded == [False, True]
        assert runs == [list(run_in_process(argv))]


def test_golden_records_match_capture_list():
    # a query added to capture.py without re-recording fails here
    path = os.path.join(os.path.dirname(__file__), "golden", "capture.py")
    spec = importlib.util.spec_from_file_location("capture", path)
    capture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(capture)
    assert [r["argv"] for r in GOLDEN] == capture.QUERIES


@pytest.mark.parametrize("record", GOLDEN, ids=lambda r: " ".join(r["argv"]))
def test_golden_output_is_byte_identical(record):
    assert run_in_process(record["argv"]) == (record["code"], record["stdout"], record["stderr"])
