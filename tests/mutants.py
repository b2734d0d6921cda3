"""Mutation catalogue: each entry breaks one fast path or check of frobcirc
and names the tests that must then fail.

    python tests/mutants.py                    # every mutant
    python tests/mutants.py translate_any_all  # some, by name

First the named tests run on the unchanged sources, and must pass.  Then
each mutant replaces one exact snippet, found exactly once, in a copy of
`src/` and `tests/` in a temporary directory, and runs its tests there in a
child process, under a timeout and an address-space limit: a mutant that
lifts a cap can allocate without bound.  A mutant is killed when every test
it names fails and nothing else does.  The exit status is 1 when a mutant
survives (its tests pass), is killed for the wrong reason (a named test
passes, or another test or a fixture fails), times out or cannot be applied.

The file name does not start with `test_`, so pytest does not collect it.
"""

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 300
ADDRESS_SPACE_BYTES = 4 * 2**30


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


NUMTHEORY = "src/frobcirc/numtheory.py"
ROTATION = "src/frobcirc/rotation.py"
CLASSIFIER = "src/frobcirc/classifier.py"
KERNELS = "src/frobcirc/_kernels.py"
CLI = "src/frobcirc/cli.py"
T_ROTATION = "tests/test_rotation.py"
T_KERNELS = "tests/test_kernels.py"
T_CLI = "tests/test_cli.py"
HAS_ORDER = "tests/test_numtheory.py::TestHasOrder::test_every_unit_and_divisor_of_phi_below_200"
ORBIT_WALK = T_ROTATION + "::TestFixedSteps::test_against_the_orbit_walk_below_120"

MUTANTS = [
    Mutant(
        "order_steps_without_power_d",
        NUMTHEORY,
        "if pow(x, d, n) != 1:\n        return None",
        "if False:\n        return None",
        (HAS_ORDER,),
    ),
    Mutant(
        "order_steps_without_order_check",
        NUMTHEORY,
        "return None if 1 in steps else tuple(",
        "return tuple(",
        (HAS_ORDER,),
    ),
    Mutant(
        "order_steps_cofactor",
        NUMTHEORY,
        "{n // gcd(n, pow(x, d // l, n) - 1) for l in factorize(d).primes}",
        "{gcd(n, pow(x, d // l, n) - 1) for l in factorize(d).primes}",
        (HAS_ORDER, ORBIT_WALK),
    ),
    Mutant(
        "order_steps_smallest_prime_only",
        NUMTHEORY,
        "factorize(d).primes}",
        "factorize(d).primes[:1]}",
        (HAS_ORDER,),
    ),
    Mutant(
        # no memo: a query factors a number each time it meets it
        "factorize_unshared",
        NUMTHEORY,
        "@lru_cache\ndef factorize(",
        "def factorize(",
        (
            "tests/test_numtheory.py::TestFactorize::test_memo_keeps_python_ints",
            T_CLI + "::TestVerify::test_degree_factored_once",
        ),
    ),
    Mutant(
        "primitive_root_modulus_p",
        NUMTHEORY,
        "order_steps(eta, phi, m)",
        "order_steps(eta, phi, p)",
        ("tests/test_numtheory.py::TestPrimitiveRoot::test_generates_full_unit_group",),
    ),
    Mutant(
        "complete_rotation_modulus_n",
        ROTATION,
        "order_steps(w, g.degree, n // gcd(conn[0], n))",
        "order_steps(w, g.degree, n)",
        (f"{T_ROTATION}::TestIsCompleteRotation::test_every_symmetric_set_and_unit_up_to_14",),
    ),
    Mutant(
        "complete_rotation_degree_of_the_walk",
        ROTATION,
        "order_steps(w, g.degree, n // gcd(conn[0], n))",
        "order_steps(w, g.degree - 1, n // gcd(conn[0], n))",
        (f"{T_ROTATION}::TestIsCompleteRotation::test_every_symmetric_set_and_unit_up_to_14",),
    ),
    Mutant(
        # the certificate reads its steps mod n again instead of taking the
        # rotation check's, read mod n / gcd(s0, n): a second order test per
        # verify query (the factoring it repeats is a cache hit)
        "certificate_steps_recomputed_mod_n",
        ROTATION,
        "rep = RotationReport(g.n, w % g.n, g.degree, steps)",
        "rep = rotation_report(g.n, w, g.degree)",
        (f"{T_ROTATION}::TestGossipCertificate::test_one_report_and_w_read_mod_n",),
    ),
    Mutant(
        "report_order_unchecked",
        ROTATION,
        "if steps is None:\n        raise ValueError(",
        "if False:\n        raise ValueError(",
        (f"{T_ROTATION}::TestRotationReport::test_order_is_checked_not_computed",),
    ),
    Mutant(
        "frobenius_regular_without_power_d",
        CLASSIFIER,
        "regular_on_s=steps is not None,",
        "regular_on_s=all(pow(h, d // l, n) != 1 for l in factorize(d).primes),",
        ("tests/test_classifier.py::TestVerify::test_subgroup_not_generated_by_h_fails",),
    ),
    Mutant(
        "frobenius_semiregular_read_through_d",
        CLASSIFIER,
        "semiregular=steps == (),",
        "semiregular=not steps,",
        ("tests/test_classifier.py::TestVerify::test_subgroup_not_generated_by_h_fails",),
    ),
    Mutant(
        "gamma_degree_modulus_q_over_p",
        "src/frobcirc/gamma.py",
        "order_steps(h, deg, q)",
        "order_steps(h, deg, q // p)",
        ("tests/test_gamma.py::TestDichotomy::test_vertex_cut_iff_r_positive",),
    ),
    Mutant(
        "fixed_points_handed_as_tuple",
        ROTATION,
        "invariant_set_independent(g, rep.fixed_array)",
        "invariant_set_independent(g, rep.fixed)",
        (f"{T_ROTATION}::TestGossipCertificate::test_fixed_points_built_and_read_once",),
    ),
    Mutant(
        "translate_any_all",
        ROTATION,
        "[(vs + g.conn[0]) % g.n].any()",
        "[(vs + g.conn[0]) % g.n].all()",
        (
            f"{T_ROTATION}::TestInvariantSetIndependent"
            "::test_every_rotation_with_fixed_points_below_160",
        ),
    ),
    Mutant(
        "bfs_without_early_stop",
        KERNELS,
        "while frontier.size and left:",
        "while frontier.size:",
        (T_KERNELS + "::test_bfs_stops_once_every_survivor_is_reached",),
    ),
    Mutant(
        "disconnected_lifts_uncapped",
        ROTATION,
        "if k > 1 and n > SEARCH_LIMIT:",
        "if k > 1 and n > 10 * SEARCH_LIMIT:",
        (f"{T_ROTATION}::TestFindAllRotations::test_lifts_of_a_disconnected_graph_are_capped",),
    ),
    Mutant(
        "mask_without_search_limit",
        "src/frobcirc/circulant.py",
        "self._require_search()\n        mask = np.zeros",
        "mask = np.zeros",
        ("tests/test_circulant.py::TestSearchLimit::test_refused_before_any_allocation",),
    ),
    Mutant(
        "certificate_of_a_disconnected_graph",
        ROTATION,
        "if not g.is_connected():\n        raise Disconnected(\"gossip certificate",
        "if False:\n        raise Disconnected(\"gossip certificate",
        (f"{T_ROTATION}::TestGossipCertificate::test_disconnected_graph_raises",),
    ),
    Mutant(
        "spectrum_per_dense_level",
        KERNELS,
        "if spectrum is None:",
        "if True:",
        ("tests/test_gamma.py::TestDichotomy::test_one_spectrum_per_search",),
    ),
    Mutant(
        "sparse_step_keeps_every_sum",
        KERNELS,
        "sums = sums[keep[sums]]",
        "sums = sums",
        (T_KERNELS + "::test_step_keeps_a_proper_subset", T_KERNELS + "::test_bfs_agreement"),
    ),
    Mutant(
        "switch_strict",
        KERNELS,
        "members.size * conn.size <= DENSE_RATIO * n",
        "members.size * conn.size < DENSE_RATIO * n",
        (T_KERNELS + "::test_sumset_switch", T_KERNELS + "::test_bfs_switch"),
    ),
    Mutant(
        # every vertex of F + S kept, so any nonempty F reads as not independent
        "independence_keeps_every_vertex",
        "src/frobcirc/circulant.py",
        "_step(self.n, np.array(self.conn, np.int64), vs, mask)",
        "_step(self.n, np.array(self.conn, np.int64), vs, mask | True)",
        (
            "tests/test_circulant.py::TestIndependentSet::test_fixed_points_of_gamma_27_0",
            "tests/test_circulant.py::TestIndependentSet::test_gamma_multiples_of_p",
        ),
    ),
    Mutant(
        # the golden `classify 999999937` is still refused (999999936 > 2 * 10**7),
        # so only a degree between the cap and ten times the cap sees this
        "degree_limit_tenfold",
        CLASSIFIER,
        "if degrees[-1] > SEARCH_LIMIT:",
        "if degrees[-1] > 10 * SEARCH_LIMIT:",
        ("tests/test_classifier.py::TestEnumerate::test_smallest_degree_above_the_limit",),
    ),
    Mutant(
        # the parity-and-divisibility test: D % d is 0 at d = -2, and d = 0 divides by zero
        "admissible_by_divisibility",
        CLASSIFIER,
        "if d not in admissible_degrees(f):",
        "if d % 2 != 0 or max_degree_D(f) % d != 0:",
        ("tests/test_classifier.py::TestConstructH::test_degree_not_positive",),
    ),
    Mutant(
        "subgroup_cached",
        CLASSIFIER,
        "@property\n    def subgroup(",
        "@__import__(\"functools\").cached_property\n    def subgroup(",
        (T_CLI + "::TestStream::test_peak_is_that_of_the_largest_class",),
    ),
    Mutant(
        # `classify 91 extra` runs instead of exiting 2
        "dispatch_drops_extra_arguments",
        CLI,
        "if extra:\n            parser.error(",
        "if False:\n            parser.error(",
        (T_CLI + "::TestDispatch::test_matches_the_top_level_parser",),
    ),
    Mutant(
        # same output, but every query is parsed twice
        "dispatch_through_top_level",
        CLI,
        "command = commands.get(argv[0]) if argv else None",
        "command = None",
        (T_CLI + "::TestDispatch::test_known_command_skips_the_top_level_parse",),
    ),
]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def _is_run_of(node: str, test: str) -> bool:
    """Is the reported node id `node` the test id `test`, or one of its
    parametrized cases?"""
    return node == test or node.startswith(test + "[")


def run_tests(root: str, tests) -> tuple[str, float]:
    """The verdict on the tests run in `root`, and the seconds they took:
    'passed', 'failed' (each of `tests` failed and nothing else did), 'failed
    for the wrong reason: ...', 'timeout' or 'error (exit N)'."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=TIMEOUT_S,
            preexec_fn=_limit_address_space,
        )
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if proc.returncode != 1:
        return {0: "passed"}.get(proc.returncode, f"error (exit {proc.returncode})"), seconds
    # the short summary: one "FAILED <node id> - <message>" or "ERROR ..." line each
    reported = re.findall(r"^(FAILED|ERROR) (.+?)(?: - .*)?$", proc.stdout, re.MULTILINE)
    failed = [node for kind, node in reported if kind == "FAILED"]
    wrong = [f"{t} did not fail" for t in tests if not any(_is_run_of(f, t) for f in failed)]
    wrong += [
        f"{kind} {node}"
        for kind, node in reported
        if kind == "ERROR" or not any(_is_run_of(node, t) for t in tests)
    ]
    if wrong:
        return "failed for the wrong reason: " + "; ".join(wrong), seconds
    return "failed", seconds


def run_mutant(m: Mutant) -> tuple[str, float]:
    with tempfile.TemporaryDirectory(prefix="frobcirc-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(
                os.path.join(ROOT, part),
                os.path.join(tmp, part),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        # the same pytest configuration, so node ids read as they do in ROOT
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        path = os.path.join(tmp, m.path)
        with open(path) as f:
            text = f.read()
        if text.count(m.snippet) != 1:
            return f"snippet found {text.count(m.snippet)} times", 0.0
        with open(path, "w") as f:
            f.write(text.replace(m.snippet, m.replacement))
        return run_tests(tmp, m.tests)


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    tests = sorted({t for m in chosen for t in m.tests})
    verdict, seconds = run_tests(ROOT, tests)
    print(f"unmutated: {len(tests)} test ids {verdict} ({seconds:.1f} s)")
    if verdict != "passed":
        return 1
    missed = 0
    for m in chosen:
        verdict, seconds = run_mutant(m)
        killed = verdict == "failed"
        missed += not killed
        label = "killed    " if killed else "NOT KILLED"
        print(f"{label} {m.name}: tests {verdict} ({seconds:.1f} s)")
    print(f"{len(chosen) - missed} of {len(chosen)} mutants killed for the reason named")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
