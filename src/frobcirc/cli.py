"""Command-line front end.

Subcommands:
  classify N   enumerate all rotational first-kind Frobenius circulants on Z_N
  verify N S   analyze an explicit circulant given by its connection set
  gamma P E R  run the prime-power family dichotomy report
  harts K      hexagonal-mesh report and its TL isomorphism

Exit codes: 0 success, 1 legitimately empty result, 2 input error, 141 the
reader closed stdout.
"""

import argparse
import csv
import functools
import json
import os
import sys
from bisect import bisect_left
from math import gcd

from . import _kernels  # noqa: F401  perfbench/worker.py reports cli._kernels.BACKEND
from .circulant import Circulant
from .classifier import (
    admissible_degrees,
    all_classes,
    enumerate_classes,
    verify_first_kind_frobenius,
)
from .errors import FrobcircError
from .gamma import verify_theorem_q
from .harts import harts_graph, harts_iso_tl, tl_diameter, tl_graph
from .numtheory import factorize
from .rotation import find_all_rotations, gossip_certificate

ORACLE_AUTO_LIMIT = 2000


def signed_form(h: int, n: int) -> str:
    """Table-style display: residues above n/2 shown as -[n-h]."""
    return f"-[{n - h}]" if h > n // 2 else f"+[{h}]"


def class_record(c, oracle: bool) -> dict:
    """The output record of one class.

    `rotational` is the report's `regular_on_s`: when h has order d, S = <h>
    is the single <h>-orbit of 1, so multiplication by h maps S onto itself
    in one d-cycle, and h is a complete rotation of the degree-d graph.
    """
    report = verify_first_kind_frobenius(c)
    n, S = c.n, c.subgroup
    frobenius = report.ok
    if oracle:
        # a unit x fixes some v != 0 mod n (x v = v) iff gcd(x - 1, n) > 1
        frobenius = frobenius and all(gcd(x - 1, n) == 1 for x in S if x != 1)
    return {
        "n": n,
        "d": c.d,
        "m_vector": c.m_vector,
        "h": c.h,
        "h_signed": signed_form(c.h, n),
        "connection_set": S,
        # n is odd, so exactly one of s and n - s is below n / 2; S is sorted
        "connection_pairs": S[: bisect_left(S, (n + 1) // 2)],
        "rotational": report.regular_on_s,
        "frobenius": frobenius,
        "gossip_bound": (n - 1) // c.d,
    }


CLASS_COLUMNS = [
    "n",
    "d",
    "m_vector",
    "h",
    "h_signed",
    "connection_pairs",
    "rotational",
    "frobenius",
    "gossip_bound",
]


SEQUENCES = (list, tuple)  # the writers print both as lists, as json.dumps does


def _write_json(records, out) -> None:
    """Write json.dumps(list(records), indent=2) and a newline to `out`, one
    record at a time, for flat records whose lists hold ints: each int list
    is joined in one step, and ints and bools are written directly.  The
    keys, CLASS_COLUMNS and connection_set, are plain ASCII names, which
    json.dumps quotes as they are."""
    sep = "["
    for rec in records:
        fields = []
        for key, value in rec.items():
            if value is True or value is False:
                value = "true" if value else "false"
            elif type(value) is int:
                value = str(value)
            elif not isinstance(value, SEQUENCES):
                value = json.dumps(value)
            elif value:
                value = "[\n      " + ",\n      ".join(map(str, value)) + "\n    ]"
            else:
                value = "[]"
            fields.append(f'    "{key}": ' + value)
        out.write(sep + "\n  {\n" + ",\n".join(fields) + "\n  }")
        sep = ","
    out.write("\n]\n" if sep == "," else "[]\n")


def render_records(records, fmt: str, out) -> None:
    """Write `records`, any iterable of class records, to `out` as `fmt`: JSON
    and CSV one at a time, the table, whose widths span all rows, once every
    row is rendered to strings."""
    if fmt == "json":
        _write_json(records, out)
        return
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CLASS_COLUMNS)
        for rec in records:
            writer.writerow(
                [
                    ",".join(map(str, rec[col])) if isinstance(rec[col], SEQUENCES) else rec[col]
                    for col in CLASS_COLUMNS
                ]
            )
        return
    # table
    rows = [
        [
            str(rec[col])
            if not isinstance(rec[col], SEQUENCES)
            else "(" + ", ".join(map(str, rec[col])) + ")"
            for col in CLASS_COLUMNS
        ]
        for rec in records
    ]
    widths = [max(map(len, column)) for column in zip(CLASS_COLUMNS, *rows)]
    for r in [CLASS_COLUMNS, *rows]:
        out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def cmd_classify(args, out) -> int:
    n = args.n
    if n < 3:
        print(f"error: n = {n} must be >= 3", file=sys.stderr)
        return 2
    if n % 2 == 0:
        print(
            f"no classes: the kernel Z_{n} of a first-kind Frobenius circulant must be odd",
            file=sys.stderr,
        )
        return 1
    f = factorize(n)
    if args.degree is not None and args.degree not in admissible_degrees(f):
        print(
            f"no classes: degree {args.degree} is not an even divisor of D for n = {n}",
            file=sys.stderr,
        )
        return 1
    classes = all_classes(f) if args.degree is None else enumerate_classes(f, args.degree)
    oracle = args.oracle
    if oracle is None:
        oracle = n <= ORACLE_AUTO_LIMIT
        if not oracle:
            print(
                f"warning: n = {n} > {ORACLE_AUTO_LIMIT}; brute-force oracle disabled "
                "(pass --oracle to force)",
                file=sys.stderr,
            )
    render_records((class_record(c, oracle) for c in classes), args.format, out)
    return 0


def parse_conn(text: str, n: int) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    conn = []
    for i, p in enumerate(parts):
        try:
            v = int(p)
        except ValueError:
            raise FrobcircError(f"connection set entry {i + 1} ({p!r}) is not an integer")
        if not 1 <= v < n:
            raise FrobcircError(f"connection set entry {i + 1} ({v}) outside [1, {n})")
        conn.append(v)
    return tuple(conn)


def cmd_verify(args, out) -> int:
    n = args.n
    if n < 3:  # before parse_conn, which would blame an entry of S
        raise ValueError(f"modulus {n} must be >= 3")
    g = Circulant(n, parse_conn(args.conn, n))
    lines = [f"graph: Cay(Z_{n}, {{{', '.join(map(str, g.conn))}}}), degree {g.degree}"]
    if not g.is_connected():
        lines.append("connected: no")
        out.write("\n".join(lines) + "\n")
        print("error: the graph is disconnected; no rotation analysis possible", file=sys.stderr)
        return 1
    lines.append("connected: yes")
    rotations = find_all_rotations(g)
    lines.append(f"complete rotations: {rotations if rotations else 'none'}")
    cert = gossip_certificate(g, rotations[0]) if rotations else None
    # yes when the rotations have no fixed points: the graph is connected, so
    # every rotation generates the same T = S s0^(-1) and has the same F
    frobenius = cert is not None and cert.exact
    lines.append(f"rotational first-kind Frobenius: {'yes' if frobenius else 'no'}")
    if cert is not None:
        lines.append(f"fixed points of {cert.w}: {list(cert.fixed) if cert.fixed else 'empty'}")
        if cert.holds:
            kind = "exact value" if cert.exact else "bound"
            lines.append(f"gossip certificate: holds, {kind} {cert.bound}")
        else:
            lines.append(
                "gossip certificate: fails "
                f"(independent={cert.independent}, vertex_cut={cert.vertex_cut})"
            )
    out.write("\n".join(lines) + "\n")
    return 0


def cmd_gamma(args, out) -> int:
    report = verify_theorem_q(args.p, args.e, args.r)
    spec = report.spec
    lines = [
        f"Gamma_({spec.q},{spec.r}): p={spec.p} e={spec.e} r={spec.r}, "
        f"h={spec.h}, degree {spec.degree}",
        f"degree check: {'ok' if report.degree_ok else 'FAIL'}",
        f"connection closed form: {'ok' if report.closed_form_ok else 'FAIL'}",
        f"fixed set = nonzero multiples of {spec.p}: "
        f"{'ok' if report.fixed_formula_ok else 'FAIL'} "
        f"(size {spec.p ** (spec.e - 1) - 1})",
        f"fixed set independent: {'yes' if report.independent else 'NO'}",
    ]
    if report.vertex_cut:
        lines.append(
            f"F IS a vertex-cut; witness: vertex {report.witness} unreachable from 0 in Gamma - F"
        )
    else:
        lines.append(f"F is NOT a vertex-cut; gossip bound {report.gossip_bound}")
    lines.append(f"dichotomy (vertex-cut iff r >= 1): {'ok' if report.dichotomy_ok else 'FAIL'}")
    out.write("\n".join(lines) + "\n")
    return 0 if report.ok else 1


def cmd_harts(args, out) -> int:
    k = args.k
    mesh = harts_graph(k)
    tl = tl_graph(k - 1) if k > 2 else None
    sigma = harts_iso_tl(k)
    # the mesh is TL_{n_{k-1}} under sigma, so both diameters are k - 1
    diameter = tl_diameter(k - 1)
    lines = [
        f"hexagonal mesh of size {k}: {mesh.n} vertices, "
        f"connection set {{{', '.join(map(str, mesh.conn))}}}",
        f"isomorphic to TL_{mesh.n} via multiplication by {sigma}",
        f"mesh diameter: {diameter}",
    ]
    if k == 2:
        lines.append("note: the size-2 mesh is the complete graph K_7")
    if tl is not None:
        lines.append(
            f"TL_{tl.n} connection set {{{', '.join(map(str, tl.conn))}}}, diameter {diameter}"
        )
    out.write("\n".join(lines) + "\n")
    return 0


@functools.cache  # built on the first call, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobcirc",
        description="Rotational first-kind Frobenius circulants: classification and certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="enumerate all classes for kernel Z_n")
    p_classify.add_argument("n", type=int)
    p_classify.add_argument("--degree", type=int, default=None)
    p_classify.add_argument("--format", choices=["table", "json", "csv"], default="table")
    group = p_classify.add_mutually_exclusive_group()
    group.add_argument("--oracle", dest="oracle", action="store_true", default=None)
    group.add_argument("--no-oracle", dest="oracle", action="store_false")
    p_classify.set_defaults(func=cmd_classify)

    p_verify = sub.add_parser("verify", help="analyze Cay(Z_n, S) for an explicit S")
    p_verify.add_argument("n", type=int)
    p_verify.add_argument("conn", help="comma-separated residues, e.g. 1,7,8,11,12,18")
    p_verify.set_defaults(func=cmd_verify)

    p_gamma = sub.add_parser("gamma", help="prime-power family vertex-cut dichotomy")
    p_gamma.add_argument("p", type=int)
    p_gamma.add_argument("e", type=int)
    p_gamma.add_argument("r", type=int)
    p_gamma.set_defaults(func=cmd_gamma)

    p_harts = sub.add_parser("harts", help="hexagonal mesh report")
    p_harts.add_argument("k", type=int)
    p_harts.set_defaults(func=cmd_harts)
    return parser


def main(argv=None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    try:
        code = args.func(args, out)
        out.flush()  # a closed pipe raises here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): exit as SIGPIPE would, with
        # stdout pointed at devnull so the flush at shutdown raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:  # FrobcircError subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
