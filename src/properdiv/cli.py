"""Command-line frontend.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error,
3 size guard tripped.  A command whose reader closes stdout before the
command is done stops there and exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys

from . import formulas
from .complexes import SimplicialComplex, order_complex
from .errors import SizeGuardError
from .homology import homology
from .posets import (
    Poset,
    _format_label,
    as_multidegree,
    boolean_lattice,
    proper_divisibility_poset,
    proper_product,
)
from .shellability import (
    _dual_lex_certificate,
    betti_from_falling_chains,
    falling_chains,
    search_rao,
    verify_rao,
)

# reference values: rank H_i of the order complexes of four Boolean proper products
REFERENCE_TABLE = (
    (2, 6, (15, 30, 40, 30, 13)),
    (2, 7, (17, 42, 70, 70, 42, 15)),
    (3, 6, (1, 1461, 1275, 705, 172)),
    (3, 7, (1, 3381, 3822, 2940, 1218, 232)),
)


class DescriptorError(ValueError):
    pass


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return as_multidegree(tok for tok in text.split(","))
    except (ValueError, TypeError) as exc:
        raise DescriptorError(f"bad multidegree {text!r}: {exc}") from None


def parse_descriptor(tokens) -> Poset:
    """Poset descriptors: ``pdiv a1,a2,...`` | ``bool n`` | ``prod A B`` | ``file path``.

    The two operands of ``prod`` are descriptors themselves, each passed as
    one (quoted) token.
    """
    tokens = list(tokens)
    poset, rest = _parse_prefix(tokens)
    if rest:
        raise DescriptorError(f"trailing descriptor tokens: {rest}")
    return poset


def _parse_prefix(tokens):
    if not tokens:
        raise DescriptorError("empty poset descriptor")
    kind = tokens[0]
    if kind == "pdiv":
        if len(tokens) < 2:
            raise DescriptorError("pdiv needs a multidegree, e.g. pdiv 3,3")
        return proper_divisibility_poset(_parse_vector(tokens[1])), tokens[2:]
    if kind == "bool":
        if len(tokens) < 2 or not tokens[1].lstrip("-").isdigit():
            raise DescriptorError("bool needs an integer, e.g. bool 6")
        return boolean_lattice(int(tokens[1])), tokens[2:]
    if kind == "file":
        if len(tokens) < 2:
            raise DescriptorError("file needs a path")
        try:
            with open(tokens[1], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DescriptorError(f"cannot read poset file: {exc}") from None
        return Poset.from_text(text), tokens[2:]
    if kind == "prod":
        if len(tokens) < 3:
            raise DescriptorError('prod needs two quoted descriptors, e.g. prod "bool 2" "bool 6"')
        left = parse_descriptor(shlex.split(tokens[1]))
        right = parse_descriptor(shlex.split(tokens[2]))
        return proper_product(left, right), tokens[3:]
    raise DescriptorError(f"unknown descriptor kind {kind!r}")


# -- subcommands --------------------------------------------------------------


def cmd_homology(args) -> int:
    if args.csv and args.torsion:
        raise DescriptorError(
            "homology --csv prints only Betti numbers; drop --csv or use --json for --torsion"
        )
    poset = parse_descriptor(args.descriptor)
    summary = homology(
        order_complex(poset), reduced=args.reduced, torsion=args.torsion
    )
    if args.json:
        print(json.dumps(summary.to_json_dict()))
        return 0
    if summary.empty_complex:
        print("empty complex (reduced homology is rank 1 in degree -1)")
        return 0
    label = "reduced" if summary.reduced else "non-reduced"
    if args.csv:
        print(",".join(str(x) for x in summary.betti))
    else:
        print(f"betti ({label}): " + " ".join(str(x) for x in summary.betti))
        if args.torsion:
            if any(summary.torsion):
                for i, t in enumerate(summary.torsion):
                    if t:
                        print(f"torsion in degree {i}: " + " ".join(map(str, t)))
            else:
                print("torsion: none")
    return 0


def cmd_table(args) -> int:
    rows = []
    all_match = True
    for i, j, expected in REFERENCE_TABLE:
        summary = homology(
            order_complex(proper_product(boolean_lattice(i), boolean_lattice(j))),
            reduced=False,
            torsion=False,
        )
        match = summary.betti == expected
        all_match &= match
        rows.append((f"B{i} xp B{j}", summary.betti, expected, match))
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "product": name,
                        "computed": list(got),
                        "expected": list(want),
                        "match": match,
                    }
                    for name, got, want, match in rows
                ]
            )
        )
    else:
        header = "non-reduced Betti ranks of the order complex"
        print(header)
        for name, got, want, match in rows:
            sep = "," if args.csv else " "
            got_s = sep.join(map(str, got))
            want_s = sep.join(map(str, want))
            flag = "yes" if match else "NO"
            print(f"{name:10} computed: {got_s:32} expected: {want_s:32} match: {flag}")
    return 0 if all_match else 1


def cmd_falling(args) -> int:
    if args.length is not None and args.length < 0:
        raise DescriptorError(f"--length must be at least 0, got {args.length}")
    if args.count_only:
        # counted per element, without walking a chain
        histogram = {
            i + 2: c
            for i, c in enumerate(betti_from_falling_chains(args.a, args.b))
            if c and args.length in (None, i + 2)
        }
        if args.json:
            print(json.dumps({str(k): v for k, v in histogram.items()}))
        else:
            for k, c in histogram.items():
                print(f"length {k}: {c}")
        return 0
    chains = falling_chains(args.a, args.b, length=args.length)
    if args.json:
        print(json.dumps([c.to_json_list() for c in chains]))
    else:
        for c in chains:
            print(" ".join(_format_label(e) for e in c.elements))
    return 0


def cmd_rao(args) -> int:
    if args.dual_lex is not None:
        if args.descriptor or args.search or args.dual:
            raise DescriptorError("rao --dual-lex takes no descriptor, --search or --dual")
        poset = proper_divisibility_poset(_parse_vector(args.dual_lex))
        cert = _dual_lex_certificate(poset)
        sys.stdout.writelines(cert.iterencode())
        ok, why = verify_rao(poset.dual(), cert)
        print(f"\nverified: {'true' if ok else 'false'}")
        if not ok:
            print(why, file=sys.stderr)
            return 1
        return 0
    if not args.search:
        raise DescriptorError("rao needs --search or --dual-lex")
    if not args.descriptor:
        raise DescriptorError("rao --search needs a poset descriptor")
    poset = parse_descriptor(args.descriptor)
    if args.dual:
        poset = poset.dual()
    cert = search_rao(poset)
    if cert is None:
        print("none")
    else:
        sys.stdout.writelines(cert.iterencode())
        print()
    return 0


def cmd_verify(args) -> int:
    a_max, b_max = args.a_max, args.b_max
    if not 2 <= a_max <= b_max:
        raise DescriptorError("need 2 <= a-max <= b-max")

    pairs = [(a, b) for a in range(2, a_max + 1) for b in range(a, b_max + 1)]
    failures = []
    lines = []

    def run(name, check):
        cases = 0
        first = None
        for a, b in pairs:
            problem = check(a, b)
            cases += 1
            if problem and first is None:
                first = (a, b, problem)
        if first is None:
            lines.append(f"pass  {name}  ({cases} cases)")
        else:
            a, b, problem = first
            lines.append(f"FAIL  {name}  first counterexample (a={a}, b={b}): {problem}")
            failures.append(name)

    def check_oracle(a, b):
        # through the checked constructor, which keeps no certified Betti
        # numbers: the ranks come from reducing all of its faces, independent
        # of the falling chains the next check counts
        cx = order_complex(proper_divisibility_poset((a, b)))
        summary = homology(SimplicialComplex(cx.vertices, cx.facets), reduced=True)
        degrees = max(len(summary.betti), a - 1)
        for i in range(degrees):
            want = formulas.betti_rank(a, b, i)
            got = summary.rank(i)
            if want != got:
                return f"degree {i}: formula {want} != oracle {got}"
        if any(summary.torsion or ()):
            return f"unexpected torsion {summary.torsion}"
        return None

    def check_fch(a, b):
        counts = betti_from_falling_chains(a, b)
        for i in range(max(len(counts), a - 1)):
            got = counts[i] if i < len(counts) else 0
            want = formulas.betti_rank(a, b, i)
            if got != want:
                return f"degree {i}: falling chains {got} != formula {want}"
        return None

    def check_euler(a, b):
        ec = formulas.euler_char(a, b)
        gf = formulas.euler_char_series_coeff(a, b)
        alt = sum(
            (1 if i % 2 == 0 else -1) * formulas.betti_rank(a, b, i) for i in range(a - 1)
        )
        mob = proper_divisibility_poset((a, b)).mobius()
        values = {"formula": ec, "series": gf, "alternating sum": alt, "mobius": mob}
        if len(set(values.values())) != 1:
            return str(values)
        return None

    def check_persistence(a, b):
        t = formulas.last_nonzero_degree(a, b)
        for i in range(a + 1):
            nonreduced = formulas.betti_rank(a, b, i) + (1 if i == 0 else 0)
            if (nonreduced > 0) != (i <= t):
                return f"degree {i}: rank {nonreduced} vs t={t}"
        return None

    run("formula-vs-oracle", check_oracle)
    run("falling-chains-vs-formula", check_fch)
    run("euler-chain", check_euler)
    run("persistence-and-vanishing", check_persistence)
    print("\n".join(lines))
    return 1 if failures else 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="properdiv",
        description="Proper-divisibility posets: homology, shellability certificates and formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hom = sub.add_parser("homology", help="Betti numbers of an order complex")
    p_hom.add_argument("descriptor", nargs="+", help="pdiv a1,a2,... | bool n | prod A B | file path")
    p_hom.add_argument("--reduced", action="store_true", help="reduced homology")
    p_hom.add_argument("--torsion", action="store_true", help="also compute torsion")
    hom_format = p_hom.add_mutually_exclusive_group()
    hom_format.add_argument("--json", action="store_true")
    hom_format.add_argument("--csv", action="store_true", help="Betti numbers only")
    p_hom.set_defaults(func=cmd_homology)

    p_table = sub.add_parser("table", help="recompute the Boolean product table")
    table_format = p_table.add_mutually_exclusive_group()
    table_format.add_argument("--json", action="store_true")
    table_format.add_argument("--csv", action="store_true")
    p_table.set_defaults(func=cmd_table)

    p_fall = sub.add_parser("falling", help="falling chains of the dual of P(a, b)")
    p_fall.add_argument("a", type=int)
    p_fall.add_argument("b", type=int)
    p_fall.add_argument("--length", type=int, default=None)
    p_fall.add_argument("--count-only", action="store_true")
    p_fall.add_argument("--json", action="store_true")
    p_fall.set_defaults(func=cmd_falling)

    p_rao = sub.add_parser("rao", help="recursive atom orderings")
    p_rao.add_argument("descriptor", nargs="*", help="poset descriptor (with --search)")
    p_rao.add_argument("--search", action="store_true", help="exhaustive search")
    p_rao.add_argument("--dual", action="store_true", help="search on the dual poset")
    p_rao.add_argument(
        "--dual-lex",
        metavar="a1,a2,...",
        default=None,
        help="build and verify the dual-lexicographic certificate for the dual of P(a1,...)",
    )
    p_rao.set_defaults(func=cmd_rao)

    p_ver = sub.add_parser("verify", help="consistency sweeps over 2 <= a <= b")
    p_ver.add_argument("--a-max", type=int, default=6)
    p_ver.add_argument("--b-max", type=int, default=6)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # DescriptorError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    code = 0  # what a command stopped by a closed stdout exits with
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has all it wanted; point stdout at the null device so
        # that the interpreter's flush at exit writes nowhere instead of failing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
