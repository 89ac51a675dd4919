"""Command line front end.

Exit codes: 0 success, 1 a verify suite failed, 2 malformed input or
usage error, 3 word not realizable in the sphere, 4 a state sum passed
its frontier budget (no partial answer is printed).  All diagnostics go
to stderr; machine output (with --json) is a single JSON document on
stdout.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Dict, Optional, Sequence

from .checks import SUITES, SuiteRun, move_deltas, table_adjacency
from .corpus import CorpusError, load_corpus
from .embedding import NotRealizableError, realize
from .explore import SearchConfig, equivalence_query, search_class, twist_family
from .invariants import (
    InvariantReport,
    cross_chord_number,
    invariant_report,
    trivializing_number,
)
from .knots import (
    StateSumBudgetError,
    _writhe_normalized,
    determinant,
    kauffman_bracket,
    positive_resolution,
)
from .laurent import laurent_format
from .moves import MOVE_SETS, apply_move, find_sites, move_set
from .words import (
    WordError,
    canonical,
    chord_count,
    format_word,
    parse_word,
    prime_decompose,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNREALIZABLE = 3
EXIT_BUDGET = 4


def report_to_dict(report: InvariantReport) -> Dict[str, object]:
    return {
        "word": format_word(report.word),
        "n": report.chords,
        "X": report.cross_chords,
        "X_mod3": report.cross_chords_mod3,
        "tr": report.trivializing,
        "H": report.h,
        "reduced": format_word(report.reduced),
        "trefoil_summands": report.trefoil_summands,
        "realizable": report.realizable,
    }


def _print_json(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _print_report(report: InvariantReport, name: Optional[str] = None) -> None:
    head = f"{name}: " if name else ""
    print(
        f"{head}n={report.chords} X={report.cross_chords} "
        f"X_mod3={report.cross_chords_mod3} tr={report.trivializing} "
        f"H={report.h} trefoil_summands={report.trefoil_summands} "
        f"word={format_word(report.word)}"
    )


def _cmd_invariants(args: argparse.Namespace) -> int:
    if args.corpus is not None:
        if args.word is not None:
            print("invariants: give a word or --corpus, not both", file=sys.stderr)
            return EXIT_USAGE
        reports = [(e.name, invariant_report(e.word)) for e in load_corpus(args.corpus)]
    else:
        if args.word is None:
            print("invariants: give a word or --corpus", file=sys.stderr)
            return EXIT_USAGE
        word = parse_word(args.word)
        realize(word)
        reports = [(None, invariant_report(word))]
    if args.json:
        payload: object
        if args.corpus is None:
            payload = report_to_dict(reports[0][1])
        else:
            payload = [
                dict(report_to_dict(rep), name=name) for name, rep in reports
            ]
        _print_json(payload)
    else:
        for name, rep in reports:
            _print_report(rep, name)
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    entries = load_corpus(args.corpus)
    ordered = sorted(entries, key=lambda e: (chord_count(e.word), e.word))
    rows = []
    for entry in ordered:
        rep = invariant_report(entry.word)
        factors = " | ".join(format_word(f) for f in prime_decompose(entry.word))
        rows.append((entry.name, rep, factors))
    edges = table_adjacency(ordered)
    if args.json:
        payload = {
            "rows": [
                dict(report_to_dict(rep), name=name, factors=factors)
                for name, rep, factors in rows
            ],
            "one_triangle_edges": [list(edge) for edge in edges],
        }
        _print_json(payload)
        return EXIT_OK
    header = f"{'name':<6} {'n':>2} {'X':>3} {'X%3':>3} {'tr':>3} {'H':>2}  factors"
    print(header)
    print("-" * len(header))
    for name, rep, factors in rows:
        print(
            f"{name:<6} {rep.chords:>2} {rep.cross_chords:>3} "
            f"{rep.cross_chords_mod3:>3} {rep.trivializing:>3} {rep.h:>2}  {factors}"
        )
    print()
    print("one-triangle adjacency (finitely many curl moves + one triangle):")
    if edges:
        for a, b in edges:
            print(f"  {a} -- {b}")
    else:
        print("  none found in window")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    suite = SUITES.get(args.suite)
    if suite is None:
        print(f"unknown suite: {args.suite}", file=sys.stderr)
        return EXIT_USAGE
    options = {
        name: value
        for name, value in (("max_n", args.max_n), ("seed", args.seed))
        if value is not None
    }
    accepted = inspect.signature(suite).parameters
    for name in options:
        if name not in accepted:
            flag = "--" + name.replace("_", "-")
            print(f"verify: the {args.suite} suite does not use {flag}", file=sys.stderr)
            return EXIT_USAGE
    if args.max_n is not None and args.max_n < 0:
        print(f"verify: --max-n must be >= 0, not {args.max_n}", file=sys.stderr)
        return EXIT_USAGE
    run = SuiteRun()
    suite(run, **options)
    if args.json:
        _print_json({"suite": args.suite, "passed": run.passed, "checks": run.checks})
    else:
        for check in run.checks:
            mark = "PASS" if check["passed"] else "FAIL"
            print(f"{mark} {args.suite}/{check['name']}: {check['detail']}")
    return EXIT_OK if run.passed else EXIT_FAIL


def _cmd_moves(args: argparse.Namespace) -> int:
    word = parse_word(args.word)
    realize(word)
    kinds = move_set(args.moves)
    sites = find_sites(word, kinds)
    if args.action == "list":
        if args.json:
            _print_json([{"index": i, "site": s.describe()} for i, s in enumerate(sites)])
        else:
            for i, site in enumerate(sites):
                print(f"{i}: {site.describe()}")
            if not sites:
                print("no sites")
        return EXIT_OK
    if args.site is None or not 0 <= args.site < len(sites):
        print(
            f"--site must be in 0..{len(sites) - 1} for this word",
            file=sys.stderr,
        )
        return EXIT_USAGE
    site = sites[args.site]
    after = apply_move(word, site)
    deltas = dict(zip(("dX", "dtr", "dH"), move_deltas(word, after)))
    if args.json:
        _print_json(
            dict(
                deltas,
                before=format_word(word),
                site=site.describe(),
                after=format_word(after),
                canonical=format_word(canonical(after)),
            )
        )
    else:
        shown = " ".join(f"{key}={value:+d}" for key, value in deltas.items())
        print(f"{format_word(after)}   ({shown})")
    return EXIT_OK


def _cmd_explore(args: argparse.Namespace) -> int:
    if args.action == "family":
        if args.family_name != "T":
            print("only the twist family T is available", file=sys.stderr)
            return EXIT_USAGE
        word = twist_family(args.n)
        if args.json:
            _print_json(
                {
                    "family": "T",
                    "n": args.n,
                    "word": format_word(word),
                    "X": cross_chord_number(word),
                    "tr": trivializing_number(word),
                }
            )
        else:
            print(format_word(word))
        return EXIT_OK
    if args.max_n is not None and args.max_n < 0:
        print(f"explore: --max-n must be >= 0, not {args.max_n}", file=sys.stderr)
        return EXIT_USAGE
    if args.max_states < 1:
        print(f"explore: --max-states must be >= 1, not {args.max_states}", file=sys.stderr)
        return EXIT_USAGE
    kinds = move_set(args.moves)
    config = SearchConfig(max_chords=args.max_n, max_states=args.max_states)
    if args.action == "class":
        word = parse_word(args.word)
        realize(word)
        result = search_class(word, kinds, config)
        words = sorted(result.words)
        if args.json:
            _print_json(
                {
                    "start": format_word(canonical(word)),
                    "moves": args.moves,
                    "max_n": args.max_n,
                    "truncated": result.truncated,
                    "count": len(words),
                    "words": [format_word(w) for w in words],
                }
            )
        else:
            for w in words:
                print(format_word(w))
            flag = "yes" if result.truncated else "no"
            print(f"# {len(words)} words, truncated: {flag}", file=sys.stderr)
        return EXIT_OK
    first = parse_word(args.word)
    second = parse_word(args.other)
    realize(first)
    realize(second)
    result = equivalence_query(first, second, moves_name=args.moves, config=config)
    if args.json:
        _print_json(result.to_dict())
    else:
        print(f"{result.verdict}: {result.reason}")
        if result.path is not None:
            for i, site in enumerate(result.path.moves):
                print(f"  {format_word(result.path.words[i])}  --[{site.describe()}]->")
            print(f"  {format_word(result.path.words[-1])}")
    return EXIT_OK


def _cmd_knots(args: argparse.Namespace) -> int:
    word = parse_word(args.word)
    diagram = positive_resolution(word)
    if args.action == "resolve":
        if args.json:
            _print_json(
                {
                    "word": format_word(word),
                    "bits": list(diagram.bits),
                    "over_first": list(diagram.over_first),
                    "signs": list(diagram.signs),
                    "writhe": diagram.writhe,
                }
            )
        else:
            print(f"word: {format_word(word)}")
            print(f"rotation bits: {' '.join(str(b) for b in diagram.bits)}")
            overs = " ".join("first" if m else "second" for m in diagram.over_first)
            print(f"over passage: {overs}")
            print(f"signs: {' '.join(f'{s:+d}' for s in diagram.signs)}")
            print(f"writhe: {diagram.writhe}")
        return EXIT_OK
    if args.action == "bracket":
        bracket = kauffman_bracket(diagram)
        normalized = _writhe_normalized(bracket, diagram.writhe)
        if args.json:
            _print_json(
                {
                    "word": format_word(word),
                    "bracket": laurent_format(bracket),
                    "normalized": laurent_format(normalized),
                    "writhe": diagram.writhe,
                }
            )
        else:
            print(f"bracket: {laurent_format(bracket)}")
            print(f"normalized: {laurent_format(normalized)}")
        return EXIT_OK
    value = determinant(diagram)
    if args.json:
        _print_json({"word": format_word(word), "determinant": value})
    else:
        print(value)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatknots",
        description="Invariants, moves, and searches on knot projection words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    move_names = tuple(MOVE_SETS)

    p_inv = sub.add_parser("invariants", help="invariant report for a word or corpus")
    p_inv.add_argument("word", nargs="?", help="gauss code, e.g. 'a b c a b c'")
    p_inv.add_argument("--corpus", help="corpus file; report every entry")
    p_inv.add_argument("--json", action="store_true")
    p_inv.set_defaults(func=_cmd_invariants)

    p_table = sub.add_parser("table", help="catalog table with one-triangle adjacency")
    p_table.add_argument("--corpus", help="corpus file (default: bundled catalog)")
    p_table.add_argument("--json", action="store_true")
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="run a named checking suite")
    p_verify.add_argument(
        "suite", help="one of: parity, deltas, twist, strong-trivial, bracket"
    )
    p_verify.add_argument(
        "--max-n", type=int, dest="max_n", help="chord bound (parity and deltas only)"
    )
    p_verify.add_argument("--seed", type=int, help="sampling seed (deltas only)")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_moves = sub.add_parser("moves", help="list or apply rewrite sites")
    p_moves.add_argument("action", choices=("list", "apply"))
    p_moves.add_argument("word")
    p_moves.add_argument("--moves", default="both", choices=move_names)
    p_moves.add_argument("--site", type=int, help="site index from 'moves list'")
    p_moves.add_argument("--json", action="store_true")
    p_moves.set_defaults(func=_cmd_moves)

    p_explore = sub.add_parser("explore", help="class search and equivalence queries")
    explore_sub = p_explore.add_subparsers(dest="action", required=True)
    p_class = explore_sub.add_parser("class", help="bounded closure of a word")
    p_class.add_argument("word")
    p_class.add_argument("--moves", default="both", choices=move_names)
    p_class.add_argument("--max-n", type=int, default=SearchConfig.max_chords, dest="max_n")
    p_class.add_argument("--max-states", type=int, default=SearchConfig.max_states, dest="max_states")
    p_class.add_argument("--json", action="store_true")
    p_class.set_defaults(func=_cmd_explore)
    p_equiv = explore_sub.add_parser("equiv", help="decide or refute equivalence")
    p_equiv.add_argument("word")
    p_equiv.add_argument("other")
    p_equiv.add_argument("--moves", default="both", choices=move_names)
    p_equiv.add_argument("--max-n", type=int, dest="max_n")
    p_equiv.add_argument("--max-states", type=int, default=SearchConfig.max_states, dest="max_states")
    p_equiv.add_argument("--json", action="store_true")
    p_equiv.set_defaults(func=_cmd_explore)
    p_family = explore_sub.add_parser("family", help="twist family member")
    p_family.add_argument("family_name", metavar="family", help="family name: T")
    p_family.add_argument("n", type=int)
    p_family.add_argument("--json", action="store_true")
    p_family.set_defaults(func=_cmd_explore)

    p_knots = sub.add_parser("knots", help="positive resolution and state sums")
    p_knots.add_argument("action", choices=("resolve", "bracket", "det"))
    p_knots.add_argument("word")
    p_knots.add_argument("--json", action="store_true")
    p_knots.set_defaults(func=_cmd_knots)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WordError as exc:
        print(f"malformed word: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CorpusError as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotRealizableError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNREALIZABLE
    except StateSumBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
