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
from typing import Iterable, List, Optional, Sequence

from .checks import SUITES, SuiteRun, move_deltas, table_adjacency
from .corpus import CorpusError, load_corpus
from .embedding import NotRealizableError, realize
from .explore import SearchConfig, equivalence_query, search_class, twist_family
from .invariants import (
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
    Word,
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

# The library errors a command may raise, each with its stderr prefix and
# exit code; the first kind that matches wins.
_FAILURES = (
    (WordError, "malformed word: ", EXIT_USAGE),
    (CorpusError, "corpus error: ", EXIT_USAGE),
    (NotRealizableError, "", EXIT_UNREALIZABLE),
    (StateSumBudgetError, "budget exceeded: ", EXIT_BUDGET),
    (ValueError, "", EXIT_USAGE),
)


def _emit(args: argparse.Namespace, payload: object, lines: Iterable[str]) -> int:
    """Print ``payload`` as JSON with --json, else the text ``lines``; EXIT_OK."""
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def _realized(*texts: str) -> List[Word]:
    """Parse every word, then realize each: a malformed word wins over an unrealizable one."""
    words = [parse_word(text) for text in texts]
    for word in words:
        realize(word)
    return words


def _cmd_invariants(args: argparse.Namespace) -> int:
    if (args.word is None) == (args.corpus is None):
        both = "" if args.word is None else ", not both"
        print(f"invariants: give a word or --corpus{both}", file=sys.stderr)
        return EXIT_USAGE
    if args.corpus is None:
        payload = invariant_report(*_realized(args.word)).to_dict()
        rows = [payload]
    else:
        payload = rows = [
            dict(invariant_report(entry.word).to_dict(), name=entry.name)
            for entry in load_corpus(args.corpus)
        ]
    return _emit(args, payload, (
        "{}n={n} X={X} X_mod3={X_mod3} tr={tr} H={H} trefoil_summands={trefoil_summands} "
        "word={word}".format(f"{row['name']}: " if "name" in row else "", **row)
        for row in rows
    ))


def _cmd_table(args: argparse.Namespace) -> int:
    entries = sorted(load_corpus(args.corpus), key=lambda e: (chord_count(e.word), e.word))
    rows = [
        dict(
            invariant_report(entry.word).to_dict(),
            name=entry.name,
            factors=" | ".join(format_word(f) for f in prime_decompose(entry.word)),
        )
        for entry in entries
    ]
    edges = table_adjacency(entries)
    header = f"{'name':<6} {'n':>2} {'X':>3} {'X%3':>3} {'tr':>3} {'H':>2}  factors"
    lines = [header, "-" * len(header)]
    lines += ["{name:<6} {n:>2} {X:>3} {X_mod3:>3} {tr:>3} {H:>2}  {factors}".format(**row)
              for row in rows]
    lines += ["", "one-triangle adjacency (finitely many curl moves + one triangle):"]
    lines += [f"  {a} -- {b}" for a, b in edges] or ["  none found in window"]
    payload = {"rows": rows, "one_triangle_edges": [list(edge) for edge in edges]}
    return _emit(args, payload, lines)


def _suite_options(args: argparse.Namespace) -> dict:
    """The suite flags given on the command line, by keyword."""
    options = (("max_n", args.max_n), ("seed", args.seed))
    return {name: value for name, value in options if value is not None}


def _cmd_verify(args: argparse.Namespace) -> int:
    run = SuiteRun()
    SUITES[args.suite](run, **_suite_options(args))
    _emit(args, {"suite": args.suite, "passed": run.passed, "checks": run.checks}, (
        f"{'PASS' if check['passed'] else 'FAIL'} {args.suite}/{check['name']}: {check['detail']}"
        for check in run.checks
    ))
    return EXIT_OK if run.passed else EXIT_FAIL


def _cmd_moves(args: argparse.Namespace) -> int:
    [word] = _realized(args.word)
    sites = find_sites(word, move_set(args.moves))
    if args.action == "list":
        listed = [{"index": i, "site": site.describe()} for i, site in enumerate(sites)]
        return _emit(args, listed, (f"{row['index']}: {row['site']}" for row in listed))
    if args.site is None or not 0 <= args.site < len(sites):
        print(f"--site must be in 0..{len(sites) - 1} for this word", file=sys.stderr)
        return EXIT_USAGE
    site = sites[args.site]
    after = apply_move(word, site)
    deltas = dict(zip(("dX", "dtr", "dH"), move_deltas(word, after)))
    shown = " ".join(f"{key}={value:+d}" for key, value in deltas.items())
    payload = dict(
        deltas,
        before=format_word(word),
        site=site.describe(),
        after=format_word(after),
        canonical=format_word(canonical(after)),
    )
    return _emit(args, payload, [f"{payload['after']}   ({shown})"])


def _cmd_family(args: argparse.Namespace) -> int:
    if args.family_name != "T":
        print("only the twist family T is available", file=sys.stderr)
        return EXIT_USAGE
    word = twist_family(args.n)
    payload = {
        "family": "T",
        "n": args.n,
        "word": format_word(word),
        "X": cross_chord_number(word),
        "tr": trivializing_number(word),
    }
    return _emit(args, payload, [payload["word"]])


def _cmd_class(args: argparse.Namespace) -> int:
    [word] = _realized(args.word)
    config = SearchConfig(max_chords=args.max_n, max_states=args.max_states)
    result = search_class(word, move_set(args.moves), config)
    words = [format_word(w) for w in sorted(result.words)]
    payload = {
        "start": format_word(canonical(word)),
        "moves": args.moves,
        "max_n": args.max_n,
        "truncated": result.truncated,
        "count": len(words),
        "words": words,
    }
    _emit(args, payload, words)
    if not args.json:
        flag = "yes" if result.truncated else "no"
        print(f"# {len(words)} words, truncated: {flag}", file=sys.stderr)
    return EXIT_OK


def _cmd_equiv(args: argparse.Namespace) -> int:
    first, second = _realized(args.word, args.other)
    config = SearchConfig(max_chords=args.max_n, max_states=args.max_states)
    result = equivalence_query(first, second, moves_name=args.moves, config=config)
    lines = [f"{result.verdict}: {result.reason}"]
    path = result.path
    if path is not None:
        lines += [f"  {format_word(w)}  --[{site.describe()}]->"
                  for w, site in zip(path.words, path.moves)]
        lines.append(f"  {format_word(path.words[-1])}")
    return _emit(args, result.to_dict(), lines)


def _cmd_knots(args: argparse.Namespace) -> int:
    word = parse_word(args.word)
    diagram = positive_resolution(word)
    payload = {"word": format_word(word)}
    if args.action == "resolve":
        payload.update(
            bits=list(diagram.bits),
            over_first=list(diagram.over_first),
            signs=list(diagram.signs),
            writhe=diagram.writhe,
        )
        lines = [
            f"word: {payload['word']}",
            f"rotation bits: {' '.join(str(b) for b in diagram.bits)}",
            f"over passage: {' '.join('first' if m else 'second' for m in diagram.over_first)}",
            f"signs: {' '.join(f'{s:+d}' for s in diagram.signs)}",
            f"writhe: {diagram.writhe}",
        ]
    elif args.action == "bracket":
        bracket = kauffman_bracket(diagram)
        payload.update(
            bracket=laurent_format(bracket),
            normalized=laurent_format(_writhe_normalized(bracket, diagram.writhe)),
            writhe=diagram.writhe,
        )
        lines = [f"bracket: {payload['bracket']}", f"normalized: {payload['normalized']}"]
    else:
        payload["determinant"] = determinant(diagram)
        lines = [str(payload["determinant"])]
    return _emit(args, payload, lines)


# Flags that several commands share, each declared once as an argparse
# parent; every command takes --json.
_JSON_FLAG = argparse.ArgumentParser(add_help=False)
_JSON_FLAG.add_argument("--json", action="store_true")
_MOVES_FLAG = argparse.ArgumentParser(add_help=False)
_MOVES_FLAG.add_argument("--moves", default="both", choices=tuple(MOVE_SETS))
_STATES_FLAG = argparse.ArgumentParser(add_help=False)
_STATES_FLAG.add_argument("--max-states", type=int, default=SearchConfig.max_states)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatknots",
        description="Invariants, moves, and searches on knot projection words.",
    )

    def command(subparsers, name, func, summary, *parents):
        p = subparsers.add_parser(name, help=summary, parents=[*parents, _JSON_FLAG])
        p.set_defaults(func=func)
        return p

    sub = parser.add_subparsers(dest="command", required=True)
    p_inv = command(sub, "invariants", _cmd_invariants, "invariant report for a word or corpus")
    p_inv.add_argument("word", nargs="?", help="gauss code, e.g. 'a b c a b c'")
    p_inv.add_argument("--corpus", help="corpus file; report every entry")

    p_table = command(sub, "table", _cmd_table, "catalog table with one-triangle adjacency")
    p_table.add_argument("--corpus", help="corpus file (default: bundled catalog)")

    p_verify = command(sub, "verify", _cmd_verify, "run a named checking suite")
    p_verify.add_argument("suite", help="one of: " + ", ".join(SUITES))
    p_verify.add_argument("--max-n", type=int, help="chord bound (parity and deltas only)")
    p_verify.add_argument("--seed", type=int, help="sampling seed (deltas only)")

    p_moves = command(sub, "moves", _cmd_moves, "list or apply rewrite sites", _MOVES_FLAG)
    p_moves.add_argument("action", choices=("list", "apply"))
    p_moves.add_argument("word")
    p_moves.add_argument("--site", type=int, help="site index from 'moves list'")

    p_explore = sub.add_parser("explore", help="class search and equivalence queries")
    explore_sub = p_explore.add_subparsers(dest="action", required=True)
    p_class = command(
        explore_sub, "class", _cmd_class, "bounded closure of a word", _MOVES_FLAG, _STATES_FLAG
    )
    p_class.add_argument("word")
    p_class.add_argument("--max-n", type=int, default=SearchConfig.max_chords)
    p_equiv = command(
        explore_sub, "equiv", _cmd_equiv, "decide or refute equivalence", _MOVES_FLAG, _STATES_FLAG
    )
    p_equiv.add_argument("word")
    p_equiv.add_argument("other")
    p_equiv.add_argument("--max-n", type=int)
    p_family = command(explore_sub, "family", _cmd_family, "twist family member")
    p_family.add_argument("family_name", metavar="family", help="family name: T")
    p_family.add_argument("n", type=int)

    p_knots = command(sub, "knots", _cmd_knots, "positive resolution and state sums")
    p_knots.add_argument("action", choices=("resolve", "bracket", "det"))
    p_knots.add_argument("word")

    return parser


def _usage_error(args: argparse.Namespace) -> Optional[str]:
    """Why the parsed flags cannot run, before any word is read; None if they can."""
    if args.command == "verify":
        suite = SUITES.get(args.suite)
        if suite is None:
            return f"unknown suite: {args.suite}"
        accepted = inspect.signature(suite).parameters
        for name in _suite_options(args):
            if name not in accepted:
                flag = "--" + name.replace("_", "-")
                return f"verify: the {args.suite} suite does not use {flag}"
    for flag, least in (("--max-n", 0), ("--max-states", 1)):
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and value < least:
            return f"{args.command}: {flag} must be >= {least}, not {value}"
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits by itself: with 0 after --help, else on a usage error.
        return EXIT_USAGE if exc.code else EXIT_OK
    problem = _usage_error(args)
    if problem is not None:
        print(problem, file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        prefix, code = next((p, c) for kind, p, c in _FAILURES if isinstance(exc, kind))
        print(f"{prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
