"""Integer Laurent polynomials in one variable, stored as exponent maps."""

from __future__ import annotations

from typing import Dict

Laurent = Dict[int, int]


def laurent_one() -> Laurent:
    return {0: 1}


def monomial(exponent: int, coefficient: int = 1) -> Laurent:
    if coefficient == 0:
        return {}
    return {exponent: coefficient}


def laurent_trim(p: Laurent) -> Laurent:
    return {e: c for e, c in p.items() if c != 0}


def laurent_add(a: Laurent, b: Laurent) -> Laurent:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return laurent_trim(out)


def laurent_mul(a: Laurent, b: Laurent) -> Laurent:
    out: Laurent = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return laurent_trim(out)


def laurent_format(a: Laurent) -> str:
    """Sorted "exponent:coefficient" pairs; the zero polynomial is "0"."""
    trimmed = laurent_trim(a)
    if not trimmed:
        return "0"
    return " ".join(f"{e}:{trimmed[e]}" for e in sorted(trimmed))

