"""Source-file parsing and rational/mask serialization.

A source file is a JSON document:

    {
      "m": 6,
      "active": [1, 2, 3],
      "source": {
        "type": "linear_gf2",
        "base_bits": 4,
        "terminals": [["1010"], ["1001"], ["0011"],
                      ["0110"], ["0101"], ["1100"]]
      }
    }

Bit strings list base-bit coefficients: character i (counting from 0) is
the coefficient of base bit Y(i+1), so the first character is Y1's. ``entropy_vector`` sources carry ``values``: a map from subset
spec ("1,3,4"; "" for the empty set, which may be omitted and defaults to 0)
to a rational string "p/q". ``tabular`` sources carry ``alphabets`` and
``pmf`` entries with ``symbols`` and ``prob``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, List, Tuple

from .errors import InvalidInputError
from .sources import (
    EntropyOracle,
    EntropyVector,
    LinearGF2Source,
    SourceLike,
    TabularSource,
    make_oracle,
)
from .subsets import (
    check_terminal_count,
    format_mask,
    mask_from_terminals,
    parse_mask_spec,
)


def format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    """``Fraction(text)``, with plain ASCII ``p`` and ``p/q`` read by ``int``.

    Anything else (signs, spaces, decimals, exponents, underscores,
    non-ASCII digits, a zero denominator, JSON numbers) goes to
    ``Fraction(text)`` itself, so the accepted inputs and the errors are
    those of ``Fraction``.
    """
    if isinstance(text, str):
        num, slash, den = text.partition("/")
        if num.isascii() and num.isdigit():
            if not slash:
                return Fraction(int(num))
            if den.isascii() and den.isdigit() and int(den):
                return Fraction(int(num), int(den))
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad rational {text!r}") from exc
    return value


def format_fraction_text(value: Fraction) -> str:
    """Human rendering: "9/4 (~2.25)"; integers render bare."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{format_fraction(value)} (~{float(value):.6g})"


def parse_bit_string(text: str, n: int) -> int:
    if len(text) != n or any(ch not in "01" for ch in text):
        raise InvalidInputError(
            f"bit string {text!r} must be {n} characters of 0/1"
        )
    mask = 0
    for i, ch in enumerate(text):  # char i is the coefficient of Y_{i+1}
        if ch == "1":
            mask |= 1 << i
    return mask


def render_bit_string(mask: int, n: int) -> str:
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))


def _require(doc: Dict[str, Any], key: str) -> Any:
    if key not in doc:
        raise InvalidInputError(f"missing required field {key!r}")
    return doc[key]


def source_from_document(doc: Dict[str, Any]) -> Tuple[SourceLike, int]:
    """Build the source object and active-set mask from a parsed document.

    The terminal count is checked before anything is sized by it. The
    ``ValueError`` of a terminal count outside its range, of a terminal out
    of range in ``active`` or in a subset key, or of a malformed key is
    raised as an ``InvalidInputError`` with the same message.
    """
    m = _require(doc, "m")
    if not isinstance(m, int):
        raise InvalidInputError("field 'm' must be an integer")
    active_list = _require(doc, "active")
    try:
        check_terminal_count(m)
        active = mask_from_terminals(active_list, m)
    except ValueError as exc:
        raise InvalidInputError(str(exc)) from exc
    spec = _require(doc, "source")
    kind = _require(spec, "type")

    if kind == "linear_gf2":
        n = _require(spec, "base_bits")
        terminals = _require(spec, "terminals")
        if len(terminals) != m:
            raise InvalidInputError(f"expected {m} terminal row lists")
        rows = tuple(
            tuple(parse_bit_string(s, n) for s in terminal_rows)
            for terminal_rows in terminals
        )
        return LinearGF2Source(m, n, rows), active

    if kind == "entropy_vector":
        values_map = _require(spec, "values")
        values: List[Fraction] = [Fraction(0)] * (1 << m)
        seen = {0}
        try:
            for key, text in values_map.items():
                mask = parse_mask_spec(key, m)
                values[mask] = parse_fraction(text)
                seen.add(mask)
        except ValueError as exc:
            raise InvalidInputError(str(exc)) from exc
        missing = [s for s in range(1, 1 << m) if s not in seen]
        if missing:
            raise InvalidInputError(
                f"entropy vector missing subset {{{format_mask(missing[0])}}}"
            )
        return EntropyVector(m, tuple(values)), active

    if kind == "tabular":
        alphabets = tuple(_require(spec, "alphabets"))
        entries = []
        for entry in _require(spec, "pmf"):
            symbols = tuple(_require(entry, "symbols"))
            prob = parse_fraction(_require(entry, "prob"))
            entries.append((symbols, prob))
        return TabularSource(m, alphabets, tuple(entries)), active

    raise InvalidInputError(f"unknown source type {kind!r}")


def parse_source_file(
    path: str, *, validate: bool = True
) -> Tuple[EntropyOracle, int, SourceLike]:
    """Load a source file, build its oracle, and return the active mask."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInputError("source document must be a JSON object")
    source, active = source_from_document(doc)
    if active.bit_count() < 2:
        raise InvalidInputError("active set must have at least two terminals")
    oracle = make_oracle(source, validate=validate)
    return oracle, active, source
