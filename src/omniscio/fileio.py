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
import sys
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

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
    check_active,
    check_terminal_count,
    format_mask,
    mask_from_terminals,
    parse_mask_spec,
)


def parse_fraction(text: str) -> Fraction:
    """``Fraction(text)``, with digit-only ``p`` and ``p/q`` read by ``int``.

    A digit is a character for which ``str.isdigit`` holds; ``int`` reads
    every such string as ``Fraction`` does, to the same value or to the
    same refusal (a superscript digit, say, which neither reads), and a
    zero denominator raises in both. Anything else (signs, spaces,
    decimals, exponents, underscores, JSON numbers) goes to
    ``Fraction(text)`` itself, so the accepted inputs are those of
    ``Fraction`` except JSON ``true`` and ``false``, values whose numerator
    or denominator has more digits than ``sys.get_int_max_str_digits()``
    allows (they could not be printed), and exponents past that limit plus
    the text's length, which are refused before their power of ten is
    built (it could take minutes), even on a zero mantissa. Whatever is
    refused, a JSON null, list or object or a non-finite number among
    them, raises ``InvalidInputError``, which quotes a string longer than
    40 characters by its first 40 and its length.
    """
    if isinstance(text, bool):
        raise InvalidInputError(f"bad rational {text!r}")
    try:
        if isinstance(text, str):
            num, slash, den = text.partition("/")
            # int() refuses more digits than the limit, and Fraction(p, 0)
            # raises ZeroDivisionError.
            if num.isdigit():
                if not slash:
                    return Fraction(int(num))
                if den.isdigit():
                    return Fraction(int(num), int(den))
            # Python before 3.10.7 has no limit (0, as when switched off).
            limit = getattr(sys, "get_int_max_str_digits", int)()
            _, exp, power = text.lower().rpartition("e")
            # A digit of the mantissa cancels at most one power of ten, so
            # past this exponent the value has too many digits (or is 0).
            if limit and exp and abs(int(power)) > limit + len(text):
                raise OverflowError(f"exponent {power.strip()} past the limit")
        value = Fraction(text)
        str(value)  # raises ValueError past the digit limit
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        shown = repr(text)
        if isinstance(text, str) and len(text) > 40:
            shown = f"{text[:40]!r}... ({len(text)} characters)"
        raise InvalidInputError(f"bad rational {shown}") from exc
    return value


def format_fraction_text(value: Fraction) -> str:
    """Human rendering: "9/4 (~2.25)"; integers render bare."""
    if value.denominator == 1:
        return str(value)
    return f"{value} (~{float(value):.6g})"


def parse_bit_string(text: str, n: int) -> int:
    if not isinstance(text, str) or len(text) != n or text.strip("01"):
        raise InvalidInputError(
            f"bit string {text!r} must be {n} characters of 0/1"
        )
    # Char i is the coefficient of Y_{i+1}, so bit i of the mask.
    return int(text[::-1], 2) if n else 0


_JSON_TYPES = {int: "an integer", list: "a list", dict: "an object"}


def _is_json(value: Any, kind: type) -> bool:
    """Whether ``value`` has JSON type ``kind``; ``true`` and ``false`` are
    not integers."""
    return isinstance(value, kind) and not (
        kind is int and isinstance(value, bool)
    )


def _require(
    doc: Dict[str, Any],
    key: str,
    kind: type = object,
    items: Optional[type] = None,
) -> Any:
    """``doc[key]``, which must be present and, if ``kind`` is given, of
    that JSON type; if ``items`` is given, a list of elements of that
    JSON type."""
    if key not in doc:
        raise InvalidInputError(f"missing required field {key!r}")
    value = doc[key]
    if not _is_json(value, kind):
        raise InvalidInputError(f"field {key!r} must be {_JSON_TYPES[kind]}")
    if items is not None and not all(_is_json(v, items) for v in value):
        raise InvalidInputError(
            f"every element of field {key!r} must be {_JSON_TYPES[items]}"
        )
    return value


# A table of m terminals has 2^m spellings, so only a few sizes are kept.
@lru_cache(maxsize=4)
def _canonical_masks(m: int) -> Mapping[str, int]:
    """Every subset's canonical spelling ("", "1", "2", "1,2", ...) mapped
    to its mask, read-only, built by doubling: the masks holding bit j, the
    highest, append ",j+1" to the spellings of those below 2^j."""
    names = [""]
    for j in range(m):
        tail = str(j + 1)
        names += [f"{name},{tail}" if name else tail for name in names]
    return MappingProxyType(dict(zip(names, range(1 << m))))


def source_from_document(doc: Dict[str, Any]) -> Tuple[SourceLike, int]:
    """Build the source object and active-set mask from a parsed document.

    The terminal count is checked before anything is sized by it. Every
    field and every element of its lists is checked for its JSON type
    before it is read (a bit string by ``parse_bit_string``, a rational by
    ``parse_fraction``), so a wrong type raises ``InvalidInputError``, not
    a ``TypeError``, and ``true`` is not read as 1.
    """
    m = _require(doc, "m", int)
    active_list = _require(doc, "active", list, int)
    check_terminal_count(m)
    active = mask_from_terminals(active_list, m)
    spec = _require(doc, "source", dict)
    kind = _require(spec, "type")

    if kind == "linear_gf2":
        n = _require(spec, "base_bits", int)
        terminals = _require(spec, "terminals", list, list)
        rows = tuple(
            tuple(parse_bit_string(s, n) for s in terminal_rows)
            for terminal_rows in terminals
        )
        return LinearGF2Source(m, n, rows), active

    if kind == "entropy_vector":
        values_map = _require(spec, "values", dict)
        values: List[Fraction] = [Fraction(0)] * (1 << m)
        seen = bytearray(1 << m)
        masks = _canonical_masks(m)
        # The tables repeat a handful of values; only strings are memoised,
        # so any other value meets parse_fraction (and its error) each time.
        parsed: Dict[str, Fraction] = {}
        for key, text in values_map.items():
            try:
                mask = masks[key]
            except KeyError:
                mask = parse_mask_spec(key, m)
            if isinstance(text, str):
                value = parsed.get(text)
                if value is None:
                    value = parsed[text] = parse_fraction(text)
            else:
                value = parse_fraction(text)
            values[mask] = value
            seen[mask] = 1
        if seen.count(1) != len(values_map):
            # Two keys spell one subset; name the first such pair.
            spellings: Dict[int, str] = {}
            for key in values_map:
                mask = masks[key] if key in masks else parse_mask_spec(key, m)
                first = spellings.setdefault(mask, key)
                if first != key:
                    raise InvalidInputError(
                        f"entropy vector gives subset {{{format_mask(mask)}}} "
                        f"twice, as {first!r} and {key!r}"
                    )
        missing = seen.find(0, 1)
        if missing > 0:
            raise InvalidInputError(
                f"entropy vector missing subset {{{format_mask(missing)}}}"
            )
        return EntropyVector(m, tuple(values)), active

    if kind == "tabular":
        alphabets = tuple(_require(spec, "alphabets", list, int))
        entries = []
        for entry in _require(spec, "pmf", list, dict):
            symbols = tuple(_require(entry, "symbols", list, int))
            prob = parse_fraction(_require(entry, "prob"))
            entries.append((symbols, prob))
        return TabularSource(m, alphabets, tuple(entries)), active

    raise InvalidInputError(f"unknown source type {kind!r}")


def _unique_keys(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    """The object of a JSON object's (key, value) pairs; a key given twice
    raises ``InvalidInputError`` rather than letting the last one win."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise InvalidInputError(f"JSON object repeats key {key!r}")
            seen.add(key)
    return doc


def parse_source_file(
    path: str, *, validate: bool = True
) -> Tuple[EntropyOracle, int, SourceLike]:
    """Load a source file, build its oracle, and return the active mask."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{exc} in {path}") from None
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # Bad JSON, bytes that are not UTF-8, an integer past Python's digit
        # limit, or nesting too deep to parse.
        raise InvalidInputError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInputError("source document must be a JSON object")
    source, active = source_from_document(doc)
    check_active(active, source.m)
    oracle = make_oracle(source, validate=validate)
    return oracle, active, source
