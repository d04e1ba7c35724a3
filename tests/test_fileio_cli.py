"""Source-file parsing, serialization helpers, and the CLI surface."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from omniscio import (
    counterexample_entropy_vector,
    fileio,
    make_counterexample,
    make_oracle,
    parse_source_file,
    r_co,
    reporting,
)
from omniscio.cli import HELP, USAGE, main
from omniscio.errors import InvalidInputError, ValidationError
from omniscio.fileio import (
    format_fraction_text,
    parse_bit_string,
    parse_fraction,
    source_from_document,
)
from omniscio.sources import EntropyVector, LinearGF2Source, TabularSource
from omniscio.subsets import format_mask, terminals_of

from helpers import render_bit_string

F = Fraction

COUNTEREXAMPLE_DOC = {
    "m": 6,
    "active": [1, 2, 3],
    "source": {
        "type": "linear_gf2",
        "base_bits": 4,
        "terminals": [
            ["1010"], ["1001"], ["0011"],
            ["0110"], ["0101"], ["1100"],
        ],
    },
}


def entropy_vector_doc(vector: EntropyVector, active):
    values = {
        format_mask(s): str(vector.values[s])
        for s in range(1, 1 << vector.m)
    }
    return {
        "m": vector.m,
        "active": list(active),
        "source": {"type": "entropy_vector", "values": values},
    }


def vector_source(changes):
    """An m = 2 entropy_vector source with ``changes`` to its values."""
    values = {"1": "1", "2": "1", "1,2": "2"}
    values.update(changes)
    return {"type": "entropy_vector", "values": values}


def write_doc(tmp_path, doc, name="source.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestFractions:
    def test_round_trip(self):
        for v in (F(0), F(7), F(-3, 8), F(9, 4)):
            assert parse_fraction(str(v)) == v

    def test_integer_renders_bare(self):
        assert str(F(4, 2)) == "2"
        assert format_fraction_text(F(3)) == "3"

    def test_text_form_carries_decimal_hint(self):
        assert format_fraction_text(F(9, 4)) == "9/4 (~2.25)"

    def test_bad_input_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_fraction("1/0")
        with pytest.raises(InvalidInputError):
            parse_fraction("two")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="no integer digit limit before Python 3.10.7",
    )
    def test_digit_limit_edges(self):
        limit = sys.get_int_max_str_digits()
        # Up to the limit, in any form, a value is read.
        assert parse_fraction("9" * limit) == 10**limit - 1
        assert parse_fraction(f"1e{limit - 1}") == 10 ** (limit - 1)
        assert parse_fraction(f"100e-{limit + 1}") == F(1, 10 ** (limit - 1))
        # One digit more in a numerator or denominator is refused.
        for text in ("1" * (limit + 1), f"1/{'1' * (limit + 1)}",
                     f"1e{limit}", f"-1e{limit}", f"1e-{limit}",
                     f".{'0' * (limit - 1)}1", f"0e{2 * limit}"):
            with pytest.raises(InvalidInputError, match="bad rational"):
                parse_fraction(text)
        # An exponent up to the limit plus the text's length is read, even
        # on a zero mantissa; one more is refused before 10^exp is built.
        bound = next(e for e in range(limit, 2 * limit) if e == limit + len(f"0e{e}"))
        assert parse_fraction(f"0e{bound}") == 0
        with pytest.raises(InvalidInputError, match="bad rational"):
            parse_fraction(f"0e{bound + 1}")

    def test_long_text_is_quoted_by_its_first_40_characters(self):
        for text, shown in (
            ("x" * 40, repr("x" * 40)),
            ("x" * 41, f"{'x' * 40!r}... (41 characters)"),
        ):
            with pytest.raises(InvalidInputError) as info:
                parse_fraction(text)
            assert str(info.value) == f"bad rational {shown}"


class TestBitStrings:
    def test_first_character_is_first_base_bit(self):
        assert parse_bit_string("1010", 4) == 0b0101
        assert render_bit_string(0b0101, 4) == "1010"

    def test_round_trip(self):
        for mask in range(16):
            assert parse_bit_string(render_bit_string(mask, 4), 4) == mask

    def test_rejects_wrong_length_or_alphabet(self):
        with pytest.raises(InvalidInputError):
            parse_bit_string("101", 4)
        with pytest.raises(InvalidInputError):
            parse_bit_string("10a0", 4)

    @pytest.mark.parametrize(
        "text", ["1_01", " 101", "101 ", "+101", "0b11", "１０１０"]
    )
    def test_rejects_what_int_would_read(self, text):
        with pytest.raises(InvalidInputError):
            parse_bit_string(text, 4)

    def test_no_base_bits(self):
        assert parse_bit_string("", 0) == 0
        with pytest.raises(InvalidInputError):
            parse_bit_string("0", 0)


class TestSourceDocuments:
    def test_linear_gf2_matches_builtin(self):
        source, active = source_from_document(COUNTEREXAMPLE_DOC)
        builtin, builtin_active = make_counterexample()
        assert isinstance(source, LinearGF2Source)
        assert source == builtin
        assert active == builtin_active
        assert make_oracle(source).total_entropy() == 3

    def test_entropy_vector_document(self):
        vector = counterexample_entropy_vector()
        doc = entropy_vector_doc(vector, [1, 2, 3])
        source, active = source_from_document(doc)
        assert isinstance(source, EntropyVector)
        assert source.values == vector.values
        assert active == 0b000111

    def test_entropy_vector_missing_subset_rejected(self):
        vector = counterexample_entropy_vector()
        doc = entropy_vector_doc(vector, [1, 2, 3])
        del doc["source"]["values"]["1,3,4"]
        with pytest.raises(InvalidInputError, match="missing subset"):
            source_from_document(doc)

    def test_tabular_document(self):
        doc = {
            "m": 2,
            "active": [1, 2],
            "source": {
                "type": "tabular",
                "alphabets": [2, 2],
                "pmf": [
                    {"symbols": [0, 0], "prob": "1/2"},
                    {"symbols": [1, 1], "prob": "1/2"},
                ],
            },
        }
        source, active = source_from_document(doc)
        assert isinstance(source, TabularSource)
        oracle = make_oracle(source)
        assert not oracle.exact
        assert oracle.isclose(oracle.total_entropy(), F(1))

    def test_unknown_type_and_missing_fields(self):
        with pytest.raises(InvalidInputError):
            source_from_document({"m": 2, "active": [1, 2], "source": {"type": "x"}})
        with pytest.raises(InvalidInputError):
            source_from_document({"active": [1, 2], "source": {"type": "tabular"}})


class TestParseSourceFile:
    def test_counterexample_file(self, tmp_path):
        path = write_doc(tmp_path, COUNTEREXAMPLE_DOC)
        oracle, active, source = parse_source_file(path)
        assert oracle.total_entropy() == 3
        assert active == 0b000111

    def test_invalid_entropy_vector_rejected_on_load(self, tmp_path):
        doc = entropy_vector_doc(counterexample_entropy_vector(), [1, 2, 3])
        path = write_doc(tmp_path, doc)
        with pytest.raises(ValidationError):
            parse_source_file(path)
        oracle, _, _ = parse_source_file(path, validate=False)
        assert oracle.total_entropy() == 4

    def test_small_active_set_rejected(self, tmp_path):
        doc = dict(COUNTEREXAMPLE_DOC, active=[2])
        path = write_doc(tmp_path, doc)
        with pytest.raises(InvalidInputError):
            parse_source_file(path)

    def test_missing_and_malformed_files(self, tmp_path):
        with pytest.raises(InvalidInputError):
            parse_source_file(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InvalidInputError):
            parse_source_file(str(bad))


class TestCli:
    def test_solve_text_output(self, tmp_path, capsys):
        path = write_doc(tmp_path, COUNTEREXAMPLE_DOC)
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out
        assert "R_CO = 9/4 (~2.25)" in out
        assert "C_SK = 3/4 (~0.75)" in out
        assert "optimum uniqueness: Unique" in out

    def test_solve_json_round_trip(self, tmp_path, capsys):
        path = write_doc(tmp_path, COUNTEREXAMPLE_DOC)
        assert main(["solve", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["r_co"] == "9/4"
        assert report["c_sk"] == "3/4"
        assert [parse_fraction(v) for v in report["rates"]] == [
            F(1, 4), F(1, 4), F(1, 4), F(1, 2), F(1, 2), F(1, 2),
        ]

    def test_json_output_deterministic(self, tmp_path, capsys):
        path = write_doc(tmp_path, COUNTEREXAMPLE_DOC)
        main(["solve", path, "--json"])
        first = capsys.readouterr().out
        main(["solve", path, "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_mdb_and_tight(self, tmp_path, capsys):
        path = write_doc(tmp_path, COUNTEREXAMPLE_DOC)
        assert main(["mdb", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mutual_dependence_bound"] == "1"
        assert len(report["minimizers"]) == 12

        assert main(["tight", path, "--json"]) == 0
        direct = json.loads(capsys.readouterr().out)
        assert direct["tight"] is False and direct["gap"] == "1/4"

        assert main(["tight", path, "--constructive", "--json"]) == 0
        constructive = json.loads(capsys.readouterr().out)
        assert constructive["tight"] is False
        assert constructive["witness"] is None
        assert constructive["method"] == "constructive"

    def test_parser_reuse_leaks_no_flag(self, tmp_path, capsys):
        path = write_doc(tmp_path, COUNTEREXAMPLE_DOC)
        requests = [
            ["tight", path, "--constructive"],
            ["tight", path],
            ["solve", path, "--json"],
            ["tight", path, "--constructive"],
        ]
        first = {}
        for argv in requests:
            first[tuple(argv)] = (main(argv), capsys.readouterr().out)
        assert len(set(first.values())) == 3
        for argv in requests:
            assert (main(argv), capsys.readouterr().out) == first[tuple(argv)]

    def test_invalid_vector_file_exits_two(self, tmp_path, capsys):
        doc = entropy_vector_doc(counterexample_entropy_vector(), [1, 2, 3])
        path = write_doc(tmp_path, doc)
        assert main(["solve", path]) == 2
        err = capsys.readouterr().err
        assert "supermodularity" in err
        assert main(["solve", path, "--no-validate"]) == 0
        assert "R_CO = 9/4" in capsys.readouterr().out

    def test_unnormalised_vector_exits_two(self, tmp_path, capsys):
        doc = {
            "m": 2,
            "active": [1, 2],
            "source": {
                "type": "entropy_vector",
                "values": {"": "1", "1": "1", "2": "1", "1,2": "2"},
            },
        }
        path = write_doc(tmp_path, doc)
        for argv in (["mdb"], ["tight"], ["tight", "--constructive"]):
            assert main([*argv, path, "--no-validate"]) == 2
            assert "H(X_emptyset)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "m,active,key,message",
        [
            (2, [1, 3], "1", "terminal 3 out of range for m=2"),
            (2, [1, 2], "1,3", "terminal 3 out of range for m=2"),
            (2, [1, 2], "x", "bad subset spec 'x'"),
            (1, [1, 2], "1", "terminal count must be in [2, 20], got 1"),
            (21, [1, 2], "1", "terminal count must be in [2, 20], got 21"),
        ],
        ids=["active-range", "key-range", "key-malformed", "m-small", "m-large"],
    )
    def test_bad_subset_or_terminal_count_exits_two(
        self, tmp_path, capsys, m, active, key, message
    ):
        values = {"1": "1", "2": "1", "1,2": "2", key: "1"}
        doc = {
            "m": m,
            "active": active,
            "source": {"type": "entropy_vector", "values": values},
        }
        path = write_doc(tmp_path, doc)
        for verb in ("mdb", "validate", "solve", "tight"):
            assert main([verb, path]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"omniscio: error: {message}\n"

    @pytest.mark.parametrize(
        "active,source,message",
        [
            ([1, 2], vector_source({"1": None}), "bad rational None"),
            ([1, 2], {"type": "tabular", "alphabets": [2, 2],
                      "pmf": [{"symbols": [0, 0], "prob": None}]},
             "bad rational None"),
            ([1, 2], "type", "field 'source' must be an object"),
            ([1, 2], {"type": "entropy_vector", "values": ["1", "1", "2"]},
             "field 'values' must be an object"),
            ([1, 2], {"type": "linear_gf2", "base_bits": 2, "terminals": 5},
             "field 'terminals' must be a list"),
            ([1, 2], {"type": "linear_gf2", "base_bits": 2, "terminals": [["10"]]},
             "expected 2 terminal row lists, got 1"),
            (3, vector_source({}), "field 'active' must be a list"),
            ([1, 2], {"type": "linear_gf2", "base_bits": "2",
                      "terminals": [["10"], ["01"]]},
             "field 'base_bits' must be an integer"),
            ([1, 2], {"type": "entropy_vector",
                      "values": {"1": True, "2": True, "1,2": 2}},
             "bad rational True"),
            ([1, 2], {"type": "tabular", "alphabets": [2, 2],
                      "pmf": [{"symbols": [0, 0], "prob": True}]},
             "bad rational True"),
            ([1, 2], vector_source({"2,1": "1"}),
             "entropy vector gives subset {1,2} twice, as '1,2' and '2,1'"),
            # json.dumps writes these as Infinity and -Infinity.
            ([1, 2], vector_source({"1": float("inf")}), "bad rational inf"),
            ([1, 2], vector_source({"1": float("-inf")}), "bad rational -inf"),
            ([1, 2], {"type": "tabular", "alphabets": [2, 2],
                      "pmf": [{"symbols": [0, 0], "prob": float("inf")}]},
             "bad rational inf"),
            ([1, 2], {"type": "tabular", "alphabets": [2, 2],
                      "pmf": [{"symbols": [0, 0], "prob": float("-inf")}]},
             "bad rational -inf"),
        ],
        ids=["value-null", "prob-null", "source-string", "values-list",
             "terminals-int", "terminals-count", "active-int",
             "base-bits-string", "value-true", "prob-true", "subset-twice",
             "value-inf", "value-minus-inf", "prob-inf", "prob-minus-inf"],
    )
    def test_malformed_document_exits_two(
        self, tmp_path, capsys, active, source, message
    ):
        # The first six ended in a TypeError or AttributeError traceback, and
        # a string base_bits was blamed on a bit string.
        path = write_doc(tmp_path, {"m": 2, "active": active, "source": source})
        for verb in ("solve", "mdb", "validate"):
            assert main([verb, path]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"omniscio: error: {message}\n"

    @pytest.mark.parametrize(
        "active,source,message",
        [
            ([1, 2], {"type": "linear_gf2", "base_bits": 2, "terminals": [5, 6]},
             "every element of field 'terminals' must be a list"),
            ([1, 2], {"type": "linear_gf2", "base_bits": 2,
                      "terminals": [["10"], [5]]},
             "bit string 5 must be 2 characters of 0/1"),
            ([1, 2], {"type": "tabular", "alphabets": [2, 2], "pmf": [5]},
             "every element of field 'pmf' must be an object"),
            (["1", 2], vector_source({}),
             "every element of field 'active' must be an integer"),
            ([1, 2], {"type": "tabular", "alphabets": ["2", 2],
                      "pmf": [{"symbols": [0, 0], "prob": "1"}]},
             "every element of field 'alphabets' must be an integer"),
            ([1, 2], {"type": "tabular", "alphabets": [2, 2],
                      "pmf": [{"symbols": ["0", 0], "prob": "1"}]},
             "every element of field 'symbols' must be an integer"),
            ([1.0, 2], vector_source({}),
             "every element of field 'active' must be an integer"),
            ([True, 2], vector_source({}),
             "every element of field 'active' must be an integer"),
            ([1, 2], {"type": "linear_gf2", "base_bits": True,
                      "terminals": [["1"], ["1"]]},
             "field 'base_bits' must be an integer"),
        ],
        ids=["terminals-ints", "bit-string-int", "pmf-int", "active-string",
             "alphabet-string", "symbol-string", "active-float", "active-bool",
             "base-bits-bool"],
    )
    def test_wrong_element_type_exits_two(
        self, tmp_path, capsys, active, source, message
    ):
        # The first seven ended in a TypeError traceback; the last two were
        # read as terminal 1 and as one base bit.
        path = write_doc(tmp_path, {"m": 2, "active": active, "source": source})
        for verb in ("solve", "mdb", "validate"):
            assert main([verb, path]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"omniscio: error: {message}\n"

    @pytest.mark.parametrize(
        "alphabets,pmf,message",
        [
            ([2], [([0, 0], "1")], "one alphabet size per terminal required"),
            ([2, 0], [([0, 0], "1")], "alphabet sizes must be positive"),
            ([2, 2], [([0], "1")], "symbol tuple (0,) has wrong arity"),
            ([2, 2], [([0, 2], "1")], "symbol 2 outside its alphabet"),
            ([2, 2], [([0, 0], "1/2"), ([0, 0], "1/2")],
             "duplicate pmf entry for (0, 0)"),
            ([2, 2], [([0, 0], "3/2"), ([1, 1], "-1/2")],
             "probabilities must be nonnegative"),
            ([2, 2], [([0, 0], "1/2")], "pmf sums to 1/2, expected exactly 1"),
        ],
        ids=["alphabet-count", "alphabet-empty", "arity", "symbol-range",
             "duplicate", "negative", "sum"],
    )
    def test_tabular_refusal_exits_two(
        self, tmp_path, capsys, alphabets, pmf, message
    ):
        source = {
            "type": "tabular",
            "alphabets": alphabets,
            "pmf": [{"symbols": s, "prob": p} for s, p in pmf],
        }
        path = write_doc(tmp_path, {"m": 2, "active": [1, 2], "source": source})
        for verb in ("solve", "mdb", "validate"):
            assert main([verb, path]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"omniscio: error: {message}\n"

    def test_validate_verb(self, tmp_path, capsys):
        doc = entropy_vector_doc(counterexample_entropy_vector(), [1, 2, 3])
        bad = write_doc(tmp_path, doc, "bad.json")
        assert main(["validate", bad, "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
        assert {"b1": [1, 2, 4], "b2": [1, 2, 5], "lhs": "2", "rhs": "1"} in [
            {k: v[k] for k in ("b1", "b2", "lhs", "rhs")}
            for v in report["supermodularity_violations"]
        ]
        good = write_doc(tmp_path, COUNTEREXAMPLE_DOC, "good.json")
        assert main(["validate", good]) == 0
        assert "valid entropy function: yes" in capsys.readouterr().out

    def test_counterexample_modes(self, capsys):
        assert main(["counterexample", "--mode", "paper-h", "--json"]) == 0
        paper = json.loads(capsys.readouterr().out)
        assert paper["r_co"] == "9/4" and paper["c_sk"] == "7/4"
        assert paper["mutual_dependence_bound"] == "2"
        assert paper["strict_gap"] is True

        assert main(["counterexample", "--mode", "generative", "--json"]) == 0
        gen = json.loads(capsys.readouterr().out)
        assert gen["r_co"] == "9/4" and gen["c_sk"] == "3/4"
        assert gen["mutual_dependence_bound"] == "1"
        assert gen["gap"] == "1/4" and gen["strict_gap"] is True

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("PUBLISHED_R_CO", F(5, 2), "R_CO = 9/4, expected 5/2"),
            ("PUBLISHED_C_SK", F(2), "C_SK = 7/4, expected 2"),
            ("PUBLISHED_BOUND", F(3), "I(A) = 2, expected 3"),
            ("PUBLISHED_RATES", (F(1, 4),) * 6, "optimal rates"),
            ("PUBLISHED_TIGHT_MASKS", (frozenset({1}),),
             "published six constraints must be among the tight ones"),
        ],
        ids=["r-co", "c-sk", "bound", "rates", "tight-masks"],
    )
    def test_wrong_published_value_exits_one(
        self, capsys, monkeypatch, name, value, message
    ):
        monkeypatch.setattr(reporting, name, value)
        for argv in (["counterexample", "--mode", "paper-h"], ["audit"]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("omniscio: error: ") and message in err

    def test_published_rows_may_be_every_tight_row(self, capsys, monkeypatch):
        # The check asks for containment: the twelve rows tight at the
        # published vertex pass as well as the published six.
        oracle = make_oracle(counterexample_entropy_vector(), validate=False)
        tight = r_co(oracle, 0b111).tight_masks
        assert len(tight) == 12
        published = tuple(frozenset(terminals_of(mask)) for mask in tight)
        monkeypatch.setattr(reporting, "PUBLISHED_TIGHT_MASKS", published)
        assert main(["counterexample", "--mode", "paper-h"]) == 0
        capsys.readouterr()

    def test_generative_mode_without_a_gap_exits_one(self, capsys, monkeypatch):
        # At A = M the bound is always tight.
        source = LinearGF2Source(3, 2, ((0b01,), (0b10,), (0b11,)))
        monkeypatch.setattr(reporting, "make_counterexample", lambda: (source, 0b111))
        assert main(["counterexample", "--mode", "generative"]) == 1
        assert capsys.readouterr().err == (
            "omniscio: error: expected a strict gap, got C_SK = 1/2, I(A) = 1/2\n"
        )

    def test_audit(self, capsys):
        assert main(["audit", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["differing_subsets"] > 0
        assert report["entropy_validity"]["paper_h"]["valid"] is False
        assert report["entropy_validity"]["generative"]["valid"] is True
        h_map = {tuple(r["subset"]): r for r in report["discrepancies"]}
        assert h_map[(1, 2, 4)]["h_paper"] == "1"
        assert h_map[(1, 2, 4)]["h_generative"] == "0"
        assert h_map[(1, 2, 3, 4, 5, 6)]["h_paper"] == "4"
        assert h_map[(1, 2, 3, 4, 5, 6)]["h_generative"] == "3"

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe{}",
            b"[" * 100000 + b"]" * 100000,
            pytest.param(
                b'{"m": ' + b"1" * 5000 + b"}",
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"),
                    reason="json reads any integer length before Python 3.11",
                ),
            ),
        ],
        ids=["utf16-bom", "nested-100000-deep", "5000-digit-integer"],
    )
    def test_unparsable_bytes_exit_two(self, tmp_path, capsys, content):
        # These ended in a UnicodeDecodeError, RecursionError or ValueError
        # traceback with exit 1.
        path = tmp_path / "source.json"
        path.write_bytes(content)
        for verb in ("solve", "mdb", "validate"):
            assert main([verb, str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"omniscio: error: malformed JSON in {path}: ")

    @pytest.mark.parametrize(
        "content,key",
        [
            ('{"m": 2, "active": [1, 2], "m": 3, "source": {}}', "m"),
            ('{"m": 2, "active": [1, 2], "source": {"type": "entropy_vector",'
             ' "values": {"1": "1", "2": "1", "1,2": "2", "1,2": "1"}}}', "1,2"),
        ],
        ids=["top-level", "entropy-value"],
    )
    def test_repeated_json_key_exits_two(self, tmp_path, capsys, content, key):
        # json.load kept the last of two equal keys: the second document
        # was read with H(X_{1,2}) = 1 and mdb exited 0.
        path = tmp_path / "source.json"
        path.write_text(content)
        for verb in ("solve", "mdb", "validate"):
            assert main([verb, str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"omniscio: error: JSON object repeats key {key!r} in {path}\n"

    def test_repeated_key_scan_runs_only_on_a_repeat(self, monkeypatch):
        # Only cost depends on it: dict() keeps fewer keys than pairs
        # exactly when one repeats, and only then is the set built that
        # names the key.
        built = []
        monkeypatch.setattr(
            fileio, "set", lambda: built.append(1) or set(), raising=False
        )
        assert fileio._unique_keys([("a", 1), ("b", 2)]) == {"a": 1, "b": 2}
        assert built == []
        with pytest.raises(InvalidInputError, match="repeats key 'a'"):
            fileio._unique_keys([("a", 1), ("b", 2), ("a", 3)])
        assert built == [1]

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="no integer digit limit before Python 3.10.7",
    )
    @pytest.mark.parametrize(
        "text",
        ["1" + "0" * 5000, "1/1" + "0" * 5000, "1e5000", "1e-5000", "1e1000000"],
        ids=["5001-digits", "5001-digit-denominator", "1e5000", "1e-5000",
             "1e1000000"],
    )
    def test_rational_past_digit_limit_exits_two(self, tmp_path, capsys, text):
        # The first two ended in a ValueError traceback from int(); 1e5000
        # and 1e-5000 were read, and solve crashed printing them; 1e1000000
        # took over a minute to read. A value past 40 characters is quoted
        # by its first 40 and its length, so the line stays short.
        path = write_doc(
            tmp_path, {"m": 2, "active": [1, 2], "source": vector_source({"1": text})}
        )
        shown = repr(text)
        if len(text) > 40:
            shown = f"{text[:40]!r}... ({len(text)} characters)"
        for verb in ("solve", "mdb"):
            assert main([verb, path]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"omniscio: error: bad rational {shown}\n"
            assert len(err) < 100

    @pytest.mark.parametrize("content", ["5", '"m"', "[1]"])
    def test_document_that_is_not_an_object_exits_two(
        self, tmp_path, capsys, content
    ):
        path = tmp_path / "source.json"
        path.write_text(content)
        for verb in ("solve", "mdb", "validate"):
            assert main([verb, str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "omniscio: error: source document must be a JSON object\n"

    def test_missing_file_exits_two(self, capsys):
        assert main(["solve", "/nonexistent/source.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_enumeration_cap_env(self, tmp_path, capsys, monkeypatch):
        doc = {
            "m": 3,
            "active": [1, 2, 3],
            "source": {
                "type": "linear_gf2",
                "base_bits": 1,
                "terminals": [["1"], ["1"], ["1"]],
            },
        }
        path = write_doc(tmp_path, doc)
        monkeypatch.setenv("OMNISCIO_MAX_M", "2")
        assert main(["mdb", path]) == 2
        assert "OMNISCIO_MAX_M" in capsys.readouterr().err
        monkeypatch.setenv("OMNISCIO_MAX_M", "3")
        assert main(["mdb", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["mutual_dependence_bound"] == "1"


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_command_lines():
    """The argv of every line in the README's CLI block, FILE for its file."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    argvs = [line.split("#")[0].split()[1:] for line in lines if line.strip()]
    return [["FILE" if a == "examples.json" else a for a in argv] for argv in argvs]


def readme_library_block():
    """The README's ``## Library`` python block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1]
    return block.split("```", 1)[0]


def test_readme_library_block_runs():
    code = readme_library_block()
    assert "r_co(oracle, active)" in code
    exec(compile(code, str(README), "exec"), {})


# The command-line contract, one row per command line: (argv, exit code,
# what main writes). FILE stands for the counterexample source file and
# INVALID for its published, invalid table. "output" rows are the README's
# command lines, every request shape of perfbench/workloads.py, options
# before FILE and --mode=MODE: a report on stdout, nothing on stderr.
# "help" rows print HELP to stdout. "error" rows print nothing on stdout and
# the usage plus exactly one "omniscio: error:" line on stderr.
ARGV = [
    *[(argv, 0, "output") for argv in readme_command_lines() if "-h" not in argv],
    (["solve", "FILE", "--json"], 0, "output"),
    (["mdb", "FILE", "--json"], 0, "output"),
    (["validate", "FILE", "--json"], 0, "output"),
    (["validate", "INVALID", "--json"], 2, "output"),
    (["tight", "FILE", "--json"], 0, "output"),
    (["tight", "FILE", "--constructive", "--json"], 0, "output"),
    (["counterexample", "--mode", "paper-h", "--json"], 0, "output"),
    (["counterexample", "--mode", "generative", "--json"], 0, "output"),
    (["audit", "--json"], 0, "output"),
    (["tight", "--constructive", "--json", "FILE"], 0, "output"),
    (["solve", "--no-validate", "FILE"], 0, "output"),
    (["mdb", "--json", "FILE", "--no-validate"], 0, "output"),
    (["counterexample", "--mode=generative"], 0, "output"),
    (["counterexample", "--json", "--mode=paper-h"], 0, "output"),
    (["-h"], 0, "help"),
    (["--help"], 0, "help"),
    (["solve", "-h"], 0, "help"),
    (["tight", "FILE", "--help"], 0, "help"),
    (["counterexample", "--help"], 0, "help"),
    (["audit", "-h", "--json"], 0, "help"),
    ([], 2, "error"),  # no verb
    (["--json"], 2, "error"),
    (["bogus", "FILE"], 2, "error"),  # unknown verb
    (["Solve", "FILE"], 2, "error"),
    (["validate", "FILE", "--no-validate"], 2, "error"),  # a flag the verb lacks
    (["solve", "FILE", "--constructive"], 2, "error"),
    (["tight", "FILE", "--const"], 2, "error"),  # abbreviated
    (["solve", "FILE", "--json=1"], 2, "error"),
    (["solve", "FILE", "-j"], 2, "error"),
    (["solve", "FILE", "--mode", "paper-h"], 2, "error"),
    (["solve", "--json"], 2, "error"),  # missing FILE
    (["mdb", "FILE", "FILE"], 2, "error"),  # second FILE
    (["audit", "FILE"], 2, "error"),
    (["counterexample", "--mode", "paper-h", "FILE"], 2, "error"),
    (["counterexample", "--json"], 2, "error"),  # missing --mode
    (["counterexample", "--mode"], 2, "error"),
    (["counterexample", "--mode", "paper"], 2, "error"),  # unknown --mode
    (["counterexample", "--mode=bogus"], 2, "error"),
    (["counterexample", "--mode="], 2, "error"),
]


def test_readme_block_is_read():
    lines = readme_command_lines()
    assert ["tight", "FILE", "--constructive"] in lines
    assert ["counterexample", "--mode", "paper-h"] in lines


@pytest.mark.parametrize(
    "argv,code,written", ARGV, ids=[" ".join(argv) or "(none)" for argv, *_ in ARGV]
)
def test_argv_contract(argv, code, written, tmp_path, capsys):
    invalid = entropy_vector_doc(counterexample_entropy_vector(), [1, 2, 3])
    files = {
        "FILE": write_doc(tmp_path, COUNTEREXAMPLE_DOC),
        "INVALID": write_doc(tmp_path, invalid, "invalid.json"),
    }
    argv = [files.get(arg, arg) for arg in argv]
    try:
        got = main(argv)
    except SystemExit as exc:  # main returns every exit code
        pytest.fail(f"main({argv}) raised SystemExit({exc.code})")
    out, err = capsys.readouterr()
    assert got == code
    if written == "output":
        assert out and err == ""
    elif written == "help":
        assert (out, err) == (HELP, "")
    else:
        assert out == ""
        assert err.startswith(USAGE)
        error = err[len(USAGE):]
        assert error.startswith("omniscio: error: ")
        assert error.count("\n") == 1 and error.endswith("\n")
