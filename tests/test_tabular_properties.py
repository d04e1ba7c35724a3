"""Property tests on tabular sources, whose oracles compare at a tolerance.

A tabular oracle holds double-precision entropies over one common
denominator, so the rate LP, I(A) and the witness certificate all run on
that integer table, exactly. Two properties:

* the uniform pmf over a linear source's base bits, written as a
  ``TabularSource``, gives R_CO and I(A) within the oracle's tolerance of
  the exact linear path;
* ``check_bound`` (which compares at the tolerance) and
  ``witness_by_partition_search`` (which needs I(A) = C_SK exactly) give
  the same verdict wherever I(A) and C_SK are equal or differ by more than
  the tolerance.

No source of m <= 4 terminals, linear or tabular, showed a gap between
I(A) and C_SK in a search over a few thousand of them, so the second test
also runs the six-terminal counterexample (gap 1/4) as a tabular source.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from omniscio import (
    check_bound,
    make_counterexample,
    make_oracle,
    mutual_dependence_bound,
    r_co,
    witness_by_partition_search,
)
from omniscio.sources import LinearGF2Source, TabularSource
from omniscio.subsets import full_mask

F = Fraction


def active_sets(m):
    """A = M, or any set of at least two terminals."""
    return st.integers(0, full_mask(m)).filter(lambda a: a.bit_count() >= 2)


@st.composite
def linear_sources(draw):
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 4))
    row = st.integers(1, (1 << n) - 1)
    rows = tuple(
        tuple(draw(st.lists(row, min_size=1, max_size=2))) for _ in range(m)
    )
    return LinearGF2Source(m, n, rows), draw(active_sets(m))


def uniform_tabular(source):
    """The pmf of every terminal's observation under uniform base bits:
    terminal j's symbol holds the parity of its row r at bit r."""
    counts = {}
    for y in range(1 << source.n):
        symbols = tuple(
            sum(((row & y).bit_count() & 1) << r for r, row in enumerate(rows))
            for rows in source.rows
        )
        counts[symbols] = counts.get(symbols, 0) + 1
    pmf = tuple((s, F(c, 1 << source.n)) for s, c in sorted(counts.items()))
    alphabets = tuple(1 << len(rows) for rows in source.rows)
    return TabularSource(source.m, alphabets, pmf)


@st.composite
def random_tabular(draw):
    m = draw(st.integers(2, 4))
    alphabets = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    symbol = st.tuples(*(st.integers(0, size - 1) for size in alphabets))
    symbols = sorted(draw(st.sets(symbol, min_size=1, max_size=6)))
    weights = draw(
        st.lists(st.integers(1, 6), min_size=len(symbols), max_size=len(symbols))
    )
    pmf = tuple((s, F(w, sum(weights))) for s, w in zip(symbols, weights))
    return TabularSource(m, alphabets, pmf), draw(active_sets(m))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(linear_sources())
def test_uniform_pmf_matches_the_linear_source(case):
    source, active = case
    exact = make_oracle(source)
    tabular = make_oracle(uniform_tabular(source))
    assert not tabular.exact
    assert tabular.isclose(r_co(tabular, active).r_co, r_co(exact, active).r_co)
    assert tabular.isclose(
        mutual_dependence_bound(tabular, active)[0],
        mutual_dependence_bound(exact, active)[0],
    )


def linear_as_tabular():
    return linear_sources().map(lambda c: (uniform_tabular(c[0]), c[1]))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.one_of(random_tabular(), linear_as_tabular()))
@example((uniform_tabular(make_counterexample()[0]), make_counterexample()[1]))
def test_deciders_agree_outside_the_tolerance(case):
    source, active = case
    oracle = make_oracle(source)
    report = r_co(oracle, active)
    direct = check_bound(oracle, active, report=report)
    constructive = witness_by_partition_search(oracle, active, report=report)
    assert constructive.gap == direct.gap >= 0
    if constructive.gap == 0 or constructive.gap * oracle.scale > oracle.tol:
        assert constructive.tight == direct.tight
    if constructive.tight:
        assert constructive.witness[1] == report.rates
