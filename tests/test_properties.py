"""Property tests for the four record file formats.

Round trips: format -> parse -> format is byte-identical and the parsed
object equals the original.  Fuzzing: mutated files and random lines either
parse or raise ValueError, never any other exception.  Every test is
derandomized with a bounded example count, so the suite stays deterministic.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pospres.polyalg import Poly, iter_multiindices
from pospres.diffop import DiffOp, format_operator, parse_operator
from pospres.momseq import (
    DiscreteMeasure,
    MomentSeq,
    format_measure,
    format_sequence,
    parse_measure,
    parse_sequence,
)
from pospres.levygen import LevyTriple, format_levy_triple, parse_levy_triple

DATA = Path(__file__).parent / "data"
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
nonzero = finite.filter(lambda c: c != 0.0)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
moderate = st.floats(-1e6, 1e6, allow_nan=False)


def points(n):
    return st.tuples(*[finite] * n)


def polys(n):
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), nonzero, max_size=3)
    return terms.map(lambda t: Poly(n, t))


@st.composite
def operators(draw):
    n = draw(st.integers(1, 3))
    indices = st.tuples(*[st.integers(0, 4)] * n)
    coeffs = draw(st.dictionaries(indices, polys(n), max_size=4))
    return DiffOp(n, coeffs, allow_degree_excess=True)


@st.composite
def sequences(draw):
    n, order = draw(st.integers(1, 2)), draw(st.integers(0, 4))
    values = {a: draw(finite) for a in iter_multiindices(n, order)}
    return MomentSeq(n, order, values)


@st.composite
def measures(draw, n=None):
    n = n or draw(st.integers(1, 3))
    return DiscreteMeasure(draw(st.lists(st.tuples(points(n), positive), min_size=1, max_size=4)))


@st.composite
def triples(draw):
    n = draw(st.integers(1, 3))
    off = {(i, j): draw(moderate) for i in range(n) for j in range(i + 1, n)}
    off.update({(j, i): v for (i, j), v in off.items()})
    # diagonally dominant with a non-negative diagonal, hence positive semidefinite
    sigma = [[off[i, j] if i != j else sum(abs(off[i, k]) for k in range(n) if k != i)
              + draw(st.floats(0.0, 1e6)) for j in range(n)] for i in range(n)]
    nu = draw(st.none() | measures(n))
    return LevyTriple(draw(finite), sigma, draw(points(n)), nu, order=draw(st.integers(1, 8)))


@SETTINGS
@given(operators())
def test_operator_round_trip(T):
    text = format_operator(T)
    again = parse_operator(text, T.n)  # an operator without terms writes an empty file
    assert format_operator(again) == text
    assert (again.n, again.coeffs, again.max_order) == (T.n, T.coeffs, None)


@SETTINGS
@given(sequences())
def test_sequence_round_trip(s):
    text = format_sequence(s)
    again = parse_sequence(text)
    assert format_sequence(again) == text
    assert again == s


@SETTINGS
@given(measures())
def test_measure_round_trip(mu):
    text = format_measure(mu)
    again = parse_measure(text)
    assert format_measure(again) == text
    assert again == mu


@SETTINGS
@given(triples())
def test_triple_round_trip(tr):
    text = format_levy_triple(tr)
    again = parse_levy_triple(text, order=tr.order)
    assert format_levy_triple(again) == text
    assert again.a0 == tr.a0 and again.nu == tr.nu and again.order == tr.order
    assert np.array_equal(again.sigma, tr.sigma) and np.array_equal(again.b, tr.b)


# ---------------------------------------------------------------------------
# fuzzing
# ---------------------------------------------------------------------------

PARSERS = {
    "operator": (parse_operator, ["drift.op", "heat.op", "scaling3.op"],
                 "[0,0] = 1\n[2,1] = 0.5 * x1^2 x2 - 1e-3  # comment\n"),
    "sequence": (parse_sequence, ["d1.seq", "pm1.seq"], "[0,0] = 1\n[1,0] = -2.5\n[0,1] = 3\n"),
    "measure": (parse_measure, ["mix.measure"], "atom (0.5, -1) 2\natom (1e-3, 3) 0.125\n"),
    "triple": (parse_levy_triple, ["heat.triple"],
               "a0 = -0.5\nsigma = [[2, 0.5], [0.5, 1]]\nb = (1, -1)\nnu (1, 2) 0.25\n"),
}
# Mutations insert no digits: a sequence file's largest index sets the size of
# its dense table, so an inserted `[1,2999]` would allocate millions of entries.
MUTATION_CHARS = "[]()=,.#-+e x^*\n\t"
TOKENS = ["[0]", "[1,2]", "[ 2 , 0 ]", "[-1]", "(1.5)", "(0, 1)", "()", "=", "1", "-2.5e3",
          "nan", "x1", "x2^2", "*", "atom", "nu", "sigma", "b", "a0", "banana", "[[1]]",
          "[[1, 0], [0, 1]]", "[[1],[2]]", "#", ",", "(", ")", "[", "]", "\n"]


def parse_or_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@pytest.mark.parametrize("kind", sorted(PARSERS))
@SETTINGS
@given(data=st.data())
def test_mutated_files_parse_or_raise_value_error(kind, data):
    parse, files, example = PARSERS[kind]
    text = data.draw(st.sampled_from([(DATA / f).read_text() for f in files] + [example]))
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(text)))
        new = data.draw(st.sampled_from(["", *MUTATION_CHARS]))  # "" deletes
        keep = data.draw(st.booleans())  # insert before text[i], or replace it
        text = text[:i] + new + text[i + (0 if keep else 1):]
    parse_or_value_error(parse, text)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@SETTINGS
@given(lines=st.lists(st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join), max_size=5))
def test_random_lines_parse_or_raise_value_error(kind, lines):
    parse_or_value_error(PARSERS[kind][0], "\n".join(lines))
