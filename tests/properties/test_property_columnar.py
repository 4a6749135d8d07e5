"""Hypothesis property tests: the columnar decode of instance tuples.

:meth:`DimensionColumns.value_tuples` decodes each distinct code row
once and shares the tuple between the rows carrying it.  It must equal
the per-row decode it replaced — every feature column decoded through
its vocabulary, then zipped into rows — element for element, types
included, with one tuple object per distinct row.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import Dimension
from repro.egpm.columnar import DimensionColumns, Vocabulary

values = st.none() | st.integers(-3, 3) | st.text(max_size=3) | st.tuples(st.integers(0, 2))


def _columns(codes: np.ndarray, vocabularies: list[Vocabulary]) -> DimensionColumns:
    rows = len(codes)
    zeros = np.zeros(rows, dtype=np.int64)
    return DimensionColumns(
        dimension=Dimension.MU,
        feature_names=[f"f{i}" for i in range(len(vocabularies))],
        event_ids=np.arange(rows, dtype=np.int64),
        sources=zeros,
        sensors=zeros,
        source_codes=zeros,
        sensor_codes=zeros,
        codes=codes,
        vocabularies=vocabularies,
    )


@st.composite
def dimension_columns(draw, rows=st.integers(0, 30), features=st.integers(1, 4)):
    vocabularies = []
    for _ in range(draw(features)):
        vocab = Vocabulary()
        for value in draw(st.lists(values, min_size=1, max_size=5)):
            vocab.intern(value)
        vocabularies.append(vocab)
    n_rows = draw(rows)
    codes = np.array(
        [
            [draw(st.integers(0, len(vocab) - 1)) for vocab in vocabularies]
            for _ in range(n_rows)
        ],
        dtype=np.int64,
    ).reshape(n_rows, len(vocabularies))
    return _columns(codes, vocabularies)


def _zip_decode(columns: DimensionColumns) -> list[tuple]:
    """The per-row decode :meth:`DimensionColumns.value_tuples` replaced."""
    if columns.n_rows == 0:
        return []
    decoded = []
    for f, vocab in enumerate(columns.vocabularies):
        values = vocab.values()
        decoded.append([values[code] for code in columns.codes[:, f].tolist()])
    return list(zip(*decoded))


def _check(columns: DimensionColumns) -> None:
    tuples = columns.value_tuples()
    expected = _zip_decode(columns)
    assert len(tuples) == len(expected)
    for got, want in zip(tuples, expected):
        assert type(got) is tuple
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a is b
    assert len({id(t) for t in tuples}) == len(set(tuples))


class TestValueTuples:
    @given(dimension_columns())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_row_zip_decode(self, columns):
        _check(columns)

    @given(dimension_columns(rows=st.just(0)))
    @settings(deadline=None)
    def test_zero_rows(self, columns):
        assert columns.value_tuples() == []
        _check(columns)

    @given(dimension_columns(features=st.just(1)))
    @settings(deadline=None)
    def test_one_feature(self, columns):
        _check(columns)

    @given(dimension_columns(rows=st.integers(1, 30)), st.data())
    @settings(deadline=None)
    def test_all_duplicate_rows(self, columns, data):
        row = columns.codes[data.draw(st.integers(0, columns.n_rows - 1))]
        columns.codes = np.tile(row, (columns.n_rows, 1))
        _check(columns)
        assert len({id(t) for t in columns.value_tuples()}) == 1

    @given(st.integers(62, 80), st.integers(1, 4), st.data())
    @settings(deadline=None)
    def test_wide_rows_overflow_no_key(self, n_features, n_low, data):
        """62 or more two-value features need more key bits than an
        int64 holds: rows that differ only in their first features must
        stay apart."""
        vocabularies = []
        for _ in range(n_features):
            vocab = Vocabulary()
            vocab.intern("a")
            vocab.intern("b")
            vocabularies.append(vocab)
        low = data.draw(
            st.lists(
                st.lists(st.integers(0, 1), min_size=n_low, max_size=n_low),
                min_size=1,
                max_size=20,
            )
        )
        codes = np.zeros((len(low), n_features), dtype=np.int64)
        codes[:, :n_low] = low
        _check(_columns(codes, vocabularies))

    @given(st.integers(1, 4), st.integers(1, 40))
    @settings(deadline=None)
    def test_all_distinct_rows(self, n_features, n_rows):
        vocabularies = []
        for _ in range(n_features):
            vocab = Vocabulary()
            for value in range(n_rows):
                vocab.intern(f"v{value}")
            vocabularies.append(vocab)
        codes = np.tile(np.arange(n_rows, dtype=np.int64)[::-1, None], (1, n_features))
        columns = _columns(codes, vocabularies)
        _check(columns)
        assert len(set(columns.value_tuples())) == n_rows
