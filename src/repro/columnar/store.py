"""Columnar record storage for the comparison hot path.

A :class:`ColumnarStore` re-lays a set of records out as *per-attribute
columns* of interned value ids, mirroring the list-based columnar
processing that let graph DBMSs escape per-object pointer chasing
(*Columnar Storage and List-based Processing for Graph DBMS*, PAPERS.md):

* every distinct attribute value is **interned** once into a shared
  string pool (``vid`` 0 is the null sentinel covering both ``None``
  and ``""``, matching :meth:`repro.core.records.Record.value`);
* each attribute becomes one dense ``int32`` array mapping row → value
  id, with row ids aligned to the dataset's dense numeric ids;
* token-id and n-gram-id derivations are computed **once per distinct
  value** (not once per pair) and stored as CSR-style sorted id arrays
  plus in-order sequences, ready for the batch kernels of
  :mod:`repro.columnar.kernels`;
* numeric parses and Soundex codes are likewise precomputed per
  distinct value.

Because interning is exact (case-sensitive, byte-for-byte), value-id
equality is string equality, and every derivation equals what the
scalar measures in :mod:`repro.matching.similarity` would compute for
the same strings — the foundation of the kernels' byte-identical
scoring guarantee.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.core.records import Dataset, Record
from repro.matching.similarity import (
    _token_tuple,
    ngrams,
    soundex,
)

__all__ = ["ColumnarStore", "NULL_VID"]

# Value id reserved for missing values (None or "", per Record.value).
NULL_VID = 0


class ColumnarStore:
    """Per-attribute columns of interned record values.

    Build with :meth:`from_dataset` (rows aligned with the dataset's
    dense numeric ids) or :meth:`from_records` (any mapping of record
    id → :class:`~repro.core.records.Record`, e.g. the resolved
    candidate view of the comparison stage or a streaming session's
    live registry).
    """

    def __init__(
        self,
        attributes: Sequence[str],
        row_ids: Sequence[str],
        values: Sequence[str | None],
        columns: Mapping[str, np.ndarray],
    ) -> None:
        if not values or values[0] is not None:
            raise ValueError("values[0] must be the None null sentinel")
        self.attributes: tuple[str, ...] = tuple(attributes)
        self.row_ids: tuple[str, ...] = tuple(row_ids)
        self._values: list[str | None] = list(values)
        self._columns: dict[str, np.ndarray] = {
            attribute: np.asarray(column, dtype=np.int32)
            for attribute, column in columns.items()
        }
        for attribute in self.attributes:
            if len(self._columns[attribute]) != len(self.row_ids):
                raise ValueError(
                    f"column {attribute!r} has {len(self._columns[attribute])} "
                    f"rows, store has {len(self.row_ids)}"
                )
        self._row_of: dict[str, int] = {
            record_id: row for row, record_id in enumerate(self.row_ids)
        }
        self._reset_derived()

    def _reset_derived(self) -> None:
        # Derived arrays are per *distinct value* and shared across
        # attributes (the same string yields the same tokens wherever
        # it appears); each is built lazily on first kernel use.
        self._token_sequences: list[tuple[str, ...]] | None = None
        self._token_csr: tuple[np.ndarray, np.ndarray] | None = None
        self._ngram_csr: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._numeric: tuple[np.ndarray, np.ndarray] | None = None
        self._soundex: np.ndarray | None = None
        self._token_vocab: dict[str, int] | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "ColumnarStore":
        """Columns over a dataset, rows aligned with its numeric ids."""
        return cls._build(
            list(dataset), dataset.attributes, [r.record_id for r in dataset]
        )

    @classmethod
    def from_records(
        cls,
        records: Mapping[str, Record],
        attributes: Sequence[str],
    ) -> "ColumnarStore":
        """Columns over a record mapping, rows in mapping order."""
        ordered = list(records.values())
        return cls._build(ordered, attributes, [r.record_id for r in ordered])

    @classmethod
    def _build(
        cls,
        records: Sequence[Record],
        attributes: Sequence[str],
        row_ids: Sequence[str],
    ) -> "ColumnarStore":
        values: list[str | None] = [None]
        vid_of: dict[str, int] = {}
        columns: dict[str, np.ndarray] = {}
        for attribute in attributes:
            column = np.empty(len(records), dtype=np.int32)
            for row, record in enumerate(records):
                value = record.value(attribute)
                if value is None:
                    column[row] = NULL_VID
                    continue
                vid = vid_of.get(value)
                if vid is None:
                    vid = len(values)
                    vid_of[value] = vid
                    values.append(value)
                column[row] = vid
            columns[attribute] = column
        return cls(attributes, row_ids, values, columns)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.row_ids)

    def __contains__(self, record_id: object) -> bool:
        return record_id in self._row_of

    @property
    def distinct_values(self) -> int:
        """Distinct non-null values in the interning pool."""
        return len(self._values) - 1

    def value_of(self, vid: int) -> str | None:
        """The interned string behind one value id (``None`` for 0)."""
        return self._values[vid]

    @property
    def values(self) -> Sequence[str | None]:
        """The interning pool; index is the value id."""
        return self._values

    def row_of(self, record_id: str) -> int:
        """Dense row index of ``record_id``."""
        return self._row_of[record_id]

    @property
    def row_index(self) -> Mapping[str, int]:
        """Record id → dense row index, for batch lookups."""
        return self._row_of

    def column(self, attribute: str) -> np.ndarray:
        """The ``int32`` value-id array of one attribute."""
        try:
            return self._columns[attribute]
        except KeyError:
            raise KeyError(
                f"attribute {attribute!r} not in columnar store "
                f"({', '.join(self.attributes)})"
            ) from None

    def record(self, record_id: str) -> Record:
        """Rebuild one :class:`Record` from the columns (fallback path)."""
        row = self._row_of[record_id]
        return Record(
            record_id=record_id,
            values={
                attribute: self._values[int(self._columns[attribute][row])]
                for attribute in self.attributes
            },
        )

    # -- derived per-distinct-value arrays ----------------------------------

    def token_sequences(self) -> list[tuple[str, ...]]:
        """In-order word-token tuples per value id (Monge–Elkan order)."""
        if self._token_sequences is None:
            self._token_sequences = [()] + [
                _token_tuple(value) for value in self._values[1:]
            ]
        return self._token_sequences

    def _vocab(self) -> dict[str, int]:
        if self._token_vocab is None:
            self._token_vocab = {}
        return self._token_vocab

    def token_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted unique token ids per value id, CSR layout.

        Returns ``(indptr, ids)``: value id ``v`` owns
        ``ids[indptr[v]:indptr[v + 1]]``, sorted ascending.  Token ids
        come from a store-local vocabulary, so id equality is token
        equality and set sizes/intersections equal the scalar
        ``frozenset`` derivations exactly.
        """
        if self._token_csr is None:
            vocab = self._vocab()
            self._token_csr = _build_csr(
                (
                    sorted({token for token in sequence})
                    for sequence in self.token_sequences()
                ),
                vocab,
            )
        return self._token_csr

    def ngram_csr(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted unique character n-gram ids per value id, CSR layout."""
        cached = self._ngram_csr.get(n)
        if cached is None:
            vocab: dict[str, int] = {}
            cached = _build_csr(
                (
                    sorted(ngrams(value, n)) if value is not None else ()
                    for value in self._values
                ),
                vocab,
            )
            self._ngram_csr[n] = cached
        return cached

    def numeric(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-vid ``(parsed, usable)`` arrays for the numeric kernel.

        ``usable`` marks values that parse as *finite* floats — exactly
        the inputs :func:`repro.matching.similarity.numeric_similarity`
        scores with the relative-distance formula; everything else
        (unparsable or non-finite) takes its exact-equality fallback.
        """
        if self._numeric is None:
            parsed = np.zeros(len(self._values), dtype=np.float64)
            usable = np.zeros(len(self._values), dtype=bool)
            for vid, value in enumerate(self._values):
                if vid == NULL_VID:
                    continue
                try:
                    number = float(value)
                except ValueError:
                    continue
                if math.isfinite(number):
                    parsed[vid] = number
                    usable[vid] = True
            self._numeric = (parsed, usable)
        return self._numeric

    def soundex_codes(self) -> np.ndarray:
        """Interned Soundex code id per value id.

        Code id 0 is the ``SOUNDEX_SENTINEL`` (non-encodable values),
        so kernels can apply the exact-equality fallback by comparing
        against 0.
        """
        if self._soundex is None:
            code_ids: dict[str, int] = {"0000": 0}
            codes = np.zeros(len(self._values), dtype=np.int32)
            for vid, value in enumerate(self._values):
                if vid == NULL_VID:
                    continue
                code = soundex(value)
                code_id = code_ids.setdefault(code, len(code_ids))
                codes[vid] = code_id
            self._soundex = codes
        return self._soundex

    def __repr__(self) -> str:
        return (
            f"ColumnarStore(rows={len(self.row_ids)}, "
            f"attributes={len(self.attributes)}, "
            f"distinct_values={self.distinct_values})"
        )


def _build_csr(
    id_lists: Iterable[Sequence[str]], vocab: dict[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, ids)`` arrays over per-value sorted string lists.

    Interns each string into ``vocab`` — ids are assigned in first-use
    order, then each row is re-sorted by id so kernels can merge rows
    as sorted runs.
    """
    indptr = [0]
    flat: list[int] = []
    for strings in id_lists:
        row = sorted(
            vocab.setdefault(string, len(vocab)) for string in strings
        )
        flat.extend(row)
        indptr.append(len(flat))
    return (
        np.asarray(indptr, dtype=np.int64),
        np.asarray(flat, dtype=np.int64),
    )
