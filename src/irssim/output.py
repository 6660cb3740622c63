"""Result emission as plot-ready CSV or JSON.

Both formats are pinned byte for byte, and both read each result's stored
columns (:attr:`SweepResult.columns`, four of one length, as the result
checks when it is built) with no transposition and no per-row Python work:
CSV fills a ``%`` template per result from its values taken row by row, and
JSON joins each result's rows from its column tokens with ``str.join``.
Each document is then assembled from its pieces by one ``str.join``, so the
finished text is built once and not copied again, and :func:`emit_results`
writes it in one call:

* JSON is exactly ``json.dumps(payload, indent=2) + "\\n"`` of the list of
  ``{"label", "variable", "metadata", "rows"}`` objects. ``json.dumps`` writes
  the whole payload with each ``rows`` array replaced by ``0``, and each rows
  array is spliced in at the one place it can sit: ``"rows"`` is the last key
  of its object, so ``"rows": 0`` is followed by a newline and the two-space
  ``}`` that closes that object, a text no string token (which never holds a
  raw newline) and no deeper object can contain. Column values must be JSON
  scalars (numbers, booleans, ``None`` or strings). Each column is encoded by
  a compact ``json.dumps`` call with a newline as item separator, each token
  exactly as ``indent=2`` writes it (``NaN`` and ``Infinity`` included), and a
  newline never occurs inside a token, so splitting on it recovers one token
  per value. Each row is its four tokens joined by the text ``indent=2`` puts
  between two values, and the rows are joined by the text it puts between two
  rows. A column that repeats the same column of the previous result
  bit for bit (every value exactly a ``float`` and the two columns' IEEE 754
  bytes equal, so ``-0.0`` against ``0.0``, ``1`` or ``True`` against ``1.0``
  and two NaN objects never match) takes that result's tokens instead: the
  five figure curves share their distance grid and, with one seed and one
  noise floor, their SINR stddev column. Only the previous result's columns
  and tokens are kept, and its tokens are freed before the next result's are
  encoded, so a document still peaks at about its pieces plus their join; a
  cache of every column read would hold a token object per value.
* CSV writes each row as ``label,x,rx_power_dbm,sinr_db,sinr_db_stddev`` with
  the values formatted ``%.6f``. The label is quoted the way ``csv.writer``
  quotes a field under ``QUOTE_MINIMAL``; a label without a comma, quote or
  line break is written as it is. CSV reuses by the same rule as JSON, but
  through a row template rather than tokens: each result fills a label-free
  template that holds the ``%.6f`` texts of the columns repeating the previous
  result's, each formatted by one ``%`` call, and a ``%.6f`` slot for each
  other value (a result with nothing to repeat, such as the first, fills slots
  only). Only that template string is kept, not the texts it was made of, and
  only while the following results repeat the same columns; each result fills
  its slots with one ``%`` call, and its label is put in front of each row
  afterwards, so it needs no ``%`` escaping.
"""

from __future__ import annotations

import json
from array import array
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator, Tuple, Union

from irssim.channel import _check_type, _read
from irssim.errors import InvalidInputError
from irssim.sweep import SweepResult

CSV_HEADER = "scenario,x,rx_power_dbm,sinr_db,sinr_db_stddev"

Destination = Union[str, Path, IO[str]]

# the text between two values of a row, and between two rows, of a "rows"
# array as json.dumps(indent=2) writes it at nesting level 3
_JSON_VALUE_BREAK = ",\n        "
_JSON_ROW_BREAK = "\n      ],\n      [\n        "


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes a field of a multi-field row (QUOTE_MINIMAL)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _same_bits(column: tuple, previous: tuple) -> bool:
    """Whether two columns hold the same floats bit for bit, and so the same tokens and texts.

    Once the columns are equal and hold only floats, their bits can differ
    only where ``0.0`` meets ``-0.0`` (a NaN equals only itself, the same
    object), so the bytes are compared only when the column holds a zero.
    """
    return (column == previous
            and set(map(type, chain(column, previous))) == {float}
            and (0.0 not in column
                 or array("d", column).tobytes() == array("d", previous).tobytes()))


def _interleaved(columns: list, rows: int) -> tuple:
    """The values of ``columns`` row by row, as the arguments of one ``%`` call."""
    flat = [None] * (len(columns) * rows)
    for j, column in enumerate(columns):
        flat[j::len(columns)] = column
    return tuple(flat)


def _csv_texts(column: tuple) -> list:
    """The ``%.6f`` text of each value of a float column, from one ``%`` call."""
    return ("%.6f\n" * len(column) % column).split()


def _csv_template(columns: tuple, same: tuple) -> str:
    """Label-free rows, each after a newline: the ``%.6f`` texts of each column
    marked in ``same``, and a ``%.6f`` slot for each value of the others."""
    pieces = ["\n", "%.6f", ",", "%.6f", ",", "%.6f", ",", "%.6f"] * len(columns[0])
    for j, column in enumerate(columns):
        if same[j]:
            pieces[2 * j + 1::8] = _csv_texts(column)
    return "".join(pieces)


def _csv_rows(results: Iterable[SweepResult]) -> Iterator[str]:
    """Each result's rows, each after a newline, as one text per result with rows.

    The columns that repeat the previous result's bit for bit are written once
    into a row template, kept while the following results repeat the same
    columns with as many rows; each result fills in only its other columns,
    and its label is put in front of each row afterwards.
    """
    columns, kept, template = ((),) * 4, None, ""
    for result in results:
        previous, columns = columns, result.columns
        rows = len(columns[0])
        if not rows:
            continue
        same = tuple(map(_same_bits, columns, previous))
        if (same, rows) != kept:
            kept, template = (same, rows), _csv_template(columns, same)
        fresh = [column for column, repeated in zip(columns, same) if not repeated]
        try:
            body = template % _interleaved(fresh, rows)
        except TypeError as exc:  # a value %f cannot format
            raise InvalidInputError(
                f"CSV values of {result.scenario_label!r} must be real numbers ({exc})") from None
        yield body.replace("\n", "\n" + _csv_field(result.scenario_label) + ",")


def _encode(column: tuple) -> list:
    """The JSON token of each value, from one compact ``json.dumps`` call."""
    text = json.dumps(column, separators=("\n", ":"))[1:-1]
    return text.split("\n") if text else []


def _json_rows(results: Iterable[SweepResult]) -> Iterator[Tuple[str, ...]]:
    """Each result's rows array at nesting level 2, as pieces to be joined.

    A column that repeats the previous result's column bit for bit takes that
    result's tokens, and only the other columns are encoded.
    """
    columns, tokens = (), []
    for result in results:
        previous, columns = columns, result.columns
        reused = [tokens[j] if previous and _same_bits(column, previous[j]) else None
                  for j, column in enumerate(columns)]
        del tokens  # the previous result's tokens go before this result's are made
        tokens = [_encode(column) if same is None else same
                  for column, same in zip(columns, reused)]
        if not columns[0]:
            yield ("[]",)
            continue
        yield ("[\n      [\n        ",
               _JSON_ROW_BREAK.join(map(_JSON_VALUE_BREAK.join, zip(*tokens))),
               "\n      ]\n    ]")


def render_results(results: Iterable[SweepResult], fmt: str) -> str:
    results = _read(results, "results")  # not a lone SweepResult
    if not results:
        raise InvalidInputError("no results to emit")
    for i, result in enumerate(results):
        _check_type(f"results[{i}]", result, SweepResult)
    if fmt == "csv":
        return "".join([CSV_HEADER, *_csv_rows(results), "\n"])
    if fmt == "json":
        payload = [{"label": result.scenario_label, "variable": result.variable_name,
                    "metadata": result.metadata, "rows": 0} for result in results]
        heads = json.dumps(payload, indent=2).split('"rows": 0\n  }')
        pieces = [heads[0]]
        for rows, head in zip(_json_rows(results), heads[1:]):
            pieces += ('"rows": ', *rows, "\n  }", head)
        pieces.append("\n")
        return "".join(pieces)
    raise InvalidInputError(f"format must be 'csv' or 'json', got {fmt!r}")


def emit_results(results: Iterable[SweepResult], fmt: str, destination: Destination) -> None:
    """Write results to a path or text stream; identical inputs yield identical bytes."""
    if not isinstance(destination, (str, Path)) and not hasattr(destination, "write"):
        raise InvalidInputError(
            f"destination must be a path or a text stream, got {type(destination).__name__}")
    text = render_results(results, fmt)
    if isinstance(destination, (str, Path)):
        Path(destination).write_text(text, encoding="utf-8", newline="\n")
    else:
        destination.write(text)
