"""Result emission as plot-ready CSV or JSON.

Both formats are pinned byte for byte, and both read each result's stored
columns (:attr:`SweepResult.columns`, four of one length, as the result
checks when it is built) with no transposition and no per-row Python work:
one ``%`` template per result takes the values row by row from
``zip(*columns)``. Each document is then assembled from its pieces by one
``str.join``, so the finished text is built once and not copied again, and
:func:`emit_results` writes it in one call:

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
  per value. A column that repeats the same column of the previous result
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
  line break is written as it is.
"""

from __future__ import annotations

import json
from array import array
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

from irssim.errors import InvalidInputError
from irssim.sweep import SweepResult

CSV_HEADER = "scenario,x,rx_power_dbm,sinr_db,sinr_db_stddev"

Destination = Union[str, Path, IO[str]]

# one row of the "rows" array as json.dumps(indent=2) writes it at nesting level 3
_JSON_ROW = "      [\n        %s,\n        %s,\n        %s,\n        %s\n      ]"


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes a field of a multi-field row (QUOTE_MINIMAL)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_rows(result: SweepResult) -> str:
    columns = result.columns
    row = _csv_field(result.scenario_label).replace("%", "%%") + ",%.6f,%.6f,%.6f,%.6f"
    return "\n".join([row] * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))


def _encode(column: tuple) -> list:
    """The JSON token of each value, from one compact ``json.dumps`` call."""
    text = json.dumps(column, separators=("\n", ":"))[1:-1]
    return text.split("\n") if text else []


def _same_bits(column: tuple, previous: tuple) -> bool:
    """Whether two columns hold the same floats bit for bit, and so the same tokens."""
    return (column == previous
            and set(map(type, chain(column, previous))) == {float}
            and array("d", column).tobytes() == array("d", previous).tobytes())


def _json_rows(results: Iterable[SweepResult]) -> Iterator[str]:
    """Each result's rows array at nesting level 2.

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
        count = len(columns[0])
        template = "[\n" + ",\n".join([_JSON_ROW] * count) + "\n    ]" if count else "[]"
        yield template % tuple(chain.from_iterable(zip(*tokens)))


def render_results(results: Iterable[SweepResult], fmt: str) -> str:
    results = tuple(results)
    if not results:
        raise InvalidInputError("no results to emit")
    bad = [(i, type(r).__name__) for i, r in enumerate(results) if not isinstance(r, SweepResult)]
    if bad:
        raise InvalidInputError("results[%d] must be a SweepResult, got %s" % bad[0])
    if fmt == "csv":
        blocks = [_csv_rows(result) for result in results if result.columns[0]]
        return "\n".join([CSV_HEADER, *blocks, ""])
    if fmt == "json":
        payload = [{"label": result.scenario_label, "variable": result.variable_name,
                    "metadata": result.metadata, "rows": 0} for result in results]
        heads = json.dumps(payload, indent=2).split('"rows": 0\n  }')
        pieces = [heads[0]]
        for rows, head in zip(_json_rows(results), heads[1:]):
            pieces += ('"rows": ', rows, "\n  }", head)
        pieces.append("\n")
        return "".join(pieces)
    raise InvalidInputError(f"format must be 'csv' or 'json', got {fmt!r}")


def emit_results(results: Iterable[SweepResult], fmt: str, destination: Destination) -> None:
    """Write results to a path or text stream; identical inputs yield identical bytes."""
    text = render_results(results, fmt)
    if isinstance(destination, (str, Path)):
        Path(destination).write_text(text, encoding="utf-8", newline="\n")
    else:
        destination.write(text)
