"""JSON wire formats for matrices and suite reports.

A matrix travels as ``{"rows": r, "cols": c, "data": [[re, im], ...]}``
with the data row-major; complex entries are [re, im] pairs so no string
parsing is ever involved.  Reports embed witness matrices in the same
format, which keeps them replayable: Python's json round-trips floats
exactly (shortest repr), so a reloaded witness reproduces its recorded
slack bit for bit.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import NoReturn

import numpy as np

from .exceptions import DimensionMismatchError

#: Python types of a JSON number; ``bool`` (an ``int`` subclass) is not one.
_NUMBER_TYPES = {float, int}


def matrix_to_dict(m) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=np.complex128))
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def matrix_from_dict(d) -> np.ndarray:
    """Decode a matrix object; any malformed field or entry raises
    ``DimensionMismatchError``.

    ``rows`` and ``cols`` must be JSON integers (not floats, strings or
    booleans).  Entries must be JSON numbers (strings and booleans are
    refused).  They convert as ``float()`` would, in one numpy call, and the
    ``(n, 2)`` float pairs are reinterpreted as complex128, so every bit (a
    signed zero too) survives the trip.
    """
    try:
        rows, cols, data = d["rows"], d["cols"], d["data"]
        size = len(data)
    except (KeyError, TypeError) as exc:
        raise DimensionMismatchError(f"malformed matrix object: {exc}") from exc
    for name, value in (("rows", rows), ("cols", cols)):
        if type(value) is not int:
            raise DimensionMismatchError(f"{name} must be a JSON integer, got {value!r}")
    if rows <= 0 or cols <= 0:
        raise DimensionMismatchError("matrix dimensions must be positive")
    if size != rows * cols:
        raise DimensionMismatchError(
            f"data length {size} does not match {rows}x{cols}"
        )
    try:
        pairs = np.array(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        pairs = None
    if (
        pairs is None
        or pairs.shape != (size, 2)
        or not np.isfinite(pairs).all()
        or not set(map(type, chain.from_iterable(data))) <= _NUMBER_TYPES
    ):
        _reject_entries(data)
    return pairs.view(np.complex128).reshape(rows, cols)


def _reject_entries(data) -> NoReturn:
    """Name the first entry that is not a pair of finite numbers."""
    for i, pair in enumerate(data):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise DimensionMismatchError(f"entry {i} is not an [re, im] pair")
        if not {type(pair[0]), type(pair[1])} <= _NUMBER_TYPES:
            raise DimensionMismatchError(f"entry {i} is not a pair of JSON numbers")
        try:
            real, imag = float(pair[0]), float(pair[1])
        except OverflowError as exc:
            raise DimensionMismatchError(
                f"entry {i} is not a pair of numbers: {exc}"
            ) from exc
        if not (np.isfinite(real) and np.isfinite(imag)):
            raise DimensionMismatchError("matrix entries must be finite")
    raise DimensionMismatchError("data is not a list of [re, im] pairs")


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_dict(json.load(fh))


def save_matrix(path, m) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")


def dump_report(report_dict: dict) -> str:
    """Canonical byte-stable encoding used for report files."""
    return json.dumps(report_dict, indent=2, sort_keys=True) + "\n"
