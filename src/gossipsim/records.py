"""Per-iteration metric records, deterministic CSV emission and the line rule of text inputs."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "ConsensusRecord",
    "OptimizeRecord",
    "data_lines",
    "format_value",
    "write_records_csv",
    "write_rows_csv",
]


@dataclass(frozen=True)
class ConsensusRecord:
    iter: int
    error: float
    lyapunov: float
    bits: int
    mean_drift: float


@dataclass(frozen=True)
class OptimizeRecord:
    iter: int
    subopt: float
    dispersion: float
    bits: int
    eta: float


def data_lines(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """``(line number from 1, tokens)`` of each line holding a token; ``#`` starts a comment."""
    for lineno, line in enumerate(lines, start=1):
        if tokens := line.split("#", 1)[0].split():
            yield lineno, tokens


def format_value(v) -> str:
    """Render a cell: strings verbatim, integers verbatim, floats with 17
    significant digits (shortest round-trip form)."""
    if isinstance(v, bool):
        raise TypeError("bool is not a CSV cell type")
    if isinstance(v, str):
        if "," in v or "\n" in v:
            raise ValueError(f"cell {v!r} would break the CSV layout")
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_rows_csv(path: str | Path, header: list[str], rows) -> None:
    """UTF-8 comma-separated file with a header row; byte-deterministic."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_records_csv(
    path: str | Path, records: list[ConsensusRecord] | list[OptimizeRecord]
) -> None:
    if not records:
        raise ValueError("no records to write")
    cols = [f.name for f in fields(records[0])]
    write_rows_csv(path, cols, [tuple(getattr(r, c) for c in cols) for r in records])
