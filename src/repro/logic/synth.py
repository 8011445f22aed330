"""Truth table -> multi-output two-level implementation.

Connects the encoding layer to the netlist layer: each output column of a
:class:`~repro.encoding.encoded.TruthTable` is minimized independently,
then identical product terms are shared across outputs PLA-style (one AND
row driving several OR planes).

The table's don't-care set is built once and shared by every output's
minimization.  The assembled multi-output cover is re-checked against the
table on minterm bitmaps (:mod:`repro.logic.cubes`): per output, the OR of
its rows' bitmaps must equal the on-set bitmap on every specified pattern.
This is the only functional check of exact covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..encoding.encoded import TruthTable
from ..exceptions import LogicError
from .cubes import (
    Cover,
    cube_bitmap,
    cube_covers,
    cube_literals,
    minterm_bitmap,
    pack_cube,
    pack_minterm,
)
from .espresso_lite import minimize


@dataclass(frozen=True)
class MultiOutputCover:
    """A PLA-style implementation of a multi-output function.

    ``rows`` are the distinct product terms; ``output_masks[k]`` is a
    tuple of row indices feeding output ``k``.
    """

    name: str
    input_names: Tuple[str, ...]
    output_names: Tuple[str, ...]
    rows: Tuple[str, ...]
    output_rows: Tuple[Tuple[int, ...], ...]

    @property
    def n_inputs(self) -> int:
        return len(self.input_names)

    @property
    def n_outputs(self) -> int:
        return len(self.output_names)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def literals(self) -> int:
        """AND-plane literals plus OR-plane (output connection) count."""
        and_literals = sum(cube_literals(row) for row in self.rows)
        or_literals = sum(len(rows) for rows in self.output_rows)
        return and_literals + or_literals

    def pla_area(self) -> int:
        """Classic PLA area model: ``rows * (2 * inputs + outputs)``."""
        return self.n_rows * (2 * self.n_inputs + self.n_outputs)

    def evaluate(self, pattern: str) -> str:
        """Compute all output bits for a fully specified input pattern."""
        if len(pattern) != self.n_inputs or not set(pattern) <= {"0", "1"}:
            raise LogicError(f"invalid input pattern {pattern!r}")
        row_values = [cube_covers(row, pattern) for row in self.rows]
        return "".join(
            "1" if any(row_values[index] for index in rows) else "0"
            for rows in self.output_rows
        )

    def cover_for_output(self, position: int) -> Cover:
        """Single-output view of one output column."""
        return Cover(
            self.n_inputs,
            tuple(self.rows[index] for index in self.output_rows[position]),
        )


def synthesize_table(
    table: TruthTable, method: str = "auto", exact_limit: int = 10
) -> MultiOutputCover:
    """Minimize every output of a truth table and share product terms.

    The result is verified against every specified row of the table (the
    heuristic minimizer verifies each output; exact covers and the
    assembled multi-output structure are checked only here).
    """
    dc_set = table.dc_set()
    on_sets = [table.on_set(position) for position in range(table.n_outputs)]
    covers = [
        minimize(on_set, dc_set, table.n_inputs, method=method,
                 exact_limit=exact_limit)
        for on_set in on_sets
    ]

    row_index: Dict[str, int] = {}
    rows: List[str] = []
    output_rows: List[Tuple[int, ...]] = []
    for cover in covers:
        indices = []
        for cube in cover.cubes:
            if cube not in row_index:
                row_index[cube] = len(rows)
                rows.append(cube)
            indices.append(row_index[cube])
        output_rows.append(tuple(indices))

    result = MultiOutputCover(
        name=table.name,
        input_names=table.input_names,
        output_names=table.output_names,
        rows=tuple(rows),
        output_rows=tuple(output_rows),
    )
    _check_against_table(result, table, on_sets)
    return result


def _check_against_table(
    result: MultiOutputCover, table: TruthTable, on_sets: Sequence[Sequence[str]]
) -> None:
    """Raise on the first table row (in row order) the cover gets wrong."""
    n_inputs = table.n_inputs
    care = minterm_bitmap(pack_minterm(pattern) for pattern in table.rows)
    row_bitmaps = [cube_bitmap(*pack_cube(row), n_inputs) for row in result.rows]
    wrong = 0
    for rows, on_set in zip(result.output_rows, on_sets):
        covered = 0
        for index in rows:
            covered |= row_bitmaps[index]
        wrong |= covered ^ minterm_bitmap(pack_minterm(m) for m in on_set)
    wrong &= care
    if not wrong:
        return
    pattern = next(p for p in table.rows if wrong >> pack_minterm(p) & 1)
    raise LogicError(
        f"synthesized cover disagrees with table {table.name!r} at "
        f"{pattern!r}: got {result.evaluate(pattern)!r}, "
        f"want {table.rows[pattern]!r}"
    )
