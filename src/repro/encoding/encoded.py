"""Bit-level views of machines and pipeline realizations.

The synthesis flow lowers symbolic machines onto hardware in two steps:
choose encodings for states/inputs/outputs, then derive the truth tables of
the combinational blocks.  This module produces those truth tables:

* :func:`encode_machine` -- the classic Figure-1 controller: one block
  ``C`` computing (next state bits, output bits) from (state bits, input
  bits);
* :func:`encode_realization` -- the paper's Figure-4/8 structure: separate
  blocks ``C1`` (``delta1``), ``C2`` (``delta2``) and the output function
  ``lambda*``.

Rows not covered by any (state, input) pair -- unused codes -- are left
unspecified and become don't-cares for the logic minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import EncodingError
from ..fsm import MealyMachine
from ..ostr.theorem1 import PipelineRealization
from .codes import Encoding, make_encoding


@dataclass(frozen=True)
class TruthTable:
    """An incompletely specified multi-output Boolean function.

    ``rows`` maps fully specified input minterm strings to output strings;
    input combinations absent from ``rows`` are don't-cares.  Output strings
    are over ``"01"`` (specified outputs only; per-output don't-cares are
    not needed by this flow).
    """

    name: str
    input_names: Tuple[str, ...]
    output_names: Tuple[str, ...]
    rows: Dict[str, str]

    @property
    def n_inputs(self) -> int:
        return len(self.input_names)

    @property
    def n_outputs(self) -> int:
        return len(self.output_names)

    def __post_init__(self) -> None:
        for pattern, value in self.rows.items():
            if len(pattern) != self.n_inputs or not set(pattern) <= {"0", "1"}:
                raise EncodingError(f"bad input row {pattern!r}")
            if len(value) != self.n_outputs or not set(value) <= {"0", "1"}:
                raise EncodingError(f"bad output row {value!r}")

    def specified_fraction(self) -> float:
        """Fraction of the input space with specified outputs."""
        return len(self.rows) / (2 ** self.n_inputs) if self.n_inputs else 1.0

    def on_set(self, position: int) -> List[str]:
        """Input patterns whose output bit ``position`` is 1, in row order."""
        return [row for row, value in self.rows.items() if value[position] == "1"]

    def dc_set(self) -> List[str]:
        """Unspecified input patterns, ascending: the don't-cares of every output."""
        patterns = (
            format(value, f"0{self.n_inputs}b") for value in range(2 ** self.n_inputs)
        )
        return [pattern for pattern in patterns if pattern not in self.rows]

    def output_column(self, position: int) -> Tuple[List[str], List[str]]:
        """(on-set, dc-set) minterm lists for one output bit."""
        return self.on_set(position), self.dc_set()


@dataclass(frozen=True)
class EncodedMachine:
    """Figure-1 view: a single combinational block plus the register R."""

    machine: MealyMachine
    state_encoding: Encoding
    input_encoding: Encoding
    output_encoding: Encoding
    table: TruthTable  # inputs: state bits + input bits; outputs: next state + outputs

    @property
    def flipflops(self) -> int:
        return self.state_encoding.width


def _names(prefix: str, width: int) -> Tuple[str, ...]:
    return tuple(f"{prefix}{position}" for position in range(width))


def encode_machine(
    machine: MealyMachine,
    state_style: str = "binary",
    input_style: str = "binary",
    output_style: str = "binary",
) -> EncodedMachine:
    """Lower a machine to the Figure-1 single-block truth table."""
    state_encoding = make_encoding(machine.states, state_style)
    input_encoding = make_encoding(machine.inputs, input_style)
    output_encoding = make_encoding(machine.outputs, output_style)

    rows: Dict[str, str] = {}
    for state in machine.states:
        for symbol in machine.inputs:
            next_state, output = machine.step(state, symbol)
            pattern = state_encoding.encode(state) + input_encoding.encode(symbol)
            rows[pattern] = state_encoding.encode(next_state) + output_encoding.encode(
                output
            )
    table = TruthTable(
        name=f"{machine.name}.C",
        input_names=_names("s", state_encoding.width) + _names("x", input_encoding.width),
        output_names=_names("ns", state_encoding.width)
        + _names("z", output_encoding.width),
        rows=rows,
    )
    return EncodedMachine(machine, state_encoding, input_encoding, output_encoding, table)


@dataclass(frozen=True)
class EncodedRealization:
    """Figure-4 view: blocks C1, C2 and lambda*, plus registers R1 and R2.

    * ``c1``:     inputs ``r1 bits + x bits`` -> next ``r2`` bits (delta1);
    * ``c2``:     inputs ``r2 bits + x bits`` -> next ``r1`` bits (delta2);
    * ``lambda_``: inputs ``r1 + r2 + x bits`` -> output bits (lambda*).
    """

    realization: PipelineRealization
    r1_encoding: Encoding
    r2_encoding: Encoding
    input_encoding: Encoding
    output_encoding: Encoding
    c1: TruthTable
    c2: TruthTable
    lambda_: TruthTable

    @property
    def flipflops(self) -> int:
        return self.r1_encoding.width + self.r2_encoding.width

    @property
    def register_widths(self) -> Tuple[int, int]:
        return (self.r1_encoding.width, self.r2_encoding.width)


def encode_realization(
    realization: PipelineRealization,
    state_style: str = "binary",
    input_style: str = "binary",
    output_style: str = "binary",
) -> EncodedRealization:
    """Lower a Theorem-1 realization to the Figure-4 truth tables."""
    spec = realization.spec
    r1_encoding = make_encoding(realization.s1_blocks, state_style)
    r2_encoding = make_encoding(realization.s2_blocks, state_style)
    input_encoding = make_encoding(spec.inputs, input_style)
    output_encoding = make_encoding(spec.outputs, output_style)

    c1_rows: Dict[str, str] = {}
    for block in realization.s1_blocks:
        for symbol in spec.inputs:
            pattern = r1_encoding.encode(block) + input_encoding.encode(symbol)
            c1_rows[pattern] = r2_encoding.encode(realization.delta1[(block, symbol)])
    c2_rows: Dict[str, str] = {}
    for block in realization.s2_blocks:
        for symbol in spec.inputs:
            pattern = r2_encoding.encode(block) + input_encoding.encode(symbol)
            c2_rows[pattern] = r1_encoding.encode(realization.delta2[(block, symbol)])
    lambda_rows: Dict[str, str] = {}
    for block1 in realization.s1_blocks:
        for block2 in realization.s2_blocks:
            for symbol in spec.inputs:
                pattern = (
                    r1_encoding.encode(block1)
                    + r2_encoding.encode(block2)
                    + input_encoding.encode(symbol)
                )
                output = realization.machine.lam((block1, block2), symbol)
                lambda_rows[pattern] = output_encoding.encode(output)

    w1, w2 = r1_encoding.width, r2_encoding.width
    xw, zw = input_encoding.width, output_encoding.width
    c1 = TruthTable(
        name=f"{spec.name}.C1",
        input_names=_names("r1_", w1) + _names("x", xw),
        output_names=_names("nr2_", w2),
        rows=c1_rows,
    )
    c2 = TruthTable(
        name=f"{spec.name}.C2",
        input_names=_names("r2_", w2) + _names("x", xw),
        output_names=_names("nr1_", w1),
        rows=c2_rows,
    )
    lambda_ = TruthTable(
        name=f"{spec.name}.lambda",
        input_names=_names("r1_", w1) + _names("r2_", w2) + _names("x", xw),
        output_names=_names("z", zw),
        rows=lambda_rows,
    )
    return EncodedRealization(
        realization,
        r1_encoding,
        r2_encoding,
        input_encoding,
        output_encoding,
        c1,
        c2,
        lambda_,
    )
