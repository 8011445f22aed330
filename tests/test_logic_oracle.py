"""Packed minimizers vs the string oracles on real controller logic.

The hypothesis functions in ``test_prop_partitions.py`` are too small to
reach three paths: a non-trivial cyclic core (branch-and-bound), the
heuristic minimizer above ``exact_limit``, and prime generation on a wide,
don't-care-heavy function.  These tests build the encoded tables the
Table-1 and ``pop-medium`` sweeps build and require covers identical to
:mod:`repro.logic.reference` on each of those paths.  A second group
checks that ``synthesize_table``'s packed re-check still rejects a wrong
cover and names the first disagreeing row.
"""

from __future__ import annotations

import pytest

import repro.logic.quine_mccluskey as quine_mccluskey
import repro.logic.synth as synth
from repro.encoding.encoded import encode_machine, encode_realization
from repro.exceptions import LogicError
from repro.logic import (
    minimize,
    minimize_exact,
    minimize_exact_reference,
    minimize_heuristic_reference,
    prime_implicants,
    prime_implicants_reference,
    synthesize_table,
)
from repro.logic.cubes import Cover
from repro.ostr import search_ostr
from repro.ostr.theorem1 import realize
from repro.partitions.partition import Partition
from repro.suite import corpus
from repro.suite.sweep import SweepConfig


def _member_machine(member_id: str):
    family = member_id.split("/", 1)[0]
    (member,) = [
        m for m in corpus.members(family_filter=[family]) if m.member_id == member_id
    ]
    return member.build()


@pytest.fixture(scope="module")
def dk16_tables():
    """dk16's C1/C2/lambda tables as the Table-1 sweep encodes them.

    The pair is the one the sweep's search returns (``SweepConfig``
    defaults): pi merges s19 and s20, theta is the identity.  It is spelled
    out here because that search takes seconds.
    """
    machine = _member_machine("table1/dk16")
    singletons = [[state] for state in machine.states if state not in ("s19", "s20")]
    pi = Partition.from_blocks(machine.states, [["s19", "s20"]] + singletons)
    theta = Partition.identity(machine.states)
    return encode_realization(realize(machine, pi, theta))


def test_dk16_cyclic_cores_match_reference(dk16_tables, monkeypatch):
    """Every 7-input C1/C2 output; some of them need branch-and-bound."""
    calls = []
    real = quine_mccluskey._branch_and_bound

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(quine_mccluskey, "_branch_and_bound", spy)
    for table in (dk16_tables.c1, dk16_tables.c2):
        assert table.n_inputs == 7
        dc = table.dc_set()
        for position in range(table.n_outputs):
            on = table.on_set(position)
            assert minimize_exact(on, dc, 7) == minimize_exact_reference(on, dc, 7)
    assert len(calls) >= 2


def test_dk16_heuristic_output_matches_reference(dk16_tables):
    """A 12-input lambda output: above exact_limit, so espresso runs."""
    table = dk16_tables.lambda_
    assert table.n_inputs == 12
    on, dc = table.output_column(0)
    assert minimize(on, dc, 12) == minimize_heuristic_reference(on, dc, 12)


def test_medium_nine_input_output_matches_reference():
    """A don't-care-heavy 9-input lambda output of the pop-medium sweep."""
    machine = _member_machine("pop-medium/pm0002")
    config = SweepConfig()
    result = search_ostr(
        machine, node_limit=config.node_limit, basis_order=config.basis_order
    )
    table = encode_realization(result.realization()).lambda_
    assert table.n_inputs == 9
    on, dc = table.output_column(0)
    assert len(dc) > 2 ** 9 // 2
    assert prime_implicants(on, dc, 9) == prime_implicants_reference(on, dc, 9)
    assert minimize_exact(on, dc, 9) == minimize_exact_reference(on, dc, 9)


# ---------------------------------------------------------------------------
# synthesize_table's packed re-check
# ---------------------------------------------------------------------------


def _dk27_table():
    return encode_machine(_member_machine("table1/dk27")).table


def test_recheck_passes_an_unmodified_table():
    table = _dk27_table()
    cover = synthesize_table(table)
    for pattern, expected in table.rows.items():
        assert cover.evaluate(pattern) == expected


def test_recheck_names_the_first_disagreeing_row(monkeypatch):
    table = _dk27_table()
    real = synth.minimize
    lossy_covers = []

    def drop_first_cube(*args, **kwargs):
        cover = real(*args, **kwargs)
        lossy = Cover(cover.n_inputs, cover.cubes[1:])
        lossy_covers.append(lossy)
        return lossy

    monkeypatch.setattr(synth, "minimize", drop_first_cube)
    with pytest.raises(LogicError) as raised:
        synthesize_table(table)

    # The first row, in table order, the lossy covers get wrong.
    def actual(pattern):
        return "".join("1" if c.evaluate(pattern) else "0" for c in lossy_covers)

    pattern = next(p for p in table.rows if actual(p) != table.rows[p])
    assert str(raised.value) == (
        f"synthesized cover disagrees with table {table.name!r} at "
        f"{pattern!r}: got {actual(pattern)!r}, want {table.rows[pattern]!r}"
    )
