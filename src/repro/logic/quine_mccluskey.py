"""Exact two-level minimization (Quine-McCluskey + covering).

Classic flow: generate all prime implicants of ``on ∪ dc`` by iterative
distance-1 merging, then solve the unate covering problem over the on-set
with essential-prime extraction, row/column dominance, and branch-and-bound
on the remaining cyclic core.  Cost order: fewest cubes, then fewest
literals -- the standard PLA objective, which is also what the paper's
"logic minimization" step (their references [5, 6]) optimises.

The public API trades in string cubes; the engine runs on packed
``(mask, value)`` integer cubes and minterm bitmaps
(:mod:`repro.logic.cubes`).  Prime generation keeps one bitmap of
implicants per cube mask, so all distance-1 merges across one input are a
single shift-and-AND instead of pairwise cube compares.  The cyclic-core
search holds its uncovered minterms as a bitmap, so picking the pivot is a
lowest-set-bit and scoring an option a popcount.
:func:`repro.logic.reference.minimize_exact_reference` is the seed's string
implementation, kept as the equivalence oracle -- both produce identical
covers (asserted by the property and corpus-scale oracle suites).

Intended for the input widths of controller logic (up to ~12 variables);
:mod:`repro.logic.espresso_lite` covers anything larger heuristically.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..exceptions import LogicError
from .cubes import (
    Cover,
    IntCube,
    bitmap_minterms,
    int_cube_literals,
    literal_bitmaps,
    minterm_bitmap,
    pack_cube,
    pack_minterm,
    unpack_cube,
    unpack_minterm,
)

_MAX_INPUTS = 16


def _validated_care(
    on_set: Sequence[str], dc_set: Sequence[str], n_inputs: int
) -> int:
    """Validate the minterm strings and return the care-set bitmap."""
    care = list(on_set) + list(dc_set)
    for minterm in care:
        if len(minterm) != n_inputs or not set(minterm) <= {"0", "1"}:
            raise LogicError(f"invalid minterm {minterm!r}")
    if n_inputs > _MAX_INPUTS:
        raise LogicError(
            f"{n_inputs} inputs exceeds the exact-minimizer limit "
            f"({_MAX_INPUTS}); use espresso_lite"
        )
    return minterm_bitmap(pack_minterm(minterm) for minterm in care)


def _prime_implicants_packed(care: int, n_inputs: int) -> List[IntCube]:
    """All prime implicants of the care-set bitmap, as packed cubes.

    The tabulation runs level by level with one bitmap per cube mask: bit
    ``v`` of ``level[mask]`` says cube ``(mask, v)`` is an implicant.  Two
    implicants of a mask merge across bound input ``k`` iff their values
    are ``v`` and ``v | 2**k`` with bit ``k`` of ``v`` clear, so every merge
    across ``k`` at once is ``V & (V >> 2**k) & clear[k]``.  An implicant
    that merged with nothing is prime.
    """
    bit_clear = [clear for clear, _ in literal_bitmaps(n_inputs)]
    level: Dict[int, int] = {(1 << n_inputs) - 1: care}
    primes: List[IntCube] = []
    while level:
        next_level: Dict[int, int] = {}
        for mask, implicants in level.items():
            merged = 0
            for k in range(n_inputs):
                bit = 1 << k
                if not mask & bit:
                    continue
                hits = implicants & (implicants >> bit) & bit_clear[k]
                if hits:
                    merged |= hits | hits << bit
                    wider = mask & ~bit
                    next_level[wider] = next_level.get(wider, 0) | hits
            primes.extend(
                (mask, value) for value in bitmap_minterms(implicants & ~merged)
            )
        level = next_level
    return primes


def prime_implicants(
    on_set: Sequence[str], dc_set: Sequence[str], n_inputs: int
) -> List[str]:
    """All prime implicants of the function ``on ∪ dc``."""
    care = _validated_care(on_set, dc_set, n_inputs)
    if not care:
        return []
    primes = _prime_implicants_packed(care, n_inputs)
    return sorted(unpack_cube(mask, value, n_inputs) for mask, value in primes)


def _select_cover_packed(
    primes: List[IntCube], on_values: List[int], n_inputs: int
) -> List[int]:
    """Indices of a minimum-cube (then minimum-literal) prime cover."""
    remaining = list(dict.fromkeys(on_values))
    if not remaining:
        return []
    covering: Dict[int, List[int]] = {
        minterm: [
            index
            for index, (mask, value) in enumerate(primes)
            if minterm & mask == value
        ]
        for minterm in remaining
    }
    for minterm, rows in covering.items():
        if not rows:
            raise LogicError(
                "no prime covers on-set minterm "
                f"{unpack_minterm(minterm, n_inputs)!r}"
            )

    chosen: Set[int] = set()
    # Essential primes + dominance until fixpoint.
    while True:
        changed = False
        # Essential: a minterm covered by exactly one remaining prime.
        for minterm in list(remaining):
            rows = covering[minterm]
            if len(rows) == 1:
                chosen.add(rows[0])
                mask, value = primes[rows[0]]
                remaining = [m for m in remaining if m & mask != value]
                changed = True
        if not remaining:
            break
        # Recompute candidate structure on the residual problem.
        active = sorted(
            {index for minterm in remaining for index in covering[minterm]}
            - chosen
        )
        prime_rows: Dict[int, FrozenSet[int]] = {
            index: frozenset(
                m for m in remaining if m & primes[index][0] == primes[index][1]
            )
            for index in active
        }
        # Column dominance: drop primes covering a subset at >= literal cost.
        dropped: Set[int] = set()
        for a in active:
            if a in dropped:
                continue
            literals_a = int_cube_literals(primes[a][0])
            for b in active:
                if a == b or b in dropped:
                    continue
                literals_b = int_cube_literals(primes[b][0])
                if prime_rows[a] < prime_rows[b] or (
                    prime_rows[a] == prime_rows[b]
                    and (
                        literals_a > literals_b
                        or (literals_a == literals_b and a > b)
                    )
                ):
                    dropped.add(a)
                    break
        if dropped:
            for minterm in remaining:
                covering[minterm] = [
                    index for index in covering[minterm] if index not in dropped
                ]
            changed = True
        if not changed:
            break

    if remaining:
        chosen |= _branch_and_bound(primes, remaining, covering, chosen)
    return sorted(chosen)


def _branch_and_bound(
    primes: List[IntCube],
    remaining: List[int],
    covering: Dict[int, List[int]],
    already: Set[int],
) -> Set[int]:
    """Exact covering of the cyclic core (small by the time we get here).

    Branches on the hardest uncovered minterm (fewest options, first in
    ``remaining`` on ties), trying its options most-new-coverage first.
    Minterms are ranked in that pivot order and the uncovered set is a
    bitmap over ranks, so the pivot is the lowest set bit and an option's
    new coverage one popcount.  The (cubes, literals) cost of the partial
    selection is carried down the recursion; ``best`` only ever moves to a
    strictly cheaper cover, so a node that cannot add one more cube below
    it is cut before its options are scored.
    """
    options_of = {
        minterm: [index for index in covering[minterm] if index not in already]
        for minterm in remaining
    }
    ranked = sorted(remaining, key=lambda minterm: len(options_of[minterm]))
    options = [options_of[minterm] for minterm in ranked]
    rows: Dict[int, int] = {}
    literals: Dict[int, int] = {}
    for index in {index for choices in options for index in choices}:
        mask, value = primes[index]
        rows[index] = sum(
            1 << rank
            for rank, minterm in enumerate(ranked)
            if minterm & mask == value
        )
        literals[index] = int_cube_literals(mask)

    best: Optional[Set[int]] = None
    best_cost: Optional[Tuple[int, int]] = None
    selection: List[int] = []

    def recurse(uncovered: int, cubes: int, lits: int) -> None:
        nonlocal best, best_cost
        if not uncovered:
            best, best_cost = set(selection), (cubes, lits)
            return
        if best_cost is not None and (cubes + 1, lits) >= best_cost:
            return
        pivot = (uncovered & -uncovered).bit_length() - 1
        choices = sorted(
            options[pivot], key=lambda index: -(uncovered & rows[index]).bit_count()
        )
        for index in choices:
            cost = (cubes + 1, lits + literals[index])
            if best_cost is not None and cost >= best_cost:
                continue
            selection.append(index)
            recurse(uncovered & ~rows[index], *cost)
            selection.pop()

    recurse((1 << len(ranked)) - 1, 0, 0)
    if best is None:
        raise LogicError("covering failed (unreachable for consistent input)")
    return best


def minimize_exact(
    on_set: Sequence[str], dc_set: Sequence[str], n_inputs: int
) -> Cover:
    """Exact minimum-cube two-level cover of an incompletely specified function."""
    if not on_set:
        return Cover(n_inputs, ())
    # The prime list is string-sorted so the covering problem (and its
    # index-based tie-breaks) sees exactly the order the string oracle saw.
    prime_strings = prime_implicants(on_set, dc_set, n_inputs)
    primes = [pack_cube(cube) for cube in prime_strings]
    on_values = [pack_minterm(minterm) for minterm in on_set]
    selected = _select_cover_packed(primes, on_values, n_inputs)
    return Cover(n_inputs, tuple(sorted(prime_strings[i] for i in selected)))
