"""Heuristic two-level minimization (an espresso-style expand/irredundant loop).

For functions too wide for exact Quine-McCluskey, this implements the core
of the espresso recipe on explicit on/off sets:

1. **EXPAND** each cube literal-by-literal as long as it stays disjoint
   from the off-set (cube order: largest first, so big cubes absorb small
   ones early);
2. **ABSORB** cubes contained in other cubes;
3. **IRREDUNDANT**: greedily drop cubes whose on-set minterms are covered
   by the rest.

The passes run on packed ``(mask, value)`` integer cubes and minterm
bitmaps (:mod:`repro.logic.cubes`).  The off-set is one bitmap, and a cube
keeps the bitmap of its minterms as it expands: freeing a literal mirrors
that bitmap across the literal's input (one shift and OR), and the trial
cube meets the off-set iff the result ANDs non-zero with it -- the hot
loop of the whole minimizer is two big-int operations per literal instead
of a scan of the off-set.  :func:`repro.logic.reference.
minimize_heuristic_reference` is the seed's string implementation, kept as
the equivalence oracle; identical covers are asserted by the property and
corpus-scale oracle suites.  Cube orderings are fully deterministic
(first-appearance tie breaks), so repeated runs produce byte-identical
covers.

The result is verified against the on/off sets before being returned, so a
bug in the heuristics can never produce a functionally wrong cover.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..exceptions import LogicError
from .cubes import (
    Cover,
    IntCube,
    bitmap_minterms,
    cube_bitmap,
    int_cube_contains,
    int_supercube,
    minterm_bitmap,
    pack_minterm,
    space_bitmap,
    unpack_cube,
    unpack_minterm,
)


def _expand_cube(cube: IntCube, off_bitmap: int, n_inputs: int) -> IntCube:
    """Free bound literals while the cube avoids every off-set minterm."""
    mask, value = cube
    minterms = cube_bitmap(mask, value, n_inputs)
    bit = 1 << (n_inputs - 1) if n_inputs else 0
    while bit:  # string position order: leftmost (highest bit) first
        if mask & bit:
            # Freeing the literal adds each minterm's mirror across ``bit``.
            mirrored = minterms >> bit if value & bit else minterms << bit
            if not mirrored & off_bitmap:
                mask, value = mask & ~bit, value & ~bit
                minterms |= mirrored
        bit >>= 1
    return mask, value


def _absorb(cubes: List[IntCube]) -> List[IntCube]:
    """Remove cubes contained in another cube of the list."""
    kept: List[IntCube] = []
    for cube in sorted(
        dict.fromkeys(cubes), key=lambda c: c[0].bit_count()
    ):  # fewest bound literals (largest cube) first
        if not any(int_cube_contains(other, cube) for other in kept):
            kept.append(cube)
    return kept


def _cover_bitmap(cubes: Sequence[IntCube], n_inputs: int) -> int:
    """Bitmap of the minterms covered by any of the cubes."""
    covered = 0
    for mask, value in cubes:
        covered |= cube_bitmap(mask, value, n_inputs)
    return covered


def _irredundant(
    cubes: List[IntCube], on_bitmap: int, n_inputs: int
) -> List[IntCube]:
    """Greedy removal of cubes not needed to cover the on-set."""
    kept = list(cubes)
    # Try to drop the most specific (most bound literals) cubes first.
    for cube in sorted(list(kept), key=lambda c: -c[0].bit_count()):
        others = [c for c in kept if c != cube]
        if not on_bitmap & ~_cover_bitmap(others, n_inputs):
            kept = others
    return kept


def _reduce(
    cubes: List[IntCube], on_bitmap: int, n_inputs: int
) -> List[IntCube]:
    """REDUCE pass: shrink each cube to the supercube of the on-set
    minterms only it covers; a shrunk cube can expand differently on the
    next pass, letting the loop escape local minima.

    Cubes are processed sequentially against the *current* (partially
    reduced) cover: each step either shrinks one cube around minterms the
    rest does not cover, or drops a cube whose minterms the rest does
    cover -- so the list remains a cover of the on-set throughout.
    (Reducing all cubes against the original list simultaneously is
    unsound: two cubes that mutually cover a minterm would both drop it.)
    """
    reduced = list(cubes)
    position = 0
    while position < len(reduced):
        mask, value = reduced[position]
        others = reduced[:position] + reduced[position + 1 :]
        exclusive = (
            on_bitmap
            & cube_bitmap(mask, value, n_inputs)
            & ~_cover_bitmap(others, n_inputs)
        )
        if exclusive:
            reduced[position] = int_supercube(
                list(bitmap_minterms(exclusive)), n_inputs
            )
            position += 1
        else:
            del reduced[position]  # fully covered by the rest (irredundant)
    return reduced


def minimize_heuristic(
    on_set: Sequence[str],
    dc_set: Sequence[str],
    n_inputs: int,
    iterations: int = 2,
) -> Cover:
    """Espresso-style cover of an incompletely specified function.

    The classic loop: EXPAND against the off-set, ABSORB contained cubes,
    IRREDUNDANT, then REDUCE and repeat -- ``iterations`` rounds, keeping
    the best cover seen (fewest cubes, then fewest literals).  The off-set
    is materialised explicitly (as a minterm bitmap), so this still assumes
    the input space is enumerable (controller-scale logic); what it avoids
    is the prime-implicant explosion of exact minimization.
    """
    if not on_set:
        return Cover(n_inputs, ())
    for minterm in list(on_set) + list(dc_set):
        if len(minterm) != n_inputs or not set(minterm) <= {"0", "1"}:
            raise LogicError(f"invalid minterm {minterm!r}")
    on_values = [pack_minterm(minterm) for minterm in on_set]
    on_bitmap = minterm_bitmap(on_values)
    care = on_bitmap | minterm_bitmap(pack_minterm(m) for m in dc_set)
    off_bitmap = space_bitmap(n_inputs) & ~care
    full_mask = (1 << n_inputs) - 1

    def one_pass(cubes: List[IntCube]) -> List[IntCube]:
        cubes = sorted(dict.fromkeys(cubes), key=lambda c: c[0].bit_count())
        expanded = [_expand_cube(cube, off_bitmap, n_inputs) for cube in cubes]
        compact = _absorb(expanded)
        return _irredundant(compact, on_bitmap, n_inputs)

    current = one_pass(
        [(full_mask, v) for v in dict.fromkeys(on_values)]
    )
    best = list(current)

    def cost(cubes: List[IntCube]) -> Tuple[int, int]:
        return (len(cubes), sum(mask.bit_count() for mask, _ in cubes))

    for _ in range(max(0, iterations - 1)):
        reduced = _reduce(current, on_bitmap, n_inputs)
        if not reduced:
            break
        current = one_pass(reduced)
        # Candidate covers must actually cover the on-set before they can
        # compete on cost (EXPAND/IRREDUNDANT never add coverage, so a
        # coverage hole would otherwise win on cube count and only be
        # caught by the verification below).
        covers_on_set = not on_bitmap & ~_cover_bitmap(current, n_inputs)
        if covers_on_set and cost(current) < cost(best):
            best = list(current)

    cover = Cover(
        n_inputs,
        tuple(sorted(unpack_cube(mask, value, n_inputs) for mask, value in best)),
    )
    _verify_packed(best, on_values, on_bitmap, off_bitmap, n_inputs)
    return cover


def _verify_packed(
    cubes: List[IntCube],
    on_values: Sequence[int],
    on_bitmap: int,
    off_bitmap: int,
    n_inputs: int,
) -> None:
    """Bitmap form of :func:`repro.logic.cubes.verify_cover` (same failures)."""
    covered = _cover_bitmap(cubes, n_inputs)
    missed = on_bitmap & ~covered
    if missed:
        minterm = next(m for m in on_values if missed >> m & 1)
        raise LogicError(
            f"cover misses on-set minterm {unpack_minterm(minterm, n_inputs)!r}"
        )
    wrong = covered & off_bitmap
    if wrong:
        minterm = (wrong & -wrong).bit_length() - 1
        raise LogicError(
            "cover wrongly covers off-set minterm "
            f"{unpack_minterm(minterm, n_inputs)!r}"
        )


def minimize(
    on_set: Sequence[str],
    dc_set: Sequence[str],
    n_inputs: int,
    method: str = "auto",
    exact_limit: int = 10,
) -> Cover:
    """Front door: exact below ``exact_limit`` inputs, heuristic above."""
    from .quine_mccluskey import minimize_exact

    if method == "auto":
        method = "exact" if n_inputs <= exact_limit else "heuristic"
    if method == "exact":
        return minimize_exact(on_set, dc_set, n_inputs)
    if method == "heuristic":
        return minimize_heuristic(on_set, dc_set, n_inputs)
    raise LogicError(f"unknown minimization method {method!r}")
