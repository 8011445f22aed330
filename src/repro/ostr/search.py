"""The paper's depth-first OSTR search (Section 3) with Lemma-1 pruning.

The search tree's nodes are subsets ``N`` of the deduplicated basis
``M-basis = { m(rho_{s,t}) | s,t in S }``; an edge adds one basis element of
larger index, so the tree enumerates each subset exactly once and has
``|V| = 2^|M-basis|`` nodes.  For each node the relation
``pi = (union N)^t`` (the lattice join) is formed and up to two candidate
solutions are evaluated:

* the *M-side* ``(M(pi), pi)`` -- usable when the Mm-pair is symmetric
  (equivalently ``m(pi) ⊆ M(pi)``) and ``M(pi) ∩ pi ⊆ epsilon``;
* otherwise the *m-side* ``(m(pi), pi)`` -- which by Theorem 2 has the
  minimal intersection of its family -- when ``m(pi) ∩ pi ⊆ epsilon``.

**Lemma 1** prunes: ``m(pi) ∩ pi ⊄ epsilon`` is inherited by every superset
node, so the whole subtree can be discarded.

Two faithful-but-safe engineering additions, both switchable for the
accounting ablations:

* ``skip_redundant``: a child whose basis element is already below the
  current join contributes nothing new; its subtree is a duplicate of
  sibling subtrees and is skipped (node counts report how many).
* memoisation of node evaluations keyed by the join (different subsets can
  produce the same relation).

Two engines traverse the same tree in the same preorder.  The default is
the bitset-native engine: partitions live as the bitmasks of their
nontrivial blocks (see :func:`sparse_join`), and ``m`` is maintained
*incrementally* along DFS edges through the join-homomorphism
``m(pi v rho) = m(pi) v m(rho)`` (m is the smallest half of a pair
algebra, hence a complete join-morphism).  A node failing Lemma 1 gets no
candidate work at all: ``M(pi) ∩ pi ⊆ epsilon`` together with
``m(pi) ⊆ M(pi)`` would force the m-side condition.  Most such nodes are
caught before their ``m`` join by a pre-test on the parent's ``m`` image
and the new basis element's (both lie below ``m(pi)``); ``M`` is only
computed on symmetric nodes; and a repeated subtree (same join, same next
basis index) is replayed from a memo of its counts.  ``reference=True``
runs the seed's label-tuple interpreters operator by operator instead;
both produce identical solutions and identical search statistics, the
``node_limit`` cut included (asserted by the equivalence tests and the
Table-1 golden-stats file), only the wall clock differs.

An optional ``policy="extended"`` additionally coarsens the m-side first
factor greedily towards ``M(pi)`` while the intersection condition holds;
the paper's procedure does not do this, and the ablation benchmark uses the
flag to probe the paper's exactness claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..exceptions import SearchError
from ..fsm import MealyMachine
from ..fsm.equivalence import equivalence_labels
from ..partitions import Partition
from ..partitions import kernel
from ..partitions.mm import m_basis_labels
from .problem import OstrSolution, better, trivial_solution
from .theorem1 import PipelineRealization, realize

Labels = Tuple[int, ...]
Masks = Tuple[int, ...]


@dataclass
class SearchStats:
    """Search-effort accounting (the substance of Table 2)."""

    basis_size: int = 0
    tree_size: int = 0
    investigated: int = 0
    pruned_subtrees: int = 0
    skipped_redundant: int = 0
    unique_joins: int = 0
    candidates_evaluated: int = 0
    improvements: int = 0
    elapsed_seconds: float = 0.0
    timed_out: bool = False
    node_limit_hit: bool = False

    @property
    def exact(self) -> bool:
        """Did the search cover the whole (pruned) tree?"""
        return not (self.timed_out or self.node_limit_hit)


@dataclass
class OstrResult:
    """Outcome of an OSTR search on one machine."""

    machine: MealyMachine
    solution: OstrSolution
    stats: SearchStats
    policy: str

    @property
    def exact(self) -> bool:
        return self.stats.exact

    def realization(self, name: str = None) -> PipelineRealization:
        """Instantiate (and verify) the Theorem-1 realization of the solution."""
        return realize(
            self.machine, self.solution.pi, self.solution.theta, name=name
        )

    def summary(self) -> str:
        sol = self.solution
        flag = "" if self.exact else " *"
        return (
            f"{self.machine.name}: |S|={self.machine.n_states} -> "
            f"|S1|={sol.k1}, |S2|={sol.k2}, flipflops={sol.flipflops}{flag} "
            f"(investigated {self.stats.investigated} of 2^"
            f"{self.stats.basis_size} nodes)"
        )


_BASIS_ORDERS = ("sorted", "coarse_first", "fine_first")
_POLICIES = ("paper", "extended")


def search_ostr(
    machine: MealyMachine,
    prune: bool = True,
    skip_redundant: bool = True,
    node_limit: Optional[int] = None,
    time_limit: Optional[float] = None,
    policy: str = "paper",
    basis_order: str = "sorted",
    reference: bool = False,
) -> OstrResult:
    """Solve OSTR for ``machine`` with the paper's depth-first procedure.

    Always returns a valid solution: the trivial doubling solution is the
    incumbent before the search starts, exactly as the paper observes that
    ``(identity, identity)`` always solves OSTR.  When ``node_limit`` or
    ``time_limit`` stop the search early, the best solution so far is
    returned and flagged (``result.exact == False``) -- this mirrors the
    ``tbk``/timeout row of Table 1.

    The default engine is bitset-native (see the module docstring and
    :func:`_run_bitset`): block bitmasks from :func:`~repro.partitions.
    kernel.bitset_kernel`, ``m`` carried incrementally along DFS edges
    behind a Lemma-1 pre-test, ``M`` only on symmetric nodes, and memos
    for node evaluations, the ``join(pi, basis[i])`` DFS edges and whole
    repeated subtrees.  Pass ``reference=True`` for the seed's
    label-tuple operator-by-operator oracle; solutions and every search
    statistic are identical across the engines, only the wall clock
    differs.
    """
    if policy not in _POLICIES:
        raise SearchError(f"unknown policy {policy!r}; choose from {_POLICIES}")
    if basis_order not in _BASIS_ORDERS:
        raise SearchError(
            f"unknown basis order {basis_order!r}; choose from {_BASIS_ORDERS}"
        )
    if node_limit is not None and node_limit < 1:
        raise SearchError("node_limit must be positive")

    succ = machine.succ_table
    states = machine.states
    epsilon = equivalence_labels(machine)
    basis = m_basis_labels(succ)
    if basis_order == "coarse_first":
        basis.sort(key=kernel.num_blocks)
    elif basis_order == "fine_first":
        basis.sort(key=kernel.num_blocks, reverse=True)
    n_basis = len(basis)

    stats = SearchStats(basis_size=n_basis, tree_size=2 ** n_basis)
    best = trivial_solution(states)

    start_time = time.perf_counter()
    deadline = None if time_limit is None else start_time + time_limit
    if reference:
        best = _run_reference(
            machine, succ, states, epsilon, basis, stats, best,
            prune, skip_redundant, node_limit, deadline, policy,
        )
    else:
        best = _run_bitset(
            machine, succ, states, epsilon, basis, stats, best,
            prune, skip_redundant, node_limit, deadline, policy,
        )
    stats.elapsed_seconds = time.perf_counter() - start_time
    return OstrResult(machine=machine, solution=best, stats=stats, policy=policy)


def _run_reference(
    machine, succ, states, epsilon, basis, stats, best,
    prune, skip_redundant, node_limit, deadline, policy,
):
    """The seed's label-tuple DFS, kept verbatim as the equivalence oracle."""
    n = machine.n_states
    n_basis = len(basis)
    refines = kernel.refines
    m_of = lambda labels: kernel.m_operator(succ, labels)  # noqa: E731
    big_m_of = lambda labels: kernel.big_m_operator(succ, labels)  # noqa: E731
    meet_refines = lambda a, b, eps: kernel.refines(  # noqa: E731
        kernel.meet(a, b), eps
    )
    join_of = kernel.join

    # Memo table: joins repeat across subsets, and m/M are pure in the join.
    evaluation_cache: Dict[Labels, Tuple[List[Tuple[Labels, Labels]], bool]] = {}

    def evaluate(labels: Labels) -> Tuple[List[Tuple[Labels, Labels]], bool]:
        """Candidates at this join and whether Lemma 1 prunes the subtree."""
        cached = evaluation_cache.get(labels)
        if cached is not None:
            return cached
        mu = m_of(labels)
        big = big_m_of(labels)
        m_side_ok = meet_refines(mu, labels, epsilon)
        prunable = not m_side_ok
        candidates: List[Tuple[Labels, Labels]] = []
        if refines(mu, big):  # symmetry of the Mm-pair
            if meet_refines(big, labels, epsilon):
                candidates.append((big, labels))
            elif m_side_ok:
                candidates.append((mu, labels))
            if m_side_ok and policy == "extended":
                candidates.extend(
                    _extended_candidates(succ, mu, big, labels, epsilon)
                )
        outcome = (candidates, prunable)
        evaluation_cache[labels] = outcome
        return outcome

    root = kernel.identity(n)
    stack: List[Tuple[Labels, int]] = [(root, 0)]

    while stack:
        if node_limit is not None and stats.investigated >= node_limit:
            stats.node_limit_hit = True
            break
        if deadline is not None and stats.investigated % 128 == 0:
            if time.perf_counter() > deadline:
                stats.timed_out = True
                break
        labels, next_index = stack.pop()
        stats.investigated += 1

        candidates, prunable = evaluate(labels)
        for pi_labels, theta_labels in candidates:
            stats.candidates_evaluated += 1
            candidate = OstrSolution(
                pi=Partition(states, pi_labels),
                theta=Partition(states, theta_labels),
            )
            if better(candidate, best):
                best = candidate
                stats.improvements += 1

        if prune and prunable:
            stats.pruned_subtrees += 1
            continue

        for child_index in range(n_basis - 1, next_index - 1, -1):
            child = join_of(labels, basis[child_index])
            if skip_redundant and child == labels:
                stats.skipped_redundant += 1
                continue
            stack.append((child, child_index + 1))

    stats.unique_joins = len(evaluation_cache)
    return best


def sparse_join(base: Masks, constraints: Masks) -> Masks:
    """Join a nontrivial-blocks partition with the blocks of another.

    ``base`` holds only the nontrivial blocks of a partition (singletons
    implied) and ``constraints`` the nontrivial blocks of the other
    operand.  The current blocks stay pairwise disjoint, so a block meets
    ``con`` united with the blocks it absorbs iff it meets ``con`` itself:
    one scan over the current blocks per constraint merges everything it
    touches, deleting the absorbed blocks as it goes.  The result is
    sorted by int value, the search's private canonical order (the masks
    are distinct and disjoint, so any fixed order is canonical;
    :meth:`~repro.partitions.kernel.BitsetLattice.from_sparse` accepts
    it).  A join that changes nothing returns ``base`` itself, so callers
    detect a redundant edge with ``is``.
    """
    blocks = list(base)
    changed = False
    for con in constraints:
        acc = con
        i = len(blocks)
        while i:
            i -= 1
            block = blocks[i]
            if block & con:
                if not con & ~block:
                    break  # con lies inside one block: no-op
                acc |= block
                del blocks[i]
        else:
            blocks.append(acc)
            changed = True
    if not changed:
        return base
    blocks.sort()
    return tuple(blocks)


# Evaluation-cache entry shared by every join that fails Lemma 1 under
# ``prune=True``: such a node has no candidate and is never expanded, so it
# needs neither an ``m`` image nor a node id.
_PRUNED = ((), (), -1, ())


def _consider(candidates, best, states):
    """Score one node's candidates against the incumbent.

    Returns the new incumbent and how many candidates improved on it.
    """
    improvements = 0
    for pi_labels, theta_labels in candidates:
        candidate = OstrSolution(
            pi=Partition(states, pi_labels),
            theta=Partition(states, theta_labels),
        )
        if better(candidate, best):
            best = candidate
            improvements += 1
    return best, improvements


def _run_bitset(
    machine, succ, states, epsilon, basis, stats, best,
    prune, skip_redundant, node_limit, deadline, policy,
):
    """The bitset-native DFS: the production engine.

    Same preorder, same statistics as :func:`_run_reference`, including
    the cut at ``node_limit``.  Partitions live in the sparse form
    (nontrivial blocks only, see :func:`sparse_join`) and four structural
    savings apply:

    * ``m(pi)`` is carried down DFS edges as ``join(m(parent),
      m(basis[i]))`` -- m is a join-morphism.  Under ``prune`` the join is
      skipped when a cheaper Lemma-1 pre-test already fails: ``m(parent)``
      and ``m(basis[i])`` both lie below ``m(pi)``, so if either meets
      ``pi`` outside ``epsilon`` then so does ``m(pi)``.  The parent
      itself passed Lemma 1, so only block pairs involving a block the
      edge merged are tested.  A node failing Lemma 1 has no candidate
      (``M(pi) ∩ pi ⊆ epsilon`` with ``m(pi) ⊆ M(pi)`` would force the
      m-side condition).
    * ``M(pi)`` is only computed on symmetric nodes: ``m(pi) <= M(pi)``
      iff ``(m(pi), pi)`` is a partition pair (Galois connection), which a
      sparse-form pair test decides with an early exit.
    * Children are walked in ascending index order straight from the
      parent's frame; a pruned child is counted in place.  A redundant
      edge (``basis[i] <= pi``) is the join returning the parent object
      itself; ``skipped_redundant`` is counted as the walk passes it, and
      at a cut the unwalked rest of every open frame is counted too, as
      the reference counts a node's skips when it is investigated.
    * The subtree below a node depends only on its join and its next basis
      index, so each finished subtree's counts are memoised under
      ``(node id, next index)`` and a repeat is replayed whole when it fits
      the remaining node budget (otherwise it is walked, keeping the cut
      exact).  A replay cannot improve the incumbent: every candidate in
      it was already scored, and ``better`` is a strict ``<``.
    """
    kern = kernel.bitset_kernel(succ)
    n_basis = len(basis)
    basis_masks = [kern.from_labels(b) for b in basis]
    # Nontrivial blocks of each basis element and of its m image: the
    # constraint tuples of the DFS edges and of the incremental m joins.
    basis_nt = [kern.nontrivial(bm) for bm in basis_masks]
    basis_m_nt = [kern.nontrivial(kern.m(bm)) for bm in basis_masks]
    basis_union = [sum(blocks) for blocks in basis_nt]
    m_union = [sum(blocks) for blocks in basis_m_nt]
    eps_owner = kern.arrays(kern.from_labels(epsilon))[1]
    from_sparse = kern.from_sparse
    to_labels = kern.to_labels
    join = sparse_join
    extended = policy == "extended"

    def escapes(a: Masks, b: Masks) -> bool:
        """Is ``a ∩ b ⊄ epsilon``?  Only multi-element intersections can."""
        for am in a:
            for bm in b:
                x = am & bm
                if x & (x - 1) and x & ~eps_owner[(x & -x).bit_length() - 1]:
                    return True
        return False

    image = kern.image
    inputs = range(kern.n_inputs)

    def is_pair(a: Masks, b: Masks) -> bool:
        """Definition 4 on sparse forms: every image of an ``a`` block
        lies in one ``b`` block (exits at the first that does not)."""
        for am in a:
            for i in inputs:
                img = image(am, i)
                if img & (img - 1):
                    for bm in b:
                        if bm & img:
                            if img & ~bm:
                                return False
                            break
                    else:
                        return False
        return True

    def node_candidates(masks: Masks, mu: Masks) -> list:
        """Candidates of a node that passes Lemma 1 (``m(pi) ∩ pi ⊆ eps``)."""
        if not is_pair(mu, masks):  # m(pi) </= M(pi): Mm-pair not symmetric
            return []
        full = from_sparse(masks)
        mu_full = from_sparse(mu)
        big = kern.big_m(full)
        labels = to_labels(full)
        if kern.meet_refines_owner(big, full, eps_owner):
            candidates = [(to_labels(big), labels)]
        else:  # the m side is known to hold here
            candidates = [(to_labels(mu_full), labels)]
        if extended:
            candidates.extend(
                _extended_candidates(
                    succ, to_labels(mu_full), to_labels(big), labels, epsilon
                )
            )
        return candidates

    # Node evaluations, keyed by the sparse join: (candidates, m image,
    # dense node id, interned masks).  The node id keys the DFS-edge join
    # memo and the subtree memo as one small int.
    evaluation_cache: Dict[Masks, tuple] = {}
    join_cache: Dict[int, Masks] = {}
    subtree_memo: Dict[int, Tuple[int, int, int, int]] = {}
    eval_get = evaluation_cache.get
    join_get = join_cache.get
    memo_get = subtree_memo.get

    def evaluate(masks: Masks, parent_mu: Masks, via: int) -> tuple:
        """Evaluate a join first reached over edge ``via``."""
        m_via = basis_m_nt[via]
        if prune:
            # The parent is expanded, so it passed Lemma 1: m(parent)
            # meets every block the edge left alone inside epsilon, and
            # only the blocks it merged (those meeting the edge's
            # constraints) need testing -- likewise, after the join, only
            # the m blocks the join merged.
            fresh = [block for block in masks if block & basis_union[via]]
            if escapes(parent_mu, fresh) or escapes(m_via, masks):
                evaluation_cache[masks] = _PRUNED
                return _PRUNED
            mu = join(parent_mu, m_via)
            if escapes([block for block in mu if block & m_union[via]], masks):
                evaluation_cache[masks] = _PRUNED
                return _PRUNED
            candidates = node_candidates(masks, mu)
        else:
            mu = join(parent_mu, m_via)
            candidates = [] if escapes(mu, masks) else node_candidates(masks, mu)
        entry = (candidates, mu, len(evaluation_cache), masks)
        evaluation_cache[masks] = entry
        return entry

    if deadline is not None and time.perf_counter() > deadline:
        stats.timed_out = True
        return best

    # The root: the identity join, empty in sparse form, whose m image is
    # the identity again; it never fails Lemma 1.
    root: Masks = ()
    root_mu: Masks = ()
    candidates = node_candidates(root, root_mu)
    evaluation_cache[root] = (candidates, root_mu, 0, root)
    investigated = 1
    candidates_evaluated = len(candidates)
    best, improvements = _consider(candidates, best, states)
    pruned_subtrees = 0
    skipped_redundant = 0
    limit = float("inf") if node_limit is None else node_limit

    # The open frame: the node being expanded, its iterator over the
    # remaining child indices, its memo key and the counters at its start.
    masks, mu, edge_base = root, root_mu, 0
    children = iter(range(n_basis))
    memo_key = 0
    start = (1, 0, 0, candidates_evaluated)
    suspended: List[tuple] = []
    next_check = 128
    halted = False

    while True:
        for index in children:
            key = edge_base + index
            child = join_get(key)
            if child is None:
                child = join(masks, basis_nt[index])
                join_cache[key] = child
            if child is masks and skip_redundant:
                skipped_redundant += 1
                continue
            if investigated >= limit:
                stats.node_limit_hit = True
                halted = True
                break
            investigated += 1
            entry = eval_get(child)
            if entry is None:
                entry = evaluate(child, mu, index)
            if entry is _PRUNED:
                pruned_subtrees += 1
                continue
            candidates, child_mu, child_id, child = entry
            if candidates:
                candidates_evaluated += len(candidates)
                best, gained = _consider(candidates, best, states)
                improvements += gained
            next_index = index + 1
            if next_index == n_basis:
                continue  # a leaf: no larger basis index to add
            child_key = child_id * n_basis + next_index
            counts = memo_get(child_key)
            if counts is not None and investigated + counts[0] <= limit:
                investigated += counts[0]
                pruned_subtrees += counts[1]
                skipped_redundant += counts[2]
                candidates_evaluated += counts[3]
                continue
            suspended.append((children, masks, mu, edge_base, memo_key, start))
            masks, mu, edge_base = child, child_mu, child_id * n_basis
            children = iter(range(next_index, n_basis))
            memo_key = child_key
            start = (
                investigated, pruned_subtrees, skipped_redundant,
                candidates_evaluated,
            )
            break
        else:
            subtree_memo[memo_key] = (
                investigated - start[0],
                pruned_subtrees - start[1],
                skipped_redundant - start[2],
                candidates_evaluated - start[3],
            )
            if not suspended:
                break
            children, masks, mu, edge_base, memo_key, start = suspended.pop()
            continue
        if halted:
            break
        if deadline is not None and investigated >= next_check:
            next_check = investigated + 128
            if time.perf_counter() > deadline:
                stats.timed_out = True
                halted = True
                break

    if halted and skip_redundant:
        # The reference counts a node's redundant edges when it is
        # investigated; count those the walk never reached in every open
        # frame.
        suspended.append((children, masks, mu, edge_base, memo_key, start))
        for children, masks, _, edge_base, _, _ in suspended:
            for index in children:
                child = join_get(edge_base + index)
                if child is None:
                    child = join(masks, basis_nt[index])
                if child is masks:
                    skipped_redundant += 1

    stats.investigated += investigated
    stats.candidates_evaluated += candidates_evaluated
    stats.improvements += improvements
    stats.pruned_subtrees += pruned_subtrees
    stats.skipped_redundant += skipped_redundant
    stats.unique_joins = len(evaluation_cache)
    return best


def _color_coarsen(
    fine: Labels, bound: Labels, other: Labels, epsilon: Labels
) -> Labels:
    """Group blocks of ``fine`` within ``bound``-blocks, avoiding conflicts.

    A merged block must never contain two states that share an ``other``
    block without being ``epsilon``-equivalent (the meet condition of
    Theorem 1).  Any grouping between ``fine`` and ``bound`` keeps the
    symmetric-pair property, so fewer groups means a cheaper factor.
    Greedy first-fit over blocks ordered largest-first (Welsh-Powell
    style); deterministic, so runs are reproducible.
    """
    n = len(fine)
    members: Dict[int, List[int]] = {}
    for state in range(n):
        members.setdefault(fine[state], []).append(state)
    order = sorted(
        members, key=lambda block: (-len(members[block]), members[block][0])
    )

    def conflicts(states_a: List[int], states_b: List[int]) -> bool:
        for a in states_a:
            for b in states_b:
                if other[a] == other[b] and epsilon[a] != epsilon[b]:
                    return True
        return False

    groups: List[List[int]] = []  # states per group
    group_bound: List[int] = []
    assignment: Dict[int, int] = {}
    for block in order:
        states = members[block]
        placed = False
        for index, group in enumerate(groups):
            if group_bound[index] != bound[states[0]]:
                continue
            if not conflicts(states, group):
                group.extend(states)
                assignment[block] = index
                placed = True
                break
        if not placed:
            assignment[block] = len(groups)
            groups.append(list(states))
            group_bound.append(bound[states[0]])
    return kernel.canonical([assignment[fine[state]] for state in range(n)])


def _extended_candidates(
    succ, mu: Labels, big: Labels, pihat: Labels, epsilon: Labels
) -> List[Tuple[Labels, Labels]]:
    """Alternating coarsening of both factors (beyond the paper's policy).

    The paper evaluates only ``(M(pi), pi)`` and ``(m(pi), pi)`` per node,
    which provably misses optima whose factors lie strictly between those
    bounds (see EXPERIMENTS.md).  Starting from the always-valid m-side
    pair, alternately re-colour one side against the other until a
    fixpoint; every intermediate pair is a valid solution candidate.
    """
    candidates: List[Tuple[Labels, Labels]] = []
    first = _color_coarsen(mu, big, pihat, epsilon)
    second = pihat
    for _ in range(4):
        if not kernel.refines(kernel.meet(first, second), epsilon):
            break  # defensive; coloring should preserve the invariant
        candidates.append((first, second))
        second_low = kernel.m_operator(succ, first)
        second_high = kernel.big_m_operator(succ, first)
        if not kernel.refines(second_low, second_high):
            break
        new_second = _color_coarsen(second_low, second_high, first, epsilon)
        first_low = kernel.m_operator(succ, new_second)
        first_high = kernel.big_m_operator(succ, new_second)
        if not kernel.refines(first_low, first_high):
            break
        new_first = _color_coarsen(first_low, first_high, new_second, epsilon)
        if (new_first, new_second) == (first, second):
            break
        first, second = new_first, new_second
    # Belt and braces: the constructions above guarantee validity, but a
    # candidate that slipped through a bug here must never become the
    # reported optimum, so re-verify each pair.
    return [
        (a, b)
        for a, b in candidates
        if kernel.is_symmetric_pair(succ, a, b)
        and kernel.refines(kernel.meet(a, b), epsilon)
    ]
