"""The constraint graph and the feasibility-preserving permutation group.

The constraint graph of an instance has one vertex per bit and is the union
of the job-block and position-block cliques: two bits are adjacent iff they
share a job or a position (same machine and time), so the feasible strings
are exactly the independent sets of size J. The graph is the instance
itself: its questions (edge_count, is_independent_set, is_automorphism) are
read from the blocks, no adjacency matrix is built, and no size is refused.

The group that maps solutions to solutions is generated by job permutations,
position permutations, and (in the busy case P = J) a transposer exchanging
the two roles. Its order is 2*(J!)^2 when busy, P!*J! otherwise. Only the
job-side adjacent transpositions are ever compiled to gates; the rest exists
for verification.

A group is held as a base and strong generating set (deterministic
Schreier-Sims), which answers its order and membership without listing an
element. GROUP_CLOSURE_CAP bounds only what is listed: a group's rows,
which are built on first iteration, the strings of an orbit, and the
preservers the brute-force scan holds.

Permutations are 0-based one-line tuples (perm[k] = image of k). Public bit
and vertex labels are 1-based to match printed strings; when a permutation
meets a 1-based label, the bridge is label - 1. cycle_notation renders
1-based cycles.
"""

from __future__ import annotations

import collections.abc
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError
from .instances import (
    OsspInstance,
    as_integer,
    index_to_coordinate,
    is_feasible,
    job_blocks,
    position_blocks,
    solution_count,
)

BRUTE_FORCE_VERTEX_CAP = 10
GROUP_CLOSURE_CAP = 1_000_000  # listed group rows, orbit strings, held preservers


# ---------------------------------------------------------------------------
# permutation primitives


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def invert_perm(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def _check_perm(p, n: int) -> tuple[int, ...]:
    """p as a tuple of Python ints, each label read through as_integer;
    DomainError unless it lists 0..n-1 once each."""
    p = tuple(as_integer("permutation label", x) for x in p)
    if len(p) != n or sorted(p) != list(range(n)):
        raise DomainError(f"not a permutation of 0..{n - 1}: {p!r}")
    return p


def cycle_notation(perm) -> str:
    """Disjoint cycles with 1-based labels, e.g. '(1,2)(5,6)'; 'id' if trivial."""
    perm = tuple(perm)
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        cycles.append(cycle)
    if not cycles:
        return "id"
    return "".join("(" + ",".join(str(v + 1) for v in c) + ")" for c in cycles)


# ---------------------------------------------------------------------------
# group elements and their action on bits


@dataclass(frozen=True)
class GroupElement:
    """A pair (position permutation, job permutation), optionally composed
    with the busy-case position/job transposer."""

    position_perm: tuple[int, ...]
    job_perm: tuple[int, ...]
    swap_roles: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "position_perm", tuple(self.position_perm))
        object.__setattr__(self, "job_perm", tuple(self.job_perm))


def _adjacent_transposition(n: int, i: int) -> tuple[int, ...]:
    """Swap of (i, i+1) in 1-based labels over 0..n-1; DomainError when i
    is not an integer (as_integer) in 1..n-1."""
    i = as_integer("adjacent transposition index", i)
    if not (1 <= i <= n - 1):
        raise DomainError(f"adjacent transposition index {i} out of range 1..{n - 1}")
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def job_transposition_element(instance: OsspInstance, i: int) -> GroupElement:
    """The element (id, (i, i+1)) swapping adjacent jobs i and i+1."""
    return GroupElement(
        identity_perm(instance.positions),
        _adjacent_transposition(instance.jobs, i),
    )


def position_transposition_element(instance: OsspInstance, p: int) -> GroupElement:
    """The element ((p, p+1), id) swapping adjacent positions."""
    return GroupElement(
        _adjacent_transposition(instance.positions, p),
        identity_perm(instance.jobs),
    )


def transposer_element(instance: OsspInstance) -> GroupElement:
    """Busy case only: exchange the roles of positions and jobs."""
    if not instance.is_busy:
        raise DomainError("the position/job transposer exists only when P = J")
    return GroupElement(
        identity_perm(instance.positions), identity_perm(instance.jobs), swap_roles=True
    )


def vertex_permutation(instance: OsspInstance, g: GroupElement) -> tuple[int, ...]:
    """The induced 0-based permutation of the N bit positions; DomainError
    when g is not a GroupElement."""
    if not isinstance(g, GroupElement):
        raise DomainError(f"not a group element: {g!r}")
    if g.swap_roles and not instance.is_busy:
        raise DomainError("swap_roles is only valid on busy instances (P = J)")
    jobs = instance.jobs
    sigma = _check_perm(g.position_perm, instance.positions)
    tau = _check_perm(g.job_perm, jobs)
    out = []
    for n in range(instance.n_bits):
        p, j = divmod(n, jobs)
        p2, j2 = sigma[p], tau[j]
        if g.swap_roles:
            p2, j2 = j2, p2
        out.append(jobs * p2 + j2)
    return tuple(out)


# ---------------------------------------------------------------------------
# constraint graph


def edge_count(instance: OsspInstance) -> int:
    """P*C(J,2) + J*C(P,2): a job block and a position block share one bit,
    so no edge lies in two blocks."""
    p, j = instance.positions, instance.jobs
    return p * math.comb(j, 2) + j * math.comb(p, 2)


def is_independent_set(instance: OsspInstance, vertices) -> bool:
    """No two of the given vertices (1-based labels) lie in one block: no
    two share a position (m, t) or a job. Reads only the given vertices."""
    coords = [index_to_coordinate(instance, v) for v in set(vertices)]
    return len({c[:2] for c in coords}) == len(coords) == len({c[2] for c in coords})


def is_automorphism(instance: OsspInstance, perm) -> bool:
    """True iff the 0-based vertex permutation preserves adjacency both
    ways: iff it maps every block inside one block. Every edge, and every
    clique of three or more bits, lies in one block, so such a map keeps
    every edge, and a bijection that keeps every edge keeps every
    non-edge."""
    p = _check_perm(perm, instance.n_bits)
    blocks = [frozenset(b) for b in job_blocks(instance) + position_blocks(instance)]
    home = collections.defaultdict(list)  # vertex -> its job block and its position block
    for b in blocks:
        for v in b:
            home[v].append(b)
    for b in blocks:
        image = {p[v - 1] + 1 for v in b}
        if not any(image <= c for c in home[min(image)]):
            return False
    return True


# ---------------------------------------------------------------------------
# generators, order, orbits


def job_generators(instance: OsspInstance) -> list[GroupElement]:
    return [
        job_transposition_element(instance, i) for i in range(1, instance.jobs)
    ]


def group_generators(instance: OsspInstance) -> list[GroupElement]:
    """Adjacent job and position transpositions, plus the transposer when busy.

    The degenerate single-bit instance has a trivial group and an empty list.
    """
    gens = job_generators(instance)
    gens += [
        position_transposition_element(instance, p)
        for p in range(1, instance.positions)
    ]
    if instance.is_busy and instance.jobs > 1:
        gens.append(transposer_element(instance))
    return gens


def group_order(instance: OsspInstance) -> int:
    """2*(J!)^2 when busy, P!*J! otherwise (1 for the single-bit instance)."""
    order = math.factorial(instance.positions) * math.factorial(instance.jobs)
    return 2 * order if instance.is_busy and instance.jobs > 1 else order


def _closure(start: np.ndarray, perms) -> set[bytes]:
    """Breadth-first closure of the row {start} under x -> x[p] for p in perms.

    Rows are compact integer arrays (start's dtype: uint8 when the labels
    fit), so one step is one column gather frontier[:, p] per p over the
    whole frontier, and new rows are found through the set of row bytes.
    That set is returned as it is, for orbit to read; no row becomes a
    tuple here. Raises CapabilityError as soon as the closure would hold
    more than GROUP_CLOSURE_CAP rows.
    """
    gathers = [np.asarray(p, dtype=np.intp) for p in perms]
    row = np.dtype((np.void, start.nbytes))
    seen = {start.tobytes()}
    frontier = start[None, :]
    while len(frontier):
        fresh = []
        for p in gathers:
            # the gather comes out column-major; a row view needs C order
            for y in np.ascontiguousarray(frontier[:, p]).view(row).ravel().tolist():
                if y not in seen:
                    if len(seen) >= GROUP_CLOSURE_CAP:
                        raise CapabilityError(
                            f"closure exceeded the cap of {GROUP_CLOSURE_CAP} elements"
                        )
                    seen.add(y)
                    fresh.append(y)
        frontier = np.frombuffer(b"".join(fresh), dtype=start.dtype)
        frontier = frontier.reshape(len(fresh), len(start))
    return seen


def _compose(a, b) -> tuple[int, ...]:
    """a o b, the permutation that applies b first: (a o b)[x] = a[b[x]]."""
    return tuple(map(a.__getitem__, b))


def _sift(g, base, inverses, level: int = 0):
    """g stripped one base point at a time, from base[level], by the
    inverse transversal element for the point g takes it to, as far as
    that point lies in the basic orbit; returns what is left and the level
    where it stopped (len(base) when it went through). g is an element iff
    it goes through and leaves the identity."""
    for i in range(level, len(base)):
        inverse = inverses[i].get(g[base[i]])
        if inverse is None:
            return g, i
        g = _compose(inverse, g)
    return g, len(base)


def _schreier_sims(perms, n: int):
    """A base and strong generating set of the group that the given 0-based
    permutations of 0..n-1 generate, by deterministic Schreier-Sims (Sims
    1970; Holt, Eick and O'Brien, Handbook of Computational Group Theory,
    ch. 4).

    Returns (base, inverses, order). inverses[i] maps each point of the
    orbit of base[i] under the pointwise stabiliser of base[:i] to the
    inverse of an element of that stabiliser taking base[i] there, and the
    order is the product of the orbit lengths. No element is listed.
    """
    identity = identity_perm(n)
    base: list[int] = []
    gens: list[list[tuple[int, ...]]] = []  # gens[i]: strong generators fixing base[:i]
    transversals: list[dict[int, tuple[int, ...]]] = []  # [i][beta] takes base[i] to beta
    inverses: list[dict[int, tuple[int, ...]]] = []

    def add(g, low: int, top: int) -> None:
        """g fixes base[:top] and moves base[top], or, when top is
        len(base), a point that becomes a new base point: make it a
        generator of levels low..top and refill their orbits."""
        if top == len(base):
            base.append(next(x for x in range(n) if g[x] != x))
            gens.append([])
            transversals.append({})
            inverses.append({})
        for i in range(low, top + 1):
            gens[i].append(g)
            reps = transversals[i] = {base[i]: identity}
            queue = [base[i]]
            for beta in queue:
                for s in gens[i]:
                    gamma = s[beta]
                    if gamma not in reps:
                        reps[gamma] = _compose(s, reps[beta])
                        queue.append(gamma)
            inverses[i] = {beta: invert_perm(u) for beta, u in reps.items()}

    def residue(level: int):
        """(residue, level where it stopped) of the first Schreier
        generator u_gamma^-1 s u_beta of level that does not sift to the
        identity through the deeper levels, or None when all do."""
        for u in transversals[level].values():
            for s in gens[level]:
                su = _compose(s, u)
                gamma = su[base[level]]
                if su != transversals[level][gamma]:
                    g, top = _sift(_compose(inverses[level][gamma], su), base, inverses, level + 1)
                    if g != identity:
                        return g, top
        return None

    for p in perms:
        g, top = _sift(tuple(p), base, inverses)
        if g != identity:
            add(g, 0, top)
    # the levels deeper than `level` are complete: at each of them the
    # stabiliser of the base point is generated by the next level's
    # generators. A residue becomes a generator of the levels from
    # level + 1 to the one where it stopped, and the check resumes there.
    level = len(base) - 1
    while level >= 0:
        found = residue(level)
        if found is None:
            level -= 1
        else:
            g, top = found
            add(g, level + 1, top)
            level = top
    return base, inverses, math.prod(map(len, inverses))


def _list_elements(inverses, n: int) -> np.ndarray:
    """One row per element of the group with these inverse transversals,
    in uint8 labels up to 256 points. G^(i) = G^(i+1) V_i, for V_i the
    inverse transversal of base[i], so one column gather per base point,
    from the last, lists G."""
    dtype = np.min_scalar_type(max(n - 1, 0))
    rows = np.arange(n, dtype=dtype)[None, :]
    for table in reversed(inverses):
        rows = rows[:, np.array(list(table.values()), dtype=dtype)].reshape(-1, n)
    return rows


class PermutationGroup:
    """The group of permutations of 0..n-1 that the given 0-based
    permutations generate under composition, held as a base and strong
    generating set.

    Every generator must be a permutation of 0..n-1 for one n, the length
    of the first; anything else raises DomainError. No generators give
    the trivial group {()}. The constructor runs deterministic
    Schreier-Sims (see _schreier_sims) and lists no element.

    order is the product of the basic orbit lengths, an int of any size;
    len() returns it too, but Python refuses a len() past 2^63 - 1, so
    package code reads order. A group is never empty, so its truth value
    is True without a len(). in and == list nothing: a query is sifted
    through the transversals (see _sift), == against a plain set sifts
    each of its elements, and == against a group compares the orders and
    sifts the other's generators. in takes any sequence of integers and
    answers False for a wrong length, a label out of range or a
    non-integer entry. The elements are listed as rows (see
    _list_elements) when first iterated, and a group of order past
    GROUP_CLOSURE_CAP raises CapabilityError then, before any row exists.
    Iteration yields tuples of Python ints, in no fixed order. It is not
    a collections.abc.Set: no set operations, no subset comparisons.
    Unhashable, like set."""

    _CHUNK = 4096  # rows decoded per numpy call while iterating

    def __init__(self, perms) -> None:
        perms = [tuple(p) for p in perms]
        n = len(perms[0]) if perms else 0
        self._n, self._gens = n, [_check_perm(p, n) for p in perms]
        self._base, self._inverses, self.order = _schreier_sims(self._gens, n)
        self._rows = None

    def _listed(self) -> np.ndarray:
        """The rows of the elements, listed on the first call."""
        if self._rows is None:
            if self.order > GROUP_CLOSURE_CAP:
                raise CapabilityError(f"group order {self.order} exceeds the closure "
                                      f"cap of {GROUP_CLOSURE_CAP} elements")
            self._rows = _list_elements(self._inverses, self._n)
        return self._rows

    def __len__(self) -> int:
        return self.order

    def __bool__(self) -> bool:
        return True

    def __contains__(self, perm) -> bool:
        try:
            labels = tuple(operator.index(x) for x in perm)
        except TypeError:
            return False
        if len(labels) != self._n or not all(0 <= x < self._n for x in labels):
            return False
        return _sift(labels, self._base, self._inverses)[0] == identity_perm(self._n)

    def __iter__(self):
        rows = self._listed()
        for k in range(0, len(rows), self._CHUNK):
            yield from map(tuple, rows[k:k + self._CHUNK].tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, PermutationGroup):
            return (self._n, self.order) == (other._n, other.order) and all(
                g in self for g in other._gens)
        if not isinstance(other, collections.abc.Set):
            return NotImplemented
        return self.order == len(other) and all(x in self for x in other)


def generate_group(perms) -> PermutationGroup:
    """PermutationGroup(perms) with its elements listed: past
    GROUP_CLOSURE_CAP it raises CapabilityError from the Schreier-Sims
    order, before any element is listed."""
    group = PermutationGroup(perms)
    group._listed()
    return group


def orbit(instance: OsspInstance, z: str, generators) -> set[str]:
    """Breadth-first closure of {z} under the given group elements, on rows
    of the string's ASCII bytes; past GROUP_CLOSURE_CAP strings it raises
    CapabilityError.

    When the schedules outnumber the cap, the orbit is first bounded from
    below: the full group G acts transitively on the schedules S, so z's
    stabiliser in the generated group H has at most |G|/|S| elements, and
    its orbit at least |H||S|/|G|, read from H's Schreier-Sims order. Past
    the cap it refuses before the walk."""
    if not is_feasible(instance, z):
        raise DomainError(f"orbit seed {z!r} is not a feasible string")
    perms = [vertex_permutation(instance, g) for g in generators]
    count = solution_count(instance)
    if count > GROUP_CLOSURE_CAP:
        bound = -(-PermutationGroup(perms).order * count // group_order(instance))
        if bound > GROUP_CLOSURE_CAP:
            raise CapabilityError(f"an orbit of at least {bound} strings exceeds the "
                                  f"closure cap of {GROUP_CLOSURE_CAP} elements")
    # moving the bit at vertex n to perm[n] gathers with the inverse permutation
    rows = _closure(np.frombuffer(z.encode("ascii"), dtype=np.uint8), map(invert_perm, perms))
    return {row.decode("ascii") for row in rows}


def verify_block_system(instance: OsspInstance, blocks, generators) -> bool:
    """True iff every generator maps every block onto a block of the partition."""
    block_sets = [frozenset(as_integer("vertex", v) for v in b) for b in blocks]
    all_vertices = set()
    for b in block_sets:
        if not b:
            raise DomainError("blocks must be nonempty")
        for v in b:
            if not (1 <= v <= instance.n_bits):
                raise DomainError(f"vertex {v} out of range 1..{instance.n_bits}")
        if all_vertices & b:
            raise DomainError("blocks overlap; not a partition")
        all_vertices |= b
    if all_vertices != set(range(1, instance.n_bits + 1)):
        raise DomainError("blocks do not cover every vertex; not a partition")
    partition = set(block_sets)
    for g in generators:
        perm = vertex_permutation(instance, g)
        for b in block_sets:
            image = frozenset(perm[v - 1] + 1 for v in b)
            if image not in partition:
                return False
    return True


# ---------------------------------------------------------------------------
# transposition words


def decompose_job_permutation(tau) -> list[int]:
    """Factor tau (0-based one-line tuple) into adjacent transpositions.

    Returns 1-based generator indices [i1, ..., ik] meaning: apply (i1, i1+1)
    first, then (i2, i2+1), and so on. The length equals the inversion count
    of tau, hence is at most J(J-1)/2.
    """
    tau = tuple(tau)
    arr = list(_check_perm(tau, len(tau)))
    word: list[int] = []
    changed = True
    while changed:
        changed = False
        for k in range(len(arr) - 1):
            if arr[k] > arr[k + 1]:
                arr[k], arr[k + 1] = arr[k + 1], arr[k]
                word.append(k + 1)
                changed = True
    return word


# ---------------------------------------------------------------------------
# mixing families and brute-force verification


def check_mixing_family(instance: OsspInstance, family) -> bool:
    """True iff the job transpositions {tau_i : i in family} connect all
    solutions: iff the order of the group they generate on the J job
    labels is solution_count(instance). A job relabelling acts on the bits
    faithfully, so that order is the order of the group on the bits, and
    it moves every schedule, since each job sits at its own position, so
    the schedules one reaches from any start are as many as the group's
    elements. Nothing is listed and no size is refused; DomainError when an
    index is not an integer (as_integer) in 1..J-1."""
    perms = [_adjacent_transposition(instance.jobs, i) for i in family]
    return PermutationGroup(perms).order == solution_count(instance)


def bruteforce_feasibility_preservers(instance: OsspInstance, solutions) -> set[tuple[int, ...]]:
    """All N! vertex permutations mapping every solution to a solution.

    Guarded at N <= 10; beyond that the factorial scan is refused.
    """
    n = instance.n_bits
    if n > BRUTE_FORCE_VERTEX_CAP:
        raise CapabilityError(
            f"brute-force permutation scan refused for N = {n} > {BRUTE_FORCE_VERTEX_CAP}"
        )
    sol_vertices = []
    sol_masks = set()
    for z in solutions:
        vs = tuple(k for k, c in enumerate(z) if c == "1")
        sol_vertices.append(vs)
        mask = 0
        for v in vs:
            mask |= 1 << v
        sol_masks.add(mask)
    out = set()
    for perm in itertools.permutations(range(n)):
        ok = True
        for vs in sol_vertices:
            mask = 0
            for v in vs:
                mask |= 1 << perm[v]
            if mask not in sol_masks:
                ok = False
                break
        if ok:
            out.add(perm)
    return out
