"""Constraint-graph and permutation-group tests against frozen structure."""

import collections.abc
import itertools
import json
import math
import operator
import random
import textwrap
import time
import tracemalloc

import numpy as np
import pytest

from ossvqa import groups, instances
from ossvqa.errors import CapabilityError, DomainError
from ossvqa.groups import (
    GroupElement,
    bruteforce_feasibility_preservers,
    check_mixing_family,
    cycle_notation,
    decompose_job_permutation,
    edge_count,
    generate_group,
    group_generators,
    group_order,
    identity_perm,
    invert_perm,
    is_automorphism,
    is_independent_set,
    job_generators,
    job_transposition_element,
    orbit,
    position_transposition_element,
    transposer_element,
    vertex_permutation,
    verify_block_system,
)
from ossvqa.instances import (
    OsspInstance,
    enumerate_solutions,
    index_to_coordinate,
    is_feasible,
    job_blocks,
    position_blocks,
)

OSSP224 = OsspInstance(2, 2, 4)
OSSP133 = OsspInstance(1, 3, 3)
OSSP132 = OsspInstance(1, 3, 2)
OSSP122 = OsspInstance(1, 2, 2)
OSSP111 = OsspInstance(1, 1, 1)


def compose_perms(a, b) -> tuple[int, ...]:
    """a after b: (a o b)[x] = a[b[x]]."""
    return tuple(a[x] for x in b)


def permute_string(perm, z: str) -> str:
    """Move the bit at vertex n to vertex perm[n]."""
    chars = ["0"] * len(z)
    for n, c in enumerate(z):
        chars[perm[n]] = c
    return "".join(chars)


def recompose_word(word, n: int) -> tuple[int, ...]:
    """Reference for decompose_job_permutation: multiply out a word of
    1-based adjacent transpositions, the first listed acting first."""
    e = identity_perm(n)
    for i in word:
        t = list(range(n))
        t[i - 1], t[i] = i, i - 1
        e = compose_perms(tuple(t), e)
    return e


def test_perm_primitives():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose_perms(p, q) == (1, 0, 2)  # p after q
    assert compose_perms(q, p) == (2, 1, 0)
    assert invert_perm(p) == (2, 0, 1)
    assert compose_perms(p, invert_perm(p)) == identity_perm(3)
    assert cycle_notation((1, 0, 3, 2)) == "(1,2)(3,4)"
    assert cycle_notation((1, 2, 0)) == "(1,2,3)"
    assert cycle_notation(identity_perm(4)) == "id"


def test_graph_counts():
    assert OSSP224.n_bits == 16 and edge_count(OSSP224) == 48
    assert OSSP133.n_bits == 9 and edge_count(OSSP133) == 18
    assert OSSP111.n_bits == 1 and edge_count(OSSP111) == 0


def test_constraint_graph_of_90000_bits_builds_without_a_matrix(run_capped):
    # OSSP(1,300,300): 90,000 bits, whose dense adjacency would take 7.5 GiB
    script = textwrap.dedent("""
        from ossvqa.groups import (edge_count, is_automorphism,
            job_transposition_element, position_transposition_element, vertex_permutation)
        from ossvqa.instances import OsspInstance
        inst = OsspInstance(1, 300, 300)
        assert inst.n_bits == 90_000
        assert edge_count(inst) == 26_910_000
        for g in (job_transposition_element(inst, 1), position_transposition_element(inst, 1)):
            assert is_automorphism(inst, vertex_permutation(inst, g))
        # bits 1 and 302 share neither a job nor a position
        swap = list(range(inst.n_bits))
        swap[0], swap[301] = 301, 0
        assert not is_automorphism(inst, swap)
    """)
    code, err = run_capped([], limit_mb=1024, entry=("-c", script))
    assert code == 0, err


def dense_adjacency(inst):
    """The reference graph: bits are adjacent iff they share a position or a
    job, read off their coordinates."""
    coords = [index_to_coordinate(inst, i) for i in range(1, inst.n_bits + 1)]
    return np.array([
        [u != v and (cu[:2] == cv[:2] or cu[2] == cv[2]) for v, cv in enumerate(coords)]
        for u, cu in enumerate(coords)
    ])


GRAPH_SHAPES = (
    (1, 1, 1), (1, 2, 1), (1, 5, 1), (2, 3, 1),  # J = 1 (and P = 1)
    (1, 2, 2), (2, 1, 2), (1, 3, 3),  # busy
    (1, 3, 2), (1, 4, 2), (1, 4, 3), (2, 3, 2), (3, 2, 2), (1, 6, 2),  # not busy
)


def test_graph_matches_coordinate_rule():
    # is_automorphism and is_independent_set, read from the blocks, against
    # a dense adjacency matrix built here: every permutation up to 8 bits,
    # 500 random ones past that, every group generator, random vertex sets
    rng = np.random.default_rng(12)
    for shape in GRAPH_SHAPES:
        inst = OsspInstance(*shape)
        n = inst.n_bits
        adj = dense_adjacency(inst)
        assert edge_count(inst) == int(adj.sum()) // 2
        if n <= 8:
            perms = list(itertools.permutations(range(n)))
        else:
            perms = [tuple(rng.permutation(n).tolist()) for _ in range(500)]
        gens = [vertex_permutation(inst, g) for g in group_generators(inst)]
        p = np.array(perms + gens)
        want = (adj[p[:, :, None], p[:, None, :]] == adj).all(axis=(1, 2))
        assert [is_automorphism(inst, q) for q in perms + gens] == want.tolist()
        assert want[len(perms):].all()  # every generator keeps the graph
        for _ in range(200):
            vs = rng.choice(n, size=rng.integers(0, n + 1), replace=False)
            want = not adj[np.ix_(vs, vs)].any()
            assert is_independent_set(inst, (vs + 1).tolist()) == want


def test_edge_count_formula():
    # P*C(J,2) same-position edges plus J*C(P,2) same-job edges, disjoint families
    for inst in (OSSP224, OSSP133, OSSP132, OsspInstance(2, 3, 4), OsspInstance(2, 2, 2)):
        p, j = inst.positions, inst.jobs
        expected = p * (j * (j - 1) // 2) + j * (p * (p - 1) // 2)
        assert edge_count(inst) == expected


def test_independent_sets():
    # the drawn example solution: jobs 1..4 at (1,1), (2,2), (2,1), (1,2)
    assert is_independent_set(OSSP224, {1, 8, 11, 14})
    assert is_independent_set(OSSP224, set())
    assert not is_independent_set(OSSP133, {1, 2})  # same position block
    assert not is_independent_set(OSSP133, {1, 4})  # same job
    # feasible strings are exactly the J-element independent sets
    for z in enumerate_solutions(OSSP224):
        assert is_independent_set(OSSP224, [k + 1 for k, c in enumerate(z) if c == "1"])
    rng = np.random.default_rng(3)
    for _ in range(100):
        vs = tuple(sorted(rng.choice(16, size=4, replace=False) + 1))
        chars = ["0"] * 16
        for v in vs:
            chars[v - 1] = "1"
        assert is_independent_set(OSSP224, vs) == is_feasible(OSSP224, "".join(chars))
    with pytest.raises(DomainError):
        is_independent_set(OSSP133, {0})


def test_group_action_goldens():
    def act(g, z):
        return permute_string(vertex_permutation(OSSP133, g), z)

    z0 = "100010001"
    t1 = job_transposition_element(OSSP133, 1)
    t2 = job_transposition_element(OSSP133, 2)
    assert act(GroupElement(identity_perm(3), identity_perm(3)), z0) == z0
    assert act(t1, z0) == "010100001"
    assert act(t2, z0) == "100001010"
    # tau1 tau2 means tau2 acts first
    t1t2 = GroupElement(identity_perm(3), compose_perms(t1.job_perm, t2.job_perm))
    assert act(t1t2, z0) == "010001100"
    with pytest.raises(DomainError):
        vertex_permutation(OSSP132, transposer_element(OSSP133))
    with pytest.raises(DomainError):
        transposer_element(OSSP132)


def test_action_preserves_solutions():
    for inst in (OSSP224, OSSP133, OSSP132):
        sols = set(enumerate_solutions(inst))
        gens = group_generators(inst)
        for g in gens:
            for z in sols:
                assert permute_string(vertex_permutation(inst, g), z) in sols
        # random words in the generators stay inside the solution set
        rng = np.random.default_rng(11)
        perms = [vertex_permutation(inst, g) for g in gens]
        for _ in range(50):
            z = list(sols)[rng.integers(len(sols))]
            for k in rng.integers(len(perms), size=6):
                z = permute_string(perms[k], z)
            assert z in sols


def test_generator_cycles_goldens():
    cycles224 = [
        cycle_notation(vertex_permutation(OSSP224, g)) for g in job_generators(OSSP224)
    ]
    assert cycles224 == [
        "(1,2)(5,6)(9,10)(13,14)",
        "(2,3)(6,7)(10,11)(14,15)",
        "(3,4)(7,8)(11,12)(15,16)",
    ]
    cycles133 = [
        cycle_notation(vertex_permutation(OSSP133, g)) for g in job_generators(OSSP133)
    ]
    assert cycles133 == ["(1,2)(4,5)(7,8)", "(2,3)(5,6)(8,9)"]
    assert group_generators(OSSP111) == []


def test_group_orders():
    assert group_order(OSSP224) == 1152  # 2*(4!)^2
    assert group_order(OSSP133) == 72  # 2*(3!)^2
    assert group_order(OSSP132) == 12  # 3!*2!
    assert group_order(OSSP122) == 8
    assert group_order(OSSP111) == 1
    for inst in (OSSP133, OSSP132, OSSP122, OSSP111, OSSP224):
        perms = [vertex_permutation(inst, g) for g in group_generators(inst)]
        assert len(generate_group(perms)) == group_order(inst)


def test_generate_group_basics(monkeypatch):
    assert generate_group([]) == {()}
    s3 = generate_group([(1, 0, 2), (0, 2, 1)])
    assert len(s3) == 6
    monkeypatch.setattr(groups, "GROUP_CLOSURE_CAP", 3)
    with pytest.raises(CapabilityError):
        generate_group([(1, 0, 2), (0, 2, 1)])


def _tuple_closure(start, perms, act, limit=None):
    """Reference: a breadth-first search on tuples and strings that calls no
    package code. With a limit it stops once it holds more than limit
    elements, and returns those it has."""
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for x in frontier:
            for p in perms:
                y = act(p, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if limit is not None and len(seen) > limit:
                        return seen
        frontier = nxt
    return seen


@pytest.mark.parametrize("instance", [
    OsspInstance(1, 3, 3), OsspInstance(1, 4, 4), OsspInstance(2, 2, 4), OsspInstance(2, 3, 3),
], ids=lambda inst: f"{inst.machines}x{inst.time_slots}x{inst.jobs}")
def test_array_closures_match_tuple_bfs(instance):
    gens = group_generators(instance)
    jobs = job_generators(instance)
    sols = enumerate_solutions(instance)
    for k, subset in enumerate([gens, jobs, gens[len(jobs):], gens[:1], []]):
        perms = [vertex_permutation(instance, g) for g in subset]
        want = _tuple_closure(identity_perm(instance.n_bits), perms, compose_perms)
        assert generate_group(perms) == (want if perms else {()})
        z = sols[(7 * k) % len(sols)]
        assert orbit(instance, z, subset) == _tuple_closure(z, perms, permute_string)
    for r in range(instance.jobs):
        for family in itertools.combinations(range(1, instance.jobs), r):
            perms = [
                vertex_permutation(instance, job_transposition_element(instance, i))
                for i in family
            ]
            reached = _tuple_closure(sols[0], perms, permute_string)
            assert check_mixing_family(instance, family) == (len(reached) == len(sols))


def test_closure_cap_is_exact(monkeypatch):
    s3 = [(1, 0, 2), (0, 2, 1)]
    monkeypatch.setattr(groups, "GROUP_CLOSURE_CAP", 5)
    with pytest.raises(CapabilityError, match="cap of 5"):
        generate_group(s3)
    monkeypatch.setattr(groups, "GROUP_CLOSURE_CAP", 6)
    assert len(generate_group(s3)) == 6


# every feasible shape of at most 12 bits: busy, non-busy and single-bit
SMALL_SHAPES = [(m, t, j) for m, t, j in itertools.product(range(1, 13), repeat=3)
                if j <= m * t and m * t * j <= 12]
REFERENCE_LIMIT = 2000  # elements the tuple closure lists before it stops


def _seeded_generator_sets(rng, shape):
    """The shape's generators, two seeded random subsets of them, no
    generators and the identity alone; on at most 8 bits also a random
    subset with one random permutation added."""
    instance = OsspInstance(*shape)
    n = instance.n_bits
    perms = [vertex_permutation(instance, g) for g in group_generators(instance)]
    sets = [perms, [], [tuple(range(n))]]
    sets += [rng.sample(perms, rng.randint(1, len(perms))) for _ in range(2) if perms]
    if n <= 8:
        stranger = tuple(rng.sample(range(n), n))
        sets.append(rng.sample(perms, rng.randint(0, len(perms))) + [stranger])
    return n, sets


def test_generate_group_matches_the_tuple_closure_on_every_small_shape():
    rng = random.Random(28)
    exact = 0
    for shape in SMALL_SHAPES:
        n, sets = _seeded_generator_sets(rng, shape)
        for perms in sets:
            start = tuple(range(n)) if perms else ()
            want = _tuple_closure(start, perms, compose_perms, REFERENCE_LIMIT)
            if len(want) <= REFERENCE_LIMIT:
                group = generate_group(perms)
                assert len(group) == len(want) and group == want and set(group) == want
                exact += 1
                continue
            # past the reference's reach: a sample of the elements it listed
            # is in the group, or the group is refused past the closure cap
            try:
                group = generate_group(perms)
            except CapabilityError:
                continue
            assert len(group) > REFERENCE_LIMIT
            assert all(p in group for p in rng.sample(sorted(want), 50))
    assert exact > 4 * len(SMALL_SHAPES)


def test_membership_agrees_with_the_tuple_closure():
    rng = random.Random(29)
    checked = 0
    for shape in SMALL_SHAPES:
        n, sets = _seeded_generator_sets(rng, shape)
        if n > 8:
            continue
        for perms in sets:
            start = tuple(range(n)) if perms else ()
            want = _tuple_closure(start, perms, compose_perms, REFERENCE_LIMIT)
            if len(want) > REFERENCE_LIMIT:
                continue
            group = generate_group(perms)
            checked += 1
            width = len(start)
            queries = rng.sample(sorted(want), min(len(want), 10))
            queries += [tuple(rng.sample(range(width), width)) for _ in range(10)]
            for q in queries:
                assert (q in group) == (q in want)
                assert (list(q) in group) == (q in want)
                assert (np.array(q, dtype=np.int64) in group) == (q in want)
                assert q + (width,) not in group
                if width:
                    assert q[:-1] not in group
                    k = rng.randrange(width)
                    for bad in (width, -1, width + 256, float(q[k]), str(q[k]), None):
                        assert q[:k] + (bad,) + q[k + 1:] not in group
            assert None not in group and 5 not in group
            assert ("".join(map(str, start)) in group) == (width == 0)
    assert checked > 100


def test_schreier_sims_order_past_the_cap_matches_group_order(monkeypatch):
    def refuse(*args):
        raise AssertionError("an element was listed")

    monkeypatch.setattr(groups, "_list_elements", refuse)
    for shape in ((1, 6, 6), (2, 3, 6), (3, 3, 3), (1, 8, 4)):
        instance = OsspInstance(*shape)
        perms = [vertex_permutation(instance, g) for g in group_generators(instance)]
        base, inverses, order = groups._schreier_sims(perms, instance.n_bits)
        assert order == group_order(instance) == math.prod(map(len, inverses))
        assert len(base) == len(inverses)
        if order > groups.GROUP_CLOSURE_CAP:
            with pytest.raises(CapabilityError, match="cap of 1000000"):
                generate_group(perms)


def test_schreier_sims_order_matches_group_order_on_every_shape_of_14_bits():
    shapes = [(m, t, j) for m, t, j in itertools.product(range(1, 15), repeat=3)
              if j <= m * t and m * t * j <= 14]
    for shape in shapes:
        instance = OsspInstance(*shape)
        perms = [vertex_permutation(instance, g) for g in group_generators(instance)]
        assert groups.PermutationGroup(perms).order == group_order(instance), shape
    assert len(shapes) == 61
    assert groups.PermutationGroup([]).order == 1
    assert groups.PermutationGroup([identity_perm(14)]).order == 1


def test_order_membership_and_equality_list_no_element(monkeypatch):
    def refuse(*args):
        raise AssertionError("an element was listed")

    perms = [vertex_permutation(OSSP133, g) for g in group_generators(OSSP133)]
    plain = _tuple_closure(identity_perm(9), perms, compose_perms)
    monkeypatch.setattr(groups, "_list_elements", refuse)
    group = groups.PermutationGroup(perms)
    assert len(group) == group.order == 72
    assert all(p in group for p in plain) and (1, 0) + tuple(range(2, 9)) not in group
    assert group == plain and plain == group
    assert group == groups.PermutationGroup(list(reversed(perms)))
    assert group != groups.PermutationGroup(perms[:1])
    assert groups.PermutationGroup([]) != groups.PermutationGroup([(0,)])
    # OSSP(1,6,6): 2*(6!)^2 = 1,036,800 elements, past the cap
    instance = OsspInstance(1, 6, 6)
    big = groups.PermutationGroup(
        [vertex_permutation(instance, g) for g in group_generators(instance)])
    assert big.order == group_order(instance) and big == groups.PermutationGroup(big._gens)
    for listing in (lambda g: next(iter(g)), list, set, sorted):
        with pytest.raises(CapabilityError, match="cap of 1000000"):
            listing(big)


def test_truth_and_membership_past_63_bit_orders():
    # OSSP(1,21,3): order 21! * 3! = 3.1e20, past what len() can return;
    # truth and membership never ask for it
    instance = OsspInstance(1, 21, 3)
    gens = [vertex_permutation(instance, g) for g in group_generators(instance)]
    group = groups.PermutationGroup(gens)
    assert bool(group) is True and group.order == group_order(instance) > 2**63
    assert all(g in group for g in gens)
    with pytest.raises(OverflowError):
        len(group)


def test_group_refusal_past_the_cap_peaks_below_10_mb():
    # OSSP(1,6,6): 2*(6!)^2 = 1,036,800 elements, just past the cap; a
    # closure listed them all before refusing
    instance = OsspInstance(1, 6, 6)
    perms = [vertex_permutation(instance, g) for g in group_generators(instance)]
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError, match="cap of 1000000"):
            generate_group(perms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_closure_returns_python_values():
    group = generate_group([vertex_permutation(OSSP133, g) for g in group_generators(OSSP133)])
    assert all(type(e) is tuple and all(type(x) is int for x in e) for e in group)
    assert json.loads(json.dumps(sorted(group))) == [list(e) for e in sorted(group)]
    # labels past 255 take a wider row dtype
    cycle = tuple(range(1, 300)) + (0,)
    assert generate_group([cycle]) == _tuple_closure(identity_perm(300), [cycle], compose_perms)
    found = orbit(OSSP133, "100010001", job_generators(OSSP133))
    assert all(type(z) is str for z in found)


def test_generate_group_refuses_non_permutations():
    for bad in ([(0, 0, 1)], [(-1, 0, 1)], [(1, 0, 2), (0, 1)], [(1, 0, 2), (0, 1, 2, 3)]):
        with pytest.raises(DomainError, match="not a permutation"):
            generate_group(bad)
    # labels follow the one integer rule: 0.0 is not read as 0
    labels = "permutation label must be an integer"
    for call in (lambda: generate_group([(1.0, 0.0)]),
                 lambda: decompose_job_permutation([1.0, 0.0]),
                 lambda: decompose_job_permutation([True, False]),
                 lambda: vertex_permutation(OSSP133, GroupElement((0.0, 1.0, 2.0), (0, 1, 2))),
                 lambda: is_automorphism(OSSP122, (1.0, 0, 3, 2))):
        with pytest.raises(DomainError, match=labels):
            call()
    assert decompose_job_permutation(np.array([1, 0])) == [1]
    assert vertex_permutation(OSSP122, GroupElement(np.array([1, 0]), (0, 1))) == (2, 3, 0, 1)
    # vertices are integers, and generators group elements
    with pytest.raises(DomainError, match="must be an integer"):
        is_independent_set(OSSP133, [1.5])
    blocks = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    with pytest.raises(DomainError, match="must be an integer"):
        verify_block_system(OSSP133, [[1.0, 2, 3], [4, 5, 6], [7, 8, 9]], [])
    for call in (lambda: orbit(OSSP133, "100010001", [1]),
                 lambda: verify_block_system(OSSP133, blocks, [1]),
                 lambda: vertex_permutation(OSSP133, ((0, 1, 2), (0, 1, 2)))):
        with pytest.raises(DomainError, match="not a group element"):
            call()


def test_group_set_against_plain_sets():
    perms = [vertex_permutation(OSSP133, g) for g in group_generators(OSSP133)]
    group = generate_group(perms)
    plain = _tuple_closure(identity_perm(OSSP133.n_bits), perms, compose_perms)
    assert not isinstance(group, collections.abc.Set) and len(group) == len(plain) == 72
    assert group == plain and plain == group and not group != plain
    assert group == generate_group(list(reversed(perms)))
    smaller = set(plain)
    smaller.pop()
    assert group != smaller and smaller != group
    stranger = (1, 0) + tuple(range(2, 9))  # swaps two bits of one position block only
    assert stranger not in plain and stranger not in group
    assert group != (set(plain) - {identity_perm(9)}) | {stranger}
    assert group != list(plain) and group != tuple(plain)
    e = next(iter(plain))
    assert e in group and list(e) in group
    assert e[:-1] not in group and e + (9,) not in group
    assert tuple(range(1, 10)) not in group and (-1,) + tuple(range(1, 9)) not in group
    assert "123456789" not in group and 5 not in group and None not in group
    # no set algebra: neither operations nor subset comparisons are defined
    for op in (operator.and_, operator.or_, operator.sub, operator.xor,
               operator.lt, operator.le, operator.gt, operator.ge):
        for pair in ((group, smaller), (smaller, group)):
            with pytest.raises(TypeError):
                op(*pair)
    assert not hasattr(group, "isdisjoint")
    with pytest.raises(TypeError):
        hash(group)
    assert not hasattr(group, "add") and not hasattr(group, "discard")


def test_group_set_iterates_python_tuples():
    s3 = generate_group([(1, 0, 2), (0, 2, 1)])
    cycle = tuple(range(1, 300)) + (0,)
    c300 = generate_group([cycle])
    for group, size in ((s3, 6), (c300, 300)):
        elements = list(group)
        assert len(elements) == len(set(elements)) == size
        assert all(type(e) is tuple and all(type(x) is int for x in e) for e in elements)
        assert all(e in group for e in elements)
    assert set(c300) == _tuple_closure(identity_perm(300), [cycle], compose_perms)
    assert (299,) + tuple(range(299)) in c300 and tuple(range(300)) in c300
    assert (300,) + tuple(range(1, 300)) not in c300
    trivial = generate_group([])
    assert list(trivial) == [()] and () in trivial and (0,) not in trivial


def test_orbit_transitivity():
    for inst in (OSSP224, OSSP133, OSSP132, OSSP122):
        sols = enumerate_solutions(inst)
        assert orbit(inst, sols[0], group_generators(inst)) == set(sols)
    # busy case: job permutations alone already reach everything
    sols133 = enumerate_solutions(OSSP133)
    assert orbit(OSSP133, "100010001", job_generators(OSSP133)) == set(sols133)
    # non-busy case: job permutations alone are stuck on the occupied positions
    partial = orbit(OSSP132, enumerate_solutions(OSSP132)[0], job_generators(OSSP132))
    assert len(partial) < len(enumerate_solutions(OSSP132))
    assert orbit(OSSP133, "100010001", []) == {"100010001"}
    with pytest.raises(DomainError):
        orbit(OSSP133, "110000000", job_generators(OSSP133))


def test_orbit_refuses_from_the_order_before_it_walks():
    # OSSP(1,10,10): 10! = 3,628,800 schedules, past the cap. The full
    # group's orbit is all of them, which orbit-stabilizer tells from the
    # Schreier-Sims order; a walk built a million strings before refusing
    instance = OsspInstance(1, 10, 10)
    z = "".join("1" if k % 11 == 0 else "0" for k in range(100))
    t0 = time.perf_counter()
    with pytest.raises(CapabilityError, match="at least 3628800 strings"):
        orbit(instance, z, group_generators(instance))
    assert time.perf_counter() - t0 < 2.0
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError):
            orbit(instance, z, group_generators(instance))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    # one job transposition: the bound 2 * 10! / (2 * (10!)^2) is below one,
    # and the walk finds the two strings
    assert len(orbit(instance, z, [job_transposition_element(instance, 1)])) == 2


def test_orbit_bound_refuses_only_orbits_past_the_cap(monkeypatch):
    # with the cap below the schedule count the bound is read; against the
    # tuple closure it never refuses an orbit that fits
    for instance in (OSSP133, OSSP132, OSSP224):
        sols = enumerate_solutions(instance)
        gens = group_generators(instance)
        z = sols[len(sols) // 2]
        for cap in (len(sols) - 1, len(sols) // 3):
            monkeypatch.setattr(groups, "GROUP_CLOSURE_CAP", cap)
            for r in range(len(gens) + 1):
                for subset in itertools.combinations(gens, r):
                    perms = [vertex_permutation(instance, g) for g in subset]
                    want = _tuple_closure(z, perms, permute_string)
                    if len(want) > cap:
                        with pytest.raises(CapabilityError):
                            orbit(instance, z, subset)
                    else:
                        assert orbit(instance, z, subset) == want


def test_block_systems():
    # job and position blocks are block systems for the permutation pairs
    pair_gens = job_generators(OSSP224) + [
        position_transposition_element(OSSP224, p) for p in range(1, 4)
    ]
    jb = job_blocks(OSSP224)
    pb = position_blocks(OSSP224)
    assert verify_block_system(OSSP224, jb, pair_gens)
    assert verify_block_system(OSSP224, pb, pair_gens)
    # the role transposer maps job blocks onto position blocks, which overlap
    # the original job blocks in one diagonal vertex each, so the law fails
    theta = transposer_element(OSSP224)
    assert not verify_block_system(OSSP224, jb, [theta])
    assert not verify_block_system(OSSP224, pb, [theta])
    # singletons always map to singletons
    singletons = [{v} for v in range(1, 17)]
    assert verify_block_system(OSSP224, singletons, group_generators(OSSP224))
    with pytest.raises(DomainError):
        verify_block_system(OSSP224, [{1, 2}, {2, 3}], pair_gens)
    with pytest.raises(DomainError):
        verify_block_system(OSSP224, [jb[0]], pair_gens)


def test_transposer_exchanges_block_partitions():
    theta = vertex_permutation(OSSP224, transposer_element(OSSP224))
    jb = [frozenset(b) for b in job_blocks(OSSP224)]
    pb = [frozenset(b) for b in position_blocks(OSSP224)]
    images = {frozenset(theta[v - 1] + 1 for v in b) for b in jb}
    assert images == set(pb)


def test_decompose_recompose_exhaustive():
    for n in range(1, 6):
        for tau in itertools.permutations(range(n)):
            word = decompose_job_permutation(tau)
            assert len(word) <= n * (n - 1) // 2
            assert recompose_word(word, n) == tau
    assert decompose_job_permutation((0, 1, 2)) == []
    assert decompose_job_permutation((1, 0, 2)) == [1]
    # the (1,3) swap needs three adjacent transpositions
    word = decompose_job_permutation((2, 1, 0))
    assert len(word) == 3
    assert recompose_word(word, 3) == (2, 1, 0)


def test_decompose_random_s6():
    rng = np.random.default_rng(5)
    for _ in range(100):
        tau = tuple(int(x) for x in rng.permutation(6))
        word = decompose_job_permutation(tau)
        assert len(word) <= 15
        assert recompose_word(word, 6) == tau


def su_orbit_count(instance, family):
    """Independent route: orbit partition of the solutions under the closed
    subgroup generated by the named job transpositions."""
    perms = [
        vertex_permutation(instance, job_transposition_element(instance, i))
        for i in family
    ]
    subgroup = generate_group(perms) if perms else {()}
    sols = enumerate_solutions(instance)
    unassigned = set(sols)
    orbits = 0
    while unassigned:
        z = next(iter(unassigned))
        members = {
            permute_string(p, z) if p else z for p in subgroup
        }
        unassigned -= members
        orbits += 1
    return orbits


@pytest.mark.parametrize(
    "instance,family,connected",
    [
        (OSSP224, [1, 2, 3], True),
        (OSSP224, [1], False),
        (OSSP224, [2], False),
        (OSSP224, [3], False),
        (OSSP224, [1, 2], False),
        (OSSP224, [], False),
        (OSSP133, [1, 2], True),
        (OSSP133, [1], False),
        (OSSP133, [], False),
        (OSSP111, [], True),
    ],
)
def test_mixing_family(instance, family, connected):
    assert check_mixing_family(instance, family) == connected
    assert (su_orbit_count(instance, family) == 1) == connected


def test_mixing_verdict_matches_the_tuple_closure_on_every_small_shape(monkeypatch):
    # the reference builds its own transpositions and start: job i at
    # position i, so bit (p, i) is bit p*J + i. The verdict is read on the
    # J job labels, so no N-point vertex permutation is built
    def refuse(instance, g):
        raise AssertionError("vertex permutation built")

    monkeypatch.setattr(groups, "vertex_permutation", refuse)
    covered = set()
    for m, t, j in SMALL_SHAPES:
        instance, positions = OsspInstance(m, t, j), m * t
        start = "".join("1" if n // j == n % j else "0" for n in range(positions * j))
        swaps = {}
        for i in range(1, j):
            perm = list(range(positions * j))
            for p in range(positions):
                perm[p * j + i - 1], perm[p * j + i] = p * j + i, p * j + i - 1
            swaps[i] = tuple(perm)
        for r in range(j):
            for family in itertools.combinations(range(1, j), r):
                reached = _tuple_closure(start, [swaps[i] for i in family], permute_string)
                want = len(reached) == math.perm(positions, j)
                assert check_mixing_family(instance, family) is want, (instance, family)
                covered.add((positions == j, j == 1, positions == 1, want))
    assert {busy for busy, *_ in covered} == {True, False}
    assert any(c[1] for c in covered) and any(c[2] for c in covered)
    assert {c[3] for c in covered if c[0]} == {True, False}


def test_mixing_verdict_past_the_closure_cap():
    # OSSP(1,12,12): 12! = 479,001,600 schedules, all connected
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        assert check_mixing_family(OsspInstance(1, 12, 12), range(1, 12)) is True
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 5 * 2**20


def test_mixing_family_validation():
    with pytest.raises(DomainError):
        check_mixing_family(OSSP133, [3])
    # [1.0] and "12" raised TypeError: an index is read through as_integer
    for family in ([1.0], [1.5], [True], "12", ["1"], [None]):
        with pytest.raises(DomainError, match="index must be an integer"):
            check_mixing_family(OSSP133, family)
    assert check_mixing_family(OSSP133, iter([np.int64(1), np.int32(2)])) is True


def test_mixing_verdict_lists_no_solutions(monkeypatch):
    def refuse(instance):
        raise AssertionError("solution list built")

    for module in (instances, groups):
        for name in ("enumerate_solutions", "solution_values"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert check_mixing_family(OSSP224, [1, 2, 3]) is True
    assert check_mixing_family(OSSP132, [1]) is False
    # OSSP(1,11,11): 11! = 39,916,800 schedules; one transposition reaches two
    assert check_mixing_family(OsspInstance(1, 11, 11), [1]) is False


def test_bruteforce_preservers_small():
    found = bruteforce_feasibility_preservers(OSSP122, enumerate_solutions(OSSP122))
    assert len(found) == 8
    gens = [vertex_permutation(OSSP122, g) for g in group_generators(OSSP122)]
    assert found == generate_group(gens)
    assert all(is_automorphism(OSSP122, p) for p in found)

    assert bruteforce_feasibility_preservers(OSSP111, ["1"]) == {(0,)}

    found121 = bruteforce_feasibility_preservers(OsspInstance(1, 2, 1), ["10", "01"])
    assert found121 == {(0, 1), (1, 0)}

    with pytest.raises(CapabilityError):
        bruteforce_feasibility_preservers(OSSP224, enumerate_solutions(OSSP224))


def test_is_automorphism():
    assert is_automorphism(OSSP224, identity_perm(16))
    for g in group_generators(OSSP224):
        assert is_automorphism(OSSP224, vertex_permutation(OSSP224, g))
    bad = list(identity_perm(9))
    bad[0], bad[4] = bad[4], bad[0]  # swap vertices 1 and 5 only
    assert not is_automorphism(OSSP133, tuple(bad))
    # all feasibility preservers of the 2x2 busy instance respect adjacency
    autos = {
        p
        for p in itertools.permutations(range(4))
        if is_automorphism(OSSP122, p)
    }
    assert autos == bruteforce_feasibility_preservers(OSSP122, enumerate_solutions(OSSP122))
