"""Gate, engine, and circuit tests for the exact simulator."""

import dataclasses
import math

import numpy as np
import pytest

from ossvqa import simulator
from ossvqa.errors import CapabilityError, DomainError
from ossvqa.instances import (
    OsspInstance,
    TspObjective,
    bits_to_int,
    enumerate_solutions,
    int_to_bits,
    linear_from_rows,
    position_blocks,
)
from ossvqa.simulator import (
    Basis,
    ParameterVector,
    QuantumState,
    amplitude,
    apply_circuit,
    apply_mixer,
    apply_phase_separator,
    apply_simultaneous_mixer,
    apply_swap_rotation,
    basis_state,
    basis_strings,
    build_circuit,
    expectation,
    feasible_mass,
    fidelity,
    full_basis,
    mixer_hamiltonian,
    mixers,
    phase_separator,
    phase_table,
    probabilities,
    pure_state,
    sample,
    subspace_basis,
    zero_params,
)
from ossvqa.presets import resolve_preset

OSSP224 = OsspInstance(2, 2, 4)
OSSP133 = OsspInstance(1, 3, 3)
WEIGHTS_224 = [[3, 2, 2, 3], [2, 2, 3, 0], [2, 2, 4, 2], [1, 1, 4, 2]]
WEIGHTS_133 = [[3, 2, 2], [2, 2, 3], [1, 2, 3]]
OBJ224 = linear_from_rows(OSSP224, WEIGHTS_224)
OBJ133 = linear_from_rows(OSSP133, WEIGHTS_133)
Z0_224 = "1000010000100001"
Z0_133 = "100010001"


def superposition(instance, strings, engine="full"):
    state = basis_state(instance, strings[0], engine)
    amps = np.zeros_like(state.amps)
    for z in strings:
        amps[state.basis.index_of(bits_to_int(z))] = 1.0
    return QuantumState(state.basis, amps / np.linalg.norm(amps))


def test_basis_state():
    st = basis_state(OSSP133, Z0_133)
    assert st.engine == "full" and len(st.amps) == 512
    assert amplitude(st, Z0_133) == 1.0
    assert st.norm() == pytest.approx(1.0)
    sub = basis_state(OSSP133, Z0_133, "subspace")
    assert sub.engine == "subspace" and len(sub.amps) == 27
    assert amplitude(sub, Z0_133) == 1.0
    st16 = basis_state(OSSP224, Z0_224)
    assert len(st16.amps) == 65536
    with pytest.raises(DomainError):
        basis_state(OSSP133, "111", "full")


def test_full_engine_cap_refuses_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("amplitudes allocated before the size check")

    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(CapabilityError):
        basis_state(OsspInstance(2, 3, 6), "0" * 36, "full")  # 2^36 amplitudes
    with pytest.raises(CapabilityError):
        pure_state(21, "0" * 21)


def test_sector_cap_refuses_before_listing_patterns(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sector patterns listed before the size check")

    monkeypatch.setattr(simulator.itertools, "combinations", refuse)
    # OSSP(1,7,7): C(7,3) * 7^6 = 4,117,715 strings on 49 bits
    z = "1110000" + "1000000" * 6
    with pytest.raises(CapabilityError, match="restricted basis"):
        subspace_basis(OsspInstance(1, 7, 7), z)
    # OSSP(1,40,40) with weight 20 in block 1: C(40,20) ~ 1.4e11 patterns
    z = "1" * 20 + "0" * 20 + ("1" + "0" * 39) * 39
    with pytest.raises(CapabilityError):
        subspace_basis(OsspInstance(1, 40, 40), z)


def test_full_basis_is_one_read_only_sector():
    basis = full_basis(9)
    assert basis.engine == "full" and basis.shape == (512,)
    assert basis.masks == (511,)
    assert np.array_equal(basis.values(), np.arange(512))
    assert not basis.values().flags.writeable
    assert [basis.index_of(v) for v in (0, 5, 511)] == [0, 5, 511]
    for v in (-1, 512):
        with pytest.raises(DomainError):
            basis.index_of(v)
    assert subspace_basis(OSSP133, Z0_133).engine == "subspace"
    with pytest.raises(CapabilityError):
        apply_simultaneous_mixer(basis_state(OSSP133, Z0_133), mixers(OSSP133), 0.3)


def test_index_of_reads_the_sectors_only(monkeypatch):
    cases = [
        subspace_basis(OSSP224, Z0_224),
        subspace_basis(OSSP133, Z0_133),
        subspace_basis(OSSP224, "1100011000001001"),  # block weights 2, 2, 0, 2
    ]
    for sub in cases:
        values = sub.values()
        with monkeypatch.context() as m:
            m.setattr(Basis, "values", lambda self: pytest.fail("basis materialised"))
            assert [sub.index_of(int(v)) for v in values] == list(range(sub.dim))
            outside = np.setdiff1d(np.arange(1 << sub.n_bits), values)
            for v in outside[:: max(1, len(outside) // 500)]:
                with pytest.raises(DomainError):
                    sub.index_of(int(v))
            with pytest.raises(DomainError):
                sub.index_of(1 << sub.n_bits)
            z = int_to_bits(int(values[-1]), sub.n_bits)
            inst = OSSP224 if sub.n_bits == 16 else OSSP133
            assert amplitude(basis_state(inst, z, sub), z) == 1.0


def test_subspace_basis_contents():
    sub224 = subspace_basis(OSSP224, Z0_224)
    assert sub224.dim == 256  # 4 choices per position block
    sub133 = subspace_basis(OSSP133, Z0_133)
    assert sub133.dim == 27
    strings = basis_strings(sub133)
    assert set(enumerate_solutions(OSSP133)) <= set(strings)
    for z in strings:
        assert [z[k : k + 3].count("1") for k in (0, 3, 6)] == [1, 1, 1]
    # non-busy: an empty position block stays empty
    inst = OsspInstance(1, 3, 2)
    sub = subspace_basis(inst, "100100")  # block weights 1, 1, 0
    assert sub.dim == 4
    assert all(z[4:6] == "00" for z in basis_strings(sub))
    # a string outside an explicit restricted basis is rejected
    with pytest.raises(DomainError):
        basis_state(OSSP133, "110000000", sub133)


def test_swap_rotation_identities():
    # pi/2 turns |01> into i|10>
    st = apply_swap_rotation(pure_state(2, "01"), (1, 2), math.pi / 2)
    assert amplitude(st, "10") == pytest.approx(1j)
    assert amplitude(st, "01") == pytest.approx(0.0)
    # beta = 0 is the identity
    st0 = apply_swap_rotation(pure_state(2, "01"), (1, 2), 0.0)
    assert amplitude(st0, "01") == pytest.approx(1.0)
    # partial angle mixes with an i on the swapped branch
    st45 = apply_swap_rotation(pure_state(2, "01"), (1, 2), math.pi / 4)
    assert amplitude(st45, "01") == pytest.approx(math.cos(math.pi / 4))
    assert amplitude(st45, "10") == pytest.approx(1j * math.sin(math.pi / 4))
    # equal bits only pick up a phase
    for z in ("00", "11"):
        stp = apply_swap_rotation(pure_state(2, z), (1, 2), 0.7)
        assert amplitude(stp, z) == pytest.approx(np.exp(0.7j))


def test_swap_rotation_is_i_swap_on_random_embeddings():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(2, 11))
        a, b = (int(x) + 1 for x in rng.choice(n, size=2, replace=False))
        rest = "".join(rng.choice(["0", "1"], size=n))
        for pattern in ("00", "01", "10", "11"):
            chars = list(rest)
            chars[a - 1], chars[b - 1] = pattern[0], pattern[1]
            z = "".join(chars)
            got = apply_swap_rotation(pure_state(n, z), (a, b), math.pi / 2)
            swapped = list(z)
            swapped[a - 1], swapped[b - 1] = z[b - 1], z[a - 1]
            want = "".join(swapped)
            # e^{i(pi/2) SWAP} = i * SWAP
            assert amplitude(got, want) == pytest.approx(1j, abs=1e-12)


def test_gate_unitarity_random_trials():
    rng = np.random.default_rng(9)
    sub = subspace_basis(OSSP133, Z0_133)
    mix133 = mixers(OSSP133)
    sep = phase_table(phase_separator(OBJ133, OSSP133, sub))
    for _ in range(200):
        amps = rng.normal(size=sub.dim) + 1j * rng.normal(size=sub.dim)
        state = QuantumState(sub, amps / np.linalg.norm(amps))
        beta, gamma = rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi)
        for out in (
            apply_swap_rotation(state, (1, 2), beta),
            apply_mixer(state, mix133[0], beta),
            apply_phase_separator(state, sep, gamma),
            apply_simultaneous_mixer(state, mix133, beta),
        ):
            assert abs(out.norm() - 1.0) < 1e-12


def test_mixer_golden_133():
    # B1 swaps jobs 1,2 in all three blocks; two swapped pairs and one
    # phased pair give amplitude i*i*i = -i on the permuted string
    st = apply_mixer(
        basis_state(OSSP133, Z0_133), mixer_hamiltonian(OSSP133, 1), math.pi / 2
    )
    assert amplitude(st, "010100001") == pytest.approx(-1j, abs=1e-12)
    target = basis_state(OSSP133, "010100001")
    assert fidelity(st, target) == pytest.approx(1.0, abs=1e-12)


def test_mixer_inverse_and_identity():
    st = basis_state(OSSP133, Z0_133, "subspace")
    m1 = mixer_hamiltonian(OSSP133, 1)
    assert fidelity(apply_mixer(st, m1, 0.0), st) == pytest.approx(1.0)
    rng = np.random.default_rng(2)
    beta = rng.uniform(0, math.pi / 2)
    back = apply_mixer(apply_mixer(st, m1, beta), m1, -beta)
    assert np.allclose(back.amps, st.amps, atol=1e-12)


def test_swap_across_blocks_leaves_restricted_basis():
    st = basis_state(OSSP133, Z0_133, "subspace")
    with pytest.raises(DomainError):
        apply_swap_rotation(st, (3, 4), 0.5)  # bit 3 in block 1, bit 4 in block 2
    with pytest.raises(DomainError):
        apply_swap_rotation(st, (1, 1), 0.5)


def per_pair_rotation(state, pair, beta):
    """One swap rotation as its own full step, the way apply_mixer applied
    its pairs before they shared one kernel: the reference formula."""
    basis, (a, b) = state.basis, pair
    ma, mb = 1 << (basis.n_bits - a), 1 << (basis.n_bits - b)
    if basis.sectors is None:
        axis, patterns = 0, basis.values()
    else:
        axis = next(k for k, m in enumerate(basis.masks) if m & ma and m & mb)
        patterns = basis.sectors[axis]
    d10 = np.nonzero(((patterns & ma) != 0) & ((patterns & mb) == 0))[0]
    partners = patterns[d10] ^ (ma | mb)
    p01 = partners if basis.sectors is None else np.searchsorted(patterns, partners)
    amps = state.amps.reshape(basis.shape)
    out = amps * np.exp(1j * beta)
    if len(d10):
        lead = (slice(None),) * axis
        a10, a01 = amps[lead + (d10,)], amps[lead + (p01,)]
        c, s = math.cos(beta), math.sin(beta)
        out[lead + (d10,)] = c * a10 + 1j * s * a01
        out[lead + (p01,)] = c * a01 + 1j * s * a10
    return QuantumState(basis, out.ravel())


def test_mixer_kernel_matches_per_pair_formula_bit_for_bit():
    rng = np.random.default_rng(17)
    cases = [
        (OSSP224, subspace_basis(OSSP224, Z0_224)),
        (OSSP133, subspace_basis(OSSP133, Z0_133)),
        # weight-2 blocks put several patterns on each side of a pair
        (OSSP224, subspace_basis(OSSP224, "1100011000001001")),
        (OSSP133, full_basis(OSSP133.n_bits)),
        # the ladder's shapes: 3,125 amplitudes on the gather kernel, 46,656
        # on the view kernel, and OSSP(3,3,6)'s weight-0 blocks have no
        # unequal patterns on their pairs
        (OsspInstance(1, 5, 5), schedule_basis(OsspInstance(1, 5, 5))),
        (OsspInstance(1, 6, 6), schedule_basis(OsspInstance(1, 6, 6))),
        (OsspInstance(3, 3, 6), schedule_basis(OsspInstance(3, 3, 6))),
    ]
    assert len(simulator._pair_axis(cases[2][1], (1, 2))[1]) == 2
    assert {b.dim <= simulator.GATHER_DIM for _, b in cases} == {True, False}
    assert not len(simulator._pair_axis(cases[-1][1], mixers(cases[-1][0])[0].pairs[-1])[1])
    far = (1, 3)  # jobs 1 and 3 in block 1: a non-adjacent pair
    for inst, basis in cases:
        for _ in range(10 if basis.dim <= simulator.GATHER_DIM else 2):
            amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
            state = QuantumState(basis, amps / np.linalg.norm(amps))
            beta = np.float64(rng.uniform(0, math.pi / 2))
            for m in mixers(inst):
                want = state
                for pair in m.pairs:
                    want = per_pair_rotation(want, pair, beta)
                got = apply_mixer(state, m, beta)
                # bit patterns, so that even the sign of a zero must agree
                assert np.array_equal(got.amps.view(np.uint64), want.amps.view(np.uint64))
                one = apply_swap_rotation(state, m.pairs[-1], beta)
                ref = per_pair_rotation(state, m.pairs[-1], beta)
                assert np.array_equal(one.amps.view(np.uint64), ref.amps.view(np.uint64))
            one = apply_swap_rotation(state, far, beta)
            ref = per_pair_rotation(state, far, beta)
            assert np.array_equal(one.amps.view(np.uint64), ref.amps.view(np.uint64))


def fresh(basis):
    """The same basis with an empty plan memo."""
    return Basis(basis.n_bits, basis.sectors, basis.masks)


class WriteOnce(dict):
    """A plan memo that fails when any entry is built twice."""

    def __setitem__(self, key, value):
        assert key not in self, f"{key} planned twice"
        super().__setitem__(key, value)


def test_swap_memo_holds_only_the_plan_its_kernel_reads():
    i166, i336 = OsspInstance(1, 6, 6), OsspInstance(3, 3, 6)
    cases = [(OSSP224, subspace_basis(OSSP224, Z0_224)), (i166, schedule_basis(i166)),
             (i336, schedule_basis(i336))]
    assert cases[0][1].dim <= simulator.GATHER_DIM < cases[1][1].dim
    memos = []  # the last fresh basis of each case
    for inst, shared in cases:
        # one pair table per pair, whichever of the kernels and the
        # simultaneous mixer asks first
        for simultaneous_first in (True, False):
            basis = fresh(shared)
            basis._plans = WriteOnce()
            state = QuantumState(basis, np.ones(basis.dim, dtype=complex) / basis.dim ** 0.5)
            if simultaneous_first:
                apply_simultaneous_mixer(state, mixers(inst), 0.4)
            for m in mixers(inst):
                apply_mixer(state, m, 0.4)
            apply_simultaneous_mixer(state, mixers(inst), 0.4)
            assert set(basis._plans) >= {p for m in mixers(inst) for p in m.pairs}
        memos.append(basis)
    small, big, empty = memos
    tables = {k: v for k, v in small._plans.items() if len(k) == 2}
    assert set(tables) == set(small._plans)  # no box plans on the gather kernel's bases
    for *_, flat in tables.values():
        # two flat index arrays of equal length, no view tuples
        sel, swapped = flat
        assert isinstance(sel, np.ndarray) and isinstance(swapped, np.ndarray)
        assert sel.ndim == 1 and sel.shape == swapped.shape
        assert not sel.flags.writeable and not swapped.flags.writeable
    for key, entry in big._plans.items():
        if len(key) == 2:
            assert entry[-1] == ()  # no flat plan past GATHER_DIM
            continue
        span, plan = entry
        # index tuples along one axis: nothing longer than a sector
        for index in plan:
            assert isinstance(index, tuple)
            for part in index:
                assert isinstance(part, slice) or len(part) <= max(big.shape)
    # a weight-0 block's pair has no unequal patterns: its plan is empty
    pairs = [p for m in mixers(i336) for p in m.pairs]
    plans = [empty._plans[p + (0, empty.shape[empty._plans[p][0]])][1] for p in pairs]
    assert sum(plan == () for plan in plans) == 3 * 5  # 3 idle blocks, 5 mixers


def test_a_state_without_support_runs_as_the_whole_basis_box():
    # a 46,656-amplitude sector with a hand-made mixer whose pairs share
    # block 1, and a 15-bit full basis, whose pairs all share its one axis
    rng = np.random.default_rng(5)
    i166, i153 = OsspInstance(1, 6, 6), OsspInstance(1, 5, 3)
    block = position_blocks(i166)[0]
    shared = simulator.MixerHamiltonian(1, ((block[0], block[1]), (block[1], block[2])))
    for inst, basis, family in ((i166, schedule_basis(i166), mixers(i166) + [shared]),
                                (i153, full_basis(i153.n_bits), mixers(i153))):
        assert basis.dim > simulator.GATHER_DIM
        amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        amps /= np.linalg.norm(amps)
        whole = tuple((0, n) for n in basis.shape)
        for m in family:
            beta = rng.uniform(0.0, math.pi / 2)
            got = apply_mixer(QuantumState(basis, amps, None), m, beta)
            want = apply_mixer(QuantumState(basis, amps, whole), m, beta)
            assert got.support is None and want.support is None
            assert got.amps.tobytes() == want.amps.tobytes()


def test_mixer_pair_order_commutes():
    rng = np.random.default_rng(4)
    m1 = mixer_hamiltonian(OSSP224, 1)
    sub = subspace_basis(OSSP224, Z0_224)
    for _ in range(20):
        amps = rng.normal(size=sub.dim) + 1j * rng.normal(size=sub.dim)
        state = QuantumState(sub, amps / np.linalg.norm(amps))
        beta = rng.uniform(0, math.pi / 2)
        forward = apply_mixer(state, m1, beta)
        backward = state
        for pair in reversed(m1.pairs):
            backward = apply_swap_rotation(backward, pair, beta)
        assert np.max(np.abs(forward.amps - backward.amps)) < 1e-14


def test_phase_separator():
    sub = subspace_basis(OSSP133, Z0_133)
    diag = phase_separator(OBJ133, OSSP133, sub)
    assert diag.dtype == np.float64 and diag.shape == (sub.dim,)
    sep = phase_table(diag)
    st = basis_state(OSSP133, "001010100", sub)
    assert fidelity(apply_phase_separator(st, sep, 0.0), st) == pytest.approx(1.0)
    # f = 5 at gamma = pi flips the sign
    out = apply_phase_separator(st, sep, math.pi)
    assert amplitude(out, "001010100") == pytest.approx(-1.0, abs=1e-12)
    # diagonal unitaries leave the sampling distribution alone
    rng = np.random.default_rng(6)
    amps = rng.normal(size=sub.dim) + 1j * rng.normal(size=sub.dim)
    state = QuantumState(sub, amps / np.linalg.norm(amps))
    shifted = apply_phase_separator(state, sep, 1.234)
    assert probabilities(state).keys() == probabilities(shifted).keys()
    for k, p in probabilities(state).items():
        assert probabilities(shifted)[k] == pytest.approx(p, abs=1e-14)
    assert sample(state, 512, seed=42) == sample(shifted, 512, seed=42)


def schedule_string(inst):
    """The schedule that puts job j at position j."""
    return "".join("1" if p == j else "0" for p in range(inst.positions) for j in range(inst.jobs))


def schedule_basis(inst):
    """The restricted basis of schedule_string(inst)."""
    return subspace_basis(inst, schedule_string(inst))


def ladder_cases(rng):
    """The benchmark's ladder shapes as (instance, objective, basis): OSSP(1,5,5)
    and OSSP(3,3,6) with integer weights and with real weights (every level
    distinct), and OSSP(1,6,6) with a tour."""
    cases = []
    for inst in (OsspInstance(1, 5, 5), OsspInstance(3, 3, 6)):
        rows = (inst.positions, inst.jobs)
        for weights in (rng.integers(0, 10, rows), rng.uniform(-5, 5, rows)):
            cases.append((inst, linear_from_rows(inst, weights.tolist()), schedule_basis(inst)))
    d = np.triu(rng.integers(1, 10, (6, 6)), 1)
    tour = TspObjective(tuple(map(tuple, (d + d.T).tolist())))
    inst = OsspInstance(1, 6, 6)
    cases.append((inst, tour, schedule_basis(inst)))
    return cases


def test_phase_table_kernel_matches_the_direct_exponential_bit_for_bit():
    rng = np.random.default_rng(29)
    n_levels = []
    for inst, obj, basis in ladder_cases(rng):
        diag = phase_separator(obj, inst, basis)
        table = phase_table(diag)
        assert table.levels.tobytes() == np.unique(diag).tobytes()
        assert table.levels[table.inverse].tobytes() == diag.tobytes()
        n_levels.append(len(table.levels))
        amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        before = amps.tobytes()
        state = QuantumState(basis, amps)
        for gamma in (rng.uniform(-2 * math.pi, 2 * math.pi), 1e-7, -3.25, 40.0):
            got = apply_phase_separator(state, table, gamma)
            # a statement of its own, like the kernel's product: numpy writes
            # the product into a large unnamed right operand with the operands
            # swapped, which can round a complex product differently, and
            # inside an assert pytest keeps that operand named
            want = amps * np.exp(1j * gamma * diag)
            assert got.amps.tobytes() == want.tobytes()
        assert amps.tobytes() == before
    # integer weights leave tens of levels; real weights one per basis state
    assert [n < 100 for n in n_levels] == [True, False, True, False, True]
    assert n_levels[1] == 5 ** 5 and n_levels[3] == 6 ** 6


def test_phase_angle_overflow_is_a_domain_error():
    sub = subspace_basis(OSSP133, Z0_133)
    state = basis_state(OSSP133, Z0_133, sub)
    negative = linear_from_rows(OSSP133, (-np.array(WEIGHTS_133)).tolist())
    for obj in (OBJ133, negative):  # f(z) in [5, 9] and in [-9, -5]
        table = phase_table(phase_separator(obj, OSSP133, sub))
        # 3e307 overflows at |f(z)| = 9 only, at one end of the table
        for gamma in (3e307, -3e307, np.float64(1e308), math.nan, math.inf):
            with pytest.raises(DomainError, match="not finite"):
                apply_phase_separator(state, table, gamma)
        # 1e307 * f(z) is finite for every f(z) of ossp133, however large
        assert apply_phase_separator(state, table, 1e307).norm() == pytest.approx(1.0)


def test_mixer_never_writes_its_input():
    rng = np.random.default_rng(31)
    cases = [(inst, basis) for inst, _, basis in ladder_cases(rng)[::2]]
    cases += [(OSSP224, subspace_basis(OSSP224, "1100011000001001")),
              (OSSP133, full_basis(OSSP133.n_bits))]
    for inst, basis in cases:
        amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        before = amps.tobytes()
        state = QuantumState(basis, amps)
        for m in mixers(inst):
            for beta in (rng.uniform(0, math.pi / 2), math.pi / 2):
                out = apply_mixer(state, m, beta)
                assert not np.shares_memory(out.amps, amps)
                apply_swap_rotation(state, m.pairs[0], beta)
                assert amps.tobytes() == before


def test_simultaneous_mixer():
    st = basis_state(OSSP133, Z0_133, "subspace")
    m = mixers(OSSP133)
    beta = 0.613
    # a one-member family is the sequential mixer with the opposite angle
    joint = apply_simultaneous_mixer(st, [m[0]], beta)
    seq = apply_mixer(st, m[0], -beta)
    assert np.allclose(joint.amps, seq.amps, atol=1e-10)
    # zero angle is the identity
    ident = apply_simultaneous_mixer(st, m, 0.0)
    assert np.allclose(ident.amps, st.amps, atol=1e-12)
    # the two generators do not commute, so the joint exponential differs
    # from both sequential orderings
    joint12 = apply_simultaneous_mixer(st, m, beta)
    seq12 = apply_mixer(apply_mixer(st, m[0], -beta), m[1], -beta)
    seq21 = apply_mixer(apply_mixer(st, m[1], -beta), m[0], -beta)
    assert joint12.norm() == pytest.approx(1.0, abs=1e-10)
    assert not np.allclose(joint12.amps, seq12.amps, atol=1e-6)
    assert not np.allclose(joint12.amps, seq21.amps, atol=1e-6)
    with pytest.raises(CapabilityError):
        apply_simultaneous_mixer(basis_state(OSSP133, Z0_133, "full"), m, beta)


def test_simultaneous_mixer_factors_over_blocks():
    # 46,656 states: one small exponential per block, no dense matrix
    inst = OsspInstance(1, 6, 6)
    # job t at position t, i.e. the diagonal solution
    z = "".join("1" if (k % 7 == 0) else "0" for k in range(36))
    sub = subspace_basis(inst, z)
    assert sub.dim == 6**6
    rng = np.random.default_rng(41)
    amps = rng.normal(size=sub.dim) + 1j * rng.normal(size=sub.dim)
    state = QuantumState(sub, amps / np.linalg.norm(amps))
    m = mixers(inst)
    assert abs(apply_simultaneous_mixer(state, m, 0.3).norm() - 1.0) < 1e-12
    joint = apply_simultaneous_mixer(state, [m[2]], 0.3)
    seq = apply_mixer(state, m[2], -0.3)
    assert np.max(np.abs(joint.amps - seq.amps)) < 1e-10


def test_simultaneous_mixer_exponentiates_each_generator_once(monkeypatch):
    import scipy.linalg

    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a) or expm(a))
    st = basis_state(OSSP133, Z0_133, "subspace")
    apply_simultaneous_mixer(st, mixers(OSSP133), 0.4)
    assert len(calls) == 1  # three blocks, one generator
    calls.clear()
    apply_simultaneous_mixer(basis_state(OSSP224, "1100011000001001", "subspace"),
                             mixers(OSSP224), 0.4)
    assert len(calls) == 2  # weight-2 blocks share one, the empty block another


def swapped(v, pair, n_bits):
    """v with the bits of the 1-based pair exchanged."""
    ma, mb = 1 << (n_bits - pair[0]), 1 << (n_bits - pair[1])
    return v ^ (ma | mb) if bool(v & ma) != bool(v & mb) else v


def test_simultaneous_mixer_matches_dense_expm_of_the_swap_sum():
    """e^{-i beta sum_i B_i} as a dense matrix exponential of SWAP
    permutations built bit by bit: on the full 2^9 basis of ossp133, then
    restricted to the sector, and on a weight-2 ossp224 sector listed
    from all 2^16 strings by block weights."""
    from scipy.linalg import expm

    rng = np.random.default_rng(23)
    z224 = "1100011000001001"  # block weights 2, 2, 0, 2
    blocks = position_blocks(OSSP224)
    weights = [sum(z224[i - 1] == "1" for i in b) for b in blocks]
    sector224 = [v for v in range(1 << 16) if all(
        sum(v >> (16 - i) & 1 for i in b) == w for b, w in zip(blocks, weights))]
    cases = [(OSSP133, Z0_133, list(range(1 << 9))), (OSSP224, z224, sector224)]
    for inst, z, values in cases:
        n = inst.n_bits
        basis = subspace_basis(inst, z)
        at = {v: k for k, v in enumerate(values)}
        rows = np.array([at[v] for v in basis.values().tolist()])
        family = mixers(inst)
        for members in (family, family[:1]):
            h = np.zeros((len(values), len(values)))
            for mixer in members:
                for pair in mixer.pairs:
                    for k, v in enumerate(values):
                        h[at[swapped(v, pair, n)], k] += 1.0
            for beta in (0.37, -1.2):
                amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
                amps /= np.linalg.norm(amps)
                start = np.zeros(len(values), dtype=complex)
                start[rows] = amps
                want = expm(-1j * beta * h) @ start
                # the sector is invariant: nothing leaks out of it
                assert np.linalg.norm(np.delete(want, rows)) < 1e-12
                got = apply_simultaneous_mixer(QuantumState(basis, amps), members, beta)
                assert np.max(np.abs(got.amps - want[rows])) < 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_mixer_angles_raise(bad):
    circuit = build_circuit(OSSP133, OBJ133, 1)
    start = basis_state(OSSP133, Z0_133, "subspace")
    with pytest.raises(DomainError, match="mixer angles must be finite"):
        apply_circuit(circuit, ParameterVector([bad, 0.3], [0.2]), start)
    with pytest.raises(DomainError, match="mixer angles must be finite"):
        simulator.clamp_beta(np.array([0.1, bad]))
    i166 = OsspInstance(1, 6, 6)
    # both kernels, with and without a support
    for inst, state in ((OSSP133, start), (OSSP133, basis_state(OSSP133, Z0_133)),
                        (i166, basis_state(i166, schedule_string(i166), "subspace"))):
        m = mixer_hamiltonian(inst, 1)
        for st in (state, QuantumState(state.basis, state.amps)):
            with pytest.raises(DomainError, match="mixer angles must be finite"):
                apply_mixer(st, m, bad)
            with pytest.raises(DomainError, match="mixer angles must be finite"):
                apply_swap_rotation(st, m.pairs[0], bad)
    with pytest.raises(DomainError, match="mixer angles must be finite"):
        apply_simultaneous_mixer(start, mixers(OSSP133), bad)


def test_expectation():
    sub = subspace_basis(OSSP133, Z0_133)
    sep = phase_separator(OBJ133, OSSP133, sub)
    assert expectation(basis_state(OSSP133, "001010100", sub), sep) == pytest.approx(5.0)
    sols = enumerate_solutions(OSSP133)
    mean = expectation(superposition(OSSP133, sols, "subspace"), sep)
    assert mean == pytest.approx((5 + 6 + 6 + 7 + 8 + 8) / 6)
    zero = phase_separator(
        linear_from_rows(OSSP133, [[0] * 3] * 3), OSSP133, sub
    )
    rng = np.random.default_rng(13)
    amps = rng.normal(size=sub.dim) + 1j * rng.normal(size=sub.dim)
    state = QuantumState(sub, amps / np.linalg.norm(amps))
    assert expectation(state, zero) == pytest.approx(0.0)
    full = basis_state(OSSP133, Z0_133, "full")
    with pytest.raises(DomainError):
        expectation(full, sep)
    with pytest.raises(DomainError):
        apply_phase_separator(full, phase_table(sep), 0.5)


def test_sample():
    st = basis_state(OSSP133, Z0_133, "subspace")
    assert sample(st, 1024, seed=0) == {Z0_133: 1024}
    two = superposition(OSSP133, ["100010001", "010100001"], "subspace")
    hist = sample(two, 10_000, seed=123)
    assert sum(hist.values()) == 10_000
    # 3 sigma for p = 0.5 over 10^4 shots
    assert abs(hist["100010001"] / 10_000 - 0.5) < 0.015
    assert sample(two, 10_000, seed=123) == hist
    assert sample(two, 10_000, seed=124) != hist
    with pytest.raises(DomainError):
        sample(st, 0, seed=1)


def string_sorted_sample(state, shots, seed):
    """The histogram as sample built it before counts were ranked by index."""
    probs = np.clip((state.amps.conj() * state.amps).real, 0.0, None)
    counts = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    vals = state.basis.values()
    order = sorted(np.nonzero(counts)[0], key=lambda k: (-counts[k], int(vals[k])))
    return {int_to_bits(int(vals[k]), state.basis.n_bits): int(counts[k]) for k in order}


def test_sample_matches_string_sorted_histogram():
    rng = np.random.default_rng(5)
    for inst, z0 in ((OSSP224, Z0_224), (OSSP133, Z0_133)):
        for engine in ("subspace", "full"):
            start = basis_state(inst, z0, engine)
            for seed in range(4):
                amps = rng.normal(size=start.basis.dim) ** 3 + 0j
                state = QuantumState(start.basis, amps / np.linalg.norm(amps))
                for shots in (1, 64, 1024):
                    got = sample(state, shots, seed)
                    want = string_sorted_sample(state, shots, seed)
                    assert list(got.items()) == list(want.items())


def test_feasible_mass():
    assert feasible_mass(OSSP133, basis_state(OSSP133, "001010100")) == pytest.approx(1.0)
    assert feasible_mass(OSSP133, basis_state(OSSP133, "110000000")) == pytest.approx(0.0)
    # a quarter-angle mixer leaks into infeasible strings: c^4 + s^4 = 1/2
    st = apply_mixer(
        basis_state(OSSP133, Z0_133), mixer_hamiltonian(OSSP133, 1), math.pi / 4
    )
    assert feasible_mass(OSSP133, st) == pytest.approx(0.5, abs=1e-12)


def test_build_circuit_slots():
    c224 = build_circuit(OSSP224, OBJ224, 6)
    assert (c224.n_beta, c224.n_gamma) == (18, 6)
    c133 = build_circuit(OSSP133, OBJ133, 3)
    assert (c133.n_beta, c133.n_gamma) == (6, 3)
    c1 = build_circuit(OSSP133, OBJ133, 1)
    assert (c1.n_beta, c1.n_gamma) == (2, 1)
    # depth J(J-1)/2 gives the J(J-1)^2/2 parameter bound
    jobs = OSSP224.jobs
    cfull = build_circuit(OSSP224, OBJ224, jobs * (jobs - 1) // 2)
    assert cfull.n_beta == jobs * (jobs - 1) ** 2 // 2 == 18
    # a lone pi/2 in beta slot k applies B_{k mod 3 + 1}, in whichever round
    start = basis_state(OSSP224, Z0_224, "subspace")
    for k in range(c224.n_beta):
        beta = np.zeros(c224.n_beta)
        beta[k] = math.pi / 2
        got = apply_circuit(c224, ParameterVector(beta, np.zeros(6)), start)
        want = apply_mixer(start, mixer_hamiltonian(OSSP224, k % 3 + 1), math.pi / 2)
        assert fidelity(got, want) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        build_circuit(OSSP133, OBJ133, 0)


def test_apply_circuit_goldens():
    for engine in ("full", "subspace"):
        circuit = build_circuit(OSSP133, OBJ133, 1)
        start = basis_state(OSSP133, Z0_133, engine)
        still = apply_circuit(circuit, zero_params(circuit), start)
        assert fidelity(still, start) == pytest.approx(1.0)
        one = apply_circuit(
            circuit,
            ParameterVector([math.pi / 2, 0.0], [0.0]),
            basis_state(OSSP133, Z0_133, engine),
        )
        want1 = basis_state(OSSP133, "010100001", one.basis)
        assert fidelity(one, want1) == pytest.approx(1.0, abs=1e-12)
        both = apply_circuit(
            circuit,
            ParameterVector([math.pi / 2, math.pi / 2], [0.0]),
            basis_state(OSSP133, Z0_133, engine),
        )
        want2 = basis_state(OSSP133, "010001100", both.basis)
        assert fidelity(both, want2) == pytest.approx(1.0, abs=1e-12)


def test_grid_reachable_set():
    # the four parameter corners reach exactly the four expected strings
    circuit = build_circuit(OSSP133, OBJ133, 1)
    reached = set()
    rng = np.random.default_rng(17)
    for b1 in (0.0, math.pi / 2):
        for b2 in (0.0, math.pi / 2):
            params = ParameterVector([b1, b2], [rng.uniform(0, 2 * math.pi)])
            out = apply_circuit(params=params, circuit=circuit, state=basis_state(OSSP133, Z0_133, "subspace"))
            probs = probabilities(out)
            assert len(probs) == 1
            (z, p), = probs.items()
            assert p == pytest.approx(1.0, abs=1e-12)
            reached.add(z)
    assert reached == {"100010001", "010100001", "100001010", "010001100"}


def test_grid_feasibility_deeper():
    import itertools as it

    sols133 = set(enumerate_solutions(OSSP133))
    circuit = build_circuit(OSSP133, OBJ133, 2)
    rng = np.random.default_rng(23)
    for grid in it.product((0.0, math.pi / 2), repeat=4):
        params = ParameterVector(list(grid), rng.uniform(0, 2 * math.pi, size=2))
        out = apply_circuit(circuit, params, basis_state(OSSP133, Z0_133, "subspace"))
        probs = probabilities(out)
        assert len(probs) == 1
        (z, p), = probs.items()
        assert p == pytest.approx(1.0, abs=1e-12) and z in sols133
    sols224 = set(enumerate_solutions(OSSP224))
    c224 = build_circuit(OSSP224, OBJ224, 1)
    for grid in it.product((0.0, math.pi / 2), repeat=3):
        params = ParameterVector(list(grid), [rng.uniform(0, 2 * math.pi)])
        out = apply_circuit(c224, params, basis_state(OSSP224, Z0_224, "subspace"))
        probs = probabilities(out)
        assert len(probs) == 1
        (z, p), = probs.items()
        assert p == pytest.approx(1.0, abs=1e-12) and z in sols224


def test_engine_equivalence_sampled():
    rng = np.random.default_rng(31)
    cases = [
        (OSSP224, OBJ224, 6, Z0_224),
        (OSSP133, OBJ133, 3, Z0_133),
    ]
    for inst, obj, depth, z0 in cases:
        circuit = build_circuit(inst, obj, depth)
        sub = subspace_basis(inst, z0)
        for _ in range(10):
            params = ParameterVector(
                rng.uniform(0, math.pi / 2, size=circuit.n_beta),
                rng.uniform(0, 2 * math.pi, size=circuit.n_gamma),
            )
            full = apply_circuit(circuit, params, basis_state(inst, z0, "full"))
            restricted = apply_circuit(circuit, params, basis_state(inst, z0, sub))
            aligned = full.amps[sub.values()]
            assert np.allclose(aligned, restricted.amps, atol=1e-10)
            # nothing escapes the conserved-weight subspace
            assert np.linalg.norm(aligned) == pytest.approx(1.0, abs=1e-10)


def test_block_weight_conservation_full_engine():
    rng = np.random.default_rng(37)
    circuit = build_circuit(OSSP133, OBJ133, 2)
    params = ParameterVector(
        rng.uniform(0, math.pi / 2, size=4), rng.uniform(0, 2 * math.pi, size=2)
    )
    out = apply_circuit(circuit, params, basis_state(OSSP133, Z0_133, "full"))
    for z, p in probabilities(out).items():
        assert [z[k : k + 3].count("1") for k in (0, 3, 6)] == [1, 1, 1]


def test_apply_circuit_uses_the_circuit_mixer_table(monkeypatch):
    circuit = build_circuit(OSSP133, OBJ133, 2)
    assert circuit.mixers == tuple(reversed(mixers(OSSP133)))
    assert [m.generator for m in circuit.mixers] == [2, 1]  # application order
    monkeypatch.setattr(simulator, "mixers", lambda inst: pytest.fail("mixers rebuilt"))
    params = ParameterVector([0.3, 0.2, 0.1, 0.5], [0.7, 1.1])
    out = apply_circuit(circuit, params, basis_state(OSSP133, Z0_133, "subspace"))
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def round_by_round(circuit, params, state):
    """Reference from the Circuit docstring, every gate applied, zero angles
    included: round r runs gamma[r], then B_i at beta[r(J-1)+i-1] for
    i = J-1, ..., 1."""
    jobs = circuit.instance.jobs
    beta = simulator.clamp_beta(params.beta)
    table = circuit.phase_table_for(state.basis)
    for r in range(circuit.depth):
        state = apply_phase_separator(state, table, params.gamma[r])
        for i in range(jobs - 1, 0, -1):
            mixer = mixer_hamiltonian(circuit.instance, i)
            state = apply_mixer(state, mixer, beta[r * (jobs - 1) + i - 1])
    return state


@pytest.mark.parametrize("name, engine", [
    ("ossp224", "subspace"), ("ossp133", "subspace"), ("ossp133", "full"),
])
def test_zero_angle_layers_are_skipped_exactly(name, engine, monkeypatch):
    instance, objective, preset = resolve_preset(name)
    circuit = build_circuit(instance, objective, preset["depth"])
    start = basis_state(instance, preset["initial_state"], engine)
    rng = np.random.default_rng(11)
    cases = [zero_params(circuit)]
    for _ in range(6):
        beta = rng.uniform(0.0, math.pi / 2, circuit.n_beta)
        gamma = rng.uniform(-1.0, 2.0, circuit.n_gamma)
        beta[rng.random(circuit.n_beta) < 0.5] = 0.0
        gamma[rng.random(circuit.n_gamma) < 0.5] = 0.0
        cases.append(ParameterVector(beta, gamma))
    calls = []

    def counted(state, mixer, beta):
        calls.append(beta)
        return apply_mixer(state, mixer, beta)

    for params in cases:
        want = round_by_round(circuit, params, start)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(simulator, "apply_mixer", counted)
            got = apply_circuit(circuit, params, start)
        assert got.basis is want.basis
        assert np.array_equal(got.amps, want.amps)
        assert len(calls) == np.count_nonzero(params.beta)


def test_zero_gamma_never_builds_the_phase_diagonal(monkeypatch):
    def refuse(self, basis):
        raise AssertionError("phase diagonal built")

    circuit = build_circuit(OSSP224, OBJ224, 3)
    start = basis_state(OSSP224, Z0_224, "subspace")
    beta = np.random.default_rng(2).uniform(0.0, math.pi / 2, circuit.n_beta)
    monkeypatch.setattr(simulator.Circuit, "phase_for", refuse)
    out = apply_circuit(circuit, ParameterVector(beta, np.zeros(circuit.n_gamma)), start)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(AssertionError, match="phase diagonal built"):
        apply_circuit(circuit, ParameterVector(beta, [0.0, 0.4, 0.0]), start)


def test_fidelity_accepts_the_same_basis_without_comparing_values(monkeypatch):
    a = basis_state(OSSP224, Z0_224, "subspace")
    b = apply_mixer(a, mixer_hamiltonian(OSSP224, 1), math.pi / 2)
    monkeypatch.setattr(Basis, "values", lambda self: pytest.fail("basis materialised"))
    assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(b, b) == pytest.approx(1.0, abs=1e-12)


def test_apply_circuit_validation_and_clamp():
    circuit = build_circuit(OSSP133, OBJ133, 1)
    st = basis_state(OSSP133, Z0_133, "subspace")
    with pytest.raises(DomainError):
        apply_circuit(circuit, ParameterVector([0.1], [0.0]), st)
    with pytest.raises(DomainError):
        apply_circuit(circuit, ParameterVector([0.1, 0.2], []), st)
    with pytest.warns(UserWarning):
        wild = apply_circuit(circuit, ParameterVector([2.0, -0.3], [0.1]), st)
    tame = apply_circuit(circuit, ParameterVector([math.pi / 2, 0.0], [0.1]), st)
    assert np.allclose(wild.amps, tame.amps, atol=1e-12)


def test_states_are_independent():
    st = basis_state(OSSP133, Z0_133, "subspace")
    clone = st.copy()
    clone.amps[0] = 123.0
    assert st.amps[0] != 123.0
    out = apply_mixer(st, mixer_hamiltonian(OSSP133, 1), 0.3)
    assert amplitude(st, Z0_133) == 1.0  # input untouched
    assert out is not st


def random_schedule(inst, rng):
    """A random feasible string: each job at its own random position."""
    where = rng.permutation(inst.positions)[:inst.jobs]
    return "".join("1" if where[j] == p else "0"
                   for p in range(inst.positions) for j in range(inst.jobs))


def dense(state):
    """The same state without a support: every gate runs on the whole array."""
    return QuantumState(state.basis, state.amps, None)


def random_params(circuit, rng):
    """Random angles with some exact zeros (skipped gates) and half turns."""
    beta = rng.uniform(0.0, math.pi / 2, circuit.n_beta)
    gamma = rng.uniform(-2.0, 2.0, circuit.n_gamma)
    beta[rng.random(circuit.n_beta) < 0.25] = 0.0
    beta[rng.random(circuit.n_beta) < 0.2] = math.pi / 2
    gamma[rng.random(circuit.n_gamma) < 0.2] = 0.0
    return ParameterVector(beta, gamma)


def test_basis_state_support_is_the_start_and_the_phase_keeps_it():
    inst = OsspInstance(1, 6, 6)
    start = basis_state(inst, random_schedule(inst, np.random.default_rng(3)), "subspace")
    index = np.unravel_index(int(np.flatnonzero(start.amps)[0]), start.basis.shape)
    assert start.support == tuple((int(i), int(i) + 1) for i in index)
    assert start.copy().support == start.support
    d = np.triu(np.ones((6, 6), dtype=int), 1)
    circuit = build_circuit(inst, TspObjective(tuple(map(tuple, (d + d.T).tolist()))), 1)
    table = circuit.phase_table_for(start.basis)
    assert apply_phase_separator(start, table, 0.3).support == start.support
    # the gather kernel ignores the support: its result is the whole basis
    small = basis_state(OSSP224, Z0_224, "subspace")
    assert small.support is not None
    assert apply_mixer(small, mixer_hamiltonian(OSSP224, 1), 0.4).support is None


def box_cases(rng):
    """(instance, objective, depth, start, engine) on bases past GATHER_DIM:
    the ladder's tour shape (deep enough for a box to fill the basis) and
    non-busy shape, a start with weight-2 blocks, and full bases of 15 and
    16 bits, whose box runs on one axis."""
    d = np.triu(rng.integers(1, 10, (6, 6)), 1)
    tour = TspObjective(tuple(map(tuple, (d + d.T).tolist())))
    i166, i336, i155 = OsspInstance(1, 6, 6), OsspInstance(3, 3, 6), OsspInstance(1, 5, 5)
    i153, i144 = OsspInstance(1, 5, 3), OsspInstance(1, 4, 4)

    def weights(inst):
        return linear_from_rows(inst, rng.integers(0, 10, (inst.positions, inst.jobs)).tolist())

    # blocks {1,2}, {1,2}, {3}, {4}, {5}: 10^2 * 5^3 = 12,500 amplitudes
    pairs2 = "11000" "11000" "00100" "00010" "00001"
    return [
        (i166, tour, 5, random_schedule(i166, rng), "subspace"),
        (i336, weights(i336), 2, random_schedule(i336, rng), "subspace"),
        (i155, weights(i155), 2, pairs2, "subspace"),
        (i153, weights(i153), 2, random_schedule(i153, rng), "full"),
        (i144, weights(i144), 2, random_schedule(i144, rng), "full"),
    ]


def test_support_box_matches_the_dense_kernel_bit_for_bit():
    rng = np.random.default_rng(41)
    ends = set()
    for inst, objective, depth, z, engine in box_cases(rng):
        circuit = build_circuit(inst, objective, depth)
        start = basis_state(inst, z, engine)
        assert start.basis.dim > simulator.GATHER_DIM
        diag = circuit.phase_for(start.basis)
        # the first mixer in application order, cut to the pairs with equal
        # bits at the start: it leaves a one-element box, so its later pairs
        # phase one amplitude (the in-place trap of _rotate)
        first = circuit.mixers[0]
        idle = tuple((a, b) for a, b in first.pairs if z[a - 1] == z[b - 1])
        assert len(idle) >= 2
        cut = dataclasses.replace(circuit, mixers=(
            simulator.MixerHamiltonian(first.generator, idle),) + circuit.mixers[1:])
        for c in (circuit, cut):
            for _ in range(6):
                params = random_params(c, rng)
                first_slot = inst.jobs - 2  # B_{J-1} in round 1, the first mixer applied
                params.beta[first_slot] = rng.uniform(0.1, 1.0)
                params.beta[first_slot - 1] = 0.0
                params.beta[-1] = math.pi / 2
                got = apply_circuit(c, params, start)
                want = apply_circuit(c, params, dense(start))
                assert want.support is None
                assert np.array_equal(got.amps, want.amps)
                assert expectation(got, diag) == expectation(want, diag)
                # the support's claim: exact zeros outside the box
                outside = np.ones(start.basis.shape, dtype=bool)
                outside[tuple(slice(lo, hi) for lo, hi in got.support or ())] = False
                assert not np.any(got.amps.reshape(start.basis.shape)[outside])
                ends.add(got.support is None)
        one = apply_mixer(start, cut.mixers[0], 0.7)
        assert math.prod(hi - lo for lo, hi in one.support) == 1
        assert np.array_equal(one.amps, apply_mixer(dense(start), cut.mixers[0], 0.7).amps)
    assert ends == {True, False}  # some boxes grow to the whole basis


def test_support_box_with_two_pairs_on_one_axis():
    # a hand-made mixer whose pairs share block 1, which holds job 1: the
    # later pair widens the range that the earlier pair's plan was made for
    inst = OsspInstance(1, 6, 6)
    start = basis_state(inst, schedule_string(inst), "subspace")
    block = position_blocks(inst)[0]
    for pairs in (((block[0], block[1]), (block[1], block[2])),
                  ((block[1], block[2]), (block[0], block[1]))):
        m = simulator.MixerHamiltonian(1, pairs)
        for beta in (0.3, math.pi / 2):
            got = apply_mixer(start, m, beta)
            assert np.array_equal(got.amps, apply_mixer(dense(start), m, beta).amps)


def test_engines_agree_from_random_schedules():
    """Full and subspace engines, support boxes included, from random
    schedules of random small shapes and of 15- and 16-bit full bases,
    against a dense full-engine run that never uses a support."""
    rng = np.random.default_rng(43)
    shapes = [OsspInstance(1, 5, 3), OsspInstance(1, 4, 4)]
    while len(shapes) < 10:
        m, t, j = (int(v) for v in rng.integers(1, 5, 3))
        if j >= 2 and m * t >= j and m * t * j <= 12:
            shapes.append(OsspInstance(m, t, j))
    for inst in shapes:
        if inst.machines == 1 and inst.time_slots == inst.jobs:
            d = np.triu(rng.integers(1, 10, (inst.jobs, inst.jobs)), 1)
            objective = TspObjective(tuple(map(tuple, (d + d.T).tolist())))
        else:
            objective = linear_from_rows(
                inst, rng.uniform(-3, 3, (inst.positions, inst.jobs)).tolist())
        circuit = build_circuit(inst, objective, int(rng.integers(1, 3)))
        z = random_schedule(inst, rng)
        params = random_params(circuit, rng)
        full = basis_state(inst, z, "full")
        ref = apply_circuit(circuit, params, dense(full))
        sub = basis_state(inst, z, "subspace")
        sector = sub.basis.values()
        assert np.linalg.norm(ref.amps[sector]) == pytest.approx(1.0, abs=1e-12)
        for start in (full, sub):
            got = apply_circuit(circuit, params, start)
            at = np.searchsorted(start.basis.values(), sector)
            assert np.max(np.abs(got.amps[at] - ref.amps[sector])) < 1e-12
