"""Gate, engine, and circuit tests for the exact simulator."""

import dataclasses
import math
import warnings

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
    readout,
    sample,
    subspace_basis,
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


def unit_state(basis, z):
    """Unit amplitude on |z> over an explicit basis, built by hand: a gate
    reads its box from the amplitudes, so it runs as a basis_state start
    does. DomainError when z is not in the basis."""
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of(bits_to_int(z))] = 1.0
    return QuantumState(basis, amps)


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


@pytest.mark.parametrize("inst", [OSSP133, OSSP224, OsspInstance(1, 5, 4)],
                         ids=["ossp133", "ossp224", "ossp154"])
def test_full_engine_basis_is_the_product_of_full_block_sectors(inst):
    rng = np.random.default_rng(19)
    starts = [random_schedule(inst, rng) for _ in range(5)]
    basis = basis_state(inst, starts[0], "full").basis
    assert basis.engine == "full" and basis.shape == (2 ** inst.jobs,) * inst.positions
    assert np.array_equal(basis.values(), np.arange(1 << inst.n_bits))
    assert not any(sector.flags.writeable for sector in basis.sectors)
    # every start of the instance, schedule or not, shares the one basis
    other = "".join(rng.choice(["0", "1"], size=inst.n_bits))
    assert all(basis_state(inst, z, "full").basis is basis for z in starts + [other])
    # so a circuit builds and keeps one phase diagonal for all of them
    weights = rng.integers(0, 10, (inst.positions, inst.jobs)).tolist()
    circuit = build_circuit(inst, linear_from_rows(inst, weights), 1)
    params = ParameterVector(rng.uniform(0.1, 1.0, circuit.n_beta), [0.4])
    for z in starts:
        apply_circuit(circuit, params, basis_state(inst, z, "full"))
    assert list(circuit._sep_cache) == [basis]
    # the one-block full basis stays one axis, built afresh on every call
    one = full_basis(inst.n_bits)
    assert one.shape == (1 << inst.n_bits,) and one.masks == ((1 << inst.n_bits) - 1,)
    assert full_basis(inst.n_bits) is not one


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
            assert amplitude(unit_state(sub, z), z) == 1.0


def searchsorted_position(basis, value):
    """Reference for Basis.position_of: each block's pattern looked up in
    its sector by np.searchsorted."""
    patterns = [value & m for m in basis.masks]
    pos = tuple(int(np.searchsorted(s, p)) for s, p in zip(basis.sectors, patterns))
    if sum(patterns) == value and all(
        i < len(s) and s[i] == p for s, i, p in zip(basis.sectors, pos, patterns)
    ):
        return pos
    raise DomainError(f"string {int_to_bits(value, basis.n_bits)} is not in the basis")


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def test_position_of_matches_the_searchsorted_reference():
    rng = np.random.default_rng(23)
    i155 = OsspInstance(1, 5, 5)
    bases = [
        subspace_basis(OSSP224, Z0_224),  # weight-1 blocks
        subspace_basis(OSSP224, "1100011000001001"),  # weights 2, 2, 0, 2
        subspace_basis(OSSP224, "0000000000000000"),  # weight-0 blocks only
        subspace_basis(i155, "11100" + "11000" + "10000" + "00000" + "11110"),
        subspace_basis(OSSP133, Z0_133),
        basis_state(OSSP224, Z0_224, "full").basis,
        basis_state(OSSP133, Z0_133, "full").basis,
        full_basis(9),  # pure_state's one axis
        full_basis(16),
    ]
    assert {b.engine for b in bases} == {"full", "subspace"}
    for basis in bases:
        values = basis.values()
        members = rng.choice(values, size=min(len(values), 300), replace=False).tolist()
        others = rng.integers(-3, (1 << basis.n_bits) + 3, size=300).tolist()
        for v in members + others + [-1, 0, (1 << basis.n_bits) - 1, 1 << basis.n_bits]:
            want = outcome(searchsorted_position, basis, v)
            assert outcome(basis.position_of, v) == want
            if isinstance(want[0], type):
                assert want[0] is DomainError
                assert outcome(basis.index_of, v) == want
            else:
                assert basis.index_of(v) == int(np.ravel_multi_index(want, basis.shape))
        # members and numpy integers alike
        for k in rng.choice(len(values), size=min(len(values), 50), replace=False).tolist():
            assert basis.index_of(values[k]) == k


def test_subspace_basis_matches_the_block_tuple_reference():
    rng = np.random.default_rng(29)
    for inst in (OSSP224, OSSP133, OsspInstance(1, 3, 2), OsspInstance(3, 3, 3)):
        for _ in range(60):
            z = "".join(rng.choice(["0", "1"], size=inst.n_bits))
            weights = (sum(z[i - 1] == "1" for i in block) for block in position_blocks(inst))
            want = simulator._product_basis(tuple((inst.jobs, w) for w in weights))
            assert subspace_basis(inst, z) is want
    for bad in ("1", "2" * OSSP224.n_bits, None):
        with pytest.raises(DomainError, match="expected a bit string"):
            subspace_basis(OSSP224, bad)


def test_subspace_basis_contents():
    sub224 = subspace_basis(OSSP224, Z0_224)
    assert sub224.dim == 256  # 4 choices per position block
    sub133 = subspace_basis(OSSP133, Z0_133)
    assert sub133.dim == 27
    strings = [int_to_bits(v, sub133.n_bits) for v in sub133.values().tolist()]
    assert set(enumerate_solutions(OSSP133)) <= set(strings)
    for z in strings:
        assert [z[k : k + 3].count("1") for k in (0, 3, 6)] == [1, 1, 1]
    # non-busy: an empty position block stays empty
    inst = OsspInstance(1, 3, 2)
    sub = subspace_basis(inst, "100100")  # block weights 1, 1, 0
    assert sub.dim == 4
    assert all(int_to_bits(v, 6)[4:6] == "00" for v in sub.values().tolist())
    # a string outside an explicit restricted basis is rejected
    with pytest.raises(DomainError):
        unit_state(sub133, "110000000")
    # and has amplitude complex zero in a state over it
    for z, want in (("110000000", 0j), (Z0_133, 1 + 0j)):
        got = amplitude(unit_state(sub133, Z0_133), z)
        assert type(got) is complex and got == want


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
    sep = phase_table(phase_separator(OBJ133, OSSP133, sub), sub)
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
    axis = next(k for k, m in enumerate(basis.masks) if m & ma and m & mb)
    patterns = basis.sectors[axis]
    d10 = np.nonzero(((patterns & ma) != 0) & ((patterns & mb) == 0))[0]
    p01 = np.searchsorted(patterns, patterns[d10] ^ (ma | mb))
    amps = state.amps.reshape(basis.shape)
    out = amps * np.exp(1j * beta)
    if len(d10):
        lead = (slice(None),) * axis
        a10, a01 = amps[lead + (d10,)], amps[lead + (p01,)]
        c, s = math.cos(beta), math.sin(beta)
        out[lead + (d10,)] = c * a10 + 1j * s * a01
        out[lead + (p01,)] = c * a01 + 1j * s * a10
    return QuantumState(basis, out.ravel())


def test_cross_block_pair_raises_on_instance_engines_and_rotates_on_pure_state():
    z = "001000000"  # bit 3 in block 1, bit 4 in block 2
    across = simulator.MixerHamiltonian(1, ((3, 4),))
    for engine in ("full", "subspace"):
        state = basis_state(OSSP133, z, engine)
        with pytest.raises(DomainError, match="spans two blocks"):
            apply_swap_rotation(state, (3, 4), 0.5)
        with pytest.raises(DomainError, match="spans two blocks"):
            apply_mixer(state, across, 0.5)
    # pure_state holds every bit in one block
    got = apply_swap_rotation(pure_state(9, z), (3, 4), math.pi / 2)
    assert amplitude(got, "000100000") == pytest.approx(1j, abs=1e-12)
    got = apply_mixer(pure_state(9, z), across, 0.5)
    want = per_pair_rotation(pure_state(9, z), (3, 4), 0.5)
    assert np.array_equal(got.amps.view(np.uint64), want.amps.view(np.uint64))


def test_mixer_kernel_matches_per_pair_formula_bit_for_bit():
    rng = np.random.default_rng(17)
    cases = [
        (OSSP224, subspace_basis(OSSP224, Z0_224)),
        (OSSP133, subspace_basis(OSSP133, Z0_133)),
        # weight-2 blocks put several patterns on each side of a pair
        (OSSP224, subspace_basis(OSSP224, "1100011000001001")),
        (OSSP133, full_basis(OSSP133.n_bits)),
        # the ladder's shapes: 3,125 amplitudes on flat-index mixer plans,
        # 46,656 on per-axis index plans, and OSSP(3,3,6)'s weight-0 blocks
        # have no unequal patterns on their pairs
        (OsspInstance(1, 5, 5), schedule_basis(OsspInstance(1, 5, 5))),
        (OsspInstance(1, 6, 6), schedule_basis(OsspInstance(1, 6, 6))),
        (OsspInstance(3, 3, 6), schedule_basis(OsspInstance(3, 3, 6))),
    ]
    far = (1, 3)  # jobs 1 and 3 in block 1: a non-adjacent pair

    def unequal(basis, pair):
        """The pair table's partner map against the swapped patterns; the
        number of indices whose partner is another index."""
        axis, partner = simulator._pair_axis(basis, pair)
        patterns = basis.sectors[axis].tolist()
        ma, mb = (1 << (basis.n_bits - b) for b in pair)
        want = [p ^ (ma | mb) if bool(p & ma) != bool(p & mb) else p for p in patterns]
        assert [patterns[i] for i in partner.tolist()] == want
        assert not partner.flags.writeable
        return int(np.count_nonzero(partner != np.arange(len(partner))))

    # a weight-2 block of four bits has two patterns on each side of (1, 2)
    assert unequal(cases[2][1], (1, 2)) == 4
    assert {b.dim <= simulator.GATHER_DIM for _, b in cases} == {True, False}
    assert unequal(cases[-1][1], mixers(cases[-1][0])[0].pairs[-1]) == 0
    for inst, basis in cases:
        for pair in {p for m in mixers(inst) for p in m.pairs} | {far, far[::-1]}:
            unequal(basis, pair)
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
            ref = per_pair_rotation(state, far, beta)
            for pair in (far, far[::-1]):  # either order names the same swap
                one = apply_swap_rotation(state, pair, beta)
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
    """Each pair table and each mixer plan is built once, whichever of the
    mixer (from a whole-basis box or a schedule's one-element box) and the
    simultaneous mixer asks first; every array in the memo is read-only,
    and a weight-0 block's pair has the empty step."""
    i166, i336 = OsspInstance(1, 6, 6), OsspInstance(3, 3, 6)
    cases = [(OSSP224, subspace_basis(OSSP224, Z0_224)), (i166, schedule_basis(i166)),
             (i336, schedule_basis(i336))]
    assert cases[0][1].dim <= simulator.GATHER_DIM < cases[1][1].dim
    memos = []  # the last fresh basis of each case
    for inst, shared in cases:
        for simultaneous_first in (True, False):
            basis = fresh(shared)
            basis._plans = WriteOnce()
            dense_state = QuantumState(basis, np.ones(basis.dim, dtype=complex) / basis.dim ** 0.5)
            start = unit_state(basis, Z0_224 if inst is OSSP224 else schedule_string(inst))
            if simultaneous_first:
                apply_simultaneous_mixer(dense_state, mixers(inst), 0.4)
            for _ in range(2):
                for m in mixers(inst):
                    apply_mixer(dense_state, m, 0.4)
                    apply_mixer(start, m, 0.4)
            apply_simultaneous_mixer(dense_state, mixers(inst), 0.4)
            assert set(basis._plans) >= {p for m in mixers(inst) for p in m.pairs}
        memos.append(basis)
    for basis in memos:
        for key, entry in basis._plans.items():
            if not isinstance(key[0], tuple):  # a pair table
                arrays = list(entry[1:])
                continue
            pairs, box = key
            grown, extent, embed, flat, steps = entry
            assert len(steps) == len(pairs)
            assert extent == tuple(hi - lo for lo, hi in grown)
            assert all(g <= lo < hi <= h for (lo, hi), (g, h) in zip(box, grown))
            assert flat == (math.prod(extent) <= simulator.GATHER_DIM)
            arrays = []
            for step in steps:
                for index in step:
                    if flat:  # flat indices into the box
                        assert isinstance(index, np.ndarray) and index.ndim == 1
                        arrays.append(index)
                        continue
                    # index tuples along one axis: nothing longer than a sector
                    assert isinstance(index, tuple)
                    for part in index:
                        assert isinstance(part, slice) or len(part) <= max(basis.shape)
                        arrays += [] if isinstance(part, slice) else [part]
            assert not any(a.flags.writeable for a in arrays)
    # a weight-0 block's pair has no unequal patterns: its step is empty
    empty = memos[2]
    idle = [k for k, b in enumerate(position_blocks(i336)) if "1" not in
            "".join(schedule_string(i336)[i - 1] for i in b)]
    assert len(idle) == 3
    steps = [(pair, step) for key, entry in empty._plans.items() if isinstance(key[0], tuple)
             for pair, step in zip(key[0], entry[-1])]
    assert {step for pair, step in steps if empty._plans[pair][0] in idle} == {()}
    assert sum(empty._plans[pair][0] in idle for pair, _ in steps) >= 3 * 5


def test_a_state_without_support_runs_as_the_whole_basis_box():
    # a state with no zero amplitude has the whole basis as its box, and
    # apply_circuit's buffer from it equals the mixer called on it: a
    # 46,656-amplitude sector with a hand-made mixer whose pairs share
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
        circuit = build_circuit(inst, linear_from_rows(inst, [[1] * inst.jobs] * inst.positions), 1)
        for m in family:
            c = with_first_mixer(circuit, m)
            beta = rng.uniform(0.0, math.pi / 2)
            got = apply_circuit(c, only_angles(c, mixer=0, beta=beta), QuantumState(basis, amps))
            want = apply_mixer(QuantumState(basis, amps), m, beta)
            assert box_of(QuantumState(basis, amps)) == whole(basis)
            assert (m.pairs, whole(basis)) in basis._plans  # the plan of the whole box ran
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
    sep = phase_table(diag, sub)
    st = unit_state(sub, "001010100")
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
        table = phase_table(diag, basis)
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
    state = unit_state(sub, Z0_133)
    negative = linear_from_rows(OSSP133, (-np.array(WEIGHTS_133)).tolist())
    for obj in (OBJ133, negative):  # f(z) in [5, 9] and in [-9, -5]
        table = phase_table(phase_separator(obj, OSSP133, sub), sub)
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
    # both kernels, from a one-element box and from the whole basis
    for inst, state in ((OSSP133, start), (OSSP133, basis_state(OSSP133, Z0_133)),
                        (i166, basis_state(i166, schedule_string(i166), "subspace"))):
        m = mixer_hamiltonian(inst, 1)
        for st in (state, QuantumState(state.basis, np.ones_like(state.amps))):
            with pytest.raises(DomainError, match="mixer angles must be finite"):
                apply_mixer(st, m, bad)
            with pytest.raises(DomainError, match="mixer angles must be finite"):
                apply_swap_rotation(st, m.pairs[0], bad)
    with pytest.raises(DomainError, match="mixer angles must be finite"):
        apply_simultaneous_mixer(start, mixers(OSSP133), bad)


def test_expectation():
    sub = subspace_basis(OSSP133, Z0_133)
    sep = phase_table(phase_separator(OBJ133, OSSP133, sub), sub)
    assert expectation(unit_state(sub, "001010100"), sep) == pytest.approx(5.0)
    sols = enumerate_solutions(OSSP133)
    mean = expectation(superposition(OSSP133, sols, "subspace"), sep)
    assert mean == pytest.approx((5 + 6 + 6 + 7 + 8 + 8) / 6)
    zero = phase_table(phase_separator(
        linear_from_rows(OSSP133, [[0] * 3] * 3), OSSP133, sub
    ), sub)
    rng = np.random.default_rng(13)
    amps = rng.normal(size=sub.dim) + 1j * rng.normal(size=sub.dim)
    state = QuantumState(sub, amps / np.linalg.norm(amps))
    assert expectation(state, zero) == pytest.approx(0.0)
    full = basis_state(OSSP133, Z0_133, "full")
    with pytest.raises(DomainError):
        expectation(full, sep)
    with pytest.raises(DomainError):
        apply_phase_separator(full, sep, 0.5)


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


def test_readout_takes_integer_shots():
    """sample(state, 2.5, seed) returned counts summing to 2; shots are
    what operator.index accepts, except a bool, in every readout."""
    st = basis_state(OSSP133, Z0_133, "subspace")
    for bad in (2.5, 2.0, True):
        with pytest.raises(DomainError, match="shots must be an integer"):
            sample(st, bad, seed=0)
        with pytest.raises(DomainError, match="shots must be an integer"):
            readout(st, bad, 0)
    assert sample(st, np.int64(3), seed=0) == {Z0_133: 3}


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


def test_build_circuit_takes_an_integer_depth():
    """depth 1.5 built a circuit of 3.0 beta and 1.5 gamma slots; a depth
    is what operator.index accepts, except a bool, and is stored as int."""
    for bad in (1.5, 2.0, True, "2", None):
        with pytest.raises(DomainError, match="depth must be an integer"):
            build_circuit(OSSP133, OBJ133, bad)
    circuit = build_circuit(OSSP133, OBJ133, np.int64(2))
    assert type(circuit.depth) is int and (circuit.n_beta, circuit.n_gamma) == (4, 2)


def test_apply_circuit_goldens():
    for engine in ("full", "subspace"):
        circuit = build_circuit(OSSP133, OBJ133, 1)
        start = basis_state(OSSP133, Z0_133, engine)
        zeros = ParameterVector(np.zeros(circuit.n_beta), np.zeros(circuit.n_gamma))
        still = apply_circuit(circuit, zeros, start)
        assert fidelity(still, start) == pytest.approx(1.0)
        one = apply_circuit(
            circuit,
            ParameterVector([math.pi / 2, 0.0], [0.0]),
            basis_state(OSSP133, Z0_133, engine),
        )
        want1 = unit_state(one.basis, "010100001")
        assert fidelity(one, want1) == pytest.approx(1.0, abs=1e-12)
        both = apply_circuit(
            circuit,
            ParameterVector([math.pi / 2, math.pi / 2], [0.0]),
            basis_state(OSSP133, Z0_133, engine),
        )
        want2 = unit_state(both.basis, "010001100")
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
            restricted = apply_circuit(circuit, params, unit_state(sub, z0))
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
    table = circuit.phase_for(state.basis)
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
    cases = [ParameterVector(np.zeros(circuit.n_beta), np.zeros(circuit.n_gamma))]
    for _ in range(6):
        beta = rng.uniform(0.0, math.pi / 2, circuit.n_beta)
        gamma = rng.uniform(-1.0, 2.0, circuit.n_gamma)
        beta[rng.random(circuit.n_beta) < 0.5] = 0.0
        gamma[rng.random(circuit.n_gamma) < 0.5] = 0.0
        cases.append(ParameterVector(beta, gamma))
    calls, phases = [], []

    def counted(state, mixer, beta):
        calls.append(beta)
        return apply_mixer(state, mixer, beta)

    def counted_phase(state, table, gamma):
        phases.append(gamma)
        return apply_phase_separator(state, table, gamma)

    for params in cases:
        want = round_by_round(circuit, params, start)
        calls.clear()
        phases.clear()
        with monkeypatch.context() as m:
            m.setattr(simulator, "apply_mixer", counted)
            m.setattr(simulator, "apply_phase_separator", counted_phase)
            got = apply_circuit(circuit, params, start)
        assert got.basis is want.basis
        assert np.array_equal(got.amps, want.amps)
        assert len(calls) == np.count_nonzero(params.beta)
        assert len(phases) == np.count_nonzero(params.gamma)


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


def test_build_circuit_refuses_more_parameters_than_dim_cap():
    # depth * J angle slots: ossp224 has J = 4
    cap = simulator.DIM_CAP // 4
    largest = build_circuit(OSSP224, OBJ224, cap)
    assert largest.n_beta + largest.n_gamma == simulator.DIM_CAP
    with pytest.raises(CapabilityError, match="circuit parameters"):
        build_circuit(OSSP224, OBJ224, cap + 1)


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


def test_apply_circuit_never_writes_the_callers_beta():
    circuit = build_circuit(OSSP224, OBJ224, 2)
    start = basis_state(OSSP224, Z0_224, "subspace")
    rng = np.random.default_rng(31)
    inside = rng.uniform(0.0, math.pi / 2, circuit.n_beta)
    outside = inside.copy()
    outside[[0, 4]] = -0.25, 2.5
    for beta in (inside, outside):
        kept = beta.copy()
        beta.setflags(write=False)  # any write into it raises
        params = ParameterVector(beta, [0.3, -0.7])
        assert params.beta is beta
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = apply_circuit(circuit, params, start)
        assert np.array_equal(beta.view(np.uint64), kept.view(np.uint64))
        assert sum("were clamped" in str(w.message) for w in caught) == (beta is outside)
        clipped = ParameterVector(np.clip(kept, 0.0, math.pi / 2), [0.3, -0.7])
        want = apply_circuit(circuit, clipped, start)
        assert np.array_equal(out.amps.view(np.uint64), want.amps.view(np.uint64))


def test_clamp_beta_reads_the_bounds_once():
    clamp = simulator.clamp_beta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = np.array([0.0, 0.3, math.pi / 2])
        assert clamp(inside) is inside  # in range: neither copied nor written
        assert clamp(np.array([])).size == 0
        # up to 1e-12 past a bound is clipped without a warning
        edge = np.array([-1e-13, math.pi / 2 + 1e-13])
        got = clamp(edge)
        assert got is not edge and got.tolist() == [0.0, math.pi / 2]
        assert edge.tolist() == [-1e-13, math.pi / 2 + 1e-13]
        # a non-finite angle raises before any warning, wherever it sits
        for bad in (math.nan, math.inf, -math.inf):
            for beta in ([bad, 5.0], [-5.0, bad], [bad]):
                with pytest.raises(DomainError, match="mixer angles must be finite"):
                    clamp(np.array(beta))
    for beta in ([2.0, 0.1], [0.1, -0.3], [-1.0, 9.0]):
        with pytest.warns(UserWarning, match="were clamped"):
            got = clamp(np.array(beta))
        assert got.tolist() == np.clip(beta, 0.0, math.pi / 2).tolist()


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


def whole(basis):
    """The box of the whole basis: (0, n) on every axis."""
    return tuple((0, n) for n in basis.shape)


def box_of(state):
    """The box a gate reads from the state's amplitudes."""
    return simulator._buffer(state).box


def boxed_run(circuit, params, state):
    """apply_circuit's result with the boxes its buffer started and ended
    on, read off the buffer _buffer returns and the one _unbox takes."""
    boxes = []
    buffer, unbox = simulator._buffer, simulator._unbox

    def spy_buffer(st):
        buf = buffer(st)
        boxes.append(buf.box)
        return buf

    def spy_unbox(buf):
        boxes.append(buf.box)
        return unbox(buf)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulator, "_buffer", spy_buffer)
        m.setattr(simulator, "_unbox", spy_unbox)
        got = apply_circuit(circuit, params, state)
    return got, boxes[0], boxes[-1]


def zero_outside(state, box):
    """True when every amplitude of state outside box is exactly zero."""
    outside = np.ones(state.basis.shape, dtype=bool)
    outside[tuple(slice(lo, hi) for lo, hi in box)] = False
    return not np.any(state.amps.reshape(state.basis.shape)[outside])


def only_angles(circuit, gamma=0.0, mixer=None, beta=0.0):
    """Parameters whose only nonzero angles are round 1's gamma and the
    beta of circuit.mixers[mixer], so that apply_circuit runs just those
    gates, on its buffer."""
    params = ParameterVector(np.zeros(circuit.n_beta), np.zeros(circuit.n_gamma))
    params.gamma[0] = gamma
    if mixer is not None:
        params.beta[circuit.instance.jobs - 2 - mixer] = beta
    return params


def with_first_mixer(circuit, mixer):
    """circuit with mixer in place of its first mixer in application order."""
    return dataclasses.replace(circuit, mixers=(mixer,) + circuit.mixers[1:])


def random_params(circuit, rng):
    """Random angles with some exact zeros (skipped gates) and half turns."""
    beta = rng.uniform(0.0, math.pi / 2, circuit.n_beta)
    gamma = rng.uniform(-2.0, 2.0, circuit.n_gamma)
    beta[rng.random(circuit.n_beta) < 0.25] = 0.0
    beta[rng.random(circuit.n_beta) < 0.2] = math.pi / 2
    gamma[rng.random(circuit.n_gamma) < 0.2] = 0.0
    return ParameterVector(beta, gamma)


def test_basis_state_support_is_the_start_and_the_phase_keeps_it():
    """A basis_state start's box is its index on each axis, in the state
    and in its copy, and the phase layer keeps that box."""
    inst = OsspInstance(1, 6, 6)
    start = basis_state(inst, random_schedule(inst, np.random.default_rng(3)), "subspace")
    index = np.unravel_index(int(np.flatnonzero(start.amps)[0]), start.basis.shape)
    assert box_of(start) == box_of(start.copy()) == tuple((int(i), int(i) + 1) for i in index)
    d = np.triu(np.ones((6, 6), dtype=int), 1)
    circuit = build_circuit(inst, TspObjective(tuple(map(tuple, (d + d.T).tolist()))), 1)
    got, first, last = boxed_run(circuit, only_angles(circuit, gamma=0.3), start)
    assert first == last == box_of(start)
    # a small basis runs its box too: B_1 swaps jobs 1 and 2, so only the
    # blocks that hold one of them grow, to both patterns
    small = basis_state(OSSP224, Z0_224, "subspace")
    c224 = build_circuit(OSSP224, OBJ224, 1)
    assert c224.mixers[-1] == mixer_hamiltonian(OSSP224, 1)
    params = only_angles(c224, mixer=len(c224.mixers) - 1, beta=0.4)
    got, first, last = boxed_run(c224, params, small)
    assert small.basis.dim <= simulator.GATHER_DIM
    assert [hi - lo for lo, hi in last] == [2, 2, 1, 1] and zero_outside(got, last)
    want = by_pairs(c224, params, small, c224.phase_for(small.basis).diag)
    assert np.array_equal(got.amps, want)
    # the gate called on its own runs on the same box
    alone = apply_mixer(small, mixer_hamiltonian(OSSP224, 1), 0.4)
    assert np.array_equal(alone.amps, got.amps)


def box_cases(rng):
    """(instance, objective, depth, start, engine) on bases past GATHER_DIM:
    the ladder's tour shape (deep enough for a box to fill the basis) and
    non-busy shape, a start with weight-2 blocks, full engines of 15 and 16
    bits, whose boxes run per block like a sector's, and the 15-bit
    one-block full_basis, pure_state's basis, whose box holds every pair
    of a mixer on its one axis."""
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
        (i153, weights(i153), 2, random_schedule(i153, rng), None),
    ]


def test_support_box_matches_the_dense_kernel_bit_for_bit():
    """apply_circuit on its box against by_pairs on the whole array, by
    np.array_equal, with exact zeros outside the box the buffer ends on;
    engine None is pure_state's one axis."""
    rng = np.random.default_rng(41)
    ends = set()
    for inst, objective, depth, z, engine in box_cases(rng):
        circuit = build_circuit(inst, objective, depth)
        start = pure_state(inst.n_bits, z) if engine is None else basis_state(inst, z, engine)
        assert start.basis.dim > simulator.GATHER_DIM
        table = circuit.phase_for(start.basis)
        # the first mixer in application order, cut to the pairs with equal
        # bits at the start: it leaves a one-element box, so its later pairs
        # phase one amplitude (the in-place trap that _swap steps around)
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
                got, first, last = boxed_run(c, params, start)
                want = QuantumState(start.basis, by_pairs(c, params, start, table.diag))
                assert first == box_of(start)
                assert np.array_equal(got.amps, want.amps)
                assert expectation(got, table) == expectation(want, table)
                assert zero_outside(got, last)  # the box's claim
                ends.add(last == whole(start.basis))
        params = only_angles(cut, mixer=0, beta=0.7)
        one, _, last = boxed_run(cut, params, start)
        assert math.prod(hi - lo for lo, hi in last) == 1
        assert np.array_equal(one.amps, by_pairs(cut, params, start, table.diag))
    assert ends == {True, False}  # some boxes grow to the whole basis


def test_support_box_with_two_pairs_on_one_axis():
    # a hand-made mixer whose pairs share block 1, which holds job 1: the
    # later pair widens the range that the earlier pair's plan was made for
    inst = OsspInstance(1, 6, 6)
    start = basis_state(inst, schedule_string(inst), "subspace")
    block = position_blocks(inst)[0]
    circuit = build_circuit(inst, linear_from_rows(inst, [[1] * 6] * 6), 1)
    diag = circuit.phase_for(start.basis).diag
    for pairs in (((block[0], block[1]), (block[1], block[2])),
                  ((block[1], block[2]), (block[0], block[1]))):
        c = with_first_mixer(circuit, simulator.MixerHamiltonian(1, pairs))
        for beta in (0.3, math.pi / 2):
            params = only_angles(c, mixer=0, beta=beta)
            got, first, last = boxed_run(c, params, start)
            assert last[1:] == first[1:] and [hi - lo for lo, hi in last[1:]] == [1] * 5
            assert last[0] != first[0] and zero_outside(got, last)  # block 1 alone grew
            assert np.array_equal(got.amps, by_pairs(c, params, start, diag))


def test_engines_agree_from_random_schedules():
    """Full and subspace engines and pure_state's one-block full_basis,
    from random schedules of random small shapes and of 15- and 16-bit
    shapes, against gate_by_gate on the full engine's whole array."""
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
        ref = gate_by_gate(circuit, params, full, circuit.phase_for(full.basis).diag)
        sub = basis_state(inst, z, "subspace")
        sector = sub.basis.values()
        assert np.linalg.norm(ref[sector]) == pytest.approx(1.0, abs=1e-12)
        for start in (full, sub, pure_state(inst.n_bits, z)):
            got = apply_circuit(circuit, params, start)
            at = np.searchsorted(start.basis.values(), sector)
            assert np.max(np.abs(got.amps[at] - ref[sector])) < 1e-12


def test_per_block_full_engine_matches_the_one_block_full_basis():
    """The full engine, one axis per position block, against full_basis(n),
    one axis, passed as an explicit basis: random schedules and angles,
    exact 0 and pi/2 among them, on shapes of 6 to 16 bits."""
    rng = np.random.default_rng(53)
    shapes = [OsspInstance(1, 3, 2), OSSP133, OsspInstance(2, 2, 3), OsspInstance(1, 5, 3),
              OsspInstance(1, 4, 4), OSSP224]
    assert {inst.n_bits for inst in shapes} >= {15, 16}
    for inst in shapes:
        if inst.machines == 1 and inst.time_slots == inst.jobs:
            d = np.triu(rng.integers(1, 10, (inst.jobs, inst.jobs)), 1)
            objective = TspObjective(tuple(map(tuple, (d + d.T).tolist())))
        else:
            objective = linear_from_rows(
                inst, rng.uniform(-3, 3, (inst.positions, inst.jobs)).tolist())
        circuit = build_circuit(inst, objective, 2)
        one = full_basis(inst.n_bits)
        for _ in range(3):
            z = random_schedule(inst, rng)
            params = random_params(circuit, rng)
            params.beta[0], params.beta[-1] = 0.0, math.pi / 2
            blocks = apply_circuit(circuit, params, basis_state(inst, z, "full"))
            flat = apply_circuit(circuit, params, unit_state(one, z))
            assert blocks.basis.shape == (2 ** inst.jobs,) * inst.positions
            assert flat.basis is one
            assert np.array_equal(blocks.amps, flat.amps)
            assert expectation(blocks, circuit.phase_for(blocks.basis)) == expectation(
                flat, circuit.phase_for(one))
            seed = int(rng.integers(1 << 31))
            for got, want in zip(readout(blocks, 1000, seed), readout(flat, 1000, seed)):
                assert np.array_equal(got, want)


def tour_and_weights(rng):
    """A random tour for OSSP(1,6,6) and random integer weights for
    OSSP(3,3,6): the ladder's two 46,656-amplitude rungs."""
    d = np.triu(rng.integers(1, 10, (6, 6)), 1)
    i166, i336 = OsspInstance(1, 6, 6), OsspInstance(3, 3, 6)
    return [(i166, TspObjective(tuple(map(tuple, (d + d.T).tolist())))),
            (i336, linear_from_rows(i336, rng.integers(0, 10, (9, 6)).tolist()))]


def test_apply_circuit_never_writes_its_input():
    """On a basis of at most GATHER_DIM amplitudes (ossp224) and past it,
    from a basis_state start and from a dense random state: the start's
    bytes stay put, and the result shares no memory with the start, also
    when every gate was skipped."""
    rng = np.random.default_rng(59)
    for inst, objective in [(OSSP224, OBJ224)] + tour_and_weights(rng):
        circuit = build_circuit(inst, objective, 2)
        zeros = ParameterVector(np.zeros(circuit.n_beta), np.zeros(circuit.n_gamma))
        start = basis_state(inst, random_schedule(inst, rng), "subspace")
        assert (start.basis.dim <= simulator.GATHER_DIM) == (inst is OSSP224)
        amps = rng.normal(size=start.basis.dim) + 1j * rng.normal(size=start.basis.dim)
        for state in (start, QuantumState(start.basis, amps / np.linalg.norm(amps))):
            before = state.amps.tobytes()
            for params in [random_params(circuit, rng) for _ in range(3)] + [zeros]:
                got = apply_circuit(circuit, params, state)
                assert state.amps.tobytes() == before
                assert not np.shares_memory(got.amps, state.amps)


def test_an_all_zero_circuit_returns_a_fresh_state(monkeypatch):
    """Every angle zero: no gate runs and no PhaseTable is built, and the
    result is a new state with the start's amplitudes."""
    calls = []

    def counted(name):
        return lambda *args, **kwargs: calls.append(name)

    for name in ("apply_mixer", "apply_phase_separator"):
        monkeypatch.setattr(simulator, name, counted(name))
    monkeypatch.setattr(simulator.Circuit, "phase_for", counted("phase_for"))
    circuit = build_circuit(OSSP224, OBJ224, 2)
    zeros = ParameterVector(np.zeros(circuit.n_beta), np.zeros(circuit.n_gamma))
    start = basis_state(OSSP224, Z0_224, "subspace")
    for state in (start, superposition(OSSP224, [Z0_224, "0100100000010010"])):
        got = apply_circuit(circuit, zeros, state)
        assert got is not state
        assert not np.shares_memory(got.amps, state.amps)
        assert np.array_equal(got.amps, state.amps)
    assert calls == []


def test_a_hand_built_state_runs_on_the_whole_basis():
    """A state is its basis and its amplitudes: the constructor takes no
    box and a state stores none, so a state built by hand with no zero
    amplitude runs on the whole basis. ossp224 at depth 1 from a
    normalised random state: when basis_state's one-amplitude box could be
    given by hand and was taken on trust, this state came out with norm
    0.046. The result keeps norm 1 and equals the gates called one by one
    and gate_by_gate."""
    start = basis_state(OSSP224, Z0_224, "subspace")
    assert [f.name for f in dataclasses.fields(QuantumState)] == ["basis", "amps"]
    with pytest.raises(TypeError):
        QuantumState(start.basis, start.amps, box_of(start))
    assert not hasattr(start, "support")
    rng = np.random.default_rng(83)
    amps = rng.normal(size=start.basis.dim) + 1j * rng.normal(size=start.basis.dim)
    state = QuantumState(start.basis, amps / np.linalg.norm(amps))
    assert box_of(state) == whole(state.basis)
    circuit = build_circuit(OSSP224, OBJ224, 1)
    params = ParameterVector([0.3, 0.4, 0.5], [0.2])
    got = apply_circuit(circuit, params, state)
    assert got.norm() == pytest.approx(1.0, abs=1e-12)
    want = apply_phase_separator(state, circuit.phase_for(state.basis), 0.2)
    for mixer, beta in zip(circuit.mixers, [0.5, 0.4, 0.3]):  # B_3, B_2, B_1
        want = apply_mixer(want, mixer, beta)
    assert np.array_equal(got.amps, want.amps)
    assert np.array_equal(got.amps, gate_by_gate(
        circuit, params, state, circuit.phase_for(state.basis).diag))


def test_a_one_gate_circuit_equals_the_gate_called_on_its_own():
    """A circuit whose only nonzero angle drives one gate, run by
    apply_circuit on its buffer, against that gate called on the same
    state and against by_pairs, by np.array_equal: busy, non-busy and tour
    shapes below GATHER_DIM (ossp224, OSSP(2,3,3), the tour OSSP(1,5,5))
    and past it (the ladder's tour OSSP(1,6,6) and non-busy OSSP(3,3,6)),
    from a basis_state start, from a grown box and from a dense random
    state. Neither call writes its input."""
    rng = np.random.default_rng(61)
    d = np.triu(rng.integers(1, 10, (5, 5)), 1)
    i233, i155 = OsspInstance(2, 3, 3), OsspInstance(1, 5, 5)
    cases = [(OSSP224, OBJ224),
             (i233, linear_from_rows(i233, rng.integers(0, 10, (6, 3)).tolist())),
             (i155, TspObjective(tuple(map(tuple, (d + d.T).tolist()))))] + tour_and_weights(rng)
    sides = set()
    for inst, objective in cases:
        circuit = build_circuit(inst, objective, 1)
        start = basis_state(inst, random_schedule(inst, rng), "subspace")
        basis = start.basis
        sides.add(basis.dim > simulator.GATHER_DIM)
        table = circuit.phase_for(basis)
        grown = apply_circuit(circuit, only_angles(circuit, mixer=0, beta=0.4), start)
        assert box_of(grown) not in (whole(basis), box_of(start))
        amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        for state in (start, grown, QuantumState(basis, amps / np.linalg.norm(amps))):
            before = state.amps.tobytes()
            gamma = rng.uniform(-2.0, 2.0)
            runs = [(only_angles(circuit, gamma=gamma), apply_phase_separator(state, table, gamma))]
            for k, mixer in enumerate(circuit.mixers):
                beta = rng.uniform(0.0, math.pi / 2)
                runs.append((only_angles(circuit, mixer=k, beta=beta),
                             apply_mixer(state, mixer, beta)))
            for params, alone in runs:
                got = apply_circuit(circuit, params, state)
                assert np.array_equal(got.amps, alone.amps)
                assert np.array_equal(got.amps, by_pairs(circuit, params, state, table.diag))
                for out in (got, alone):
                    assert not np.shares_memory(out.amps, state.amps)
            assert state.amps.tobytes() == before
    assert sides == {True, False}


def test_no_gate_writes_a_hand_built_state_of_the_basis_shape():
    """A caller's amplitudes of basis.shape, the shape apply_circuit's
    buffer holds on a whole-basis box, are still the caller's: every gate
    leaves them as they were and gives the result of the same state with
    flat amplitudes."""
    rng = np.random.default_rng(71)
    circuit = build_circuit(OSSP224, OBJ224, 1)
    start = basis_state(OSSP224, Z0_224, "subspace")
    basis = start.basis
    assert basis.shape == (4, 4, 4, 4)
    table = circuit.phase_for(basis)
    amps = rng.normal(size=basis.shape) + 1j * rng.normal(size=basis.shape)
    gates = [lambda st: apply_phase_separator(st, table, 0.9),
             lambda st: apply_swap_rotation(st, circuit.mixers[0].pairs[0], 0.5)]
    gates += [lambda st, m=m: apply_mixer(st, m, 0.7) for m in circuit.mixers]
    for shaped in (amps, start.amps.reshape(basis.shape)):
        before = shaped.tobytes()
        for gate in gates:
            got = gate(QuantumState(basis, shaped))
            assert shaped.tobytes() == before
            assert not np.shares_memory(got.amps, shaped)
            want = gate(QuantumState(basis, shaped.reshape(-1)))
            assert np.array_equal(got.amps, want.amps)


def test_a_phase_table_of_another_basis_is_refused():
    """ossp133's sectors of block weights (1,1,1) and (2,2,2) both hold 27
    strings: a table of one is refused on a state over the other, and
    accepted on another Basis object listing the same strings."""
    one, two = subspace_basis(OSSP133, "100010001"), subspace_basis(OSSP133, "110110110")
    assert one.dim == two.dim == 27 and one is not two
    table = phase_table(phase_separator(OBJ133, OSSP133, one), one)
    with pytest.raises(DomainError, match="different basis"):
        apply_phase_separator(unit_state(two, "110110110"), table, 0.5)
    want = apply_phase_separator(unit_state(one, Z0_133), table, 0.5)
    got = apply_phase_separator(unit_state(fresh(one), Z0_133), table, 0.5)
    assert np.array_equal(got.amps, want.amps)
    with pytest.raises(DomainError, match="not over a basis"):
        phase_table(phase_separator(OBJ133, OSSP133, one)[:-1], one)


def test_expectation_reads_the_circuit_table_of_the_state_basis(monkeypatch):
    """On ossp133's two 27-string sectors, (1,1,1) and (2,2,2), each state
    reads its own table and refuses the other's, which the bare diagonal
    read silently: the (2,2,2) state scored 6.0 there. A table holds
    phase_separator's own array, read-only."""
    built = []

    def spy(*args):
        built.append(phase_separator(*args))
        return built[-1]

    monkeypatch.setattr(simulator, "phase_separator", spy)
    circuit = build_circuit(OSSP133, OBJ133, 1)
    one = basis_state(OSSP133, "100010001", "subspace")
    two = basis_state(OSSP133, "110110110", "subspace")
    assert one.basis.dim == two.basis.dim == 27 and one.basis is not two.basis
    t_one, t_two = circuit.phase_for(one.basis), circuit.phase_for(two.basis)
    assert circuit.phase_for(one.basis) is t_one and len(built) == 2
    assert float(simulator._born(two) @ t_one.diag) == 6.0
    for state, other in ((one, t_two), (two, t_one)):
        with pytest.raises(DomainError, match="different basis"):
            expectation(state, other)
    assert expectation(one, t_one) == 8.0 and expectation(two, t_two) == 12.0
    for table, diag in zip((t_one, t_two), built):
        assert isinstance(table, simulator.PhaseTable)
        assert np.shares_memory(table.diag, diag) and table.diag.tobytes() == diag.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            circuit.phase_for(table.basis).diag[0] = 1.0
    # a table keeps the sign of a zero that levels[inverse] would lose
    signed = phase_table(np.array([-0.0, 0.0]), full_basis(1))
    assert np.signbit(signed.diag).tolist() == [True, False]


def test_an_instance_of_other_blocks_is_refused_by_one_rule():
    """OSSP(1,6,2) and OSSP(1,4,3) both have 12 bits, in blocks of 2 and of
    3: a schedule state of the first is refused by the second (it read a
    feasible mass of 0.0), as is a state of another bit count, by
    feasible_mass and phase_separator alike (instances.block_axes)."""
    own, other = OsspInstance(1, 6, 2), OsspInstance(1, 4, 3)
    assert own.n_bits == other.n_bits == 12
    weights = linear_from_rows(other, [[1, 2, 3]] * 4)
    for engine in ("subspace", "full"):
        state = basis_state(own, "10" "01" + "00" * 4, engine)
        assert feasible_mass(own, state) == 1.0
        with pytest.raises(DomainError, match="does not lie on one axis"):
            feasible_mass(other, state)
        with pytest.raises(DomainError, match="does not lie on one axis"):
            phase_separator(weights, other, state.basis)
    wide = basis_state(OSSP224, Z0_224)
    with pytest.raises(DomainError, match="16 bits is not over 9 bits"):
        feasible_mass(OSSP133, wide)
    with pytest.raises(DomainError, match="16 bits is not over 9 bits"):
        phase_separator(OBJ133, OSSP133, wide.basis)


def gate_by_gate(circuit, params, state, diag):
    """The circuit's amplitudes without the simulator's kernels: every gate
    on the whole array, each phase its own statement amps = amps *
    np.exp(1j * gamma * diag) and each mixer pair by per_pair_rotation."""
    jobs, basis, amps = circuit.instance.jobs, state.basis, state.amps
    for r in range(circuit.depth):
        gamma = params.gamma[r]
        amps = amps * np.exp(1j * gamma * diag)
        for i in range(jobs - 1, 0, -1):
            beta = params.beta[r * (jobs - 1) + i - 1]
            for pair in mixer_hamiltonian(circuit.instance, i).pairs:
                amps = per_pair_rotation(QuantumState(basis, amps), pair, beta).amps
    return amps


def test_apply_circuit_matches_a_gate_by_gate_reference_bit_for_bit():
    """Whole circuits against gate_by_gate, on bases below PIN_DIM (the
    12,500-amplitude sector of box_cases) and above it (the 32,768-string
    full basis of OSSP(1,5,3) and the ladder's two 46,656-amplitude
    rungs), so both pinned operand orders of the phase product are read.
    Every start is one basis state, a schedule where the sector holds one,
    so round 1's phase multiplies a one-element box."""
    rng = np.random.default_rng(67)
    i155, i153 = OsspInstance(1, 5, 5), OsspInstance(1, 5, 3)

    def weights(inst):
        return linear_from_rows(inst, rng.integers(0, 10, (inst.positions, inst.jobs)).tolist())

    cases = [(i155, weights(i155), d, "11000" "11000" "00100" "00010" "00001", "subspace")
             for d in (1, 2)]
    cases += [(i153, weights(i153), d, random_schedule(i153, rng), "full") for d in (1, 2)]
    cases += [(inst, obj, d, random_schedule(inst, rng), "subspace")
              for inst, obj in tour_and_weights(rng) for d in (1, 2, 3)]
    dims = set()
    for inst, objective, depth, z, engine in cases:
        circuit = build_circuit(inst, objective, depth)
        start = basis_state(inst, z, engine)
        assert math.prod(hi - lo for lo, hi in box_of(start)) == 1
        dims.add(start.basis.dim)
        table = circuit.phase_for(start.basis)
        for _ in range(4):
            params = ParameterVector(rng.uniform(0.0, math.pi / 2, circuit.n_beta),
                                     rng.uniform(-2.0, 2.0, circuit.n_gamma))
            got = apply_circuit(circuit, params, start)
            want = gate_by_gate(circuit, params, start, table.diag)
            assert np.array_equal(got.amps, want)
            assert expectation(got, table) == expectation(QuantumState(start.basis, want), table)
    assert dims == {12_500, 32_768, 46_656}
    assert min(dims) < simulator.PIN_DIM < 32_768


def by_pairs(circuit, params, state, diag):
    """gate_by_gate for any circuit.mixers, hand-made ones included: every
    gate on the whole array, zero angles included, each mixer pair by
    per_pair_rotation."""
    basis, amps = state.basis, state.amps
    grid = params.beta.reshape(circuit.depth, -1)
    for gamma, row in zip(params.gamma, grid):
        amps = amps * np.exp(1j * gamma * diag)
        for mixer, beta in zip(circuit.mixers, row[::-1]):
            for pair in mixer.pairs:
                amps = per_pair_rotation(QuantumState(basis, amps), pair, beta).amps
    return amps


def differential_cases(rng):
    """(instance, objective, start, first mixer) on busy, non-busy and
    random shapes, a start with weight-2 blocks, the full engine, a tour,
    and pure_state's one axis with a hand-made first mixer whose two pairs
    share it."""
    def weights(inst):
        return linear_from_rows(inst, rng.integers(0, 10, (inst.positions, inst.jobs)).tolist())

    def tour(jobs):
        d = np.triu(rng.integers(1, 10, (jobs, jobs)), 1)
        return TspObjective(tuple(map(tuple, (d + d.T).tolist())))

    i155, i144, i233, i153 = (OsspInstance(1, 5, 5), OsspInstance(1, 4, 4),
                              OsspInstance(2, 3, 3), OsspInstance(1, 5, 3))
    shapes = [(i144, weights(i144), random_schedule(i144, rng), "subspace"),
              (i233, weights(i233), random_schedule(i233, rng), "subspace"),
              (i155, weights(i155), "11000" "11000" "00100" "00010" "00001", "subspace"),
              (i155, tour(5), random_schedule(i155, rng), "subspace"),
              (OSSP133, OBJ133, random_schedule(OSSP133, rng), "full"),
              (i144, tour(4), random_schedule(i144, rng), "full")]
    while len(shapes) < 10:
        m, t, j = (int(v) for v in rng.integers(1, 5, 3))
        if j >= 2 and m * t >= j and m * t * j <= 16:
            inst = OsspInstance(m, t, j)
            shapes.append((inst, weights(inst), random_schedule(inst, rng), "subspace"))
    cases = [(inst, objective, basis_state(inst, z, engine), None)
             for inst, objective, z, engine in shapes]
    for inst in (OSSP133, i153):  # 512 and 32,768 amplitudes on one axis
        block = position_blocks(inst)[0]
        shared = simulator.MixerHamiltonian(1, ((block[0], block[1]), (block[1], block[2])))
        cases.append((inst, weights(inst), pure_state(inst.n_bits, random_schedule(inst, rng)),
                      shared))
    return cases


def test_box_route_matches_dense_starts_and_the_per_pair_reference():
    """apply_circuit from a one-amplitude start (its one-element box) and
    by_pairs on the whole array agree by np.array_equal, with angles of
    exactly 0 and pi/2 among random ones, and a circuit whose first mixer
    holds only pairs with equal bits at the start, so that it phases a
    one-element box."""
    rng = np.random.default_rng(73)
    seen = set()
    for inst, objective, start, shared in differential_cases(rng):
        circuit = build_circuit(inst, objective, int(rng.integers(1, 4)))
        if shared is not None:
            circuit = dataclasses.replace(circuit, mixers=(shared,) + circuit.mixers[1:])
        diag = circuit.phase_for(start.basis).diag
        circuits = [circuit]
        z = int_to_bits(int(start.basis.values()[np.flatnonzero(start.amps)[0]]), inst.n_bits)
        first = circuit.mixers[0]
        idle = tuple((a, b) for a, b in first.pairs if z[a - 1] == z[b - 1])
        if idle:
            circuits.append(dataclasses.replace(circuit, mixers=(
                simulator.MixerHamiltonian(first.generator, idle),) + circuit.mixers[1:]))
        for c in circuits:
            for _ in range(4):
                params = random_params(c, rng)
                params.gamma[0] = rng.uniform(0.1, 2.0)  # round 1 phases the one-element box
                params.beta[inst.jobs - 2] = rng.uniform(0.1, 1.0)  # the first mixer runs
                got = apply_circuit(c, params, start)
                assert np.array_equal(got.amps, by_pairs(c, params, start, diag))
                seen.add(start.basis.dim > simulator.GATHER_DIM)
        if idle:
            params = only_angles(circuits[-1], mixer=0, beta=0.7)
            one, first, last = boxed_run(circuits[-1], params, start)
            assert math.prod(hi - lo for lo, hi in first) == 1 and last == first
    assert seen == {True, False}


def test_box_route_reaches_each_gate_through_the_module(monkeypatch):
    """Past GATHER_DIM (the ladder's tour OSSP(1,6,6)) apply_circuit calls
    simulator.apply_mixer and simulator.apply_phase_separator once per
    nonzero angle, so a tracer that replaces them sees every gate."""
    rng = np.random.default_rng(79)
    inst, objective = tour_and_weights(rng)[0]
    circuit = build_circuit(inst, objective, 2)
    start = basis_state(inst, random_schedule(inst, rng), "subspace")
    assert start.basis.dim > simulator.GATHER_DIM
    calls, phases = [], []

    def counted(state, mixer, beta):
        calls.append(beta)
        return apply_mixer(state, mixer, beta)

    def counted_phase(state, table, gamma):
        phases.append(gamma)
        return apply_phase_separator(state, table, gamma)

    for params in [random_params(circuit, rng) for _ in range(6)]:
        want = round_by_round(circuit, params, start)
        calls.clear()
        phases.clear()
        with monkeypatch.context() as m:
            m.setattr(simulator, "apply_mixer", counted)
            m.setattr(simulator, "apply_phase_separator", counted_phase)
            got = apply_circuit(circuit, params, start)
        assert np.array_equal(got.amps, want.amps)
        assert len(calls) == np.count_nonzero(params.beta)
        assert len(phases) == np.count_nonzero(params.gamma)


def test_repeated_parameter_vectors_add_no_plans():
    """The mixer plans are keyed by pairs and input box, and a start's boxes
    repeat: running the same 40 parameter vectors again on the ladder's
    shapes builds no new memo entry."""
    rng = np.random.default_rng(83)
    cases = [(OsspInstance(1, 5, 5), linear_from_rows(
        OsspInstance(1, 5, 5), rng.integers(0, 10, (5, 5)).tolist()), 3)]
    cases += [(inst, obj, depth) for (inst, obj), depth in zip(tour_and_weights(rng), (2, 1))]
    for inst, objective, depth in cases:
        circuit = build_circuit(inst, objective, depth)
        basis = fresh(schedule_basis(inst))
        basis._plans = WriteOnce()
        start = unit_state(basis, schedule_string(inst))
        vectors = [ParameterVector(rng.uniform(0.0, math.pi / 2, circuit.n_beta),
                                   rng.uniform(-2.0, 2.0, circuit.n_gamma)) for _ in range(40)]
        first = [apply_circuit(circuit, p, start).amps for p in vectors]
        planned = dict(basis._plans)
        again = [apply_circuit(circuit, p, start).amps for p in vectors]
        assert basis._plans == planned
        assert all(np.array_equal(a, b) for a, b in zip(first, again))


def test_a_start_written_after_basis_state_runs_on_its_new_box():
    """ossp133 at depth 1, beta = (0.3, 0.2), gamma = 0: the equal
    superposition of 100010001 and 010100001 written into a basis_state
    start, in place or into its copy, on either engine. When the start's
    one-amplitude box was stored beside its amplitudes, the box went
    stale and the result had norm 0.7071; a box read from the amplitudes
    gives norm 1 and gate_by_gate's amplitudes to the bit."""
    circuit = build_circuit(OSSP133, OBJ133, 1)
    params = ParameterVector([0.3, 0.2], [0.0])
    for engine in ("full", "subspace"):
        start = basis_state(OSSP133, Z0_133, engine)
        diag = circuit.phase_for(start.basis).diag
        for state in (start.copy(), start):  # the copy first: start is written last
            for z in (Z0_133, "010100001"):
                state.amps[state.basis.index_of(bits_to_int(z))] = 2 ** -0.5
            got = apply_circuit(circuit, params, state)
            assert got.norm() == pytest.approx(1.0, abs=1e-12)
            assert np.array_equal(got.amps, gate_by_gate(circuit, params, state, diag))


def test_a_superposition_of_two_schedules_runs_on_a_proper_sub_box():
    """A hand-built superposition of two schedules on ossp224's sector and
    on the ladder's OSSP(1,6,6) sector starts from the per-axis hull of
    the two schedules' indices, neither one amplitude nor the whole basis,
    and matches gate_by_gate bit for bit with exact zeros outside the box
    its buffer ends on."""
    rng = np.random.default_rng(89)
    i166 = OsspInstance(1, 6, 6)
    d = np.triu(rng.integers(1, 10, (6, 6)), 1)
    cases = [(OSSP224, OBJ224, [Z0_224, "0100100000010010"]),
             (i166, TspObjective(tuple(map(tuple, (d + d.T).tolist()))),
              [random_schedule(i166, rng) for _ in range(2)])]
    for inst, objective, strings in cases:
        state = superposition(inst, strings, "subspace")
        basis = state.basis
        corners = [basis.position_of(bits_to_int(z)) for z in strings]
        hull = tuple((min(c), max(c) + 1) for c in zip(*corners))
        assert hull == box_of(state)
        assert 2 <= math.prod(hi - lo for lo, hi in hull) < basis.dim
        for depth in (1, 2):
            circuit = build_circuit(inst, objective, depth)
            diag = circuit.phase_for(basis).diag
            for _ in range(3):
                params = random_params(circuit, rng)
                got, first, last = boxed_run(circuit, params, state)
                assert first == hull and zero_outside(got, last)
                assert np.array_equal(got.amps, gate_by_gate(circuit, params, state, diag))


def test_a_nan_amplitude_propagates_and_an_all_zero_start_stays_zero():
    """NaN and inf count as nonzero when the box is read, so a NaN beside
    a schedule's amplitude widens the box and spreads as gate_by_gate
    spreads it; a state of zeros has the empty box and every gate and
    circuit returns zeros."""
    circuit = build_circuit(OSSP224, OBJ224, 1)
    start = basis_state(OSSP224, Z0_224, "subspace")
    basis, table = start.basis, circuit.phase_for(start.basis)
    params = ParameterVector([0.3, 0.4, 0.5], [0.2])
    far = basis.index_of(bits_to_int("0001001001001000"))
    for bad in (math.nan, math.inf):
        state = start.copy()
        state.amps[far] = bad
        corners = [basis.position_of(bits_to_int(z)) for z in (Z0_224, "0001001001001000")]
        assert box_of(state) == tuple((min(c), max(c) + 1) for c in zip(*corners))
        with np.errstate(invalid="ignore"):
            got = apply_circuit(circuit, params, state)
            want = gate_by_gate(circuit, params, state, table.diag)
        assert np.isnan(got.amps).any()
        assert np.array_equal(got.amps, want, equal_nan=True)
    zeros = QuantumState(basis, np.zeros(basis.dim, dtype=complex))
    assert box_of(zeros) == ((0, 0),) * len(basis.shape)
    outs = [apply_circuit(circuit, params, zeros), apply_phase_separator(zeros, table, 0.7),
            apply_mixer(zeros, circuit.mixers[0], 0.4),
            apply_swap_rotation(zeros, circuit.mixers[0].pairs[0], 0.4)]
    for out in outs:
        assert out.amps.shape == (basis.dim,) and not np.any(out.amps)
        assert not np.shares_memory(out.amps, zeros.amps)
