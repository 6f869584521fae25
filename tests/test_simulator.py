"""Gate, engine, and circuit tests for the exact simulator."""

import math

import numpy as np
import pytest

from ossvqa import simulator
from ossvqa.errors import CapabilityError, DomainError
from ossvqa.instances import (
    OsspInstance,
    bits_to_int,
    enumerate_solutions,
    int_to_bits,
    linear_from_rows,
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
    sep = phase_separator(OBJ133, OSSP133, sub)
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
    ]
    assert len(simulator._swap_partners(cases[2][1], (1, 2))[1]) == 2
    for inst, basis in cases:
        for _ in range(10):
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
    sep = phase_separator(OBJ133, OSSP133, sub)
    assert sep.dtype == np.float64 and sep.shape == (sub.dim,)
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
    for z, p in probabilities(out, threshold=1e-12).items():
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
    diag = circuit.phase_for(state.basis)
    for r in range(circuit.depth):
        state = apply_phase_separator(state, diag, params.gamma[r])
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
