"""Exact noiseless simulation of SWAP-rotation circuits.

Two interchangeable engines hold the amplitudes, both as a tensor product
of one sector per position block (a block's allowed bit patterns on its J
bits), with one amplitude axis per block. Block 1 holds the most
significant bits (bit 1, the leftmost printed character, is the most
significant bit), so the flat order is ascending string value:

- full: every block's sector holds all 2^J patterns, so the basis is the
  complete 2^N computational basis and a flat index is the integer value
  of the string;
- subspace: the strings sharing a reference string's Hamming weight inside
  every position block, the C(J, w) patterns of weight w per block. Mixers
  act inside position blocks and phase separators are diagonal, so these
  weights are conserved and the restriction is exact. Started from a
  schedule of a busy instance it holds J^P strings, of which J! are
  schedules.

Both are built by one builder and interned by block layout, so every
start of one engine (and block weights) shares one basis, whose pair
tables have at most 2^J entries. A swap acts inside one block: a pair
that spans two raises DomainError on either engine. pure_state, for gates
on bits without an instance, holds all 2^n strings as one block on one
axis, so any pair of its bits can swap.

A swap rotation by angle beta multiplies basis states with equal bits on the
pair by e^{i beta} and mixes unequal pairs as cos(beta)|z> + i sin(beta)
|z_swapped>; at beta = pi/2 it acts as i * SWAP, at 0 as the identity. A
mixer applies the rotation to one adjacent job pair inside every position
block; the rotations commute. Only the angles 0 and pi/2 map schedules onto
schedules: in between, a mixer puts amplitude on infeasible strings.
A circuit runs rounds of one phase separator e^{i gamma f(z)} followed by
the mixers B_{J-1}, ..., B_1.

A start is one basis state and a swap moves amplitude only between
partner patterns along one block's axis, so amplitude spreads one block
pattern at a time and stays inside a box: per amplitude axis, the
[lo, hi) index range outside which every amplitude is exactly zero. The
box is read from the amplitudes (_buffer), never stored. apply_circuit and
a gate called on its own copy their input's box out once into a private
buffer (_BoxBuffer), one C-contiguous array of the box's shape, run the
gates on that buffer in place (the phase layer keeps the box, a mixer
widens it to the swap partners of the box and, when it grows, moves it
into a zeroed array of the grown box), and write it once into a zeroed
full-length vector, so no caller's state is written (_gate). One kernel
body applies every swap pair, reading one plan per mixer and input box,
memoised on the basis (_mixer_plan): flat indices on boxes of at most
GATHER_DIM amplitudes, per-axis indices or slices on larger ones.
Results equal those of the per-pair formula and of amps * exp(1j *
gamma * diag) on the whole basis to the bit, apart from the sign of
zeros outside the box.

All state comparisons in tests use fidelity |<phi|psi>| since pi/2 rotations
introduce global phases of i per swapped pair.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, DomainError
from .instances import (
    Objective,
    OsspInstance,
    as_int64,
    as_integer,
    bits_to_int,
    block_axes,
    check_bitstring,
    feasibility_mask,
    int_to_bits,
    is_finite_real,
    position_blocks,
    tensor_objective_values,
)

DIM_CAP = 1 << 20
GATHER_DIM = 4096  # largest box whose mixer plan holds flat indices (see _mixer_plan)
PIN_DIM = 16384  # 256 KiB of amplitudes: the phase product's operand order switches here
COMPLEX = np.dtype(np.complex128)  # every gate's output dtype
PROB_FLOOR = 1e-14  # Born probabilities at or below it are not read out
BETA_LO, BETA_HI = 0.0, math.pi / 2


# ---------------------------------------------------------------------------
# bases and states


@dataclass(eq=False)
class Basis:
    """A tensor product of per-block sectors, built by _product_basis:
    sectors[k] holds block k's allowed bit patterns in ascending order
    (read-only) and masks[k] holds its bits. On the full engine each
    position block's sector holds all its 2^J patterns; full_basis(n) is
    the single sector of all n-bit values. _plans memoises the mixer's
    bookkeeping: each swap pair's table (_pair_axis), keyed by the pair,
    and each mixer's plan (_mixer_plan), keyed by its pairs and input
    box."""

    n_bits: int
    sectors: tuple[np.ndarray, ...]
    masks: tuple[int, ...]
    _plans: dict = field(default_factory=dict, repr=False)

    @property
    def engine(self) -> str:
        # a sector of one weight on a block of J >= 1 bits holds C(J, w) < 2^J
        # patterns, so only all-pattern sectors give all 2^N strings
        return "full" if self.dim == 1 << self.n_bits else "subspace"

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.sectors)

    @functools.cached_property
    def dim(self) -> int:
        return math.prod(self.shape)

    def values(self) -> np.ndarray:
        """Integer value of every basis string in amplitude order (ascending)."""
        return functools.reduce(np.add.outer, self.sectors).ravel()

    @functools.cached_property
    def _axes(self) -> tuple[tuple[int, int, int | None], ...]:
        """Per amplitude axis (shift, ones, weight): a string's block
        pattern, shifted down to the block's lowest bit, is value >> shift
        & ones; weight is the sector's pattern weight, None on a sector of
        all 2^width patterns."""
        axes = []
        for sector, mask in zip(self.sectors, self.masks):
            shift = (mask & -mask).bit_length() - 1
            ones = mask >> shift
            weight = None if len(sector) == ones + 1 else int(sector[0]).bit_count()
            axes.append((shift, ones, weight))
        return tuple(axes)

    def position_of(self, value: int) -> tuple[int, ...]:
        """The string's index along each amplitude axis, from its bits
        alone: no sector is searched or copied. On an all-pattern sector a
        block's pattern p (shifted down) is its own index. On a sector of
        weight w a pattern with set bits c_1 < ... < c_w, counted from the
        block's lowest bit, has index sum_i C(c_i, i), its rank in
        ascending order (the combinatorial number system). DomainError
        when the string is not in the basis."""
        value = operator.index(value)
        pos = []
        if 0 <= value < 1 << self.n_bits:
            for shift, ones, weight in self._axes:
                p = value >> shift & ones
                if weight is None:
                    pos.append(p)
                    continue
                if p.bit_count() != weight:
                    break
                rank = i = 0
                while p:
                    low, i = p & -p, i + 1
                    rank += math.comb(low.bit_length() - 1, i)
                    p ^= low
                pos.append(rank)
            else:
                return tuple(pos)
        raise DomainError(f"string {int_to_bits(value, self.n_bits)} is not in the basis")

    def index_of(self, value: int) -> int:
        """The string's flat index in amplitude order (C order over shape)."""
        index = 0
        for i, n in zip(self.position_of(value), self.shape):
            index = index * n + i
        return index


@dataclass(eq=False)
class QuantumState:
    """Amplitudes over a basis: amps is full-length, in basis order, and no
    gate writes it (see _gate)."""

    basis: Basis
    amps: np.ndarray

    @property
    def engine(self) -> str:
        return self.basis.engine

    def copy(self) -> "QuantumState":
        return QuantumState(self.basis, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(eq=False)
class _BoxBuffer(QuantumState):
    """The gates' private state: amps holds box alone, one C-contiguous
    complex128 array of the box's shape, which every gate rewrites in
    place (see _gate); box is one [lo, hi) range per amplitude axis,
    outside which every amplitude is exactly zero. Built by _buffer and
    read out by _unbox; none leaves this module."""

    box: tuple[tuple[int, int], ...]


def _buffer(state: QuantumState) -> _BoxBuffer:
    """A new buffer holding a copy of the state's box, read from its
    amplitudes: per amplitude axis, the least index of an amplitude that
    is not exactly zero (NaN and inf count) and the greatest + 1, and
    (0, 0) on every axis when every amplitude is zero.

    The scan compares the real and imaginary parts as floats and finds
    the set ones in a bool array, ten times faster than nonzero() on the
    complex array (20 against 220 us on 46,656 amplitudes, one CPU of a
    shared 2-CPU x86_64 host; a depth-1 circuit on OSSP(3,3,6) takes about
    370). A single amplitude, as a basis_state start has, is unravelled
    with Python ints, no array op."""
    basis = state.basis
    amps = np.ascontiguousarray(state.amps, dtype=COMPLEX).reshape(basis.shape)
    nz = (amps.view(np.float64) != 0).reshape(-1).nonzero()[0] >> 1  # amplitude indices
    if len(nz) and nz[0] != nz[-1]:
        box = tuple((int(i.min()), int(i.max()) + 1) for i in np.unravel_index(nz, basis.shape))
    else:  # one amplitude, or none: an empty box at the first corner
        index, width, box = int(nz[0]) if len(nz) else 0, min(len(nz), 1), ()
        for n in reversed(basis.shape):
            index, i = divmod(index, n)
            box = ((i, i + width),) + box
    return _BoxBuffer(basis, np.array(amps[_slices(box)], order="C"), box)


def _unbox(buf: _BoxBuffer) -> QuantumState:
    """The buffer as a caller's state: its box written once into a zeroed
    full-length vector, or its own array, flat, when the box is the whole
    basis (on 46,656 amplitudes the zeroed copy cost about 35 us per
    circuit)."""
    basis = buf.basis
    if buf.amps.size == basis.dim:
        return QuantumState(basis, buf.amps.reshape(-1))
    amps = np.zeros(basis.dim, dtype=COMPLEX)
    amps.reshape(basis.shape)[_slices(buf.box)] = buf.amps
    return QuantumState(basis, amps)


@functools.lru_cache(maxsize=64)
def _product_basis(blocks: tuple[tuple[int, int | None], ...]) -> Basis:
    """The basis of one sector per block of consecutive bits, block 1 the
    most significant: (width, weight) lists the block's width-bit patterns
    of that weight, and weight None all 2^width of them. Every Basis is
    built here. Past 63 bits, or past DIM_CAP strings (the product of the
    sector sizes), it raises CapabilityError before any pattern is listed.

    Interned: all callers with the same blocks share one Basis and so its
    plan memo, which holds one table per swap pair and one plan per mixer
    and input box a start's circuits reach. On position blocks of J bits
    a table has at most 2^J entries, so keeping it is cheap; a plan holds
    at most GATHER_DIM flat indices per pair, or per-axis ones. full_basis
    calls the uncached builder (_product_basis.__wrapped__): its one axis
    makes every table O(2^n)."""
    n = sum(width for width, _ in blocks)
    as_int64((), n)
    if (size := math.prod(1 << w if k is None else math.comb(w, k) for w, k in blocks)) > DIM_CAP:
        kind = "full" if size == 1 << n else "restricted"
        raise CapabilityError(f"{kind} basis of {size} states would exceed {DIM_CAP} states")
    sectors, masks, shift = [], [], n
    for width, weight in blocks:
        shift -= width
        if weight is None:
            sector = np.arange(1 << width, dtype=np.int64) << shift
        else:
            bits = [1 << (shift + b) for b in range(width)]
            sector = as_int64(sorted(sum(c) for c in itertools.combinations(bits, weight)), n)
        sector.setflags(write=False)  # shared between callers; values() may hand it out
        sectors.append(sector)
        masks.append(((1 << width) - 1) << shift)
    return Basis(n, tuple(sectors), tuple(masks))


def full_basis(n_bits: int) -> Basis:
    """All 2^n_bits strings as one block, so one amplitude axis: the basis
    of pure_state, for gates on bits without an instance. Built afresh on
    every call, since its pair tables and mixer plans are O(2^n_bits)."""
    return _product_basis.__wrapped__(((n_bits, None),))


def subspace_basis(instance: OsspInstance, z: str) -> Basis:
    """All strings sharing z's Hamming weight in every position block: the
    product of the position blocks' sectors of z's block weights, shared by
    every start with those weights. Position block k is the J characters
    z[kJ : kJ + J], and its weight is counted there with str.count."""
    check_bitstring(z, instance.n_bits)
    jobs = instance.jobs
    return _product_basis(tuple((jobs, z.count("1", k, k + jobs)) for k in range(0, len(z), jobs)))


def basis_state(instance: OsspInstance, z: str, engine="full") -> QuantumState:
    """Unit amplitude on |z>. engine is 'full' (the product of the position
    blocks' full sectors, one Basis per block layout) or 'subspace'
    (subspace_basis(instance, z))."""
    check_bitstring(z, instance.n_bits)
    if engine == "full":
        basis = _product_basis(((instance.jobs, None),) * instance.positions)
    elif engine == "subspace":
        basis = subspace_basis(instance, z)
    else:
        raise DomainError(f"unknown engine {engine!r}")
    return _unit(basis, bits_to_int(z))


def pure_state(n_bits: int, z: str) -> QuantumState:
    """Unit amplitude on |z> over full_basis(n_bits), one block and one
    axis, without an instance (gate-level testing)."""
    check_bitstring(z, n_bits)
    return _unit(full_basis(n_bits), bits_to_int(z))


def _unit(basis: Basis, value: int) -> QuantumState:
    """Unit amplitude on the basis string of the given integer value."""
    amps = np.zeros(basis.dim, dtype=COMPLEX)
    amps[basis.index_of(value)] = 1.0
    return QuantumState(basis, amps)


def amplitude(state: QuantumState, z: str) -> complex:
    """Amplitude on |z>; 0j for strings outside a restricted basis."""
    check_bitstring(z, state.basis.n_bits)
    try:
        return complex(state.amps[state.basis.index_of(bits_to_int(z))])
    except DomainError:
        return 0j


def _same_basis(a: Basis, b: Basis) -> bool:
    """a is b, or both list the same strings of the same width in the same
    amplitude order: the rule of fidelity and of the phase layer."""
    return a is b or (a.n_bits == b.n_bits and np.array_equal(a.values(), b.values()))


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>| for states over the identical basis."""
    if not _same_basis(a.basis, b.basis):
        raise DomainError("fidelity requires states over the same basis")
    return float(abs(np.vdot(a.amps, b.amps)))


# ---------------------------------------------------------------------------
# gates


def _pair_axis(basis: Basis, pair) -> tuple:
    """The table of the 1-based bit pair, memoised on the basis by pair:
    (axis, partner).

    axis is the amplitude axis whose block holds both bits; a pair that
    spans two blocks, as two position blocks on either instance engine,
    raises DomainError. partner (read-only) maps each index along the axis
    to the index of its pattern with the pair's bits swapped, and to
    itself where the bits are equal; the swapped pattern is present, as a
    sector holds every pattern of its weight, or of its block."""
    pair = tuple(pair)
    table = basis._plans.get(pair)
    if table is None:
        a, b = pair
        n = basis.n_bits
        if not (1 <= a <= n and 1 <= b <= n) or a == b:
            raise DomainError(f"invalid bit pair {pair!r} for {n} bits")
        ma, mb = 1 << (n - a), 1 << (n - b)
        axis = next((k for k, m in enumerate(basis.masks) if m & ma and m & mb), None)
        if axis is None:
            raise DomainError(f"swap on pair {pair} spans two blocks of the basis")
        patterns = basis.sectors[axis]
        unequal = ((patterns & ma) == 0) != ((patterns & mb) == 0)
        partner = np.searchsorted(patterns, np.where(unequal, patterns ^ (ma | mb), patterns))
        partner.setflags(write=False)  # shared between callers
        table = basis._plans[pair] = axis, partner
    return table


def _run(idx: np.ndarray):
    """idx as a slice when it is an arithmetic run, ascending or
    descending, so that indexing with it gives a view instead of a copy."""
    step = int(idx[1] - idx[0]) if len(idx) > 1 else 1
    if len(idx) and step and np.all(np.diff(idx) == step):
        stop = int(idx[-1]) + (1 if step > 0 else -1)
        return slice(int(idx[0]), None if stop < 0 else stop, step)
    return idx


def _slices(box) -> tuple:
    return tuple(itertools.starmap(slice, box))


def _mixer_plan(basis: Basis, pairs, box) -> tuple:
    """(grown, extent, embed, flat, steps) for a mixer on the given pairs
    whose input is the box box, memoised on the basis by pairs and box: a
    start's boxes repeat from one evaluation to the next.

    grown is the smallest box that holds box and the swap partner of every
    index in it under every pair, found by widening each pair's axis
    range until no range grows; extent is its shape and embed the slices
    of box inside it. steps holds per pair the kernel's (sel, swp),
    counted from grown's corner and read off the pair's partner table:
    sel lists the entries of grown's axis range whose partner comes before
    them, then those partners, and swp the same entries with the halves
    swapped, so swp[j] is the partner of sel[j]. A pair with no unequal
    pattern in the box, as on a weight-0 block, has the empty step ().

    On a grown box of at most GATHER_DIM amplitudes (flat) sel and swp
    are flat indices: on boxes that small the numpy calls, not the
    amplitudes, are the cost, and one flat gather is the fewest calls. On
    a larger box a flat gather costs more per element, so they are index
    tuples along the pair's axis, slices (views) where the indices form a
    run, descending runs included. Best-of-5 timings of the two forms on
    whole bases tied between 4,096 and 7,776 amplitudes. Every index
    array in a plan is read-only."""
    key = (pairs, box)
    plan = basis._plans.get(key)
    if plan is None:
        tables = [_pair_axis(basis, pair) for pair in pairs]
        grown, before = list(box), None
        while grown != before:  # until every range holds its partners under every pair
            before = list(grown)
            for axis, partner in tables:
                (lo, hi), seg = grown[axis], partner[slice(*grown[axis])]
                grown[axis] = int(seg.min(initial=lo)), int(seg.max(initial=hi - 1)) + 1
        extent = tuple(hi - lo for lo, hi in grown)
        flat = math.prod(extent) <= GATHER_DIM
        index = np.arange(math.prod(extent)).reshape(extent) if flat else None
        steps = []
        for axis, partner in tables:
            (lo, hi), lead = grown[axis], (slice(None),) * axis
            # grown holds the partner of every index it holds
            seg = partner[lo:hi] - lo
            late = np.flatnonzero(seg < np.arange(hi - lo))
            early = seg[late]
            sel, swp = np.concatenate([late, early]), np.concatenate([early, late])
            if flat:
                sel, swp = index[lead + (sel,)].ravel(), index[lead + (swp,)].ravel()
            sel.setflags(write=False), swp.setflags(write=False)
            if not flat:
                sel, swp = lead + (_run(sel),), lead + (_run(swp),)
            steps.append((sel, swp) if len(late) else ())
        grown = tuple(grown)
        embed = tuple(slice(lo - g, hi - g) for (lo, hi), (g, _) in zip(box, grown))
        plan = basis._plans[key] = grown, extent, embed, flat, tuple(steps)
    return plan


def _gate(state: QuantumState, kernel, *args) -> QuantumState:
    """Run kernel(basis, x, box, *args) -> (x, box) on a buffer, x its
    C-contiguous complex128 array of the box's shape, in place unless a
    mixer grows the box; the result is the buffer of the box the kernel
    returns.

    A buffer is told by its type (_BoxBuffer) alone. Any other state is a
    caller's and is never written: it runs as apply_circuit's start does,
    its box copied out into a new buffer (_buffer) and the result written
    into a new full-length vector (_unbox)."""
    if not isinstance(state, _BoxBuffer):
        return _unbox(_gate(_buffer(state), kernel, *args))
    return _BoxBuffer(state.basis, *kernel(state.basis, state.amps, state.box, *args))


def _swap(basis: Basis, x: np.ndarray, box, pairs, beta: float) -> tuple:
    """The swap rotations on the given pairs, one after another, on the box
    array x (see _gate); the box grows first to the plan's (_mixer_plan),
    a zeroed array with x copied in at its offset.

    Per pair one kernel body runs: r = c * x[sel]; r += js * x[swp] reads
    the rotated values c*a10 + i s*a01 and c*a01 + i s*a10; then every
    amplitude of the box is multiplied by e^{i beta} in place; then
    x[sel] = r scatters the rotated values over their phased entries.
    Each amplitude sees the same operations in the same order whatever the
    box and the index form, so the result is the same to the bit; outside
    a box only the sign of a zero can differ. The scalars stay where they
    were: c and js on the left of their products and ph on the right,
    since numpy can round a product differently when its operands are
    swapped. A one-element box takes the phase out of place: numpy runs an
    in-place product of one element as a reduction, which rounds
    differently. DomainError when beta is not a finite real number
    (is_finite_real)."""
    if not is_finite_real(beta):
        raise DomainError(f"mixer angles must be finite real numbers, got {beta!r}")
    grown, extent, embed, flat, steps = _mixer_plan(basis, pairs, box)
    if grown != box:
        x, old = np.zeros(extent, dtype=COMPLEX), x
        x[embed] = old
    ph = np.exp(1j * beta)
    c, js = math.cos(beta), 1j * math.sin(beta)
    v = x.reshape(-1) if flat else x
    for step in steps:
        if step:
            sel, swp = step
            r = c * v[sel]
            r += js * v[swp]
        # equal-bit states pick up the phase
        if v.size == 1:
            v[...] = v * ph  # out of place, as the docstring says
        else:
            v *= ph
        if step:
            v[sel] = r
    return x, grown


def apply_swap_rotation(state: QuantumState, pair, beta: float) -> QuantumState:
    """e^{i beta SWAP} on the two given 1-based bit indices, into a copy."""
    return _gate(state, _swap, (tuple(pair),), beta)


@dataclass(frozen=True)
class MixerHamiltonian:
    """Sum of disjoint SWAPs realizing one adjacent job transposition: one
    (job i, job i+1) bit pair inside every position block."""

    generator: int
    pairs: tuple[tuple[int, int], ...]


def mixer_hamiltonian(instance: OsspInstance, i: int) -> MixerHamiltonian:
    """The mixer of adjacent jobs i and i + 1; DomainError when i is not an
    integer (as_integer) in 1..J-1."""
    i = as_integer("mixer index", i)
    if not (1 <= i <= instance.jobs - 1):
        raise DomainError(
            f"mixer index {i} out of range 1..{instance.jobs - 1}"
        )
    pairs = tuple(
        (block[i - 1], block[i]) for block in position_blocks(instance)
    )
    return MixerHamiltonian(i, pairs)


def mixers(instance: OsspInstance) -> list[MixerHamiltonian]:
    return [mixer_hamiltonian(instance, i) for i in range(1, instance.jobs)]


def apply_mixer(state: QuantumState, mixer: MixerHamiltonian, beta: float) -> QuantumState:
    """Product of the P commuting swap rotations at the same angle;
    DomainError when beta is not finite.

    The rotations run on the input's box (see _gate): each pair's axis
    range grows to hold the swap partners of its indices, and the grown
    box is the result's. Amplitudes, expectations and samples equal those
    of the rotations on the whole basis to the bit; only the sign of zeros
    outside the box can differ. See _swap for the kernel and the numpy
    rounding trap a one-element box meets, and _mixer_plan for its
    indices."""
    return _gate(state, _swap, mixer.pairs, beta)


def phase_separator(objective: Objective, instance: OsspInstance, basis: Basis) -> np.ndarray:
    """The phase separator's diagonal: f(z) per basis state in amplitude
    order, as float64. The separator acts as z -> e^{i gamma f(z)} z.

    Built on the basis's sectors and masks by tensor_objective_values, so
    no per-string value is decoded: each position block is read as its
    J-bit pattern on its axis, and each group of J terms, a block's linear
    terms or a tour's d_uv on slots u and v, is a table over patterns,
    gathered onto its axes and added to a total that broadcasts one axis
    at a time. A group is added as one table wherever at most one of its
    terms is nonzero on the patterns present; term by term otherwise (a
    tour with J = 2, sectors of weight 2 or more, the full engine's
    all-pattern sectors). Each entry equals objective_values on the string
    to the bit."""
    return tensor_objective_values(objective, instance, basis.sectors, basis.masks)


class PhaseTable(NamedTuple):
    """f over basis, the one handle every reader of the objective takes:
    diag holds f(z) per basis state in amplitude order (read-only), levels
    its distinct values ascending and inverse their index per state, so
    diag equals levels[inverse] up to the sign of zeros (np.unique keeps
    one of 0.0 and -0.0, so values are read from diag). Integer weights
    leave few levels (tens on 46,656 amplitudes), so the phase layer
    exponentiates only those. basis is the one it was built on: the phase
    layer and diag_for, which expectation and annotate_rows read through,
    refuse a state over any other (_same_basis)."""

    diag: np.ndarray
    levels: np.ndarray
    inverse: np.ndarray
    basis: Basis

    def diag_for(self, state: QuantumState) -> np.ndarray:
        """diag, once state is over this table's basis: DomainError when
        it is not (_same_basis)."""
        if not _same_basis(self.basis, state.basis):
            raise DomainError("the phase table was built for a different basis")
        return self.diag


def phase_table(diag: np.ndarray, basis: Basis) -> PhaseTable:
    """The PhaseTable of diag, a diagonal over basis, holding a read-only
    view of diag itself. Only the length is checked: DomainError when it is
    not basis.dim."""
    if len(diag) != basis.dim:
        raise DomainError(
            f"a diagonal of {len(diag)} entries is not over a basis of {basis.dim} strings")
    diag = np.asarray(diag).view()
    diag.setflags(write=False)
    return PhaseTable(diag, *np.unique(diag, return_inverse=True), basis)


def apply_phase_separator(state: QuantumState, table: PhaseTable, gamma: float) -> QuantumState:
    """e^{i gamma f} from the diagonal's table: one exponential per level,
    gathered onto the amplitudes of the input's box (see _gate). An
    amplitude gets the factor exp(1j * gamma * f(z)) of its own value, so
    the result equals amps * exp(1j * gamma * diag) to the bit, written as
    its own statement. DomainError when the table was built on another
    basis (neither state.basis nor one listing the same strings, the rule
    of fidelity), when gamma is not a finite real number (is_finite_real)
    and when some gamma * f(z) is not finite, as its phase would be NaN.

    A finite phase keeps a zero zero, so only the box is multiplied and
    it passes through unchanged. The product's operand order is pinned to
    the one numpy picks for amps * <temporary>: from PIN_DIM amplitudes up
    numpy writes the product into the temporary with the operands swapped,
    and a swapped complex product can round differently, so a basis of
    PIN_DIM or more amplitudes multiplies (phase, amplitude) and a smaller
    one (amplitude, phase), whatever the size of its box. A one-element box
    takes the product out of place (see _swap)."""
    if not _same_basis(table.basis, state.basis):
        raise DomainError("phase separator was built for a different basis")
    if not is_finite_real(gamma):
        raise DomainError(f"phase angle gamma = {gamma!r} is not finite or not real")
    # levels ascend, so the extremes bound every |gamma * f(z)|; Python
    # floats overflow to inf without a warning
    g, lo, hi = float(gamma), float(table.levels[0]), float(table.levels[-1])
    if not (math.isfinite(g * lo) and math.isfinite(g * hi)):
        raise DomainError(f"phase angle gamma = {g} times the objective is not finite")
    return _gate(state, _phase, table, gamma)


def _phase(basis: Basis, x: np.ndarray, box, table: PhaseTable, gamma: float) -> tuple:
    """e^{i gamma f} on the box array x (see _gate), in place; the box
    passes through. The phases are gathered through a view of the
    diagonal's inverse index, so no per-box index is kept."""
    index = table.inverse.reshape(basis.shape)[_slices(box)]
    phases = np.exp(1j * gamma * table.levels)[index]
    operands = (phases, x) if basis.dim >= PIN_DIM else (x, phases)
    if x.size == 1:
        x[...] = np.multiply(*operands)
    else:
        np.multiply(*operands, out=x)
    return x, box


def apply_simultaneous_mixer(state: QuantumState, mixer_list, beta: float) -> QuantumState:
    """e^{-i beta sum_i B_i} on the restricted engine.

    Every SWAP term acts inside one position block, so the sum splits into
    commuting per-block terms and the exponential into one small matrix per
    amplitude axis: the sum of the axis's SWAP permutation matrices, read
    off the pair tables. A single-member family therefore equals apply_mixer
    with beta -> -beta. DomainError when beta is not a finite real number
    (is_finite_real).
    """
    basis = state.basis
    if basis.engine == "full":
        raise CapabilityError("the simultaneous mixer needs the restricted engine")
    if not is_finite_real(beta):
        raise DomainError(f"mixer angles must be finite real numbers, got {beta!r}")
    from scipy.linalg import expm

    h = [np.zeros((len(s), len(s))) for s in basis.sectors]
    for mixer in mixer_list:
        for pair in mixer.pairs:
            axis, partner = _pair_axis(basis, pair)
            h[axis] += np.eye(len(partner))[partner]
    gates = {}  # busy blocks share one generator: exponentiate it once
    amps = state.amps.reshape(basis.shape)
    for axis, hk in enumerate(h):
        key = (hk.shape, hk.tobytes())
        if key not in gates:
            gates[key] = expm(-1j * beta * hk)
        amps = np.moveaxis(np.tensordot(gates[key], amps, axes=(1, axis)), 0, axis)
    return QuantumState(basis, amps.ravel())


# ---------------------------------------------------------------------------
# measurement

def _born(state: QuantumState) -> np.ndarray:
    """|amplitude|^2 per basis index."""
    return (state.amps.conj() * state.amps).real


def expectation(state: QuantumState, table: PhaseTable) -> float:
    """<state| f |state> = sum_z f(z) |amp(z)|^2, f read from the table's
    diag. DomainError when the table was built on another basis (neither
    state.basis nor one listing the same strings, _same_basis)."""
    return float(_born(state) @ table.diag_for(state))


def readout(state: QuantumState, shots: int = 0, seed=None) -> tuple[np.ndarray, np.ndarray]:
    """(weights, order): the measured histogram of state on basis indices.

    With shots = 0 the weights are the Born probabilities and order keeps
    those above PROB_FLOOR; otherwise they are multinomial counts of the
    Born probabilities, identical for an identical seed, and order keeps
    the sampled indices. order runs by descending weight, ties by
    ascending string value: amplitude order is ascending string value and
    the sort is stable. DomainError when shots is not an integer
    (as_integer) or is negative."""
    shots = as_integer("shots", shots)
    if shots < 0:
        raise DomainError("shots must be nonnegative")
    if shots == 0:
        weights = _born(state)
        keep = np.flatnonzero(weights > PROB_FLOOR)
    else:
        probs = np.clip(_born(state), 0.0, None)
        weights = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
        keep = np.flatnonzero(weights)
    return weights, keep[np.argsort(-weights[keep], kind="stable")]


def _by_string(state: QuantumState, weights: np.ndarray, order: np.ndarray) -> dict:
    """weights[order] keyed by bit string, in order."""
    strings = (int_to_bits(v, state.basis.n_bits) for v in state.basis.values()[order].tolist())
    return dict(zip(strings, weights[order].tolist()))


def probabilities(state: QuantumState) -> dict[str, float]:
    """The readout's Born probabilities keyed by bit string, in its order."""
    return _by_string(state, *readout(state))


def sample(state: QuantumState, shots: int, seed) -> dict[str, int]:
    """The readout's counts keyed by bit string, most frequent first (ties
    by ascending string). Records and sampled evaluations use readout
    directly and key nothing by string. DomainError when shots is not an
    integer (as_integer) or is below 1."""
    shots = as_integer("shots", shots)
    if shots < 1:
        raise DomainError("shots must be >= 1")
    return _by_string(state, *readout(state, shots, seed))


def feasible_mass(instance: OsspInstance, state: QuantumState) -> float:
    """Total Born probability carried by feasible strings of instance.
    DomainError when the state's basis is not over the instance's bits or
    a position block of the instance spans two of its axes (block_axes)."""
    block_axes(instance, state.basis.masks)
    mask = feasibility_mask(instance, state.basis.values())
    return float(_born(state)[mask].sum())


# ---------------------------------------------------------------------------
# circuits


@dataclass(eq=False)
class Circuit:
    """depth rounds of the phase separator, then the mixers B_{J-1}, ...,
    B_1, which mixers holds in this application order.

    beta is a (depth, J-1) grid: beta[r(J-1)+i-1] drives B_i in round r
    (0-based), after e^{i gamma[r] f}. At beta = (pi/2, ..., pi/2) and
    gamma = 0 one round realizes the job permutation tau_1 o tau_2 o ...
    (tau_{J-1} acting first). n_beta = depth (J-1) and n_gamma = depth
    follow from depth and the instance.
    """

    instance: OsspInstance
    objective: Objective
    depth: int
    mixers: tuple[MixerHamiltonian, ...] = field(repr=False)
    _sep_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_beta(self) -> int:
        return self.depth * (self.instance.jobs - 1)

    @property
    def n_gamma(self) -> int:
        return self.depth

    def phase_for(self, basis: Basis) -> PhaseTable:
        """The PhaseTable of the objective over basis, which the phase
        layer, scores and record rows read: built once per basis object
        from phase_separator's diagonal, whose check (block_axes) refuses a
        basis that is not over this instance's blocks."""
        if basis not in self._sep_cache:  # bases hash by identity
            diag = phase_separator(self.objective, self.instance, basis)
            self._sep_cache[basis] = phase_table(diag, basis)
        return self._sep_cache[basis]


@dataclass(eq=False)
class ParameterVector:
    """A circuit's angles, beta for the mixers and gamma for the phases:
    each a 1-D array of integers or floats, stored as float64 (a float64
    array itself, not a copy). DomainError for any other dtype (strings,
    bools, complex, objects) or shape, before any gate runs."""

    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        for name in ("beta", "gamma"):
            angles = np.asarray(getattr(self, name))
            if angles.dtype.kind not in "iuf" or angles.ndim != 1:
                raise DomainError(f"{name} must be a 1-D array of real angles, got {getattr(self, name)!r}")
            setattr(self, name, angles.astype(float, copy=False))


def build_circuit(instance: OsspInstance, objective: Objective, depth: int) -> Circuit:
    """depth rounds of [phase, mixers]; (J-1) beta slots and 1 gamma slot per
    round. CapabilityError when the depth * J slots would pass DIM_CAP,
    before anything is allocated. DomainError when depth is not an integer
    (as_integer) or is below 1."""
    depth = as_integer("depth", depth)
    if depth < 1:
        raise DomainError("circuit depth must be >= 1")
    if depth * instance.jobs > DIM_CAP:
        raise CapabilityError(
            f"depth {depth} gives {depth * instance.jobs} circuit parameters, more than {DIM_CAP}")
    return Circuit(
        instance=instance,
        objective=objective,
        depth=depth,
        mixers=tuple(reversed(mixers(instance))),
    )


def clamp_beta(beta: np.ndarray) -> np.ndarray:
    """Mixer angles as a float array in [0, pi/2]. The array's least and
    greatest angles are read once: DomainError when either is not finite
    (NaN included), checked first; a clipped copy when one lies outside the
    box, with a warning when it lies more than 1e-12 outside; otherwise the
    float array itself, neither copied nor written."""
    beta = np.asarray(beta, dtype=float)
    if not beta.size:
        return beta
    lo, hi = float(beta.min()), float(beta.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("mixer angles must be finite")
    if lo < BETA_LO or hi > BETA_HI:
        if lo < BETA_LO - 1e-12 or hi > BETA_HI + 1e-12:
            warnings.warn("mixer angles outside [0, pi/2] were clamped", stacklevel=3)
        beta = np.clip(beta, BETA_LO, BETA_HI)
    return beta


def apply_circuit(circuit: Circuit, params: ParameterVector, state: QuantumState) -> QuantumState:
    """The circuit round by round, with beta clamped into [0, pi/2] and read
    as the (depth, J-1) grid of the Circuit docstring. DomainError when the
    slot counts do not match or an angle is not finite: a NaN or infinite
    beta is refused before clamping, and a gamma whose phase would not be
    finite by the phase layer.

    A gate whose angle is exactly 0 (beta after clamping, gamma as given) is
    the identity e^{i 0 H} = I and is skipped; the PhaseTable is built on the
    first round with nonzero gamma. Running a skipped gate would change at
    most the sign of zero real or imaginary parts.

    The start's box, read from its amplitudes, is copied out once into a
    private buffer (_buffer), and every gate runs on that buffer in place: each is still called as the module's apply_phase_separator or
    apply_mixer, which tell the buffer by its type (see _gate). A mixer
    that widens the box moves it into a zeroed array of the grown box. At
    the end the box is written once into a zeroed full-length vector
    (_unbox), so the start is never written, the buffer never leaves, and
    the result shares no memory with the start, also when every gate was
    skipped."""
    if len(params.beta) != circuit.n_beta or len(params.gamma) != circuit.n_gamma:
        raise DomainError(
            f"parameter shape ({len(params.beta)} beta, {len(params.gamma)} gamma) "
            f"does not match circuit slots ({circuit.n_beta}, {circuit.n_gamma})"
        )
    # angles as Python floats: the gates read scalars, and a list is
    # cheaper to walk and test than numpy scalars
    grid = clamp_beta(params.beta).reshape(circuit.depth, circuit.instance.jobs - 1).tolist()
    gammas = params.gamma.tolist()
    basis, table, buf = state.basis, None, _buffer(state)
    for gamma, row in zip(gammas, grid):
        if gamma != 0.0:
            if table is None:
                table = circuit.phase_for(basis)
            buf = apply_phase_separator(buf, table, gamma)
        for mixer, beta in zip(circuit.mixers, row[::-1]):
            if beta != 0.0:
                buf = apply_mixer(buf, mixer, beta)
    return _unbox(buf)
