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
pattern at a time. A state therefore carries a support: per amplitude
axis, the [lo, hi) index range outside which every amplitude is exactly
zero, and None is the whole basis. basis_state sets it and the phase
layer passes it through. On bases larger than GATHER_DIM the phase layer
multiplies only that box, and a mixer widens it to the swap partners and
rotates only that box; on smaller ones both gates run on every
amplitude, since there the cost is numpy calls, not amplitudes. Two
kernels apply the swaps: a flat gather on bases of at most GATHER_DIM
amplitudes, and strided views on the support box past it.
Both read one table per swap pair, memoised on the basis. Results equal
those of the per-pair formula and of amps * exp(1j * gamma * diag) to
the bit, apart from the sign of zeros outside the box.

Gates write into an out array, which may be the input's own amplitudes;
without one they write a copy (past GATHER_DIM, of the support box
only, into zeros). apply_circuit copies its start once and runs every
later gate in place on that copy.

All state comparisons in tests use fidelity |<phi|psi>| since pi/2 rotations
introduce global phases of i per swapped pair.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, DomainError
from .instances import (
    Objective,
    OsspInstance,
    as_int64,
    bits_to_int,
    check_bitstring,
    feasibility_mask,
    int_to_bits,
    position_blocks,
    tensor_objective_values,
)

DIM_CAP = 1 << 20
GATHER_DIM = 4096  # largest basis whose mixers run the flat-gather kernel (see _rotate)
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
    the single sector of all n-bit values. _plans memoises the mixer
    kernels' bookkeeping: each swap pair's table (_pair_axis) and, past
    GATHER_DIM, its plan per axis range (_box_plan)."""

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

    @property
    def dim(self) -> int:
        return math.prod(self.shape)

    def values(self) -> np.ndarray:
        """Integer value of every basis string in amplitude order (ascending)."""
        return functools.reduce(np.add.outer, self.sectors).ravel()

    def position_of(self, value: int) -> tuple[int, ...]:
        """The string's index along each amplitude axis."""
        patterns = [value & m for m in self.masks]
        pos = tuple(int(np.searchsorted(s, p)) for s, p in zip(self.sectors, patterns))
        if sum(patterns) == value and all(
            i < len(s) and s[i] == p for s, i, p in zip(self.sectors, pos, patterns)
        ):
            return pos
        raise DomainError(f"string {int_to_bits(value, self.n_bits)} is not in the basis")

    def index_of(self, value: int) -> int:
        return int(np.ravel_multi_index(self.position_of(value), self.shape))


@dataclass(eq=False)
class QuantumState:
    """Amplitudes over a basis, in its order.

    support is derived, not a setting: one [lo, hi) index range per
    amplitude axis (basis.shape) outside which every amplitude is exactly
    zero, and None is the whole basis. basis_state sets it to the start's
    index on each axis, the phase layer passes it through (multiplying
    only that box past GATHER_DIM), and a mixer past GATHER_DIM widens it
    (see _rotate). Whoever
    builds a state by hand and gives it a support vouches for the zeros.
    A gate given out=state.amps rewrites amps in place, so a state handed
    to one that way is spent; apply_circuit does this only on its own
    copy."""

    basis: Basis
    amps: np.ndarray
    support: tuple[tuple[int, int], ...] | None = None

    @property
    def engine(self) -> str:
        return self.basis.engine

    def copy(self) -> "QuantumState":
        return QuantumState(self.basis, self.amps.copy(), self.support)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@functools.lru_cache(maxsize=64)
def _product_basis(blocks: tuple[tuple[int, int | None], ...]) -> Basis:
    """The basis of one sector per block of consecutive bits, block 1 the
    most significant: (width, weight) lists the block's width-bit patterns
    of that weight, and weight None all 2^width of them. Every Basis is
    built here. Past 63 bits, or past DIM_CAP strings (the product of the
    sector sizes), it raises CapabilityError before any pattern is listed.

    Interned: all callers with the same blocks share one Basis and so its
    plan memo, which holds per-axis indices (one table per swap pair, and
    past GATHER_DIM one box plan per pair and axis range a start's boxes
    reach) and, up to GATHER_DIM, two flat index arrays per pair. On
    position blocks of J bits a table has at most 2^J entries, so keeping
    it is cheap. full_basis calls the uncached builder
    (_product_basis.__wrapped__): its one axis makes every table O(2^n)."""
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
    every call, since its pair tables and box plans are O(2^n_bits)."""
    return _product_basis.__wrapped__(((n_bits, None),))


def subspace_basis(instance: OsspInstance, z: str) -> Basis:
    """All strings sharing z's Hamming weight in every position block: the
    product of the position blocks' sectors of z's block weights, shared by
    every start with those weights."""
    check_bitstring(z, instance.n_bits)
    weights = (sum(z[i - 1] == "1" for i in block) for block in position_blocks(instance))
    return _product_basis(tuple((instance.jobs, w) for w in weights))


def basis_state(instance: OsspInstance, z: str, engine="full") -> QuantumState:
    """Unit amplitude on |z>, with z's index on each axis as the support.
    engine is 'full' (the product of the position blocks' full sectors,
    one Basis per block layout), 'subspace' (subspace_basis(instance, z)),
    or an explicit Basis."""
    check_bitstring(z, instance.n_bits)
    if isinstance(engine, Basis):
        basis = engine
    elif engine == "full":
        basis = _product_basis(((instance.jobs, None),) * instance.positions)
    elif engine == "subspace":
        basis = subspace_basis(instance, z)
    else:
        raise DomainError(f"unknown engine {engine!r}")
    pos = basis.position_of(bits_to_int(z))
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps.reshape(basis.shape)[pos] = 1.0
    return QuantumState(basis, amps, tuple((i, i + 1) for i in pos))


def pure_state(n_bits: int, z: str) -> QuantumState:
    """Unit amplitude on |z> over full_basis(n_bits), one block and one
    axis, without an instance or a support (gate-level testing)."""
    check_bitstring(z, n_bits)
    basis = full_basis(n_bits)
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[bits_to_int(z)] = 1.0
    return QuantumState(basis, amps)


def amplitude(state: QuantumState, z: str) -> complex:
    """Amplitude on |z>; 0 for strings outside a restricted basis."""
    check_bitstring(z, state.basis.n_bits)
    try:
        return complex(state.amps[state.basis.index_of(bits_to_int(z))])
    except DomainError:
        return 0.0


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>| for states over the identical basis."""
    if a.basis is not b.basis and (
        a.basis.n_bits != b.basis.n_bits
        or not np.array_equal(a.basis.values(), b.basis.values())
    ):
        raise DomainError("fidelity requires states over the same basis")
    return float(abs(np.vdot(a.amps, b.amps)))


def basis_strings(basis: Basis) -> list[str]:
    return [int_to_bits(int(v), basis.n_bits) for v in basis.values()]


# ---------------------------------------------------------------------------
# gates


def _pair_axis(basis: Basis, pair) -> tuple:
    """The table of the 1-based bit pair, memoised on the basis by pair:
    (axis, d10, p01, partner, flat).

    axis is the amplitude axis whose block holds both bits; a pair that
    spans two blocks, as two position blocks on either instance engine,
    raises DomainError. d10 holds the indices along the axis of patterns
    with bits (1, 0) on the pair and p01 those of their swapped partners
    (present, as a sector holds every pattern of its weight, or of its
    block); partner maps each index along the axis to its swap partner,
    and to itself where the bits are equal. On a basis of at most
    GATHER_DIM amplitudes, flat is the gather kernel's plan: the flat
    indices of the (1, 0) entries followed by those of their (0, 1)
    partners, and the same two halves swapped; it is () on larger bases
    and where d10 is empty. Keeping it in the table gives the gather
    kernel one lookup per pair and no key to build."""
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
        d10 = np.nonzero(((patterns & ma) != 0) & ((patterns & mb) == 0))[0]
        p01 = np.searchsorted(patterns, patterns[d10] ^ (ma | mb))
        partner = np.arange(len(patterns))
        partner[d10], partner[p01] = p01, d10
        flat = ()
        if len(d10) and basis.dim <= GATHER_DIM:
            lead = (slice(None),) * axis
            index = np.arange(basis.dim).reshape(basis.shape)
            i10, i01 = index[lead + (d10,)].ravel(), index[lead + (p01,)].ravel()
            flat = np.concatenate([i10, i01]), np.concatenate([i01, i10])
            for half in flat:
                half.setflags(write=False)  # shared between callers
        table = basis._plans[pair] = axis, d10, p01, partner, flat
    return table


def _run(idx: np.ndarray):
    """idx as a slice when it is an ascending arithmetic run, so that
    indexing with it gives a view instead of a copy."""
    step = int(idx[1] - idx[0]) if len(idx) > 1 else 1
    if len(idx) and step > 0 and np.all(np.diff(idx) == step):
        return slice(int(idx[0]), int(idx[-1]) + 1, step)
    return idx


def _box_plan(basis: Basis, pair, support) -> tuple:
    """(axis, span, plan) for the pair on a basis past GATHER_DIM, given a
    support box (one [lo, hi) range per axis).

    span is the smallest range that holds the box's range on the pair's
    axis and the swap partner of each index in it; plan is the view
    kernel's (i10, i01) index tuples into a box of that span along the
    axis, counted from its lo (views where the indices form a run), or ()
    when no unequal pattern lies in it. A span that starts at 0 and holds
    every (1, 0) index reuses the table's d10 and p01 (or runs over them)
    rather than shifted copies, so a whole-axis plan adds no O(axis)
    arrays to the memo. Memoised on the basis by pair and range: a start's
    boxes repeat from one evaluation to the next."""
    axis, d10, p01, partner, _ = _pair_axis(basis, pair)
    key = tuple(pair) + support[axis]
    if key not in basis._plans:
        lo, hi = support[axis]
        while True:
            seg = partner[lo:hi]
            span = min(lo, int(seg.min())), max(hi, int(seg.max()) + 1)
            if span == (lo, hi):
                break
            lo, hi = span
        plan = ()
        if np.any(keep := (d10 >= lo) & (d10 < hi)):
            lead = (slice(None),) * axis
            i10, i01 = (d10, p01) if lo == 0 and keep.all() else (d10[keep] - lo, p01[keep] - lo)
            plan = lead + (_run(i10),), lead + (_run(i01),)
        basis._plans[key] = span, plan
    return axis, *basis._plans[key]


def _target(state: QuantumState, out) -> np.ndarray:
    """The array a gate writes: a complex copy of state.amps when out is
    None, else out holding them (copied in unless out is state.amps
    itself). DomainError when out is not a complex128 array of the
    amplitudes' shape.

    Past GATHER_DIM a copy of a state with a support is a zeroed array
    with only the support box copied in, since the support vouches that
    every amplitude outside it is zero: a basis_state start on 46,656
    amplitudes then copies one. Outside the box the copy holds +0.0,
    as basis_state's own zeros are."""
    amps = state.amps
    if out is None:
        basis = state.basis
        if state.support is None or basis.dim <= GATHER_DIM:
            return amps.astype(COMPLEX)
        box = tuple(slice(lo, hi) for lo, hi in state.support)
        copy = np.zeros(amps.shape, dtype=COMPLEX)
        copy.reshape(basis.shape)[box] = amps.reshape(basis.shape)[box]
        return copy
    if not isinstance(out, np.ndarray) or out.dtype != COMPLEX or out.shape != amps.shape:
        raise DomainError(f"out must be a complex128 array of shape {amps.shape}")
    if out is not amps:
        np.copyto(out, amps)
    return out


def _rotate(state: QuantumState, pairs, beta: float, out=None) -> QuantumState:
    """The swap rotations on the given pairs, one after another, written
    into out (see apply_mixer); DomainError when beta is not finite.

    Per pair, the rotated values c*a10 + i s*a01 and c*a01 + i s*a10 are
    read off the array first; then every amplitude is multiplied by
    e^{i beta} in place; then the rotated values are scattered over their
    phased entries.

    Two kernels do this, chosen once per basis by its size. Up to
    GATHER_DIM amplitudes a pair is one stacked flat gather: r = c *
    x[sel]; r += js * x[partner]; then the phase; then x[sel] = r, seven
    numpy calls where the two halves take eleven, and on small states the
    calls, not the data, are the cost. Past GATHER_DIM the per-element cost
    of a flat gather dominates and the halves are read as strided views
    along the pair's axis (index arrays where the axis indices form no
    run). The switch sits where best-of-5 timings of both kernels on one
    CPU crossed: the gather took about half the views' time on 27 and 256
    amplitudes and two thirds on 3,125, tied with them from 4,096 to
    7,776, and took 1.1 to 1.6 times their time from 16,384 up (46,656
    and 65,536 included).

    Past GATHER_DIM the view kernel runs on the state's support box, the
    whole basis when the support is None. Each pair widens its axis's
    range to hold the swap partners of the range, and the pairs are gone
    over again until no range grows, so the box holds the partner of every
    index in it. The kernel then rotates that box in place, as a view of
    the output array; outside it the output keeps the input's zeros. The
    grown box is the result's support, None when it is the whole basis.
    The gather kernel ignores the support and returns a state without one:
    on its bases the cost is numpy calls, not amplitudes.

    Each amplitude sees the same operations in the same order under both
    kernels, inside any box, and as with a new array per pair, so the
    result is the same to the bit; outside a box only the sign of a zero
    can differ. The scalars stay where they were: c and js on the left of
    their products and ph on the right, since numpy can round a product
    differently when its operands are swapped. A one-element array takes
    the phase out of place: numpy runs an in-place product of one element
    as a reduction, which rounds differently."""
    if not math.isfinite(beta):
        raise DomainError("mixer angles must be finite")
    basis = state.basis
    ph = np.exp(1j * beta)
    c, js = math.cos(beta), 1j * math.sin(beta)
    amps = _target(state, out)
    gather = basis.dim <= GATHER_DIM
    if gather:
        x, support = amps, None
        plans = [_pair_axis(basis, pair)[4] for pair in pairs]
    else:
        support = list(state.support or ((0, n) for n in basis.shape))
        while True:
            steps = []
            for pair in pairs:
                axis, span, plan = _box_plan(basis, pair, support)
                support[axis] = span
                steps.append((axis, span, plan))
            if all(support[axis] == span for axis, span, _ in steps):
                break
        plans = [plan for *_, plan in steps]
        x = amps.reshape(basis.shape)[tuple(slice(lo, hi) for lo, hi in support)]
        if x.shape == basis.shape:
            support = None
    for plan in plans:
        if plan and gather:
            sel, partner = plan
            r = c * x[sel]
            r += js * x[partner]
        elif plan:
            i10, i01 = plan
            a10, a01 = x[i10], x[i01]  # views when the index is a run
            r10 = c * a10
            r10 += js * a01
            r01 = c * a01
            r01 += js * a10
        # equal-bit states pick up the phase
        if x.size == 1:
            x[...] = x * ph  # out of place, as the docstring says
        else:
            x *= ph
        if plan and gather:
            x[sel] = r
        elif plan:
            x[i10] = r10
            x[i01] = r01
    return QuantumState(basis, amps, None if support is None else tuple(support))


def apply_swap_rotation(state: QuantumState, pair, beta: float) -> QuantumState:
    """e^{i beta SWAP} on the two given 1-based bit indices, into a copy."""
    return _rotate(state, (pair,), beta)


@dataclass(frozen=True)
class MixerHamiltonian:
    """Sum of disjoint SWAPs realizing one adjacent job transposition: one
    (job i, job i+1) bit pair inside every position block."""

    generator: int
    pairs: tuple[tuple[int, int], ...]


def mixer_hamiltonian(instance: OsspInstance, i: int) -> MixerHamiltonian:
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


def apply_mixer(state: QuantumState, mixer: MixerHamiltonian, beta: float,
                out: np.ndarray | None = None) -> QuantumState:
    """Product of the P commuting swap rotations at the same angle;
    DomainError when beta is not finite.

    The result's amplitudes are written into out, which may be state.amps
    itself (the gate then runs in place) or any complex array of its shape
    (state.amps is copied into it first); without out the gate writes a
    copy and never touches state.amps. All three give the same bits.

    Up to GATHER_DIM amplitudes the gather kernel runs on every amplitude
    and returns no support, since there the cost is numpy calls, not
    amplitudes. On a larger basis the view kernel rotates the state's
    support box in place, the whole basis when the support is None: each
    pair's axis range grows to hold the swap partners of its indices, and
    the result is zero outside the grown box, which becomes its support.
    Amplitudes, expectations and samples are the same to the bit whatever
    the support; only the sign of zeros outside the box can differ. See
    _rotate for the kernels and the numpy rounding trap a one-element box
    meets. From the identity schedule, apply_circuit on the ladder's
    46,656-amplitude rungs fell from 8.06 to 2.48 ms (tour OSSP(1,6,6),
    depth 2) and from 4.51 to 0.89 ms (OSSP(3,3,6), depth 1) on one thread
    of a shared 2-CPU x86_64 host (BENCH_11.json, with a support)."""
    return _rotate(state, mixer.pairs, beta, out)


def phase_separator(objective: Objective, instance: OsspInstance, basis: Basis) -> np.ndarray:
    """The phase separator's diagonal: f(z) per basis state in amplitude
    order, as float64. The separator acts as z -> e^{i gamma f(z)} z.

    Built on the basis's sectors and masks by tensor_objective_values, so
    no per-string value is decoded. Terms are added to a total that
    broadcasts one axis at a time: a block's J linear terms as one table on
    its axis, and a tour's d_uv as one table on the axes of slots u and v,
    wherever at most one of the J terms is nonzero per string; term by term
    otherwise (a tour with J = 2, sectors of weight 2 or more, the full
    engine's all-pattern sectors). Each entry equals objective_values on
    the string to the bit. The 823,543-amplitude diagonals of OSSP(3,3,7)
    and of the tour OSSP(1,7,7) take milliseconds, not seconds
    (tensor_objective_values)."""
    return tensor_objective_values(objective, instance, basis.sectors, basis.masks)


class PhaseTable(NamedTuple):
    """A phase diagonal as its distinct values: levels ascending, and
    diag == levels[inverse]. Integer weights leave few levels (tens on
    46,656 amplitudes), so the phase layer exponentiates only those."""

    levels: np.ndarray
    inverse: np.ndarray


def phase_table(diag: np.ndarray) -> PhaseTable:
    return PhaseTable(*np.unique(diag, return_inverse=True))


def apply_phase_separator(state: QuantumState, table: PhaseTable, gamma: float,
                          out: np.ndarray | None = None) -> QuantumState:
    """e^{i gamma f} from the diagonal's table: one exponential per level,
    gathered onto the amplitudes of the state's support box on bases past
    GATHER_DIM, and onto every amplitude on smaller bases or without a
    support (as the gather kernel, there the cost is numpy calls, not
    amplitudes). An amplitude gets the factor
    exp(1j * gamma * f(z)) of its own value, so the result equals
    amps * exp(1j * gamma * diag) to the bit, written as its own statement.
    DomainError when some gamma * f(z) is not finite, as its phase would
    be NaN. out works as in apply_mixer.

    A finite phase keeps a zero zero, so only the box is multiplied and
    the support passes through. The product's operand order is pinned to
    the one numpy picks for amps * <temporary>: from PIN_DIM amplitudes up
    numpy writes the product into the temporary with the operands
    swapped, and a swapped complex product can round differently, so a
    basis of PIN_DIM or more amplitudes multiplies (phase, amplitude) and
    a smaller one (amplitude, phase), whatever the size of its box. A
    one-element box takes the product out of place (see _rotate)."""
    if len(table.inverse) != len(state.amps):
        raise DomainError("phase separator was built for a different basis")
    # levels ascend, so the extremes bound every |gamma * f(z)|; Python
    # floats overflow to inf without a warning
    g, lo, hi = float(gamma), float(table.levels[0]), float(table.levels[-1])
    if not (math.isfinite(g * lo) and math.isfinite(g * hi)):
        raise DomainError(f"phase angle gamma = {g} times the objective is not finite")
    basis = state.basis
    amps = _target(state, out)
    x, index = amps, table.inverse
    if state.support is not None and basis.dim > GATHER_DIM:
        box = tuple(slice(lo, hi) for lo, hi in state.support)
        x, index = amps.reshape(basis.shape)[box], index.reshape(basis.shape)[box]
    phases = np.exp(1j * gamma * table.levels)[index]
    operands = (phases, x) if basis.dim >= PIN_DIM else (x, phases)
    if x.size == 1:
        x[...] = np.multiply(*operands)
    else:
        np.multiply(*operands, out=x)
    return QuantumState(basis, amps, state.support)


def apply_simultaneous_mixer(state: QuantumState, mixer_list, beta: float) -> QuantumState:
    """e^{-i beta sum_i B_i} on the restricted engine.

    Every SWAP term acts inside one position block, so the sum splits into
    commuting per-block terms and the exponential into one small matrix per
    amplitude axis: the sum of the axis's SWAP permutation matrices, read
    off the pair tables. A single-member family therefore equals apply_mixer
    with beta -> -beta. DomainError when beta is not finite.
    """
    basis = state.basis
    if basis.engine == "full":
        raise CapabilityError("the simultaneous mixer needs the restricted engine")
    if not math.isfinite(beta):
        raise DomainError("mixer angles must be finite")
    from scipy.linalg import expm

    h = [np.zeros((len(s), len(s))) for s in basis.sectors]
    for mixer in mixer_list:
        for pair in mixer.pairs:
            axis, _, _, partner, _ = _pair_axis(basis, pair)
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


def expectation(state: QuantumState, diag: np.ndarray) -> float:
    """<state| f |state> = sum_z f(z) |amp(z)|^2, f given as the phase diagonal."""
    if len(diag) != len(state.amps):
        raise DomainError("diagonal was built for a different basis")
    return float(_born(state) @ diag)


def readout(state: QuantumState, shots: int = 0, seed=None) -> tuple[np.ndarray, np.ndarray]:
    """(weights, order): the measured histogram of state on basis indices.

    With shots = 0 the weights are the Born probabilities and order keeps
    those above PROB_FLOOR; otherwise they are multinomial counts of the
    Born probabilities, identical for an identical seed, and order keeps
    the sampled indices. order runs by descending weight, ties by
    ascending string value: amplitude order is ascending string value and
    the sort is stable. Negative shots raise DomainError."""
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
    directly and key nothing by string."""
    if shots < 1:
        raise DomainError("shots must be >= 1")
    return _by_string(state, *readout(state, shots, seed))


def feasible_mass(instance: OsspInstance, state: QuantumState) -> float:
    """Total Born probability carried by feasible strings."""
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

    def phase_for(self, basis: Basis) -> np.ndarray:
        """The phase diagonal over basis, built once per basis together
        with its PhaseTable."""
        if basis not in self._sep_cache:  # bases hash by identity
            diag = phase_separator(self.objective, self.instance, basis)
            self._sep_cache[basis] = diag, phase_table(diag)
        return self._sep_cache[basis][0]

    def phase_table_for(self, basis: Basis) -> PhaseTable:
        """The PhaseTable of phase_for(basis), which the phase layer reads;
        phase_for builds and caches both."""
        self.phase_for(basis)
        return self._sep_cache[basis][1]


@dataclass(eq=False)
class ParameterVector:
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        self.beta = np.asarray(self.beta, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)


def zero_params(circuit: Circuit) -> ParameterVector:
    return ParameterVector(np.zeros(circuit.n_beta), np.zeros(circuit.n_gamma))


def build_circuit(instance: OsspInstance, objective: Objective, depth: int) -> Circuit:
    """depth rounds of [phase, mixers]; (J-1) beta slots and 1 gamma slot per round."""
    if depth < 1:
        raise DomainError("circuit depth must be >= 1")
    return Circuit(
        instance=instance,
        objective=objective,
        depth=depth,
        mixers=tuple(reversed(mixers(instance))),
    )


def clamp_beta(beta: np.ndarray) -> np.ndarray:
    """Force mixer angles into [0, pi/2], warning when anything moved;
    DomainError when one is not finite."""
    beta = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(beta)):
        raise DomainError("mixer angles must be finite")
    if np.any(beta < BETA_LO - 1e-12) or np.any(beta > BETA_HI + 1e-12):
        warnings.warn(
            "mixer angles outside [0, pi/2] were clamped", stacklevel=3
        )
    return np.clip(beta, BETA_LO, BETA_HI)


def apply_circuit(circuit: Circuit, params: ParameterVector, state: QuantumState) -> QuantumState:
    """The circuit round by round, with beta clamped into [0, pi/2] and read
    as the (depth, J-1) grid of the Circuit docstring. DomainError when the
    slot counts do not match or an angle is not finite: a NaN or infinite
    beta is refused before clamping, and a gamma whose phase would not be
    finite by the phase layer.

    A gate whose angle is exactly 0 (beta after clamping, gamma as given) is
    the identity e^{i 0 H} = I and is skipped; the phase diagonal and its
    PhaseTable are built on the first round with nonzero gamma. Running a
    skipped gate would change at most the sign of zero real or imaginary
    parts.

    The first gate that runs writes a copy of the start (past GATHER_DIM,
    of its support box into zeros; see _target), and every later gate
    writes that copy in place (out=), so the start is never written
    and the result shares no memory with it unless every gate was
    skipped, when the result is the start itself.

    A start from basis_state carries its support, so on bases larger than
    GATHER_DIM the first rounds' phases and mixers run on the box
    amplitude has reached (apply_phase_separator, apply_mixer); a
    state without one runs on the box of the whole basis. That too
    changes at most the sign of zeros, so the result's amplitudes,
    expectation and samples do not depend on the support."""
    if len(params.beta) != circuit.n_beta or len(params.gamma) != circuit.n_gamma:
        raise DomainError(
            f"parameter shape ({len(params.beta)} beta, {len(params.gamma)} gamma) "
            f"does not match circuit slots ({circuit.n_beta}, {circuit.n_gamma})"
        )
    grid = clamp_beta(params.beta).reshape(circuit.depth, circuit.instance.jobs - 1)
    table = out = None  # the first gate run copies the start; later gates write that copy
    for gamma, row in zip(params.gamma, grid):
        if gamma != 0.0:
            if table is None:
                table = circuit.phase_table_for(state.basis)
            state = apply_phase_separator(state, table, gamma, out=out)
            out = state.amps
        for mixer, beta in zip(circuit.mixers, row[::-1]):
            if beta != 0.0:
                state = apply_mixer(state, mixer, beta, out=out)
                out = state.amps
    return state
