"""SWAP-rotation circuits whose full-angle mixers map schedules to schedules.

The elementary gate is e^{i beta SWAP} on a bit pair. At beta = pi/2 it
is i*SWAP; mixers apply it to one job pair inside every position block,
so a full-angle mixer permutes whole schedules. At angles strictly
between 0 and pi/2 a mixer also puts amplitude on infeasible strings,
which is why the grid below uses only the corners. Composing mixers at
full angle steers one schedule onto any other: the plan below is found
by factoring the connecting job permutation into adjacent
transpositions.
"""

import math

import numpy as np

from ossvqa import (
    OsspInstance,
    ParameterVector,
    amplitude,
    apply_circuit,
    apply_swap_rotation,
    basis_state,
    build_circuit,
    compile_reach,
    linear_from_rows,
    probabilities,
    pure_state,
)

# the elementary identity: e^{i pi/2 SWAP}|10> = i|01>
out = apply_swap_rotation(pure_state(2, "10"), (1, 2), math.pi / 2)
print("e^{i pi/2 SWAP} |10> has amplitude", amplitude(out, "01"), "on |01>")

instance = OsspInstance(machines=1, time_slots=3, jobs=3)
objective = linear_from_rows(instance, [[3, 2, 2], [2, 2, 3], [1, 2, 3]])
circuit = build_circuit(instance, objective, depth=1)
start = basis_state(instance, "100010001", engine="subspace")

# every corner of the {0, pi/2} mixer grid lands on a single schedule
print("\nbeta grid from 100010001 (gamma = 0):")
for corner in [(0.0, 0.0), (math.pi / 2, 0.0), (0.0, math.pi / 2),
               (math.pi / 2, math.pi / 2)]:
    params = ParameterVector(np.array(corner), np.zeros(circuit.n_gamma))
    state = apply_circuit(circuit, params, start)
    (z, p), = probabilities(state).items()
    print(f"  beta = ({corner[0]:.4f}, {corner[1]:.4f}) -> {z} "
          f"(probability {p:.6f})")

# steer one schedule onto another and verify the overlap exactly
plan = compile_reach(instance, "100010001", "010001100")
print(f"\nreach plan 100010001 -> 010001100: word {plan.word}, "
      f"fidelity {plan.fidelity:.12f}")
print("beta slots:", [float(round(b, 4)) for b in plan.params.beta])

# the same construction spans all 24 schedules of the four-job instance
busy = OsspInstance(machines=2, time_slots=2, jobs=4)
busy_objective = linear_from_rows(
    busy, [[3, 2, 2, 3], [2, 2, 3, 0], [2, 2, 4, 2], [1, 1, 4, 2]]
)
plan = compile_reach(busy, "1000010000100001", "0010000110000100",
                     busy_objective)
print(f"\nfour jobs: word {plan.word}, fidelity {plan.fidelity:.12f}, "
      f"{plan.circuit.n_beta} rotation slots")
