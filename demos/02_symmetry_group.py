"""The permutation group that maps valid schedules to valid schedules.

Constraints form a graph on the bits: one edge per pair that must not be
1 together. Bit permutations preserving feasibility are exactly the
automorphisms of this graph. For a busy instance (positions == jobs) the
group is generated by job swaps, position swaps, and a role transposer,
and has order 2*(J!)^2.
"""

from ossvqa import (
    OsspInstance,
    bruteforce_feasibility_preservers,
    edge_count,
    enumerate_solutions,
    generate_group,
    group_generators,
    group_order,
    job_blocks,
    orbit,
    position_blocks,
    verify_block_system,
    vertex_permutation,
)

instance = OsspInstance(machines=1, time_slots=3, jobs=3)
print(f"constraint graph: {instance.n_bits} vertices, "
      f"{edge_count(instance)} edges")

gens = group_generators(instance)
generated = generate_group([vertex_permutation(instance, g) for g in gens])
print(f"{len(gens)} generators; claimed order {group_order(instance)}, "
      f"generated order {len(generated)}")

# transitivity: one orbit sweeps out every valid schedule
solutions = enumerate_solutions(instance)
reached = orbit(instance, solutions[0], gens)
print(f"orbit of {solutions[0]} has {len(reached)} strings; "
      f"solution set has {len(solutions)}")

# the bit partitions by job and by position are preserved block systems,
# but only by the generators that do not exchange the two roles
pair_gens = [g for g in gens if not g.swap_roles]
print("job blocks preserved:",
      verify_block_system(instance, job_blocks(instance), pair_gens))
print("position blocks preserved:",
      verify_block_system(instance, position_blocks(instance), pair_gens))

# independent check: scan all 9! bit permutations for feasibility
# preservers and compare with the generated closure
scanned = bruteforce_feasibility_preservers(instance, solutions)
print(f"enumerated closure: {len(generated)} elements; "
      f"9!-scan found {len(scanned)}; equal: {scanned == generated}")
