"""Open-shop scheduling on one-hot bit strings: exact enumeration, the
feasibility-preserving permutation group, SWAP-rotation circuits on a
noiseless simulator, and seeded variational optimization."""

from .errors import CapabilityError, DomainError, VerificationError
from .groups import (
    GroupElement,
    bruteforce_feasibility_preservers,
    check_mixing_family,
    decompose_job_permutation,
    edge_count,
    generate_group,
    group_generators,
    group_order,
    orbit,
    verify_block_system,
    vertex_permutation,
)
from .instances import (
    LinearObjective,
    OsspInstance,
    TspObjective,
    enumerate_solutions,
    evaluate_objective,
    instance_to_dict,
    is_feasible,
    job_blocks,
    linear_from_rows,
    load_instance,
    load_instance_dict,
    optimal_solutions,
    position_blocks,
    solution_count,
    solution_values,
)
from .presets import list_presets, load_preset, resolve_preset
from .simulator import (
    Circuit,
    MixerHamiltonian,
    ParameterVector,
    PhaseTable,
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
    sample,
    subspace_basis,
)
from .vqa import (
    OptimizerConfig,
    ReachPlan,
    RunRecord,
    compile_reach,
    initial_parameters,
    objective_value,
    run_experiment,
    run_optimizer,
    sgd_minimize,
    trust_region_minimize,
)

__version__ = "0.1.0"

# the functions and classes imported above, not the submodules they bind
__all__ = sorted(
    name for name, value in globals().items()
    if getattr(value, "__module__", "").startswith(f"{__name__}.")
)
