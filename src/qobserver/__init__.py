"""Direct-coupling coherent quantum observers for closed linear quantum systems.

Workflow: describe a plant (symmetric Hamiltonian matrix, output selector),
check the structural conditions under which its outputs are estimable,
decompose it into dynamical and constant coordinate blocks, synthesize a
reduced-order observer coupled through a Hamiltonian, and simulate the
closed composite to verify that the time average of the observer outputs
converges to the (constant) plant outputs.
"""

from .analysis import (
    DecomposedPlant,
    decompose_plant,
    plant_from_transformed_output,
    transformed_condition_check,
)
from .model import (
    CONDITION_TOL,
    ConditionReport,
    J,
    QuantumLinearSystem,
    check_plant_conditions,
    make_commutation_matrix,
    numerical_rank,
)
from .simulation import (
    ConvergenceReport,
    TrajectoryRecord,
    predicted_average_error,
    propagate,
    time_average_error,
    time_grid,
)
from .synthesis import (
    AugmentedSystem,
    ObserverDesign,
    PlantConditionError,
    assemble_augmented,
    synthesize_observer,
)

__version__ = "0.1.0"

__all__ = [
    "J",
    "CONDITION_TOL",
    "QuantumLinearSystem",
    "ConditionReport",
    "make_commutation_matrix",
    "check_plant_conditions",
    "numerical_rank",
    "DecomposedPlant",
    "decompose_plant",
    "transformed_condition_check",
    "plant_from_transformed_output",
    "PlantConditionError",
    "ObserverDesign",
    "AugmentedSystem",
    "synthesize_observer",
    "assemble_augmented",
    "TrajectoryRecord",
    "ConvergenceReport",
    "time_grid",
    "propagate",
    "time_average_error",
    "predicted_average_error",
    "__version__",
]
