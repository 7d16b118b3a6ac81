"""haltlab: numerical laboratory for halting schemes of quantum computers.

Two independent models back the package.  The ``qtm``/``nogo`` side holds
a concrete quantum Turing machine on a cyclic tape, its exact global step
operator, and the machinery showing that a unitary machine whose halted
sector freezes tape and halt bit can never move amplitude from running to
halted.  The ``ancilla`` side holds the abstract branch model with a halt
qubit and an ancilla clock, where halting itself is unproblematic but
branches halting at different unknown times lose their mutual coherence.
"""

from .ancilla import (
    AncillaPolicy,
    BranchModelError,
    BranchSpec,
    FixedPointCertificate,
    MonitoringEffect,
    PolicyError,
    RunTrace,
    coherence,
    fixed_point_impossibility,
    monitored_run,
    monitoring_effect,
    run_superposition,
)
from .documents import (
    DocumentError,
    ScenarioDef,
    dumps_machine,
    dumps_scenario,
    load_machine,
    load_scenario,
    loads_machine,
    loads_scenario,
    machine_to_doc,
    scenario_to_doc,
)
from .hilbert import (
    DensityMatrix,
    HilbertError,
    SparseState,
    reduced_density,
)
from .nogo import (
    GramReport,
    PreconditionError,
    halting_mass_from_table,
    halting_witness_table,
    random_compliant_table,
    verify_nogo,
)
from .qtm import (
    ComplianceReport,
    DimensionCapError,
    MachineDims,
    MachineError,
    TransitionTable,
    UnitarityReport,
    build_global_matrix,
    check_global_unitarity,
    check_ozawa_compliance,
    right_shift_table,
)
from .search import (
    SearchResult,
    project_to_unitary_table,
    search_max_halting_mass,
)

__version__ = "0.1.0"
