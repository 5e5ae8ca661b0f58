"""stripwave: traveling waves of a strip-domain chemotaxis system and their
moving-frame perturbation dynamics, with weighted-Sobolev energy diagnostics.
"""

__version__ = "0.1.0"

from .energy import (  # noqa: F401
    EnergyLedger,
    fit_exponential_decay,
    ledger_row,
)
from .evolve import (  # noqa: F401
    IntegratorBlowup,
    IntegratorConfig,
    TrajectoryRecord,
    run,
)
from .grid import (  # noqa: F401
    Grid,
    GridError,
    ScalarField,
    VectorField,
    laplacian,
    make_grid,
)
from .transforms import (  # noqa: F401
    ColeHopfState,
    PerturbationState,
    cole_hopf_forward,
    cole_hopf_inverse,
    curl,
    make_initial_perturbation,
)
from .waves import (  # noqa: F401
    WaveParams,
    WaveProfile,
    check_wave_identities,
    explicit_wave_eps0,
    solve_wave_kpp,
    wave_speed,
)
