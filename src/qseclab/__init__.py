"""Numerical laboratory for key-secrecy criteria of classical-quantum ensembles.

Submodules: ``operators`` (dense Hermitian algebra), ``distributions``
(classical distances, entropies, extremal spikes), ``ensembles``
(classical-quantum ensembles and the secrecy criteria), ``detection``
(POVMs and discrimination optima), ``locking`` (the basis-locking
counterexample and its known-plaintext attack), ``bounds`` (randomized
inequality campaigns), ``cli`` (command-line front end).
"""

__version__ = "0.1.0"

from .distributions import (  # noqa: F401
    SpikeConstruction,
    max_event_gap,
    mutual_information,
    shannon_entropy,
    spike_for_mutual_information,
    spike_for_variational_distance,
    variational_distance,
)
from .ensembles import (  # noqa: F401
    CQEnsemble,
    holevo_information,
    joint_product_distance,
    mean_conditional_distance,
    weighted_conditional_distance,
)
from .detection import (  # noqa: F401
    POVM,
    CriteriaRecord,
    DiscriminationResult,
    criteria_record,
    accessible_info_lower_bound,
    minimum_error_iterate,
    square_root_measurement,
)
from .locking import (  # noqa: F401
    LockingEnsemble,
    build_locking_ensemble,
    kpa_simulate,
    locking_report,
)
from .operators import (  # noqa: F401
    DensityOperator,
    HermitianOperator,
    eig_hermitian,
)
