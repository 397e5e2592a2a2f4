"""Central numerical tolerances.

Every module reads its thresholds from the single :class:`Tolerances`
record :data:`TOL` so the library, the CLI and the test suites agree on
what "zero" means.  No function takes another record: each check reads
its module's ``TOL`` name when it runs.
"""

from dataclasses import dataclass

__all__ = ["TOL", "Tolerances"]


@dataclass(frozen=True)
class Tolerances:
    # transfer matrices
    symplectic: float = 1e-10         # |M eta M^H - eta|, x max(1, max|M|^2)
    threshold_equality: float = 1e-12 # |kappa| == gamma1+gamma2 detection

    # vacuum moments and coherence
    pair_conservation: float = 1e-9   # signal total == idler total, x max(1, total)
    coherence_epsilon: float = 1e-14  # occupations below this: undefined gamma
    coherence_fragile: float = 1e-8   # occupations below this: fragile gamma
    coherence_bound_slack: float = 1e-9  # |gamma| <= 1 + slack

    # scheme extraction
    imag_correlation: float = 1e-9    # purely-imaginary correlation assertion
    tanh_overshoot: float = 1e-9      # |arg|-1 beyond this is an error
    tanh_clamp: float = 1e-15         # clamped into (-1+clamp, 1-clamp)
    extraction_residual_max: float = 1e-6  # hard failure beyond this
    gain_bound_slack: float = 1e-9    # photon-number inequality slack
    scheme_parameter_cap: float = 10.0  # |g| sanity bound after inversion

    # truncated number-basis oracle
    fock_norm: float = 1e-9           # evolved-state norm drift allowance
    fock_leakage_max: float = 1e-4    # boundary population beyond this fails


TOL = Tolerances()
