"""vexs: variable-exponent modulars, Luxemburg norms, and nonlocal
energy functionals, with empirical verification of their singular
limits against the local anisotropic energy."""

from .errors import (BracketingError, ConfigError, DivergenceError,
                     DomainError, UnsupportedFieldError, VexsError)
from .exponents import (ExponentField, LogHolderDiagnosis, PairExponentField,
                        constant, inverse_quadratic, log_holder_diagnose,
                        piecewise_table, sin_squared)
from .fields import (Gaussian, GradientMagnitude, LogSingular, PowerTail,
                     SampledTable, ScalarField, SmoothBump, Tent,
                     truncation_radius)
from .functionals import (FunctionalValue, LayerCakeResult, QuadratureSpec,
                          bbm_functional, eps_functional, layer_cake_check,
                          local_energy, nguyen_functional)
from .maximal import (BmoResult, CounterexampleTable, MaximalProfile,
                      bmo_quantity, counterexample_experiment,
                      counterexample_exponent, counterexample_field,
                      directional_maximal, hl_maximal, maximal_profile)
from .spaces import (FracSeminorm, LuxemburgNorm, ModularValue, SandwichCheck,
                     frac_seminorm, luxemburg_norm, modular,
                     norm_modular_inequality_check)
from .sphere import (IdentityCheck, SphereRule, abs_power_sphere_integral,
                     default_rule, directional_identity_check, k_np,
                     k_np_values)
from .sweeps import (SweepReport, fit_offset_power, fit_power_limit,
                     run_sweep, sup_over_grid)

__version__ = "0.1.0"
