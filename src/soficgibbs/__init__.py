"""Sofic shifts, factor codes, and Gibbs/equilibrium measures.

Shift spaces are presented combinatorially: shifts of finite type as edge
shifts, sofic shifts as labeled graphs.  On top of the combinatorics the
package computes transfer-matrix Perron data, pressure, equilibrium
Gibbs-Markov measures, exact cylinder probabilities of hidden Markov images,
and runs numerical certification pipelines for the equivalence of Gibbs and
equilibrium measures on irreducible sofic shifts, including the reducible
counterexample where the equivalence fails.
"""

from .codes import (CodeAnalysis, MagicWord, SlidingBlockCode, analyze_code,
                    compose_one_block, degree, find_magic_word,
                    higher_block_encoder, higher_block_shift, is_finite_to_one,
                    is_right_resolving, preimage_words, recode_to_one_block)
from .errors import (ConvergenceError, EmptyShiftError, EnumerationCapError,
                     InsufficientContextError, NoExchangeableContextError,
                     NotFiniteToOneError, NotInLanguageError,
                     ReducibleShiftError, SoficGibbsError, SpecFileError)
from .gibbs import (CounterexampleReport, DobrushinReport, FiniteToOneReport,
                    GibbsRatioReport, LanfordRuelleReport, RatioBattery,
                    SunnySideUpMeasure, cocycle_delta, gibbs_ratio_test,
                    run_ratio_battery, sunny_side_up_counterexample,
                    sunny_side_up_presentation, synchronized_battery,
                    verify_finite_to_one_preservation,
                    verify_sofic_dobrushin, verify_sofic_lanford_ruelle)
from .measures import (EntropyEstimate, HiddenMarkovMeasure, LiftResult,
                       RestrictAverageResult, entropy_estimate,
                       equilibrium_upstairs, lift_equilibrium,
                       preimage_cylinder_sum, pushforward,
                       restrict_and_average)
from .presentations import (LabeledEdge, SoficPresentation, determinize,
                            image_presentation, is_irreducible_sofic,
                            minimize_fischer)
from .shifts import (Alphabet, CyclicStructure, Edge, EdgeShift, Word,
                     component_periods, cyclic_class_shift, cyclic_structure,
                     format_word, sft_from_forbidden_words)
from .thermo import (CyclicPressureReport, LocallyConstantPotential,
                     MarkovMeasure, PerronData, cyclic_pressure_check,
                     entropy, equilibrium_measure, integrate, period_sum_potential,
                     perron, pressure, pressure_periodic_oracle,
                     pullback_potential, reduce_to_edge_potential, sv_norm,
                     transfer_matrix, variation)

__version__ = "0.1.0"
