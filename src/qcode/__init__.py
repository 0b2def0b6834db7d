"""Two-level fractional factorial designs from quaternary linear codes.

The package splits into four layers. `z4` holds the code-to-design
construction itself. `jchar` is the model-free oracle: J-characteristics
computed straight off a design matrix. `equations` rebuilds the
cell-counting identities that make the aliasing structure a linear
function of the frequency vector, and `theory` applies them: spectra
without enumeration, periodic families, and exact search. `golden`
checks everything against frozen transcriptions.
"""

from .equations import (AEquation, EquationSystem, KEquation, a_equation,
                        all_odd_closed_form, basis_single_one,
                        basis_single_two, build_system, ca_add,
                        canonical_wordtypes, lift_all_odd,
                        lift_insert_zero, parity_classes, toggle_entry)
from .golden import (GoldenDataError, load_examples, load_matrices,
                     verify_all, verify_examples, verify_matrices)
from .jchar import (DesignSummary, WordSpectrum, aliasing_index,
                    duplicated_column_pairs, j_characteristic,
                    spectrum_bruteforce, summarize)
from .theory import (PeriodicFamily, PreconditionError, SpectrumMismatch,
                     TheoryEvaluation, TheoryReport, aliasing_exponent,
                     analyze, class_rhos, evaluate, fixed_point_7,
                     periodic_extend, precondition_sums, preconditions_met,
                     search, theory_spectrum)
from .z4 import (BinaryDesign, BudgetExceeded, FrequencyVector,
                 GeneratorSpec, build_design, codewords, design_from_text,
                 design_to_text, frequency_vector,
                 generator_for_frequency, gray_map, lee_weight,
                 load_generator, save_generator)

__version__ = "0.1.0"

__all__ = [
    "AEquation", "BinaryDesign", "BudgetExceeded", "DesignSummary",
    "EquationSystem", "FrequencyVector", "GeneratorSpec",
    "GoldenDataError", "KEquation", "PeriodicFamily",
    "PreconditionError", "SpectrumMismatch",
    "TheoryEvaluation", "TheoryReport", "WordSpectrum", "a_equation",
    "aliasing_exponent", "aliasing_index", "all_odd_closed_form",
    "analyze", "basis_single_one", "basis_single_two", "build_design",
    "build_system", "ca_add", "canonical_wordtypes",
    "class_rhos", "codewords", "design_from_text", "design_to_text",
    "duplicated_column_pairs", "evaluate", "fixed_point_7",
    "frequency_vector", "generator_for_frequency", "gray_map",
    "j_characteristic", "lee_weight", "lift_all_odd", "lift_insert_zero",
    "load_examples", "load_generator", "load_matrices", "parity_classes",
    "periodic_extend", "precondition_sums",
    "preconditions_met", "save_generator", "search",
    "spectrum_bruteforce", "summarize", "theory_spectrum",
    "toggle_entry", "verify_all", "verify_examples", "verify_matrices",
    "__version__",
]
