"""Instance 5: quantifier-free floating-point satisfiability (XSat [16]).

CNF formulas over double variables (:mod:`repro.sat.formula`) are
translated (:mod:`repro.sat.translate`) either into a branch program —
making satisfiability literally path reachability — or into the XSat
``R`` program whose zeros are the models, which
:class:`~repro.sat.solver.SatAnalysis` minimizes
(``Engine.run("sat", formula)``).
"""

from repro.sat.distance import METRICS, NAIVE, ULP, atom_distance
from repro.sat.formula import Atom, Formula, atom, conjunction
from repro.sat.parser import ParseError, parse_expression, parse_formula
from repro.sat.solver import (
    RandomSamplingSolver,
    SatAnalysis,
    SatResult,
    SatVerdict,
    evaluate_formula,
)
from repro.sat.translate import (
    formula_to_branch_program,
    formula_to_distance_program,
    formula_to_weak_distance,
)

__all__ = [
    "Atom",
    "Formula",
    "METRICS",
    "NAIVE",
    "ParseError",
    "RandomSamplingSolver",
    "SatAnalysis",
    "SatResult",
    "SatVerdict",
    "ULP",
    "atom",
    "atom_distance",
    "conjunction",
    "evaluate_formula",
    "formula_to_branch_program",
    "formula_to_distance_program",
    "formula_to_weak_distance",
    "parse_expression",
    "parse_formula",
]
