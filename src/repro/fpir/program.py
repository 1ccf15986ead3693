"""FPIR programs: functions, globals, constant arrays.

A :class:`Program` is the unit the Client layer (paper §5.1) hands to
the analysis: an entry function plus every function it may invoke
("If Prog invokes other functions, the Client also needs to provide the
invoked functions").  Globals model both the instrumentation variable
``w`` and the GSL convention of returning results through out-parameters
(the paper's suggested adaptation: "a global variable is used to hold
the results").
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.fpir.nodes import Block
from repro.fpir.types import DOUBLE, Type
from repro.util.digest import canonical_pickle


@dataclasses.dataclass
class Param:
    """A typed function parameter."""

    name: str
    type: Type = DOUBLE


@dataclasses.dataclass
class Function:
    """A named FPIR function."""

    name: str
    params: List[Param]
    body: Block
    return_type: Optional[Type] = DOUBLE

    def __post_init__(self) -> None:
        self.params = [p if isinstance(p, Param) else Param(*p) for p in self.params]

    @property
    def param_names(self) -> List[str]:
        return [p.name for p in self.params]


class Program:
    """A collection of FPIR functions with globals and constant arrays.

    Parameters
    ----------
    functions:
        The functions making up the program.  Function names must be
        unique.
    entry:
        Name of the entry function — the paper's ``Prog``.  Its
        parameters define ``dom(Prog)``.
    globals:
        Mapping from global variable name to initial value.  Globals are
        re-initialized at the start of every entry-function invocation.
    arrays:
        Read-only named arrays of doubles (coefficient tables).
    """

    def __init__(
        self,
        functions: Sequence[Function],
        entry: str,
        globals: Optional[Dict[str, Union[float, int]]] = None,
        arrays: Optional[Dict[str, Tuple[float, ...]]] = None,
    ) -> None:
        self.functions: Dict[str, Function] = {}
        for fn in functions:
            if fn.name in self.functions:
                raise ValueError(f"duplicate function name: {fn.name!r}")
            self.functions[fn.name] = fn
        if entry not in self.functions:
            raise ValueError(f"entry function {entry!r} not defined")
        self.entry = entry
        self.globals: Dict[str, Union[float, int]] = dict(globals or {})
        self.arrays: Dict[str, Tuple[float, ...]] = {
            name: tuple(values) for name, values in (arrays or {}).items()
        }

    # -- accessors ---------------------------------------------------------

    @property
    def entry_function(self) -> Function:
        return self.functions[self.entry]

    @property
    def num_inputs(self) -> int:
        """N such that dom(Prog) = F^N (double parameters of the entry)."""
        return len(self.entry_function.params)

    def function(self, name: str) -> Function:
        return self.functions[name]

    # -- structural operations ----------------------------------------------

    def clone(self) -> "Program":
        """Deep-copy the program (instrumenters rewrite clones, never
        the Client's original).

        The copy is a tree even where the original shares nodes: it is
        rebuilt from the memo-free pickle the content digest hashes, so
        rewriting one occurrence of a node in place never touches
        another, and programs with one digest instrument alike.
        """
        cloned = pickle.loads(canonical_pickle(list(self.functions.values())))
        return Program(
            cloned,
            entry=self.entry,
            globals=dict(self.globals),
            arrays=dict(self.arrays),
        )

    def with_entry(self, entry: str) -> "Program":
        """A shallow re-view of the same functions with another entry."""
        prog = Program(
            list(self.functions.values()),
            entry=entry,
            globals=dict(self.globals),
            arrays=dict(self.arrays),
        )
        return prog

    def add_global(self, name: str, init: Union[float, int]) -> None:
        self.globals[name] = init

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(self.functions)
        return f"Program(entry={self.entry!r}, functions=[{names}])"
