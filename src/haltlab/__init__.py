"""haltlab: numerical laboratory for halting schemes of quantum computers.

Two independent models back the package.  The ``qtm``/``nogo`` side holds
a concrete quantum Turing machine on a cyclic tape, its exact global step
operator, and the machinery showing that a unitary machine whose halted
sector freezes tape and halt bit can never move amplitude from running to
halted.  The ``ancilla`` side holds the abstract branch model with a halt
qubit and an ancilla clock, where halting itself is unproblematic but
branches halting at different unknown times lose their mutual coherence.

Every public name is imported from its own module, e.g.
``from haltlab.qtm import MachineDims``; the package exports only
``__version__``.
"""

__version__ = "0.1.0"
