"""PRO105 true positives: enum member reads inside hot-path functions.

The pragma below stands in for a HOT_PATH_MODULES entry, so this fixture
exercises the rule without naming a real repro module.
"""
# detlint: hot-path-module

from repro.cpu import isa
from repro.cpu.isa import Op
from repro.cpu.isa import Op as Opcode


def commit(uop, lsq):
    """A membership test against a tuple of members — flagged twice."""
    if uop.op in (Op.LOAD, Op.STORE):
        lsq.remove(uop)


def is_halt(uop):
    """An aliased import and a package-qualified read — both flagged."""
    return uop.op is Opcode.HALT or uop.op is isa.Op.HALT


CLASSIFY = lambda uop: uop.op is Op.UIRET  # a lambda body runs per call too
