"""PRO105 clean: members are bound once at import; functions compare identity."""
# detlint: hot-path-module

from repro.cpu.isa import Op

_LOAD = Op.LOAD
_STORE = Op.STORE
_MEM_OPS = frozenset((Op.LOAD, Op.STORE))


class Decoded:
    """Class bodies run once, at import, like module level."""

    HALT = Op.HALT


def commit(uop, lsq, default=Op.NOP):
    """Defaults are evaluated at definition time; the body reads bindings."""
    if uop.op is _LOAD or uop.op is _STORE:
        lsq.remove(uop)
    return uop.op.name, default
