"""Symbolic free-fermion engine over Q[sqrt(2)] for the level-one modules of
so(2d+1) on the tensor grid W_r (x) W_s.

The package names only `ranklevel_matrix`; import everything else from the
submodule that defines it (`thetablocks.fock.blocks`,
`thetablocks.fock.states`, ...)."""

from .ranklevel import ranklevel_matrix

__all__ = ["ranklevel_matrix"]
