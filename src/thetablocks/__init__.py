"""Exact conformal-block dimensions, Verlinde-type formulas, conformal
embedding branching data, and symbolic free-fermion computations for the
affine odd orthogonal algebras.

Importing the package loads no engine: import what you use from its
submodules (`thetablocks.fusion`, `thetablocks.verlinde`,
`thetablocks.branching`, `thetablocks.fock`, ...)."""

__version__ = "0.1.0"
