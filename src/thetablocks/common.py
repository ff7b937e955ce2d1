"""The error shared by an engine and the command line, in a module that
imports nothing: the CLI catches it without loading any engine."""


class UnreducibleError(ValueError):
    """A slot retained excitation outside its ground stratum after all
    mode -1 operators were stripped."""
