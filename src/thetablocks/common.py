"""Names shared by the engines and the command line that import nothing: the
CLI reads them while it parses arguments, before it loads any engine."""

DEFAULT_DPS = 50  # working precision, in decimal digits, of the trig oracle


class UnreducibleError(ValueError):
    """A slot retained excitation outside its ground stratum after all
    mode -1 operators were stripped."""
