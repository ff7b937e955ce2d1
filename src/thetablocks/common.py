"""What the command line needs without loading any engine, in a module that
imports nothing: the error shared by an engine and the CLI, and the closed
form of the theta-characteristic counts."""


class UnreducibleError(ValueError):
    """A slot retained excitation outside its ground stratum after all
    mode -1 operators were stripped."""


def theta_counts(g: int) -> tuple[int, int, int]:
    """(total, even, odd) theta-characteristic counts:
    2^(2g), 2^(g-1)(2^g + 1), 2^(g-1)(2^g - 1)."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    total = 4 ** g
    return total, (total + 2 ** g) // 2, (total - 2 ** g) // 2
