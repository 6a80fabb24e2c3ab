"""Exception types, and the value checks shared across the package."""


class RumorSimError(Exception):
    """Base class for every error raised by rumorsim."""


class ConfigurationError(RumorSimError):
    """Invalid configuration or input data: bad values, unknown ids, malformed files."""


class ParseError(ConfigurationError):
    """Malformed line in an input file; carries path and 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def _check_probability(name: str, value: float) -> None:
    """Raise ConfigurationError naming ``name`` unless ``value`` is in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")


class _Checked:
    """Base of a namedtuple record whose ``__new__`` checks its values.

    A namedtuple's ``_make``, and so its ``_replace``, builds the tuple
    without its class's ``__new__``; this ``_make`` calls the class, so every
    way to build the record, pickle and deepcopy included, runs its checks.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class UnknownUserError(ConfigurationError):
    """Lookup of a user id that is not present in the graph or state map."""


class UndefinedCorrelationError(RumorSimError):
    """Pearson correlation is undefined for the given inputs (zero variance)."""


class EmptyEvaluationError(ConfigurationError):
    """Evaluation was requested but there are no labeled nodes to score."""
