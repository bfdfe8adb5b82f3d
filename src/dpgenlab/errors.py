"""Exception hierarchy and the process exit codes the CLI maps it onto."""

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4
EXIT_CAP = 5


class WorkbenchError(Exception):
    """Base class for every error raised by this package."""

    exit_code = EXIT_NUMERIC


class ConfigError(WorkbenchError):
    """A parameter value is outside its legal range (temperature <= 0, ...)."""

    exit_code = EXIT_USAGE


class ArgumentError(WorkbenchError):
    """Arguments are mutually inconsistent (mismatched lengths, spaces, ...)."""

    exit_code = EXIT_USAGE


class InputError(WorkbenchError):
    """A model-spec or dataset file is missing, malformed, or inconsistent."""

    exit_code = EXIT_INPUT


class ModelEvaluationError(WorkbenchError):
    """A logit evaluation or a reported value is not finite."""

    exit_code = EXIT_NUMERIC


class SolverError(WorkbenchError):
    """Numerical optimisation could not produce a valid solution."""

    exit_code = EXIT_NUMERIC


class EnumerationCapError(WorkbenchError):
    """An exact path would build more than the configured enumeration cap:
    messages, half-table atoms, or logits in lattice rows or step rows, as
    ``counted`` names them. ``states`` is the count, or its text (such as ``10^40``)
    where the count is too large to build."""

    exit_code = EXIT_CAP

    def __init__(self, states: int | str, cap: int, counted: str = "messages") -> None:
        super().__init__(
            f"enumeration would visit {states} {counted} but the cap is {cap}; "
            "raise the cap (or DPGENLAB_ENUM_CAP) to proceed"
        )
        self.states = states
        self.cap = cap
