"""Error taxonomy shared across the lab.

Every exception carries a short machine-readable ``code`` so the CLI can
emit one-line ``error: <code>: <detail>`` diagnostics and map the failure
onto an exit status.
"""


class CdwError(Exception):
    """Base class for all lab errors."""

    code = "error"
    line = None

    def oneline(self):
        at = "" if self.line is None else "line %d: " % self.line
        return "error: %s: %s%s" % (self.code, at, self)


class DomainError(CdwError):
    """Input outside the documented domain of an operation."""

    code = "domain"


class FieldOverflowError(CdwError):
    """Field values left the finite range during time stepping.

    Carries the step index at which the non-finite value first appeared.
    """

    code = "overflow"

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConfigError(CdwError):
    """Malformed or inconsistent run configuration.

    Carries the 1-based line number of the offending entry when known.
    """

    code = "config"

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
