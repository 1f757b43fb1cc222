"""Error taxonomy shared across the lab.

Every exception carries a short machine-readable ``code`` so the CLI can
emit one-line ``error: <code>: <detail>`` diagnostics, and the exit
``status`` the CLI returns for it: 2 for a config error, 1 for any other.
"""


class CdwError(Exception):
    """Base class for all lab errors."""

    code = "error"
    status = 1
    line = None

    def oneline(self):
        at = "" if self.line is None else "line %d: " % self.line
        return "error: %s: %s%s" % (self.code, at, self)


class DomainError(CdwError):
    """Input outside the documented domain of an operation."""

    code = "domain"


class FieldOverflowError(CdwError):
    """Field values left the finite range during time stepping."""

    code = "overflow"


class ConfigError(CdwError):
    """Malformed or inconsistent run configuration.

    Carries the 1-based line number of the offending entry when known.
    """

    code = "config"
    status = 2

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
