"""The common base of the package's exceptions."""


class CalabiLabError(Exception):
    """Bad input or a failed numerical procedure; the command line reports
    every subclass as ``error: ...`` with exit code 2."""
