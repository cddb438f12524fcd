"""The library's one exception class."""


class InfodistError(ValueError):
    """A validation error: every refusal that the command line reports as a
    validation failure (exit 1) is one. Its message says what was refused."""
