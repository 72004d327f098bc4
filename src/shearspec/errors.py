"""Error taxonomy: one class per CLI exit code.

Invalid arguments raise plain ValueError.  The CLI maps the rest without
string matching:

    ConfigError          exit 2  run configuration malformed or inconsistent
    ReconstructionError  exit 3  the record cannot support a reconstruction;
                                 the message names the failed check
    DataFormatError      exit 4  a file on disk could not be parsed
"""


class ShearspecError(Exception):
    """Base class for package-specific failures."""


class ConfigError(ShearspecError):
    """Run configuration is malformed or inconsistent (exit code 2)."""


class ReconstructionError(ShearspecError):
    """The record cannot support a reconstruction (exit code 3)."""


class DataFormatError(ShearspecError):
    """A file on disk could not be parsed (exit code 4)."""
