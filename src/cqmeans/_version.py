"""The package version, importable by modules that ``__init__`` loads."""

__version__ = "0.3.0"
