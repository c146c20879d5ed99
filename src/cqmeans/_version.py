"""The package version, importable by modules that ``__init__`` loads."""

__version__ = "0.1.0"
