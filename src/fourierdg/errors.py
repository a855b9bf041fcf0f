"""Exception types shared across the package, the config field check, and
the decorator that puts a file's path before a loader's errors."""

import dataclasses
import functools


class FourierDGError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(FourierDGError):
    """An argument, or the data it describes, is unusable: out of range,
    misshapen, mislabelled or inconsistent with the rest."""


class ParseError(FourierDGError):
    """Malformed input file."""


class TrainingDivergedError(FourierDGError):
    """A training loss term became non-finite."""


def check_field_types(cfg):
    """Raise ParameterError unless each field of the dataclass ``cfg`` holds
    a value of its default's type; a bool is no int, an int is a float."""
    for f in dataclasses.fields(cfg):
        value, want = getattr(cfg, f.name), type(f.default)
        accepted = (int, float) if want is float else want
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ParameterError(f"{f.name} must be {want.__name__}, got {value!r}")


def naming_path(load):
    """``load(path)``, with the path put before the message of each
    FourierDGError it raises."""
    @functools.wraps(load)
    def load_named(path):
        try:
            return load(path)
        except FourierDGError as e:
            raise type(e)(f"{path}: {e}") from None
    return load_named
