"""Exception hierarchy, aligned with the CLI exit codes."""

from __future__ import annotations


class OmniscioError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ComputationError(OmniscioError):
    """A computed result failed an assertion it was required to satisfy."""

    exit_code = 1


class InvalidInputError(OmniscioError, ValueError):
    """Malformed or invalid user input (files, flags, parameters).

    Every invalid argument to the library raises this; it is a
    ``ValueError`` too, so callers may catch either.
    """

    exit_code = 2


class ValidationError(InvalidInputError):
    """A source failed its entropy-function validity checks."""


class InternalContractError(OmniscioError):
    """An internal invariant that should be unreachable was violated."""

    exit_code = 3
