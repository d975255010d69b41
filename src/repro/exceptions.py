"""Exception hierarchy for the TSS reproduction library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  Specific subclasses signal malformed partial
orders, schema/data mismatches and index misuse.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class PartialOrderError(ReproError):
    """A partial-order specification is invalid (cycle, unknown value, ...)."""


class CycleError(PartialOrderError):
    """The preference graph contains a cycle and is therefore not a DAG."""


class UnknownValueError(PartialOrderError, KeyError):
    """A value was referenced that does not belong to the domain."""


class SchemaError(ReproError):
    """A schema definition is inconsistent or incompatible with a dataset."""


class DatasetError(ReproError):
    """A dataset is malformed (ragged rows, out-of-domain values, ...)."""


class IndexError_(ReproError):
    """An R-tree or page-store operation was used incorrectly."""


class QueryError(ReproError):
    """A (dynamic) skyline query specification is invalid."""


class ExperimentError(ReproError):
    """A benchmark/experiment configuration is invalid."""


class ServiceError(ReproError):
    """A query-service request failed (connection, protocol or server side)."""


class DeadlineExceededError(ReproError):
    """A request's deadline elapsed before the work completed.

    Raised by the engine between query phases, by the service when the
    per-request ``deadline_ms`` budget runs out server-side, and surfaced to
    :class:`~repro.service.client.ServiceClient` callers as the same type, so
    one ``except DeadlineExceededError`` covers local and remote execution.
    """


class RetryExhaustedError(ServiceError):
    """Every retry attempt of an idempotent service request failed.

    Carries the per-attempt failure history in :attr:`attempts` (one message
    per attempt, in order) so callers and logs can see what each try hit.
    """

    def __init__(self, message: str, attempts: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.attempts = attempts


class InjectedFaultError(ReproError):
    """A deterministic fault injected by :mod:`repro.faults` fired.

    Only ever raised when a ``REPRO_FAULTS`` spec (or an explicit
    :func:`repro.faults.install`) is active; production paths without fault
    injection never see it.
    """


class StoreError(ReproError):
    """A persisted dataset store is unreadable, corrupt or incompatible.

    Messages name the offending file and, for format mismatches, the format
    version this build expects — the store analogue of the env-var resolver
    errors (REPRO_WORKERS/REPRO_CRC) that name their source.
    """
