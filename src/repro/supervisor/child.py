"""Child-process entry point for supervised discovery runs.

The supervisor spawns :func:`run_child` in a fresh process per attempt.
The child rebuilds the :class:`repro.core.StructureDiscovery` driver from a
plain constructor-argument dict (so the target stays importable under the
``spawn`` start method), always attaches the shared checkpoint store, and
hands its result back through a pickled file in the store directory --
richer and more crash-tolerant than a pipe, and the parent can inspect it
even if it outlives the child by a long time.

Exit-code protocol (the parent classifies on this):

=========  ==================================================================
exit code  meaning
=========  ==================================================================
0          report written to ``result.pkl``
1          deliberate :class:`repro.errors.ReproError` (``error.json`` says
           which); deterministic, the parent re-raises instead of retrying
2          deliberate :class:`repro.errors.InputError` (ditto)
3          deliberate :class:`repro.errors.ResourceLimitExceeded` (ditto)
130        interrupted (SIGINT, or the supervisor's forwarded SIGTERM)
< 0        killed by a signal -- the crash case the supervisor restarts
=========  ==================================================================
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import sys
from pathlib import Path

from repro.checkpoint import CheckpointStore
from repro.errors import InputError, ReproError, ResourceLimitExceeded
from repro.relation.io import atomic_write

#: Pickled :class:`repro.core.DiscoveryReport` of a successful attempt.
RESULT_NAME = "result.pkl"

#: JSON record of a deliberate child failure (class name + message).
ERROR_NAME = "error.json"

#: Faulthandler stack dump of a hung (or crashed) child, written on
#: SIGUSR1 from the supervisor just before the reap.
HANG_DUMP_NAME = "hang-traceback.txt"

_EXIT_INTERRUPT = 130


def _sigterm_to_interrupt(signum, frame):
    raise KeyboardInterrupt()


def _arm_hang_dump(directory: Path):
    """Journal all-thread stacks on SIGUSR1 (and on fatal signals).

    The supervisor sends SIGUSR1 to a child it is about to reap as hung;
    :mod:`faulthandler` then writes every thread's stack to
    ``hang-traceback.txt`` in the store directory, which the supervisor
    folds into ``incident.json`` -- so a hang kill still says *where* the
    child was stuck.  The handle must stay referenced for the lifetime of
    the process (faulthandler keeps only the fd).  No-op where SIGUSR1
    does not exist (Windows) or the journal cannot be opened.
    """
    if not hasattr(signal, "SIGUSR1"):
        return None
    try:
        import faulthandler

        handle = open(directory / HANG_DUMP_NAME, "w", encoding="utf-8")
        faulthandler.enable(file=handle, all_threads=True)
        faulthandler.register(signal.SIGUSR1, file=handle, all_threads=True)
        return handle
    except Exception:
        return None


def _write_error(directory: Path, exc: ReproError) -> None:
    """Record a deliberate failure so the parent can re-raise it."""
    try:
        with atomic_write(directory / ERROR_NAME) as handle:
            json.dump({
                "class": type(exc).__name__,
                "message": str(exc),
                "context": {k: repr(v) for k, v in
                            getattr(exc, "context", {}).items()},
            }, handle, sort_keys=True, indent=1)
    except Exception:
        pass  # the exit code still carries the class of failure


def run_child(spec: dict, relation, directory, cadence: int, resume: bool,
              escalations: dict | None, attempt: int, budget_blob,
              child_setup) -> None:
    """One supervised attempt: run the pipeline, leave ``result.pkl``.

    ``spec`` is :attr:`StructureDiscovery._spec`; ``budget_blob`` an
    optional pickled :class:`repro.budget.Budget` (re-pickled by the parent
    per attempt, so wall-clock deadlines keep shrinking across restarts);
    ``child_setup`` an optional picklable callable run first with the
    attempt number -- the deterministic-fault harness uses it to arm
    in-child faults (kill bombs, delays) per attempt.
    """
    directory = Path(directory)
    # The supervisor reaps a hung child with SIGTERM before SIGKILL; map it
    # to KeyboardInterrupt so stages unwind through their ordinary
    # interrupt paths (exit code 130 is preserved).
    signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
    dump_handle = _arm_hang_dump(directory)  # noqa: F841 - keep fd alive
    from repro.core.discovery import StructureDiscovery

    try:
        if child_setup is not None:
            child_setup(attempt)
        store = CheckpointStore(directory, cadence=cadence, resume=resume)
        budget = pickle.loads(budget_blob) if budget_blob is not None else None
        discovery = StructureDiscovery(**spec, checkpoint=store)
        report = discovery.run(relation, budget=budget,
                               escalations=escalations)
        with atomic_write(directory / RESULT_NAME, "wb") as handle:
            pickle.dump(report, handle)
    except KeyboardInterrupt:
        sys.exit(_EXIT_INTERRUPT)
    except ResourceLimitExceeded as exc:
        _write_error(directory, exc)
        sys.exit(3)
    except InputError as exc:
        _write_error(directory, exc)
        sys.exit(2)
    except ReproError as exc:
        _write_error(directory, exc)
        sys.exit(1)


def load_result(directory):
    """The pickled report of a completed attempt, or ``None``."""
    path = Path(directory) / RESULT_NAME
    try:
        data = path.read_bytes()
    except OSError:
        return None
    try:
        return pickle.loads(data)
    except Exception:
        return None


def load_error(directory) -> dict | None:
    """The deliberate-failure record of the last attempt, or ``None``."""
    path = Path(directory) / ERROR_NAME
    try:
        return json.loads(path.read_text("utf-8"))
    except (OSError, ValueError):
        return None


def clear_attempt_artifacts(directory) -> None:
    """Remove stale result/error files before a (re)spawn."""
    for name in (RESULT_NAME, ERROR_NAME, HANG_DUMP_NAME):
        try:
            os.unlink(Path(directory) / name)
        except OSError:
            pass
