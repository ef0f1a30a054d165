"""The five workloads.  Each sets the system up (several times: set-up
time is reported as a median), runs its timed phases in chunks through
:mod:`bench.calib`, stops the clock, and only then checks every
collected reply against :mod:`bench.oracle`.

Closed loop throughout: the next chunk is sent when the previous one
completed.  A run's op counts are fixed by ``scale`` alone, never by a
stopwatch (except the reader of ``svc_mixed``, which by design reads
until the writer's burst is acknowledged), so counts read from the
program's public counters repeat exactly for a fixed seed.
"""

from typing import Callable, Dict

from .common import Outcome, Run
from .library import lib_ordered_batch, lib_random_fit
from .service import svc_mixed, svc_split
from .views import view_cascade

__all__ = ["Run", "Outcome", "WORKLOADS"]

WORKLOADS: Dict[str, Callable[[Run], Outcome]] = {
    "lib_random_fit": lib_random_fit,
    "lib_ordered_batch": lib_ordered_batch,
    "svc_split": svc_split,
    "svc_mixed": svc_mixed,
    "view_cascade": view_cascade,
}
