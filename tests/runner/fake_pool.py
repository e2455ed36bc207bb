"""A scripted stand-in for the executor's ``ProcessPoolExecutor``.

``install(monkeypatch, script)`` replaces
``repro.runner.executor.ProcessPoolExecutor`` with a fake whose futures
settle as ``script(workload, attempt)`` says:

- ``OK`` — the cell runs in this process (``run_cell``, so traced
  payloads ship their ``_obs`` snapshot) and the future finishes at
  submit;
- an exception instance (a :class:`CellError`, a
  :class:`BrokenProcessPool`) — the future fails with it at submit;
- ``HOLD`` — the future never finishes on its own; the executor's
  cleanup cancels it;
- ``BREAK_ON_SUBMIT`` — ``submit`` itself raises
  :class:`BrokenProcessPool`, as when a worker dies mid-submission;
- ``late(outcome)`` — ``outcome``, but only once the executor has read
  its first outcome of the round (through ``exception()`` or
  ``result()``; at once, in a round where nothing else has finished),
  so the future is still unread when a failure read first stops the
  round: the drain path.

Futures finishing at submit are yielded by ``as_completed`` in no
particular order among themselves; late ones follow in submission
order.  ``install`` returns the list of pools built, each holding its
``submitted`` ``(workload, attempt)`` pairs and ``unread_at_drain``:
the late futures that had finished but were still unread when the
executor cancelled the round, i.e. the cells its drain path had to
settle.  Drain tests assert it, so a fake that stopped reaching the
drain path would fail them rather than pass them vacuously.  :data:`NO_SPAWN` in place
of a script makes every pool construction fail as on a host that cannot
spawn processes.
"""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

from repro.runner import executor as executor_module

OK = "ok"
HOLD = "hold"
BREAK_ON_SUBMIT = "break-on-submit"


def late(outcome):
    return ("late", outcome)


#: In place of a script: no pool can be constructed at all.
NO_SPAWN = object()


class _Future(Future):
    def __init__(self, pool, late):
        super().__init__()
        self._pool = pool
        self._late = late
        self._read = False

    def exception(self, timeout=None):
        return self._first_read(super().exception, timeout)

    def result(self, timeout=None):
        return self._first_read(super().result, timeout)

    def _first_read(self, read, timeout):
        self._read = True
        self._pool.release_late()
        return read(timeout)

    def cancel(self):
        if self._late and self.done() and not self._read:
            self._pool.unread_at_drain += 1
        # A real pool's manager moves cancelled work to the notified
        # state; without it, wait() on a cancelled future never returns.
        cancelled = super().cancel()
        if cancelled and self._state == "CANCELLED":
            self.set_running_or_notify_cancel()
        return cancelled


def _settle(future, outcome, fn, payload):
    if outcome == OK:
        try:
            future.set_result(fn(payload))
        except Exception as error:
            future.set_exception(error)
    elif isinstance(outcome, BaseException):
        future.set_exception(outcome)


def install(monkeypatch, script):
    pools = []

    class FakePool:
        def __init__(self, max_workers=None):
            if script is NO_SPAWN:
                raise OSError("no processes here")
            self.submitted = []
            self._futures = []
            self._late = []
            self.unread_at_drain = 0
            pools.append(self)

        def submit(self, fn, payload):
            self.submitted.append((payload["workload"], payload["attempt"]))
            outcome = script(payload["workload"], payload["attempt"])
            if outcome == BREAK_ON_SUBMIT:
                raise BrokenProcessPool("a worker died mid-submission")
            future = _Future(self, late=isinstance(outcome, tuple))
            self._futures.append(future)
            if isinstance(outcome, tuple):
                self._late.append((future, outcome[1], fn, payload))
            else:
                _settle(future, outcome, fn, payload)
            return future

        def release_late(self):
            pending, self._late = self._late, []
            for future, outcome, fn, payload in pending:
                if not future.done():
                    _settle(future, outcome, fn, payload)

        def shutdown(self, wait=True, cancel_futures=False):
            pass

        def __enter__(self):
            # The executor enters the pool once the round is submitted:
            # a round with nothing finished would hang as_completed, so
            # release the late futures, or fail if only HOLDs are left.
            if self._futures and not any(f.done() for f in self._futures):
                self.release_late()
                if not any(f.done() for f in self._futures):
                    raise AssertionError("the scripted round never settles")
            return self

        def __exit__(self, *exc):
            self.shutdown()
            return False

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", FakePool)
    return pools
