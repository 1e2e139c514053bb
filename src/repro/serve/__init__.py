"""Long-running ``upcc serve`` daemon: warm-cache HTTP schema services.

The paper's pipeline -- model in, schemas out, instances validated -- is
batch-shaped, but the workload it describes (partners continuously
exchanging business documents) is a *service*.  This package turns the
pipeline into one process that stays warm:

* :class:`~repro.serve.app.ServeApp` -- endpoint logic sharing the
  process-wide generation and compilation caches plus a parsed-model LRU
  and a fingerprint-keyed schema-set registry,
* :class:`~repro.serve.server.UpccServer` /
  :class:`~repro.serve.server.ServeConfig` -- the stdlib HTTP daemon:
  work runs on the connection thread behind one admission counter
  (``workers`` run, ``queue_size`` wait first come first served), 503
  backpressure, per-request timeouts, graceful drain with zero dropped
  responses,
* :mod:`repro.serve.access` -- structured JSON-lines request logging
  (request ids, queue-wait attribution) and the bounded slow-request
  span-capture store,
* :mod:`repro.serve.loadgen` -- the stdlib load generator driving the
  load tests and the CI smoke test,
* :mod:`repro.serve.top` -- the ``upcc top`` terminal dashboard polling
  ``/stats`` + ``/metrics``.

Endpoints: ``POST /generate``, ``POST /validate``, ``GET /explain``,
``GET /stats``, ``GET /healthz``, ``GET /metrics`` (Prometheus text
exposition), ``GET /slow`` (slow-request captures).  See the README's
"Running as a service" section for the wire formats.
"""

import importlib

#: Public name -> defining module, imported on first access (PEP 562) so
#: that ``repro.serve.top`` loads without the daemon and its pipeline.
_EXPORTS = {
    name: f"repro.serve.{module}"
    for module, names in (
        ("access", ("AccessLog", "SlowRequestStore", "new_request_id")),
        ("app", ("SchemaSetEntry", "ServeApp")),
        ("server", ("ServeConfig", "UpccServer")),
    )
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)
