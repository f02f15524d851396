"""Run the recommendation service with the benchmark's layer spans installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH`` and
``SERVEBENCH_TRACE_DIR`` naming a writable directory)::

    python servebench/traced_server.py server   --port 0 --datasets diab ...
    python servebench/traced_server.py frontend --port 0 --workers 2 ...

The arguments after the first are passed unchanged to
``repro.service.server.main`` or ``repro.service.frontend.main``.  The
front-end's workers are spawned processes that re-import this file as
``__mp_main__``, so the spans are installed in them too; each process
writes its records on ``SIGUSR1`` (see :mod:`spans`).
"""

import os
import sys

if __name__ in ("__main__", "__mp_main__"):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans

    _TRACER = spans.Tracer()
    spans.install(_TRACER)
    spans.install_dump_handler(
        _TRACER, os.environ[spans.TRACE_DIR_ENV]
    )

if __name__ == "__main__":
    role, argv = sys.argv[1], sys.argv[2:]
    if role == "server":
        from repro.service.server import main
    elif role == "frontend":
        from repro.service.frontend import main
    else:
        sys.exit(f"unknown role {role!r}; expected 'server' or 'frontend'")
    main(argv)
