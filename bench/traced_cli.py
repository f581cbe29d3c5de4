"""Run the wald CLI with every layer traced.

    python3 bench/traced_cli.py SPANS_JSON WALD_ARGS...

Imports singwald.cli (recorded as the ``cli.import`` span), wraps the
layers with :func:`tracer.install`, runs the command inside a ``cli.run``
span and, once it has returned, writes the spans to SPANS_JSON together
with the time the write itself took (``dump_s``).
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import singwald.cli

    t1 = time.perf_counter()
    import tracer

    rec = tracer.Recorder()
    rec.add("cli.import", t0, t1)
    tracer.install(rec)
    span = rec.begin("cli.run")
    try:
        rc = singwald.cli.run(sys.argv[2:])
    finally:
        rec.end(span)
        sys.stdout.flush()
    start = time.perf_counter()
    rec.dump(sys.argv[1])
    with open(sys.argv[1] + ".dump_s", "w", encoding="utf-8") as fh:
        fh.write(repr(time.perf_counter() - start))
    sys.exit(rc)
