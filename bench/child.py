"""One `dioptuples` CLI invocation in this fresh interpreter, reported as JSON.

    python3 bench/child.py '{"argv": [...], "trace": false, "op": 0, "src": "..."}'

run.py spawns this once per invocation.  The package is imported first, so
the time from spawn to `IMPORTED` is the set-up a shell user waits for.  The
op is timed from just before `cli.main` to its return, with stdout captured
for hashing.  With `"argv": null` the child only imports and describes its
environment.  The last stdout line is the JSON report.
"""

import sys
import time

import dioptuples.cli as cli

IMPORTED = time.monotonic()


def reference_s() -> float:
    """Seconds taken by a fixed computation that runs no `dioptuples` code.

    Exact fractions, dict counting and a small integer matrix product, the
    kinds of work the package does.  run.py divides op times by it, so a
    change in the host's speed between runs cancels.
    """
    from fractions import Fraction

    import numpy

    grid = numpy.arange(240 * 240, dtype=numpy.int64).reshape(240, 240) % 7
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(12000):
        total += Fraction(k % 13, 1 + k % 17)
    counts = {}
    for k in range(120000):
        key = k * k % 1009
        counts[key] = counts.get(key, 0) + 1
    int((grid @ grid).sum())
    return time.perf_counter() - start


def _blas_threads():
    """OpenBLAS thread count as the bundled library reports it, if it can be found."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def _environment() -> dict:
    import os
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "blas_env": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", "unset"),
    }


def main() -> None:
    import contextlib
    import hashlib
    import io
    import json
    import os
    import resource

    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"dioptuples was imported from {cli.__file__}, not from {src}")
    report = {"imported": IMPORTED}
    if spec["argv"] is None:
        report["environment"] = _environment()
        print(json.dumps(report))
        return
    tracer = None
    if spec["trace"]:
        import spans

        spans.selfcheck()
        tracer = spans.Tracer(spec["op"])
        spans.install(tracer)
    report["ref_s"] = reference_s()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = cli.main(spec["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        report["op_s"] = time.perf_counter() - start
    out = buf.getvalue().encode()
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,  # reaped pool workers
    )
    report.update(
        exit=code,
        sha256=hashlib.sha256(out).hexdigest(),
        lines=out.count(b"\n"),
        rss_mb=peak_kb / 1024,
    )
    if tracer is not None:
        report["trace"] = spans.summarize(tracer.spans)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
