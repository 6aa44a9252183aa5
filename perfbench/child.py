"""One benchmark process: a timed CLI run, a set-up probe or a size probe.

    python3 perfbench/child.py run TIMING_JSON TRACE_DIR -- ARGS...
        Runs ``chaconlab.cli.main(ARGS)`` in this process, with the report
        on stdout as usual.  Writes the import time, the time spent inside
        ``main`` and the exit code to TIMING_JSON.  TRACE_DIR is ``-`` for
        an untraced run; otherwise the tracer is installed after the
        import and writes its spans there.
    python3 perfbench/child.py setup N_MAX
        Imports ``chaconlab.cli`` and builds the depth-N_MAX system; the
        benchmark times the whole process from outside.
    python3 perfbench/child.py system-mb N_MAX
        Prints the tracemalloc size in MB of one depth-N_MAX system.

The benchmark starts these with ``PYTHONPATH=src`` from the checkout root.
"""

from __future__ import annotations

import json
import sys
import time


def run(timing_path: str, trace_dir: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import chaconlab.cli as cli

    import_s = time.perf_counter() - t0
    tracer = None
    if trace_dir != "-":
        from tracer import Tracer  # sits next to this file

        tracer = Tracer(trace_dir)
        tracer.install()
    t1 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit through here
        code = exc.code
    main_s = time.perf_counter() - t1
    code = code if isinstance(code, int) else 1
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump()
    with open(timing_path, "w") as fh:
        json.dump({"import_s": import_s, "main_s": main_s, "exit_code": code}, fh)
    return code


def setup(n_max: int) -> int:
    import chaconlab.cli  # noqa: F401  (the import is what set-up pays for)
    from chaconlab.chacon import build_system

    build_system(n_max)
    return 0


def system_mb(n_max: int) -> int:
    import tracemalloc

    from chaconlab.chacon import build_system

    tracemalloc.start()
    system = build_system(n_max)
    size, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del system
    print(size / 2**20)
    return 0


def main(args: list[str]) -> int:
    mode = args[0]
    if mode == "run" and args[3] == "--":
        return run(args[1], args[2], args[4:])
    if mode == "setup":
        return setup(int(args[1]))
    if mode == "system-mb":
        return system_mb(int(args[1]))
    sys.exit(f"usage: see {__file__}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
