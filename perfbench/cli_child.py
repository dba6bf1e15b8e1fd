"""One traced realpos CLI call: ``python3 cli_child.py SPANS_OUT CLI_ARGS...``.

Times the import of ``realpos.cli``, runs ``realpos.cli.main(CLI_ARGS)`` with
the layer tracer installed, writes the spans and the import time to
SPANS_OUT once the call has returned, and exits with the CLI's exit code.
The caller puts the library's source directory on PYTHONPATH.
"""
import sys
import time

t0 = time.perf_counter()
import realpos.cli  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - t0

import layertrace  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        code = realpos.cli.main(argv)
    finally:
        tracer.uninstall()
    layertrace.write_spans(out, tracer.take(), import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
