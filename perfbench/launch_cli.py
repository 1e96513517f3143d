"""Run the command line with spans recorded: python3 launch_cli.py ARGS...

Installs the wrappers from spans.py, then calls graceful_spiders.cli.run the
way the installed entry point does. Spans go to the file named by
PERFBENCH_SPANS when the process ends, whatever the exit.
"""

import os
import sys
from time import perf_counter

import spans

start = perf_counter()
import graceful_spiders.cli as cli  # noqa: E402

import_s = perf_counter() - start
tracer = spans.Tracer()
spans.install(tracer)
try:
    code = cli.run(sys.argv[1:])
finally:
    tracer.dump(os.environ["PERFBENCH_SPANS"], {"import_s": import_s})
sys.exit(code)
