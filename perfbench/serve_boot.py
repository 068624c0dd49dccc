"""Start ``repro serve`` with the layer wrappers, for a traced run.

``python3 -m perfbench.serve_boot --spans DIR -- serve ...`` installs
the wrappers in pass-through mode, calls the ``repro`` CLI entry with
the arguments after ``--`` and, once the SIGTERM drain has finished,
writes the daemon's spans.  SIGUSR1 switches the wrappers to recording
and creates ``DIR/recording`` once it has.
"""

from __future__ import annotations

import argparse
import signal
import sys

from . import layers
from .tracer import Tracer


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv[:split])
    tracer = Tracer(args.spans)
    tracer.recording = False
    layers.install(tracer)

    def start_recording(signum, frame):
        tracer.recording = True
        tracer.directory.mkdir(parents=True, exist_ok=True)
        (tracer.directory / "recording").touch()

    signal.signal(signal.SIGUSR1, start_recording)

    from repro.campaign.cli import main as repro_main

    code = repro_main(argv[split + 1:])
    tracer.dump()
    return code


if __name__ == "__main__":
    sys.exit(main())
