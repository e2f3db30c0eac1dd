"""Run one superbrauer CLI job in this (fresh) interpreter and record its marks.

Usage: python perfbench/job.py MARKS_FILE LAUNCH TRACE -- CLI_ARGS...

LAUNCH is the parent's CLOCK_MONOTONIC reading just before it started this
process; the clock is system-wide, so marks taken here subtract from it.
MARKS_FILE receives {"parsed", "done", "exit"} and, with TRACE=1, the layer
summary and spans.  The CLI report itself is written by the CLI (--out) and
never carries trace data.
"""

import json
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    marks_path, launch, traced = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    argv = sys.argv[5:]  # after "--"
    marks: dict = {}
    if traced:
        from spans import Recorder

        recorder = Recorder(now)
        recorder.install()
    from superbrauer import cli

    make_parser = cli.build_parser

    def build_parser():
        parser = make_parser()
        parse = parser.parse_args

        def parse_args(args=None, namespace=None):
            ns = parse(args, namespace)
            marks["parsed"] = now()
            return ns

        parser.parse_args = parse_args
        return parser

    cli.build_parser = build_parser
    run = recorder.wrap(cli.main, "main", "cli.self_s") if traced else cli.main
    code = run(argv)
    marks["done"] = now()
    marks["exit"] = code
    if traced:
        marks["layers"] = recorder.summary(launch)
        marks["spans"] = [[n, m, round(a - launch, 6), round(b - launch, 6), p] for n, m, a, b, p in recorder.spans]
    with open(marks_path, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
