"""Run one workload experiment in a fresh process and report what it cost.

    python3 hfbench/worker.py --mode MODE --config CONFIG.json [--spans PATH]

MODE is one of
  setup  import and load_config (which validates the assumptions), then
         exit; the set-up time a user pays on every run.  cli.run builds the
         grid and kernel itself, so that build counts in the run's wall time;
  plain  set-up, then hartreeflow.cli.run exactly as shipped;
  count  as plain, with count-only hooks (transforms, steps, iterations);
  trace  as plain, with the outside-in tracer of tracer.py installed.

The last line of standard output is one JSON object with the timings.  The
worker count is not passed to cli.run, so the program's default is measured.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "plain", "count", "trace"), required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--spans", default=None, help="where the trace mode writes its spans")
    args = parser.parse_args()

    import hartreeflow
    from hartreeflow import cli

    tracer = counter = None
    if args.mode == "trace":
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        with tracer.span("setup"):
            with tracer.span("cli.load_config", "hartreeflow.cli"):
                config = cli.load_config(args.config)
    else:
        config = cli.load_config(args.config)
    t_setup = time.perf_counter()
    result = {
        "mode": args.mode,
        "hartreeflow_file": hartreeflow.__file__,
        "setup_s": t_setup - START,
    }
    if args.mode != "setup":
        if args.mode == "count":
            from tracer import Counter

            counter = Counter()
            counter.install()
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span("cli.run", "hartreeflow.cli"):
                status = cli.run(config, config_path=args.config)
        else:
            status = cli.run(config, config_path=args.config)
        wall = time.perf_counter() - t0
        result.update(
            status=status,
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            artifact_bytes=_dir_bytes(config.output_dir),
        )
        if counter is not None:
            counter.uninstall()
            result["counts"] = counter.counts()
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = layer_metrics(tracer.spans)
            result["layers"]["cli.artifact_bytes"] = float(result["artifact_bytes"])
            result["nesting_errors"] = tracer.nesting_errors()
            result["spans"] = len(tracer.spans)
            if args.spans:
                tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
