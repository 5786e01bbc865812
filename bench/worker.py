"""One cold benchmark process: import twinbeam, run one step, report.

Usage: ``python3 worker.py <spec.json>``, started by ``run.py`` with
``src/`` first on ``PYTHONPATH``.  The spec names the step (a CLI command
line, or the ``fock-oracle`` library round), whether to trace it, and
where to write the result.  The result records the import time, the
in-process time of the step after import, the exit code and the peak
resident memory of this process.
"""

import sys
import time


def run_cli(cli, argv: list, tracer) -> int:
    span = tracer.open(f"cli.{argv[0]}") if tracer else None
    try:
        cli.main.main(args=argv, prog_name="twinbeam", standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        if tracer:
            tracer.close(span)
    return code


def main() -> None:
    started = time.perf_counter()
    import twinbeam.cli  # the timed cold import

    import_s = time.perf_counter() - started
    import json
    import resource
    from pathlib import Path

    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    if src not in Path(twinbeam.cli.__file__).resolve().parents:
        sys.exit(f"twinbeam was imported from {twinbeam.cli.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = {"import_s": import_s}
    if spec["step"] == "fock-oracle":
        import oracle
        from twinbeam import distributions, fock

        rnd = oracle.run_round(spec["seed"], (distributions, fock))
        result.update(code=0, run_s=rnd.call_s, attempted=rnd.attempted, failures=rnd.failures)
        Path(spec["out"]).mkdir(parents=True, exist_ok=True)
        digests = {group: h.hexdigest() for group, h in sorted(rnd.digests.items())}
        (Path(spec["out"]) / "oracle_values.json").write_text(json.dumps(digests, indent=2) + "\n")
    else:
        begin = time.perf_counter()
        result["code"] = run_cli(twinbeam.cli, spec["argv"], tracer)
        result["run_s"] = time.perf_counter() - begin
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        result["counters"] = tracer.counters
        with open(spec["spans"], "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
