"""Record the program's answers for every input variant of each workload.

    python3 benchmark/record.py [workload ...]

Writes ``recorded/<workload>.json.gz``, which the oracle in ``workloads.py``
compares every run against.  The files in the repository were recorded at
the commit that introduced the benchmark; re-record only when a change is
meant to alter outputs (a new case label, a different root), and say so.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys

from run import HERE, import_semint, pin_environment


def main(argv=None) -> int:
    pin_environment()
    import_semint()
    import workloads

    names = (argv if argv is not None else sys.argv[1:]) or list(workloads.WORKLOADS)
    workdir = HERE / ".work" / "record"
    workloads.RECORDED.mkdir(exist_ok=True)
    try:
        for name in names:
            answers = []
            for variant in range(workloads.VARIANTS):
                workload = workloads.WORKLOADS[name](variant, workdir=workdir)
                model = workload.model()
                state = workload.setup(model)
                out = workload.repeat(model, state, None)
                answers.append(workload.answers(out, model))
                print(f"{name} variant {variant}: {json.dumps(workload.composition(out, state, model))}")
            path = workloads.RECORDED / f"{name}.json.gz"
            with gzip.GzipFile(path, "wb", mtime=0) as fh:
                fh.write(json.dumps(answers, separators=(",", ":")).encode())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
