"""Record reference.json: what each workload invocation must produce.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are known good.  For a
deterministic invocation it stores the exit code, the SHA-256 of stdout
and the instance count (compared claim instances, or emitted values for
``series``/``det``).  For a seeded invocation it stores the exit code,
report status and instance count, after checking on two seeds that the
count does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from passrun import import_cli
from workloads import WORKLOADS, invocations, is_seeded


def _instances(argv, report):
    if argv[0] == "verify":
        return report["instances_tested"]
    if argv[0] == "series":
        return len(report["values"])
    return 1


def _run(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    text = buf.getvalue()
    return rc, text, json.loads(text)


def record(cli):
    reference = {}
    for name in WORKLOADS:
        entries = reference[name] = {}
        for (key, argv), (_, argv2) in zip(invocations(name, 0), invocations(name, 1)):
            rc, text, report = _run(cli, argv)
            entry = {"rc": rc, "instances": _instances(argv, report)}
            if is_seeded(key):
                rc2, _, report2 = _run(cli, argv2)
                if (rc2, report2["instances_tested"], report2["status"]) != (
                    rc, entry["instances"], report["status"]):
                    raise SystemExit(f"{key}: outcome depends on the seed")
                entry["status"] = report["status"]
            else:
                entry["sha256"] = hashlib.sha256(text.encode()).hexdigest()
            entries[key] = entry
    return reference


def main():
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(record(import_cli()), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
