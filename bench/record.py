"""Record the reference outputs the benchmark's oracles compare against.

    python3 bench/record.py

Writes bench/expected.json:

  readme_examples    every `rblie ...` line of the README's sh blocks, as
                     argv, with the exit code and stdout of one run
  env_queries_digest for seeds 0..DIGEST_SEEDS-1, the digest of every
                     output text of an env-queries pass (one pass,
                     untraced)

Run it only on a commit whose outputs are known to be right; the
benchmark then holds later commits to exactly these outputs.  Seeds
without a recorded digest are still checked by the spot oracles.
"""

from __future__ import annotations

import json
import re
import shlex
import subprocess
import sys

import run
import workloads

# Seeds 0..DIGEST_SEEDS-1 get a recorded env-queries digest; other seeds
# are held to the spot oracles only.
DIGEST_SEEDS = 100


def readme_examples():
    text = (workloads.ROOT / "README.md").read_text(encoding="utf-8")
    out = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.splitlines():
            if line.startswith("rblie "):
                argv = shlex.split(line)[1:]
                proc = subprocess.run(workloads.cli_command(argv), cwd=workloads.ROOT,
                                      env=workloads.cli_env(), capture_output=True,
                                      text=True, timeout=120)
                out.append({"argv": argv, "exit": proc.returncode, "stdout": proc.stdout})
    return out


def main():
    expected = {"readme_examples": readme_examples(), "env_queries_digest": {}}
    # written once without digests, so the passes below are not held to old ones
    with open(workloads.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
    for seed in range(DIGEST_SEEDS):
        result = run.run_worker("env-queries", seed, 0, False)
        if result is None or result["failed"]:
            sys.exit("env-queries seed %d failed its spot oracles; nothing recorded" % seed)
        expected["env_queries_digest"][str(seed)] = result["digest"]
    with open(workloads.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
