"""Set-up probe: a fresh interpreter imports fnlslab and parses configs.

Usage: python3 bench/probe.py SRC_DIR < configs.json

Reads a JSON list of INI texts on stdin and prints the import and parse
times as one JSON object.  The caller times the whole process.
"""

import json
import sys
import time


def main():
    texts = json.loads(sys.stdin.read())
    sys.path.insert(0, sys.argv[1])
    t0 = time.perf_counter()
    import fnlslab
    t1 = time.perf_counter()
    for text in texts:
        fnlslab.parse_config(text)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}), flush=True)


if __name__ == "__main__":
    main()
