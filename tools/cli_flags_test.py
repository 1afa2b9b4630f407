#!/usr/bin/env python3
"""Runs sqpr_service and sqpr_plan with malformed, non-finite and
out-of-range flag values: each must exit 2 with the quoted
"FLAG: VALUE" error before doing any work. Out-of-range counts are
rejected while parsing, so no case allocates a large cluster or catalog.
A well-formed run of each tool must still exit 0.

Usage: tools/cli_flags_test.py SQPR_SERVICE SQPR_PLAN
"""

import subprocess
import sys

# Values either tool must reject, for a flag both accept.
COMMON_BAD = [
    ("--cpu", "abc"), ("--cpu", "nan"), ("--cpu", "inf"), ("--cpu", "-0.5"),
    ("--cpu", "0.8x"), ("--cpu", ""), ("--nic", "1e999"),
    ("--link", "-1"), ("--rate", "0"), ("--rate", "-nan"),
    ("--hosts", "3x"), ("--hosts", " 3"), ("--hosts", "3.5"),
    ("--hosts", "0"), ("--hosts", "99999999999"), ("--hosts", "1025"),
    ("--streams", "0"), ("--streams", "-4"), ("--streams", "1e6"),
    ("--streams", "100000000"), ("--queries", "0"), ("--queries", "ten"),
    ("--zipf", "-1"), ("--zipf", "nan"),
    ("--seed", "-1"), ("--seed", "12abc"), ("--seed", "+3"),
    ("--seed", "99999999999999999999999"),
    ("--arities", "2,x"), ("--arities", "2,,3"), ("--arities", "2,"),
    ("--arities", "1"), ("--arities", "13"), ("--arities", ""),
    ("--timeout-ms", "-1"), ("--timeout-ms", "1e3"),
]

SERVICE_BAD = [
    ("--hosts", "1"), ("--events", "0"), ("--events", "-1"),
    ("--max-nodes", "1.5"), ("--max-nodes", "-2"),
    ("--replan-round", "0"), ("--measure-period", "0"),
    ("--rate-seed", "x"), ("--trace-capacity", "0"),
    ("--trace-capacity", "4194305"), ("--metrics-interval", "-1"),
    ("--stall-ms", "nan"), ("--stall-ms", "-1"),
    ("--budget-ms", "solve=abc"), ("--budget-ms", "solve=nan"),
    ("--budget-ms", "solve=0"), ("--budget-ms", "solve"),
    ("--checkpoint-every", "-1"), ("--checkpoint-every", "5x"),
    ("--solve-deadline-ms", "soon"), ("--solve-deadline-ms", "1.5"),
]

PLAN_BAD = [
    ("--mem", "nan"), ("--mem", "lots"), ("--sites", "0"),
    ("--sites", "2x"),
]


def check(binary, flag, value, problems):
    # A rejected value exits while parsing; running the scenario instead
    # is the failure this test exists to catch, so it is cut short.
    try:
        proc = subprocess.run([binary, flag, value], capture_output=True,
                              text=True, timeout=10)
    except subprocess.TimeoutExpired:
        problems.append(f"{binary} {flag} {value!r}: still running after "
                        f"10 s, so the value was accepted")
        return
    quoted = f'"{flag}: {value}"'
    if proc.returncode != 2 or quoted not in proc.stderr:
        problems.append(f"{binary} {flag} {value!r}: exit {proc.returncode}, "
                        f"stderr {proc.stderr.strip()[:200]!r}")


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    service, plan = sys.argv[1], sys.argv[2]
    problems = []
    for flag, value in COMMON_BAD + SERVICE_BAD:
        check(service, flag, value, problems)
    for flag, value in COMMON_BAD + PLAN_BAD:
        check(plan, flag, value, problems)

    good = [
        [service, "--hosts", "2", "--streams", "4", "--queries", "4",
         "--events", "5", "--cpu", "0.8", "--seed", "7",
         "--solve-deadline-ms", "-1", "--arities", "2"],
        [plan, "--hosts", "2", "--streams", "4", "--queries", "3",
         "--mem", "-1", "--arities", "2,3"],
    ]
    for cmd in good:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            problems.append(f"{' '.join(cmd)}: exit {proc.returncode}, "
                            f"stderr {proc.stderr.strip()[:200]!r}")

    for p in problems:
        print("FAIL:", p)
    cases = len(COMMON_BAD) * 2 + len(SERVICE_BAD) + len(PLAN_BAD)
    print(f"{cases} bad values, {len(good)} good runs, "
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
