#!/usr/bin/env python3
"""Runs sqpr_service and sqpr_plan with malformed, non-finite and
out-of-range flag values: each must exit 2 with the quoted
"FLAG: VALUE" error before doing any work, and sqpr_service must
reject a removed flag as unknown. Out-of-range counts are
rejected while parsing, so no case allocates a large cluster or catalog.
A well-formed run of each tool must still exit 0. sqpr_solve must exit
2 on a hostile MPS file (crossed or NaN bounds), with an error that
names the MPS line and quotes it, and solve the well-formed file.
Each sqpr_service output flag pointed at /dev/full must exit 1 with an
error that names the flag and quotes the path: a lost write is a
failed run.

Usage: tools/cli_flags_test.py SQPR_SERVICE SQPR_PLAN SQPR_SOLVE
"""

import os
import subprocess
import sys
import tempfile

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
]

# Output flags of sqpr_service; each write must fail loudly on a full
# device.
SERVICE_OUTPUTS = ["--stats-json", "--metrics-out", "--audit-out",
                   "--trace-out"]

PLAN_BAD = [
    ("--mem", "nan"), ("--mem", "lots"), ("--sites", "0"),
    ("--sites", "2x"),
]

# A two-row MPS model, then (name, line to append to a section, the
# quoted text the error must carry) for hostile variants of it.
MPS_GOOD = """NAME good
ROWS
 N obj
 L c0
 E c1
COLUMNS
 x obj 1 c0 1
 x c1 1
RHS
 rhs c0 4
 rhs c1 2
{bounds}ENDATA
"""
MPS_BAD = [
    ("crossed_upper", "BOUNDS\n UP bnd x -1\n", "MPS line 13: 'UP bnd x -1'"),
    ("nan_rhs", "", "MPS line 11: bad number 'nan'"),
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


def check_mps(solve, problems):
    with tempfile.TemporaryDirectory() as tmp:
        cases = [("good", MPS_GOOD.format(bounds=""), None)]
        for name, bounds, quoted in MPS_BAD:
            text = MPS_GOOD.format(bounds=bounds)
            if name == "nan_rhs":
                text = text.replace("rhs c1 2", "rhs c1 nan")
            cases.append((name, text, quoted))
        for name, text, quoted in cases:
            path = os.path.join(tmp, name + ".mps")
            with open(path, "w") as f:
                f.write(text)
            proc = subprocess.run([solve, path], capture_output=True,
                                  text=True, timeout=30)
            want = 0 if quoted is None else 2
            if proc.returncode != want or (quoted and
                                           quoted not in proc.stderr):
                problems.append(f"{solve} {name}.mps: exit "
                                f"{proc.returncode}, stderr "
                                f"{proc.stderr.strip()[:200]!r}")
    return len(MPS_BAD)


def main():
    if len(sys.argv) != 4:
        print(__doc__)
        return 2
    service, plan, solve = sys.argv[1], sys.argv[2], sys.argv[3]
    problems = []
    mps_cases = check_mps(solve, problems)
    for flag, value in COMMON_BAD + SERVICE_BAD:
        check(service, flag, value, problems)
    for flag, value in COMMON_BAD + PLAN_BAD:
        check(plan, flag, value, problems)
    # A removed flag is unknown.
    proc = subprocess.run([service, "--solve-deadline-ms", "-1"],
                          capture_output=True, text=True, timeout=10)
    if proc.returncode != 2 or "unknown flag" not in proc.stderr:
        problems.append(f"removed --solve-deadline-ms: exit "
                        f"{proc.returncode}, stderr {proc.stderr.strip()!r}")

    for flag in SERVICE_OUTPUTS:
        proc = subprocess.run([service, "--events", "1", flag, "/dev/full"],
                              capture_output=True, text=True, timeout=60)
        if (proc.returncode != 1 or f"{flag}:" not in proc.stderr
                or '"/dev/full"' not in proc.stderr):
            problems.append(f"{flag} /dev/full: exit {proc.returncode}, "
                            f"stderr {proc.stderr.strip()[:200]!r}")

    good = [
        [service, "--hosts", "2", "--streams", "4", "--queries", "4",
         "--events", "5", "--cpu", "0.8", "--seed", "7",
         "--timeout-ms", "0", "--arities", "2"],
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
    print(f"{cases} bad values, 1 removed flag, {mps_cases} bad MPS files, "
          f"{len(SERVICE_OUTPUTS)} full-device writes, {len(good) + 1} good "
          f"runs, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
