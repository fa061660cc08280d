"""Seeded workload generators and per-invocation correctness checks.

A workload is a list of passes; a pass is a list of distinct argv lists
for ``mellinsys.cli.main``.  Everything here is a pure function of the
workload name, the seed and the pass number, so the same seed gives the
same invocations on every machine and every commit.
"""

from __future__ import annotations

import json
import random
import re
from itertools import combinations
from math import gcd

WORKLOADS = {
    "verify-uni": "verify --json on all 36 univariate profiles m = 2..9: the "
                  "CI sweep, many short runs, lift-bound, shows the numeric defect",
    "verify-bi": "verify (3;2,1), (4;2,1) at order 6 and (6;4,2): few long "
                 "runs dominated by the Newton lift and the cyclotomic rank",
    "export": "dims / operators / series calls over every profile with m <= 7, "
              "n <= 3: never lifts or ranks, weyl composition and exact series",
}

# Nominal seconds of one pass on a 2-core machine.  A run makes
# max(1, seconds // PASS_SECONDS) passes, so the work in a run depends on
# --seconds only and never on how fast the program happens to be.
PASS_SECONDS = {"verify-uni": 16, "verify-bi": 14, "export": 22}

# `operators` on m = 7, n = 3 takes about 1 s per profile, which would be
# half the export pass for all 20 such profiles; each pass takes a seeded
# 8 of them, so the cost of a pass hardly depends on the seed.
EXPORT_HEAVY_OPERATORS = 8

BI_PROFILES = ((("3", "2", "1"), ()),
               (("4", "2", "1"), ("--order", "6")),
               (("6", "4", "2"), ()))


def pass_count(workload: str, seconds: int) -> int:
    return max(1, seconds // PASS_SECONDS[workload])


def univariate_profiles():
    return [(m, m1) for m in range(2, 10) for m1 in range(1, m)]


def export_profiles():
    """Every profile m > m_1 > ... > m_n > 0 with m <= 7 and n <= 3."""
    return [(m,) + ms for m in range(2, 8) for n in (1, 2, 3)
            for ms in combinations(range(m - 1, 0, -1), n)]


def _pass_rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


def make_pass(workload: str, seed: int, k: int) -> list[list[str]]:
    """The argv lists of pass k; they are distinct within the pass."""
    rng = _pass_rng(workload, seed, k)
    if workload == "verify-uni":
        calls = [["verify", str(m), str(m1), "--json"]
                 for m, m1 in univariate_profiles()]
    elif workload == "verify-bi":
        calls = [["verify", *prof, *extra] for prof, extra in BI_PROFILES]
    elif workload == "export":
        heavy = [p for p in export_profiles() if p[0] == 7 and len(p) == 4]
        with_ops = set(rng.sample(heavy, EXPORT_HEAVY_OPERATORS))
        calls = [call for prof in export_profiles()
                 for call in _export_calls(prof, rng, prof in with_ops
                                           or prof not in heavy)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if workload != "export":
        for call in calls:
            call += ["--seed", str(rng.randrange(10**6))]
    rng.shuffle(calls)
    return calls


def make_passes(workload: str, seed: int, n_passes: int) -> list[list[list[str]]]:
    return [make_pass(workload, seed, k) for k in range(n_passes)]


def _export_calls(prof, rng: random.Random, operators: bool) -> list[list[str]]:
    """One call of each kind for one profile; the seed picks the variants."""
    m, n = prof[0], len(prof) - 1
    args = [str(v) for v in prof]
    index = [rng.randrange(m) for _ in range(n)]
    horn = ["--check-horn"] if rng.random() < 0.5 else []
    calls = [
        ["dims", *args],
        # the generating test needs the whole box visible: order >= n(m-1)
        ["series", *args, "--principal", "--generating-check",
         "--order", str(max(12, n * (m - 1)))],
        ["series", *args, "--basis", ",".join(map(str, index)),
         "--order", str(max(12, sum(index)))],
        ["series", *args, "--roots"],
    ]
    if operators:
        calls.append(["operators", *args, *horn])
    for call in calls:
        if rng.random() < 0.5:
            call.append("--json")
    return calls


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------

def parse_profile(argv):
    """(command, m, m_list, flags) from an argv list of this module."""
    nums = []
    for tok in argv[1:]:
        if tok.startswith("--"):
            break
        nums.append(int(tok))
    return argv[0], nums[0], nums[1:], set(t for t in argv if t.startswith("--"))


def expected_dims(m: int, m_list) -> tuple[int, int]:
    """(rank, dim Y) from the paper's closed forms."""
    n = len(m_list)
    rank = m ** n
    if gcd(m, *m_list) > 1:
        return rank, rank
    return rank, rank - m ** (n - 1) + (1 if m_list[0] == m - 1 else 0)


def _mono(index) -> str:
    names = ["x"] if len(index) == 1 else [f"x{j + 1}" for j in range(len(index))]
    return " ".join(f"{nm}^{e}" if e > 1 else nm
                    for nm, e in zip(names, index) if e) or "1"


def check_output(argv, rc, out: str) -> list[str]:
    """Problems with one invocation's output; an empty list means correct.

    A nonzero exit code is not a problem here but a failure, counted
    separately.  The checks ask whether what was printed is well formed and
    agrees with the closed forms and with the exit code.  Exit code 1
    (usage error) and a raised exception leave no result to check.
    """
    if rc not in (0, 2):
        return []
    if not out:
        return ["empty output"]
    cmd, m, m_list, flags = parse_profile(argv)
    n = len(m_list)
    rank, dim_y = expected_dims(m, m_list)
    payload = None
    if "--json" in flags:
        try:
            payload = json.loads(out)
        except ValueError:
            return ["stdout is not JSON"]
    if cmd == "verify":
        if payload is not None:
            ok = payload.get("ok")
            detail = next((c["detail"] for c in payload["checks"]
                           if c["name"] == "dimension-table"), "")
        else:
            ok = out.rstrip("\n").rsplit("\n", 1)[-1].startswith("all checks passed")
            hit = re.search(r"dimension-table +(.*)", out)
            detail = hit.group(1) if hit else ""
        problems = [] if ok is (rc == 0) else [f"ok={ok} but exit {rc}"]
        hit = re.search(r"rank (\d+), dim Y (\d+)", detail)
        got = (int(hit.group(1)), int(hit.group(2))) if hit else None
        if got != (rank, dim_y):
            problems.append(f"rank, dim Y {got} != {(rank, dim_y)}")
        return problems
    if cmd == "dims":
        if payload is not None:
            got = (payload["rank"], payload["dim_Y"])
        else:
            got = tuple(int(re.search(rf"^{key} +: (\d+)", out, re.M).group(1))
                        for key in ("rank", "dim Y"))
        return [] if got == (rank, dim_y) else [f"rank, dim Y {got} != {(rank, dim_y)}"]
    if cmd == "operators":
        if payload is not None:
            count = len(payload["mellin"])
            horn_ok = ("--check-horn" not in flags
                       or len(payload["horn_mellin_multipliers"]) == n)
        else:
            count = len(re.findall(r"^mellin\[\d+\]", out, re.M))
            horn_ok = ("--check-horn" not in flags
                       or "horn->mellin identity: OK" in out)
        return [] if count == n and horn_ok else ["operator count or Horn identity"]
    # series: --roots prints m branches; --principal and --basis I print one
    # series whose lowest term is 1 * x^0 or 1 * x^I
    if "--roots" in flags:
        want, lead = m, None
    elif "--basis" in flags:
        want, lead = 1, [int(v) for v in argv[argv.index("--basis") + 1].split(",")]
    else:
        want, lead = 1, [0] * n
    if payload is not None:
        series = payload["series"]
        first = series[0]["terms"][0] if series and series[0]["terms"] else {}
        lead_ok = lead is None or first == {"exp": lead, "coeff": "1"}
        gen_ok = isinstance(payload.get("generating"), bool)
    else:
        series = re.findall(r"^-- ", out, re.M)
        lines = out.split("\n")
        lead_ok = lead is None or (len(lines) > 1
                                   and lines[1] == f"1 * {_mono(lead)}")
        gen_ok = re.search(r"^(NOT )?GENERATING$", out, re.M) is not None
    gen_ok = gen_ok or "--generating-check" not in flags
    if len(series) == want and lead_ok and gen_ok:
        return []
    return ["series count, leading term or generating line"]
