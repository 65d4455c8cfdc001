"""Mutants of the program, each with the tests that must kill it.

    python tests/mutants.py [NAME ...]

Each row of MUTANTS names a file under src/, an exact text in it, the text
that replaces it, and the test ids that must fail.  The runner takes one
mutant at a time (all of them, or the named ones): it copies src/ to a
temporary directory, applies the mutant to the copy, runs the row's tests
with -x against that copy and prints killed or survived.  A row whose text
does not occur exactly once, or whose tests do not run, is an error.  The
exit status is 1 if any mutant survives or errs, else 0.  Nothing under
src/ or tests/ is changed.  tests/test_mutants.py checks the table itself
(each text occurs once, each named test exists) in the suite.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # per mutant


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "alpha-subparacompact-without-nodec",
        "finitetop/covers.py",
        'return check_property(t, "nodec") and check_property(t, "subparacompact")',
        'return check_property(t, "subparacompact")',
        ("tests/test_covers.py::test_simplified_agrees_with_exhaustive[3]",),
    ),
    Mutant(
        "alpha-paracompact-always",
        "finitetop/covers.py",
        'if prop == "alpha-paracompact":\n        return check_property(t, "nodec")',
        'if prop == "alpha-paracompact":\n        return True',
        ("tests/test_covers.py::test_simplified_agrees_with_exhaustive[3]",),
    ),
    Mutant(
        "subparacompact-row-meets-instead-of-holds",
        "finitetop/covers.py",
        "if any(c & ~u == 0 for u in rows):",
        "if any(c & u for u in rows):",
        ("tests/test_covers.py::test_simplified_agrees_with_exhaustive[3]",),
    ),
    Mutant(
        "nodec-always",
        "finitetop/covers.py",
        "return alpha_topology(t) == t",
        "return True",
        ("tests/test_covers.py::test_property_profile_of_single_open_point",),
    ),
    Mutant(
        "gc-mismatch-never",
        "finitetop/census.py",
        'gc_mismatch=not properties["nodec"]',
        "gc_mismatch=False",
        ("tests/test_census.py::test_profile_of_single_open_point",),
    ),
    Mutant(
        "gc-mismatch-search-on-nodec-spaces-only",
        "finitetop/verifier.py",
        'if check_property(t, "nodec"):\n        return None\n    ta = alpha_topology(t)',
        'if not check_property(t, "nodec"):\n        return None\n    ta = alpha_topology(t)',
        ("tests/test_verifier.py::test_gc_mismatch_is_non_nodec",),
    ),
    Mutant(
        "automorphisms-identity-only",
        "finitetop/census.py",
        "return extend(0, 0)",
        "return 1",
        (
            "tests/test_verifier.py::test_automorphism_counts[3]",
            "tests/test_verifier.py::test_fm1_count_equals_enumeration[census-2]",
        ),
    ),
    Mutant(
        "automorphisms-without-down-sets",
        "finitetop/census.py",
        "\n                and down[y] & used == dn",
        "",
        ("tests/test_verifier.py::test_automorphism_counts[5]",),
    ),
    Mutant(
        "fm1-one-member-per-class",
        "finitetop/verifier.py",
        "applicable += d * d * automorphism_count(key)",
        "applicable += d * automorphism_count(key)",
        ("tests/test_verifier.py::test_fm1_count_equals_enumeration[census-2]",),
    ),
    Mutant(
        "extension-open-outside-the-meet",
        "finitetop/census.py",
        "if not u & ~meet and u.bit_count() + 1 >= largest:",
        "if u.bit_count() + 1 >= largest:",
        ("tests/test_census.py::test_labeled_counts[3]",),
    ),
    Mutant(
        "read-back-without-the-count",
        "finitetop/census.py",
        "if len(masks) != count or _id_of(n, opens) != rid:",
        "if _id_of(n, opens) != rid:",
        ("tests/test_census.py::test_read_agrees_with_the_general_parser[open-dropped]",),
    ),
    Mutant(
        "read-back-without-the-brackets",
        "finitetop/census.py",
        'if count != str(n) or opens[:2] != "[[" or opens[-2:] != "]]":',
        "if count != str(n):",
        ("tests/test_cli.py::test_verify_census_unbracketed_opens_exits_2",),
    ),
    Mutant(
        "class-key-first-call-returns-the-table",
        "finitetop/census.py",
        "        key = t._class_key = (",
        "        key = t.min_nbhd\n        t._class_key = (",
        ("tests/test_census.py::test_class_key_is_the_least_table",),
    ),
    Mutant(
        "module-exit-status-dropped",
        "finitetop/__main__.py",
        "sys.exit(main())",
        "main()",
        ("tests/test_cli.py::test_inspect_malformed_space_exits_2[bool-point]",),
    ),
)

def run_mutant(mutant: Mutant) -> str:
    """'killed', 'survived', or 'error: ...' for one mutant."""
    text = (ROOT / "src" / mutant.path).read_text()
    if text.count(mutant.old) != 1:
        return f"error: the text occurs {text.count(mutant.old)} times in src/{mutant.path}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as work:
        work = Path(work)
        src = work / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / mutant.path).write_text(text.replace(mutant.old, mutant.new))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        # pytest puts its pythonpath ahead of everything, so the tests import the copy
        command = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "-o", f"pythonpath={shlex.quote(str(src))}", *mutant.tests,
        ]
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return f"error: the tests ran past {TIMEOUT_S} s"
    if proc.returncode == 1:  # tests ran and some failed
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"error: pytest exit status {proc.returncode}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        verdict = run_mutant(mutant)
        bad += verdict != "killed"
        print(f"{verdict:9} {mutant.name}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
