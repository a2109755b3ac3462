#!/usr/bin/env python3
"""Mutation check of the fast paths' tests: every mutant of ``src/`` must fail the tests named for it.

    python3 tools/mutants.py

Each entry of ``MUTANTS`` is ``(file, old text, new text, test ids)``: a file
under ``src/tacsim``, a text that occurs in it exactly once, the text that
replaces it, and the pytest node ids that must catch the change.  All the
named tests must first pass, in one run, on an unmutated copy of ``src/``.
Then, one entry after another, ``src/`` is copied to a temporary directory,
the entry's replacement is applied and its tests run against the copy in one
pytest subprocess; they must fail.  An entry whose old text does not occur
exactly once is an error, so an entry that no longer applies is seen.  Exit 0
when every mutant is caught, 1 otherwise.  Standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600  # one pytest run; a run this long is reported as an error

READ_VERDICT = "tests/test_pipeline.py::test_csv_log_read_in_chunks_gives_the_whole_file_verdict"
BAD_ROW_LINE = "tests/test_pipeline.py::test_a_bad_csv_row_is_named_by_its_line_in_the_file"
TABLE_BYTES = "tests/test_studies.py::test_study_writer_bytes_equal_the_per_cell_writer"
STUDY_FILES = "tests/test_studies.py::test_study_files_equal_those_of_the_per_cell_writer"
EGG_GOLDEN = "tests/test_studies.py::test_study_outputs_match_golden_digests[closedloop-grasp-egg]"

MUTANTS = [
    # the CSV reader: the header checked only in the first chunk
    ("pipeline.py", "if header is None and body:", "if header is None and body and number == 1:",
     [READ_VERDICT]),
    # comments dropped only in the first chunk
    ("pipeline.py", 'body = [line for line in lines if not line.startswith("#")]',
     'body = [line for line in lines if number > 1 or not line.startswith("#")]', [READ_VERDICT]),
    # the blank-row count check weakened to an empty chunk
    ("pipeline.py", "if len(rows) != len(body):", "if not len(rows):", [READ_VERDICT]),
    # the missing-header check dropped
    ("pipeline.py", '    if header is None:\n        raise MalformedRecord("unexpected CSV header")\n', "",
     [READ_VERDICT]),
    # the line count off by one per chunk
    ("pipeline.py", "number += len(lines)", "number += len(lines) + 1", [BAD_ROW_LINE]),
    # the CSV writer: the row-end overwrite dropped, so rows end in ","
    ("pipeline.py", 'rows[:, -2:] = np.frombuffer(b"\\r\\n", np.uint8)', "pass", [STUDY_FILES]),
    # a chunk one row short
    ("pipeline.py", "index[lo : lo + CSV_CHUNK_ROWS]", "index[lo : lo + CSV_CHUNK_ROWS - 1]", [TABLE_BYTES]),
    # runs compared by value, which merges -0.0 into 0.0
    ("pipeline.py", "starts = (halves[1:] != halves[:-1]).any(axis=1)", "starts = bits[1:] != bits[:-1]",
     [TABLE_BYTES]),
    # a run index off by one: each run starts a row early
    ("pipeline.py", "index[bounds[1:-1]] = ", "index[bounds[1:-1] - 1] = ", [STUDY_FILES]),
    # the grasp trace's finger labels swapped
    ("experiments.py", '(("0", "1"), rows.finger[:, None])', '(("1", "0"), rows.finger[:, None])', [EGG_GOLDEN]),
]


def copy_src(tmp: Path, mutant=None) -> Path:
    """A fresh copy of ``src/`` in ``tmp`` with ``mutant``'s replacement applied; ValueError if it does not apply."""
    src = tmp / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        file, old, new, _ = mutant
        path = src / "tacsim" / file
        text = path.read_text()
        if text.count(old) != 1:
            raise ValueError(f"{old!r} occurs {text.count(old)} times in {file}, not once")
        path.write_text(text.replace(old, new))
    return src


def run(src: Path, argv) -> subprocess.CompletedProcess:
    """``python argv`` in the repo root with ``src`` first on the import path."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


# Where mypy_extensions is installed, the hypothesis plugin imports it while it
# reports a failed example, and the DeprecationWarning that import gives is an
# error under pyproject.toml's filterwarnings: pytest ends with INTERNALERROR
# (exit 3) in place of the failure.  That one warning is ignored.
QUIET_REPORT = ["-W", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"]


def run_tests(src: Path, tests) -> subprocess.CompletedProcess:
    return run(src, ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *QUIET_REPORT, *tests])


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(Path(tmp))
        where = run(src, ["-c", "import tacsim; print(tacsim.__file__)"]).stdout.strip()
        if not where.startswith(str(src)):
            print(f"tacsim imports from {where or 'nowhere'}, not from the copy in {src}")
            return 1
        tests = sorted({test for *_, ids in MUTANTS for test in ids})
        unmutated = run_tests(src, tests)
        if unmutated.returncode != 0:
            print(unmutated.stdout[-3000:] + unmutated.stderr[-3000:])
            print(f"the named tests do not pass unmutated (pytest exit {unmutated.returncode})")
            return 1
        print(f"unmutated: {len(tests)} test ids pass")
        failed = 0
        for mutant in MUTANTS:
            file, old, new, ids = mutant
            label = f"{file}: {old.strip().splitlines()[0]} -> {new.strip() or '(deleted)'}"
            try:
                proc = run_tests(copy_src(Path(tmp), mutant), ids)
            except (ValueError, subprocess.TimeoutExpired) as exc:
                verdict, detail = "ERROR", str(exc)
            else:
                # pytest exits 1 when a test failed; 0 is a survivor, and anything else an error
                code = proc.returncode
                verdict = {0: "SURVIVED", 1: "caught"}.get(code, f"ERROR (pytest exit {code})")
                detail = proc.stdout[-3000:] + proc.stderr[-3000:]
            print(f"{verdict:<8} {label}")
            if verdict != "caught":
                failed += 1
                print(detail)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
