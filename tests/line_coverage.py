"""The statement lines of src/t2algebra, the first lines of statements that compile to
code, that never run, by module, with the definitions that hold them. Code run only in a
child process is not seen. Usage: python3 tests/line_coverage.py --tests | --workloads"""

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def statement_lines(path: Path) -> dict[int, str]:
    source = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    held, codes = {}, [compile(source, str(path), "exec")]
    for code in codes:  # outer code first, so the innermost definition holds a line
        name = code.co_qualname.split(".<locals>.<")[0]  # a comprehension's is its holder's
        held.update((line, name) for _, _, line in code.co_lines() if line in starts)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return held


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--tests", action="store_true", help="run pytest tests in process")
    what.add_argument("--workloads", action="store_true", help="one job each, seed 7321")
    tests = parser.parse_args().tests
    ran = {str(path): set() for path in sorted((ROOT / "src" / "t2algebra").glob("*.py"))}

    def lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.settrace(lambda frame, event, arg: lines if frame.f_code.co_filename in ran else None)
    if tests:
        __import__("pytest").main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    else:
        workloads = __import__("workloads")
        for workload in workloads.WORKLOADS.values():
            job = workload(7321, "full")
            workloads.clear_memos()
            job.run()
    sys.settrace(None)
    unrun = total = 0
    for name, hit in ran.items():
        held = statement_lines(Path(name))
        missed = sorted(set(held) - hit)
        unrun, total = unrun + len(missed), total + len(held)
        if missed:
            print(f"{Path(name).name}: {len(missed)} of {len(held)}: {missed}")
            print(f"  in {', '.join(sorted({held[n] for n in missed}))}")
    print(f"{unrun} of {total} statement lines unrun")


if __name__ == "__main__":
    main()
