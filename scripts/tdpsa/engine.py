"""Orchestration: scan a tree, run every rule, apply the baseline."""

from __future__ import annotations

from pathlib import Path

from .analysis import Analysis, run_analysis, render_lock_table
from .baseline import apply_baseline, load_baseline
from .concurrency import (run_blocking_rule, run_callback_rule,
                          run_cycle_rule, run_design_drift_rule,
                          run_exclusion_rule)
from .extract import extract_tree
from .findings import Report, fingerprint_findings
from .legacy import run_legacy_rules, run_test_rules

SOURCE_SUFFIXES = (".hpp", ".cpp", ".h", ".cc")


def collect_sources(root: Path) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    src = root / "src"
    if not src.is_dir():
        return out
    for path in sorted(src.rglob("*")):
        if path.suffix in SOURCE_SUFFIXES and path.is_file():
            rel = path.relative_to(root).as_posix()
            try:
                out.append((rel, path.read_text(errors="replace")))
            except OSError:
                continue
    return out


def collect_test_sources(root: Path) -> list[tuple[str, str]]:
    tests = root / "tests"
    if not tests.is_dir():
        return []
    return [(path.relative_to(root).as_posix(), path.read_text(errors="replace"))
            for path in sorted(tests.rglob("*.cpp")) if path.is_file()]


def analyze_tree(root: Path, use_baseline: bool = True
                 ) -> tuple[Report, Analysis]:
    files = collect_sources(root)
    report = Report()
    run_legacy_rules(files, report)
    run_test_rules(collect_test_sources(root), report)

    program = extract_tree(str(root), files)
    analysis = run_analysis(program)
    raw_lines = {rel: text.splitlines() for rel, text in files}
    run_blocking_rule(analysis, report, raw_lines)
    run_callback_rule(analysis, report, raw_lines)
    run_cycle_rule(analysis, report)
    run_exclusion_rule(analysis, report, raw_lines)

    design = root / "DESIGN.md"
    design_text = design.read_text() if design.exists() else None
    run_design_drift_rule(analysis, report, "DESIGN.md", design_text)

    report.enforce_budget()
    report.findings.sort(key=lambda f: (f.file, f.line, f.rule, f.message))
    fingerprint_findings(report.findings)
    if use_baseline:
        apply_baseline(report.findings, load_baseline(root))
    return report, analysis


def dump_lock_graph(root: Path) -> str:
    files = collect_sources(root)
    program = extract_tree(str(root), files)
    return render_lock_table(run_analysis(program))
