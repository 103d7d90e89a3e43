"""Complexity accounting (Table I) and verification helpers."""

from repro.analysis.complexity import (HIGH, LOW, MEDIUM, TABLE1_ORDER,
                                       Table1Row, render_table1, table1_row)
from repro.analysis.costcheck import (Poly, check_overflow, crossval_algorithm,
                                      find_cost_bugs, prove_table1,
                                      run_costcheck)
from repro.analysis.table1 import TABLE1, Table1Sym, leading_traffic, table1_sym
from repro.analysis.numcheck import (error_bound_strings, find_numeric_bugs,
                                     run_numcheck, symbolic_depth,
                                     validate_bounds)
from repro.analysis.tolerances import (Tolerance, assert_sat_close,
                                       derived_tolerance, sat_close)
from repro.analysis.precision import (PrecisionRow, max_relative_error,
                                      precision_report, sat_float32,
                                      sat_kahan, ulps_needed)
from repro.analysis.fuzzing import (FuzzConfig, FuzzReport, fuzz,
                                    load_replay_config, run_one)
from repro.analysis.kernellint import (LintFinding, default_targets, lint_file,
                                       lint_paths, lint_source)
from repro.analysis.modelcheck import (CheckResult, LaunchCheck, PoolCheck,
                                       VIOLATION_KINDS, Violation, check,
                                       check_algorithm, check_corpus,
                                       check_model)
from repro.analysis.protomodel import (KernelProtocol, ProtocolModel,
                                       build_corpus_model, build_model,
                                       extract_kernel)
from repro.analysis.sanitizer import (PROTOCOL_RULES, RACE_RULES, Finding,
                                      SanitizeReport, SanitizeRun, Sanitizer,
                                      sanitize_algorithm, sanitize_all)
from repro.analysis.verify import CountCheck, check_counts, check_result
from repro.analysis.waves import (ParallelismProfile, lookback_profile,
                                  profile, render_profile, skss_profile,
                                  wavefront_profile)

__all__ = [
    "LOW", "MEDIUM", "HIGH", "TABLE1_ORDER", "Table1Row", "render_table1",
    "table1_row", "TABLE1", "Table1Sym", "table1_sym", "leading_traffic",
    "Poly", "run_costcheck", "prove_table1", "crossval_algorithm",
    "check_overflow", "find_cost_bugs",
    "run_numcheck", "symbolic_depth", "validate_bounds", "find_numeric_bugs",
    "error_bound_strings",
    "Tolerance", "derived_tolerance", "sat_close", "assert_sat_close",
    "CountCheck", "check_counts", "check_result",
    "PrecisionRow", "max_relative_error", "precision_report", "sat_float32",
    "sat_kahan", "ulps_needed",
    "FuzzConfig", "FuzzReport", "fuzz", "run_one", "load_replay_config",
    "Sanitizer", "Finding", "SanitizeRun", "SanitizeReport",
    "RACE_RULES", "PROTOCOL_RULES",
    "sanitize_algorithm", "sanitize_all",
    "LintFinding", "lint_source", "lint_file", "lint_paths", "default_targets",
    "KernelProtocol", "ProtocolModel", "build_model", "build_corpus_model",
    "extract_kernel",
    "CheckResult", "LaunchCheck", "PoolCheck", "Violation", "VIOLATION_KINDS",
    "check", "check_algorithm", "check_corpus", "check_model",
    "ParallelismProfile", "lookback_profile", "profile", "render_profile",
    "skss_profile", "wavefront_profile",
]
