"""Experiment drivers — one module per paper figure / table / case study.

Every artefact of the paper's evaluation section has a driver here that
builds the workload, runs it through the simulated deployment and
returns a result object whose ``table()`` method prints rows comparable
to the paper's.  The benchmark suite under ``benchmarks/`` and the
examples under ``examples/`` are thin wrappers over these drivers; see
DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
paper-vs-measured numbers.
"""

from repro.experiments.common import CorpusRunResult, run_corpus, format_table
from repro.experiments.fig3_ioi import Fig3Result, run_fig3
from repro.experiments.fig4_latency import (
    Fig4Result,
    Fig4ThroughputResult,
    run_fig4,
    run_fig4_gateway_throughput,
    CONFIGURATIONS,
)
from repro.experiments.policy_churn import (
    ChurnPathResult,
    PolicyChurnResult,
    run_policy_churn,
)
from repro.experiments.table_validation import ValidationResult, run_validation
from repro.experiments.case_studies import (
    CaseStudyResult,
    run_cloud_storage_case_study,
    run_facebook_case_study,
    run_flow_size_study,
)
from repro.experiments.gateway_throughput import (
    GatewayBenchResult,
    GatewayConfigResult,
    run_gateway_bench,
)
from repro.experiments.fleet import FleetBenchResult, run_fleet_bench
from repro.experiments.ops import OpsBenchResult, run_ops_bench
from repro.experiments.obs import (
    ObsBenchResult,
    ObsProfile,
    run_obs_bench,
    run_obs_profile,
)
from repro.experiments.benchmeta import bench_metadata, record_bench_metadata

__all__ = [
    "CorpusRunResult",
    "run_corpus",
    "format_table",
    "Fig3Result",
    "run_fig3",
    "Fig4Result",
    "Fig4ThroughputResult",
    "run_fig4",
    "run_fig4_gateway_throughput",
    "CONFIGURATIONS",
    "ChurnPathResult",
    "PolicyChurnResult",
    "run_policy_churn",
    "ValidationResult",
    "run_validation",
    "CaseStudyResult",
    "run_cloud_storage_case_study",
    "run_facebook_case_study",
    "run_flow_size_study",
    "GatewayBenchResult",
    "GatewayConfigResult",
    "run_gateway_bench",
    "FleetBenchResult",
    "run_fleet_bench",
    "OpsBenchResult",
    "run_ops_bench",
    "ObsBenchResult",
    "ObsProfile",
    "run_obs_bench",
    "run_obs_profile",
    "bench_metadata",
    "record_bench_metadata",
]
