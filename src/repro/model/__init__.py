"""The MACS performance model — the paper's core contribution.

Public surface:

* :func:`analyze_kernel` / :func:`analyze_workload` /
  :class:`KernelAnalysis` — the full hierarchy in one call;
* :func:`ma_counts` / :func:`mac_counts` / :class:`OperationCounts` —
  workload models;
* :func:`ma_bound` / :func:`mac_bound` / :class:`BoundsRow`;
* :func:`macs_bound` / :func:`macs_f_bound` / :func:`macs_m_bound` /
  :class:`MacsBound`;
* :func:`measure_ax` / :class:`AXMeasurement` and the A/X program
  transformers;
* :func:`calibrate_all` / :func:`compare_with_table1` — Table 1
  regeneration;
* :func:`workload_hmean_mflops`, :func:`render_hierarchy`;
* :func:`predict_kernel` / :class:`StaticKernelPrediction` — the
  static serving tier (full MACS answers without simulation).
"""

from .advisor import Advice, AdviceTarget, advise, advise_report
from .ax import (
    AXMeasurement,
    access_only_program,
    execute_only_program,
    measure_ax,
)
from .bounds import BoundsRow, ma_bound, mac_bound
from .calibration import (
    CalibrationComparison,
    CalibrationRow,
    calibrate_all,
    calibrate_instruction,
    compare_with_table1,
)
from .counts import OperationCounts, ma_counts, mac_counts
from .dbound import MacsDBound, macs_d_bound
from .extension import ExtendedMacsBound, extended_macs_bound
from .hierarchy import (
    KernelAnalysis,
    analyze_kernel,
    analyze_workload,
    render_hierarchy,
    workload_hmean_mflops,
)
from .macs import (
    MacsBound,
    inner_loop_body,
    macs_bound,
    macs_f_bound,
    macs_m_bound,
)
from .statictier import (
    StaticKernelPrediction,
    known_initial_memory,
    predict_kernel,
)

__all__ = [
    "AXMeasurement",
    "Advice",
    "AdviceTarget",
    "BoundsRow",
    "CalibrationComparison",
    "CalibrationRow",
    "ExtendedMacsBound",
    "KernelAnalysis",
    "MacsBound",
    "MacsDBound",
    "OperationCounts",
    "StaticKernelPrediction",
    "access_only_program",
    "advise",
    "advise_report",
    "analyze_kernel",
    "analyze_workload",
    "calibrate_all",
    "calibrate_instruction",
    "compare_with_table1",
    "execute_only_program",
    "extended_macs_bound",
    "inner_loop_body",
    "known_initial_memory",
    "ma_bound",
    "ma_counts",
    "mac_bound",
    "mac_counts",
    "macs_bound",
    "macs_d_bound",
    "macs_f_bound",
    "macs_m_bound",
    "measure_ax",
    "predict_kernel",
    "render_hierarchy",
    "workload_hmean_mflops",
]
