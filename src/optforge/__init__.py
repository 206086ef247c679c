"""optforge: synthesize optimization problems, benchmark an optimizer
pool with hyperparameter grids, and turn the labelled corpus into an
instruction-pair dataset with sampling and contrastive machinery."""

from .bench import (KnowledgeEntry, benchmark_instance, benchmark_set,
                    load_knowledge, save_outcomes)
from .dataset import (InstructionPair, SamplingPlan, batch_contrastive_loss,
                      build_instruction_set, load_pairs, sampling_weights,
                      save_pairs, split_pairs)
from .metrics import (EvalOutcome, MetricsReport, RepairRecord,
                      compute_report, computational_overhead, error_rate,
                      format_table, optimization_performance, recovery_cost)
from .problems.instance import (ProblemInstance, evaluate_batch,
                                load_instances, save_instances)
from .problems.synthesis import synthesize_instance, synthesize_set
from .render.answers import emit_answer
from .render.prompts import (PromptDoc, render_constraints, render_objective,
                             render_prompt)
from .render.styles import WritingStyle
from .seeding import derive_seed, rng_for

__version__ = "0.1.0"

__all__ = [
    "KnowledgeEntry",
    "benchmark_instance",
    "benchmark_set",
    "load_knowledge",
    "save_outcomes",
    "InstructionPair",
    "SamplingPlan",
    "batch_contrastive_loss",
    "build_instruction_set",
    "load_pairs",
    "sampling_weights",
    "save_pairs",
    "split_pairs",
    "EvalOutcome",
    "MetricsReport",
    "RepairRecord",
    "compute_report",
    "computational_overhead",
    "error_rate",
    "format_table",
    "optimization_performance",
    "recovery_cost",
    "ProblemInstance",
    "evaluate_batch",
    "load_instances",
    "save_instances",
    "synthesize_instance",
    "synthesize_set",
    "PromptDoc",
    "WritingStyle",
    "emit_answer",
    "render_constraints",
    "render_objective",
    "render_prompt",
    "derive_seed",
    "rng_for",
    "__version__",
]
