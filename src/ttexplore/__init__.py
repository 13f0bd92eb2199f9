"""Test-time exploration agents over deterministic text worlds.

Public surface: the world engine, prompt construction and parsing, policy
backends, episode runners with a persistent run store, exploration metrics,
and the thinker training-data pipeline.
"""

from .world import (
    SENTINEL,
    Observation,
    TaskSpec,
    TextWorld,
    WorldState,
    WorldValidationError,
    load_builtin_world,
    load_world,
    parse_action,
    world_from_dict,
)
from .prompts import (
    ActorOutput,
    ContractViolation,
    DeepThought,
    HistoryView,
    ParseError,
    parse_actor_output,
    parse_prompt,
    parse_thinker_output,
    render_actor_prompt,
    render_thinker_prompt,
)
from .policies import (
    PolicyHandle,
    RemoteBackend,
    ScriptedBackend,
    complete,
    scripted,
)
from .metrics import (
    ExplorationMetrics,
    SummaryTable,
    aggregate,
    compute_metrics,
    diversity,
    top_k_repetition,
)
from .orchestrator import (
    EpisodeResult,
    Final,
    RunConfig,
    StepRecord,
    Trajectory,
    run_batch,
    run_mode,
    select_best,
)
from .pipeline import (
    PipelineConfig,
    RolloutGroup,
    SubTask,
    classify_difficulty,
    continuation_reward,
    divide_subtasks,
    export_grpo,
    export_sft,
    filter_subtasks,
    forge,
)

__version__ = "0.1.0"

__all__ = [
    "SENTINEL", "Observation", "TaskSpec", "TextWorld", "WorldState",
    "WorldValidationError", "load_builtin_world", "load_world",
    "parse_action", "world_from_dict",
    "ActorOutput", "ContractViolation", "DeepThought", "HistoryView",
    "ParseError", "parse_actor_output", "parse_prompt", "parse_thinker_output",
    "render_actor_prompt", "render_thinker_prompt",
    "PolicyHandle", "RemoteBackend", "ScriptedBackend",
    "complete", "scripted",
    "ExplorationMetrics", "SummaryTable", "aggregate", "compute_metrics",
    "diversity", "top_k_repetition",
    "EpisodeResult", "Final", "RunConfig", "StepRecord", "Trajectory",
    "run_batch", "run_mode", "select_best",
    "PipelineConfig", "RolloutGroup", "SubTask", "classify_difficulty",
    "continuation_reward", "divide_subtasks", "export_grpo", "export_sft",
    "filter_subtasks", "forge",
    "__version__",
]
