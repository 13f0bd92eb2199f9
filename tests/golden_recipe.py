"""Fixed recipes that produce the golden export files under tests/data/.

The acceptance suite re-runs these into a temporary directory and requires
byte equality with the committed files. Regenerate the goldens by running
this module directly after an intentional format change.
"""

from pathlib import Path

from ttexplore import load_builtin_world
from ttexplore.orchestrator import RunConfig, run_mode
from ttexplore.pipeline import PipelineConfig, export_grpo, export_sft, forge
from ttexplore.policies import scripted

DATA_DIR = Path(__file__).parent / "data"


def build_grpo(path: Path) -> None:
    world = load_builtin_world("minihouse2")
    result = forge(world, [world.tasks["minihouse-2"]],
                   strong=scripted("actor", "oracle-actor"),
                   weak=scripted("actor", "wanderer-actor"),
                   thinker=scripted("thinker", "noisy-thinker"),
                   actor_frozen=scripted("actor", "obedient-actor"),
                   cfg=PipelineConfig(), seeds=[0])
    export_grpo(result.groups, path)


def build_sft(path: Path) -> None:
    chunks = []
    for name, task_id in [("minihouse1", "minihouse-1"),
                          ("minihouse2", "minihouse-2"),
                          ("keymaze1", "keymaze-1")]:
        world = load_builtin_world(name)
        task = world.tasks[task_id]
        traj = run_mode(world, scripted("actor", "greedy-actor"), task,
                        RunConfig(mode="ttexplore"),
                        scripted("thinker", "oracle-thinker"))
        assert traj.final.success
        part = path.with_suffix(".part")
        export_sft(world, world.tasks, [traj], part)
        chunks.append(part.read_bytes())
        part.unlink()
    path.write_bytes(b"".join(chunks))


if __name__ == "__main__":
    DATA_DIR.mkdir(exist_ok=True)
    build_grpo(DATA_DIR / "grpo_golden.jsonl")
    build_sft(DATA_DIR / "sft_golden.jsonl")
    print("goldens written to", DATA_DIR)
