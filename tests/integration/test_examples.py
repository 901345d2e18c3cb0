"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; these tests keep them from
rotting.  Each runs as a subprocess with the repository's interpreter.
"""

import os
import pathlib
import subprocess
import sys

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def run_example(name: str, *args: str, env=None) \
        -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True, text=True, timeout=300, env=env,
    )


class TestExamplesRun:
    def test_all_examples_discovered(self):
        assert set(ALL_EXAMPLES) == {
            "quickstart.py",
            "design_space_exploration.py",
            "crosstalk_corruption_demo.py",
            "spec_workload_sim.py",
            "parallel_eval_demo.py",
            "dota_accelerator_study.py",
            "functional_memory_demo.py",
            "reliability_study.py",
            "sweep_resume_demo.py",
            "server_smoke.py",
            "fabric_smoke.py",
            "sanitize_smoke.py",
        }

    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "COMET-4b" in result.stdout
        assert "reset energies" in result.stdout

    def test_design_space_exploration(self):
        result = run_example("design_space_exploration.py")
        assert result.returncode == 0, result.stderr
        assert "selected: GST" in result.stdout
        assert "b=4" in result.stdout

    def test_crosstalk_corruption_demo(self):
        result = run_example("crosstalk_corruption_demo.py")
        assert result.returncode == 0, result.stderr
        assert "Damage" in result.stdout

    def test_spec_workload_sim_small(self):
        result = run_example("spec_workload_sim.py", "1500")
        assert result.returncode == 0, result.stderr
        assert "COMET vs COSMOS" in result.stdout

    def test_parallel_eval_demo_small(self):
        result = run_example("parallel_eval_demo.py", "1200", "2")
        assert result.returncode == 0, result.stderr
        assert "identical results: True" in result.stdout
        assert "checkpoint" in result.stdout

    def test_dota_accelerator_study(self):
        result = run_example("dota_accelerator_study.py")
        assert result.returncode == 0, result.stderr
        assert "DeiT-B" in result.stdout

    def test_functional_memory_demo(self):
        result = run_example("functional_memory_demo.py")
        assert result.returncode == 0, result.stderr
        assert "Cell decision errors: 0" in result.stdout

    def test_reliability_study(self):
        result = run_example("reliability_study.py")
        assert result.returncode == 0, result.stderr
        assert "disturb-free: True" in result.stdout

    def test_sweep_resume_demo_small(self):
        result = run_example("sweep_resume_demo.py", "800")
        assert result.returncode == 0, result.stderr
        assert "18 cells" in result.stdout
        assert "warm run : 0 computed, 18 cached" in result.stdout
        assert "architecture,workload" in result.stdout

    def test_server_smoke(self):
        result = run_example("server_smoke.py")
        assert result.returncode == 0, result.stderr
        assert "hit served without recomputation" in result.stdout
        assert "bit-identical" in result.stdout
        assert "clean shutdown" in result.stdout

    def test_sanitize_smoke(self):
        # The example exists to load the instrumented twin; a suite run
        # with the compiled loop switched off (REPRO_FASTLOOP=0) must not
        # pass that switch on to it.
        env = {key: value for key, value in os.environ.items()
               if key != "REPRO_FASTLOOP"}
        result = run_example("sanitize_smoke.py", env=env)
        assert result.returncode == 0, result.stderr
        # Unsupported toolchains skip legs; supported ones must pass.
        assert ("all legs passed" in result.stdout
                or "SKIP" in result.stdout), result.stdout

    def test_fabric_smoke(self):
        result = run_example("fabric_smoke.py")
        assert result.returncode == 0, result.stderr
        assert "fabric results bit-identical to serial run_sweep" \
            in result.stdout
        assert "stores merged without conflicts" in result.stdout
        assert "merged store warm no-compute" in result.stdout
        assert "clean shutdown" in result.stdout
