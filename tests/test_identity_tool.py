import subprocess
import sys
from pathlib import Path

from mattn import attention, blocks

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"


def test_identity_tool_prints_every_toy_section():
    """Smoke test of the bit-identity report: each toy section prints and
    has content. No bits are checked; they depend on the BLAS build."""
    run = subprocess.run([sys.executable, str(TOOL), "--toy"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    sections: dict[str, list[str]] = {}
    for line in run.stdout.splitlines():
        if line.startswith("## "):
            sections[line[3:]] = []
        else:
            sections[list(sections)[-1]].append(line)
    assert list(sections) == [
        "train toy-train seed=0 steps=20", "train toy-train seed=1 steps=20",
        "init toy seed=3 with predict", "grads toy depth=2 clips=3",
        "mattn bench --set preset=toy --set T=4"]
    for title in list(sections)[:2]:
        lines = sections[title]
        assert sum(line.startswith("step ") for line in lines) == 20
        assert lines[-4].startswith("state sha256 ")
        assert lines[-3].startswith("ema sha256 ")
        # the step's Vars and its counted peak, from one counted step
        assert int(lines[-2].removeprefix("graph nodes per step ")) > 0
        assert int(lines[-1].removeprefix("peak live bytes per step ")) > 0
    init = sections["init toy seed=3 with predict"]
    combos = (len(blocks.TEMPORAL_VARIANTS) * len(blocks.FUSION_VARIANTS)
              * len(attention.U_NORM_MODES))
    assert len(init) == combos and all(" predict " in line for line in init)
    # each line ends with the Vars one forward pass of its model builds
    assert all(int(line.split(" nodes ")[1]) > 0 for line in init)
    grads = sections["grads toy depth=2 clips=3"]
    assert grads[0].startswith("loss 0x")
    assert sum(" grads " in line for line in grads) == combos
    bench = sections["mattn bench --set preset=toy --set T=4"]
    assert "wall_ms" not in bench[0] and bench[-1] == "exit 0"
