import sys
from pathlib import Path

_HEXBENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_HEXBENCH.parent / "src"), str(_HEXBENCH)]
