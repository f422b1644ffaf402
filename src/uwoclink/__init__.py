"""Deep-sea underwater wireless optical link toolkit.

Channel losses and fading, the concatenated BCH codec, OOK/4-PPM modems,
the PMT+LC gain-control loop, an end-to-end seeded link simulator, and a
link-budget range planner, with presets for the deployed 30 m duplex pair.
"""

from .config import load_preset
from .engine import inject_errors_run, run_scenario
from .fec import BchCodeSpec, ConcatCodecSpec
from .planner import back_solve_k, max_distance_m

__version__ = "0.1.0"
